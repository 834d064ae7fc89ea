import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from rbsdelab import solver
from rbsdelab.barriers import BarrierSet, effective_barriers
from rbsdelab.drivers import Driver, GrowthBounds
from rbsdelab.lattice import (
    IncreasingProcess,
    Lattice,
    TimeGrid,
    expectation_level,
)
from rbsdelab.oracle import quadratic_closed_form
from rbsdelab.solver import (
    ImplicitStepDivergence,
    NonFiniteDriver,
    SkorokhodReport,
    budget_defect,
    comparison_check,
    solve_rbsde,
)


@pytest.fixture
def lat():
    return Lattice(TimeGrid(1.0, 6))


def free_barriers(lattice, xi):
    return BarrierSet.build(lattice, xi)


def band_barriers(lattice, xi, width):
    # feasible two-sided band around the payoff curve, shrinking to xi
    def payoff(t, b):
        return np.sin(2.0 * b) + 0.1 * t

    lo = [
        payoff(lattice.times[i], lattice.brownian(i))
        - width * (1.0 - lattice.times[i] / lattice.grid.horizon)
        for i in range(lattice.steps)
    ] + [xi]
    hi = [
        payoff(lattice.times[i], lattice.brownian(i))
        + width * (1.0 - lattice.times[i] / lattice.grid.horizon)
        for i in range(lattice.steps)
    ] + [xi]
    from rbsdelab.lattice import AdaptedProcess

    return BarrierSet.build(
        lattice,
        xi,
        L=AdaptedProcess(lattice, lo),
        U=AdaptedProcess(lattice, hi),
    )


def implicit_step(E, f, dt, g=None, dA=None):
    """One node's implicit step ``y = E + f(j, y, 0) dt + g(j, y, y) dA``
    at level ``j = -1``, which the errors name."""
    if dA is not None:
        dA = np.array([dA])
    y = solver._implicit_core(
        np.array([E]), np.zeros(1), dt, -1, f, g, dA, None
    )
    return float(y[0])


def test_implicit_step_linear_root():
    drv = Driver.linear(0.5, 0.0, 0.3)
    y = implicit_step(2.0, drv.f, 0.25)
    # y = E + (a y + c) dt  =>  y = (E + c dt) / (1 - a dt)
    assert abs(y - (2.0 + 0.3 * 0.25) / (1.0 - 0.5 * 0.25)) < 1e-10


def test_implicit_step_clock_rate():
    y = implicit_step(
        1.0,
        lambda j, y, z: np.zeros_like(y),
        0.25,
        g=lambda j, y_left, y: np.full_like(y, 2.0),
        dA=0.5,
    )
    assert y == 2.0


def test_implicit_step_divergence():
    # y = 1 + y**2 has no real root; the bracket search must give up
    with pytest.raises(ImplicitStepDivergence):
        implicit_step(1.0, lambda j, y, z: y * y, 1.0)


def counting(f):
    """``f`` with a count of its calls in ``.calls``."""

    def counted(j, y, z):
        counted.calls += 1
        return f(j, y, z)

    counted.calls = 0
    return counted


def nan_on(lo, hi):
    """Rate ``0.5 y``, NaN for ``lo < y < hi``."""
    return lambda j, y, z: np.where((y > lo) & (y < hi), np.nan, 0.5 * y)


@pytest.mark.parametrize(
    "band", [(0.526, 0.5265), (0.5264, np.inf)], ids=["at_root", "above_root"]
)
def test_nan_inside_the_search_raises(band):
    # root 0.5/0.95 = 0.52632: a band around it, or covering everything
    # above it, lies on the path of any search for it
    with pytest.raises(NonFiniteDriver) as info:
        implicit_step(0.5, nan_on(*band), 0.1)
    assert (info.value.level, info.value.node) == (-1, 0)


def test_nan_band_beside_the_root_is_never_read_as_a_sign():
    # a NaN on (0.51, 0.515) taken for a sign moves a bracketing search
    # onto a wrong root (0.52550 for bisection of [-0.5, 1.525])
    root = 0.5 / 0.95
    try:
        y = implicit_step(0.5, nan_on(0.51, 0.515), 0.1)
    except NonFiniteDriver:
        return
    assert abs(y - root) <= 4.0 * np.spacing(root)


@pytest.mark.parametrize("E", [1.0, 1e4, 1e6, 1e9, 0.0])
def test_implicit_step_reaches_float_resolution_at_any_scale(E):
    # an absolute stopping width falls below float spacing once
    # |y| ~ 1e4, so only a width relative to the scale is reachable
    f = counting(lambda j, y, z: 0.5 * y)
    y = implicit_step(E, f, 0.1)
    root = E / 0.95
    assert abs(y - root) <= 4.0 * np.spacing(root)
    assert f.calls <= 12


def test_step_cap_raises_instead_of_returning_an_open_bracket(monkeypatch):
    monkeypatch.setattr(solver, "_SECANT_MAX", 1)
    with pytest.raises(ImplicitStepDivergence) as info:
        implicit_step(1.0, Driver.linear(0.5, 0.0, 0.0).f, 0.1)
    assert (info.value.level, info.value.node) == (-1, 0)
    assert 0.0 < info.value.span < 1.0
    assert "after 1 steps" in str(info.value)


def test_drift_below_half_an_ulp_of_base_is_bracketed():
    # at node 0, F(base) rounds away in base + F(base), so the two known
    # points coincide; node 1 keeps the early exact-root return from firing
    drv = Driver.linear(-1.0, 0.0, 1.0)
    base = np.array([1.0 + 2.0**-52, 2.0])
    dt = 0.01
    y = solver._implicit_core(
        base, np.zeros(2), dt, 0, drv.f, None, None, None
    )
    for b, got in zip(base, y):
        root = (Fraction(b) + Fraction(dt)) / (1 + Fraction(dt))
        assert abs(Fraction(got) - root) <= np.spacing(float(root))


def test_finite_values_whose_sum_overflows_are_not_flagged():
    # the finite check sums F; here the sum overflows while every entry
    # is finite, and F does not depend on y, so the step exits exactly
    f = counting(lambda j, y, z: np.full_like(y, 1.5e308))
    y = solver._implicit_core(
        np.zeros(2), np.zeros(2), 1.0, 0, f, None, None, None
    )
    assert np.array_equal(y, [1.5e308, 1.5e308])
    assert f.calls == 2


def test_infinities_of_both_signs_name_the_first_node():
    # their sum is NaN, so the per-node scan names the node
    def f(j, y, z):
        return np.array([0.0, np.inf, -np.inf])

    with pytest.raises(NonFiniteDriver) as info:
        solver._implicit_core(
            np.zeros(3), np.zeros(3), 1.0, 4, f, None, None, None
        )
    assert (info.value.level, info.value.node) == (4, 1)


def test_one_level_expands_up_and_down_and_not_at_all():
    # rate A y + C at dt = 0.01: node 0's root 2 lies above the known
    # pair (1, 1.5), node 1's root -2 below (-1.5, -1), node 2's root
    # 1.003 / 1.5 between 0.503 and 1
    dt = 0.01
    A = np.array([50.0, 50.0, -50.0])
    C = np.array([0.0, 0.0, 0.3])
    E = np.array([1.0, -1.0, 1.0])
    f = counting(lambda j, y, z: A * y + C)
    y = solver._implicit_core(E, np.zeros(3), dt, 0, f, None, None, None)
    for e, a, c, got in zip(E, A, C, y):
        qdt = Fraction(dt)
        root = (Fraction(e) + Fraction(c) * qdt) / (1 - Fraction(a) * qdt)
        # the bound of test_root_finder_property
        width = 4.0 * abs(np.spacing(abs(e) + abs(float(root))))
        assert abs(Fraction(got) - root) <= width, (e, got, float(root))
    # F at base and at base + F(base), one expansion probe, two secant
    # probes and the polished value's residual
    assert f.calls == 6


def spike(j, fill, value):
    """``fill`` at every node of level ``j``, except ``value`` at node 1
    of level 2."""
    out = np.full(j + 1, fill)
    if j == 2:
        out[1] = value
    return out


@pytest.mark.parametrize(
    "driver",
    [
        Driver.zero(source=lambda j: spike(j, 0.1, np.nan)),
        Driver.zero(source=lambda j: spike(j, 0.1, np.inf)),
        dataclasses.replace(
            Driver.quadratic(0.5), quad=lambda j: (spike(j, 0.5, np.nan), 0.0)
        ),
    ],
    ids=["nan_source", "inf_source", "nan_quad"],
)
def test_non_finite_step_inputs_raise_at_their_step(driver):
    lat = Lattice(TimeGrid(1.0, 4))
    xi = np.sin(2.0 * lat.brownian(lat.steps))
    with pytest.raises(NonFiniteDriver) as info:
        solve_rbsde(lat, driver, free_barriers(lat, xi))
    assert (info.value.level, info.value.node) == (2, 1)


def _affine_case(rng, dt):
    a = rng.uniform(-0.5, 0.5) / dt
    c = rng.normal()
    E = rng.normal() * 10.0 ** rng.uniform(-3.0, 6.0)

    def rate(j, y, z):
        return a * y + c

    qE, qc, qa, qdt = map(Fraction, (E, c, a, dt))
    return E, rate, (qE + qc * qdt) / (1 - qa * qdt)


def _kinked_case(rng, dt):
    # penalty n * mass * (l - y)^+ (or its upper mirror) on a constant
    # rate, as in the penalized ladder, n up to 2**16
    k = 2.0 ** rng.integers(0, 17) * rng.uniform(0.5, 2.0) / dt
    c = rng.normal()
    E = rng.normal() * 10.0 ** rng.uniform(-3.0, 6.0)
    kink = E + rng.normal() * max(1.0, abs(E))
    side = 1.0 if rng.uniform() < 0.5 else -1.0

    def rate(j, y, z):
        return c + side * k * np.maximum(side * (kink - y), 0.0)

    free = Fraction(E) + Fraction(c) * Fraction(dt)
    if side * (Fraction(kink) - free) <= 0:
        root = free  # penalty inactive at the root
    else:
        kdt = Fraction(k) * Fraction(dt)
        root = (free + kdt * Fraction(kink)) / (1 + kdt)
    return E, rate, root


@pytest.mark.parametrize("case", [_affine_case, _kinked_case])
def test_root_finder_property(case):
    """Closed-form roots to 4 ulps of the scale ``|E| + |root|``, in no
    more calls than bisection of the former bracket needs to reach
    that width."""
    rng = np.random.default_rng(2020)
    dt = 0.01
    for _ in range(200):
        E, rate, root = case(rng, dt)
        f = counting(rate)
        y = implicit_step(E, f, dt)
        scale = abs(E) + abs(float(root))
        width = 4.0 * np.spacing(scale)
        assert abs(Fraction(y) - root) <= width, (E, y, float(root))
        y0 = E + float(rate(-1, np.array([E]), 0.0)[0]) * dt
        bracket = abs(y0 - E) + 2.0
        halvings = max(0, math.ceil(math.log2(bracket / width)))
        assert f.calls <= 2 + halvings, (E, f.calls, halvings)


@pytest.mark.parametrize("a, calls", [(-0.4, 5), (0.4, 6)])
def test_linear_solve_generator_calls_per_level(a, calls):
    # F at base and at base + F(base), two secant probes and the
    # polished value's residual, the polish reusing F at the last probe;
    # for a > 0 the root lies beyond base + F(base), one probe more
    lat = Lattice(TimeGrid(1.0, 50))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    drv = Driver.linear(a, -0.5, 0.3)
    f = counting(drv.f)
    solve_rbsde(lat, dataclasses.replace(drv, f=f), band_barriers(lat, xi, 0.3))
    assert f.calls <= calls * lat.steps


@pytest.mark.parametrize("steps", [10, 2], ids=["finer", "coarser"])
def test_growth_bounds_on_another_grid_raise(steps):
    # on the 10-step grid the clock's atom at t = 0.3 sits in the slot
    # that a 5-step solve reads as t = 0.6; a 2-step clock has too few
    lat = Lattice(TimeGrid(1.0, 5))
    other = Lattice(TimeGrid(1.0, steps))
    A = IncreasingProcess.from_time_atoms(other, {max(1, steps * 3 // 10): 1.0})
    drv = Driver.zero(
        g=lambda j, y_left, y: np.ones_like(y),
        bounds=GrowthBounds.constants(other, eta=0.0, C=0.0, A=A),
    )
    xi = np.zeros(lat.steps + 1)
    with pytest.raises(ValueError, match="growth bounds live on a different grid"):
        solve_rbsde(lat, drv, free_barriers(lat, xi))


def test_non_finite_driver_names_the_node(lat):
    def f(j, y, z):
        out = np.zeros_like(y)
        if y.size == 3:
            out[1] = np.nan
        return out

    xi = np.zeros(lat.steps + 1)
    with pytest.raises(NonFiniteDriver) as info:
        solve_rbsde(lat, Driver(f=f), free_barriers(lat, xi))
    assert info.value.level == 2
    assert info.value.node == 1


def test_zero_driver_solve_is_the_plain_expectation(lat):
    xi = np.cos(3.0 * lat.brownian(lat.steps))
    sol = solve_rbsde(lat, Driver.zero(), free_barriers(lat, xi))
    for i in reversed(range(lat.steps)):
        assert np.array_equal(sol.Y.level(i), expectation_level(sol.Y.level(i + 1)))
    from math import comb

    weights = np.array([comb(lat.steps, j) for j in range(lat.steps + 1)])
    direct = float(weights @ xi) / 2.0**lat.steps
    # different summation orders; intermediates are order one
    assert abs(sol.value() - direct) < 1e-14
    assert sol.residuals == SkorokhodReport(0.0, 0.0, 0.0)
    for j in range(lat.steps):
        assert not sol.Kplus.atom(j).any()
        assert not sol.Kminus.atom(j).any()
        assert not sol.drift.atom(j).any()


def test_linear_value_driver_compounds(lat):
    a = 0.8
    xi = np.ones(lat.steps + 1)
    sol = solve_rbsde(lat, Driver.linear(a, 0.0, 0.0), free_barriers(lat, xi))
    expected = (1.0 - a * lat.dt) ** (-lat.steps)
    assert abs(sol.value() - expected) < 1e-10


def test_slope_driver_shifts_by_rate_times_horizon(lat):
    b = 0.7
    xi = lat.brownian(lat.steps)
    sol = solve_rbsde(lat, Driver.linear(0.0, b, 0.0), free_barriers(lat, xi))
    # the slope stays 1 at every node, so each step adds exactly b*dt
    assert abs(sol.value() - b * lat.grid.horizon) < 1e-12
    for j in range(lat.steps):
        assert np.allclose(sol.Z.atom(j), 1.0, atol=1e-12)


def test_source_increments_accumulate(lat):
    drv = Driver(
        f=lambda j, y, z: np.zeros_like(y),
        source=lambda j: np.full(j + 1, 0.1),
    )
    xi = np.zeros(lat.steps + 1)
    sol = solve_rbsde(lat, drv, free_barriers(lat, xi))
    assert abs(sol.value() - 0.1 * lat.steps) < 1e-12


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_quadratic_driver_matches_its_closed_form(c):
    lat = Lattice(TimeGrid(1.0, 8))
    xi = np.tanh(lat.brownian(lat.steps))
    sol = solve_rbsde(lat, Driver.quadratic(c), free_barriers(lat, xi))
    assert abs(sol.value() - quadratic_closed_form(c, xi)) < 1e-12


def test_lower_obstacle_flat_off_is_exact(lat):
    # optional-stopping instance: zero driver, floor at the payoff
    xi = np.maximum(1.0 - np.exp(lat.brownian(lat.steps)), 0.0)
    floors = [
        np.maximum(1.0 - np.exp(lat.brownian(i)), 0.0)
        for i in range(lat.steps)
    ] + [xi]
    from rbsdelab.lattice import AdaptedProcess

    bars = BarrierSet.build(
        lat, xi, L=AdaptedProcess(lat, floors)
    )
    sol = solve_rbsde(lat, Driver.zero(), bars)
    assert any(sol.Kplus.atom(j).any() for j in range(lat.steps))
    assert sol.residuals.flat_off_plus == 0.0
    assert sol.residuals.singularity_defect == 0.0
    for j in range(lat.steps):
        low, _ = effective_barriers(bars, j)
        dkp = sol.Kplus.atom(j)
        y = sol.Y.level(j)
        assert np.all((dkp == 0.0) | (y == low))


def test_two_sided_clamp_keeps_increments_apart(lat):
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    bars = band_barriers(lat, xi, width=0.05)
    sol = solve_rbsde(lat, Driver.linear(0.0, 0.0, 1.5), bars)
    hit_low = any(sol.Kplus.atom(j).any() for j in range(lat.steps))
    hit_high = any(sol.Kminus.atom(j).any() for j in range(lat.steps))
    assert hit_low or hit_high
    assert sol.residuals.singularity_defect == 0.0
    for j in range(lat.steps):
        assert np.all(sol.Kplus.atom(j) * sol.Kminus.atom(j) == 0.0)
        low, high = effective_barriers(bars, j)
        assert np.all(sol.Y.level(j) >= np.where(np.isfinite(low), low, -np.inf))
        assert np.all(sol.Y.level(j) <= np.where(np.isfinite(high), high, np.inf))


def test_predictable_atom_clamps_the_pre_jump_value(lat):
    xi = np.zeros(lat.steps + 1)
    delta = IncreasingProcess.from_time_atoms(lat, {3: 1.0})
    from rbsdelab.lattice import PredictableProcess

    floor = PredictableProcess.from_time_values(lat, {3: 0.75})
    bars = BarrierSet.build(lat, xi, l=floor, delta=delta)
    sol = solve_rbsde(lat, Driver.zero(), bars)
    # the floor binds the value one level before the charged time and
    # the martingale carries it back to the root; after the atom the
    # solution drops straight back to the plain expectation
    assert np.all(sol.Y.level(2) == 0.75)
    assert np.all(sol.Y.level(3) == 0.0)
    assert sol.value() == 0.75
    assert np.all(sol.Kplus.atom(2) == 0.75)


def test_comparison_orders_nested_drivers(lat):
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    bars = band_barriers(lat, xi, width=0.4)
    drv_small = Driver.linear(0.3, 0.5, -0.1)
    drv_big = Driver.linear(0.3, 0.5, 0.2)
    sol_small = solve_rbsde(lat, drv_small, bars)
    sol_big = solve_rbsde(lat, drv_big, bars)
    report = comparison_check(sol_big, sol_small, drv_big, drv_small, bars, bars)
    assert report.hypotheses_ok
    assert report.passed
    assert report.max_order_violation == 0.0

    # swapping the roles must be caught by both audits
    swapped = comparison_check(sol_small, sol_big, drv_small, drv_big, bars, bars)
    assert not swapped.drift_domination_ok
    assert not swapped.ordered
    assert swapped.max_order_violation > 0.0


def test_budget_defect_is_rounding_sized():
    lat = Lattice(TimeGrid(1.0, 8))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    bars = band_barriers(lat, xi, width=0.05)
    sol = solve_rbsde(lat, Driver.linear(0.4, -0.3, 0.8), bars)
    assert budget_defect(sol) < 1e-10


def test_solution_repr_mentions_the_root_value(lat):
    xi = np.ones(lat.steps + 1)
    sol = solve_rbsde(lat, Driver.zero(), free_barriers(lat, xi))
    assert sol.value() == 1.0
    assert "1.0" in repr(sol)
