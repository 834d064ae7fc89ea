import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from rbsdelab import solver
from rbsdelab.barriers import BarrierSet
from rbsdelab.drivers import Driver, GrowthBounds
from rbsdelab.lattice import (
    IncreasingProcess,
    Lattice,
    TimeGrid,
    all_paths,
    expectation_level,
    level_offset,
    path_nodes,
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


def implicit_step(E, f, dt, g=None, dA=None, penalty=None, slope=None):
    """One node's implicit step ``y = E + f(j, y, 0) dt + g(j, y, y) dA``
    at level ``j = -1``, which the errors name; with a ``penalty``, plus
    ``penalty(j, y)`` at level ``j = 0``, where its packed data start.
    ``slope`` is the declared slope of ``f``, if any."""
    if dA is not None:
        dA = np.array([dA])
    level = -1 if penalty is None else 0
    y = solver._implicit_core(
        np.array([E]), np.zeros(1), dt, level, f, g, dA, penalty, slope
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
        implicit_step(1.0, lambda j, y, z: 0.5 * y, 0.1)
    assert (info.value.level, info.value.node) == (-1, 0)
    assert 0.0 < info.value.span < 1.0
    assert "after 1 steps at (level -1, node 0)" in str(info.value)


def test_step_cap_of_a_solve_names_its_first_level(lat, monkeypatch):
    # a rate that declares no slope takes the root finder at every level
    monkeypatch.setattr(solver, "_SECANT_MAX", 1)
    xi = np.sin(2.0 * lat.brownian(lat.steps))
    with pytest.raises(ImplicitStepDivergence, match="after 1 steps at") as info:
        solve_rbsde(lat, Driver(f=lambda j, y, z: 0.5 * y), free_barriers(lat, xi))
    assert (info.value.level, info.value.node) == (lat.steps - 1, 0)


@pytest.mark.parametrize("a", [6.0, 8.0, np.nan])
def test_a_slope_at_or_past_one_over_dt_is_named_before_the_first_step(lat, a):
    # dt = 1/6: 1 - a dt is 0, negative or NaN, and no root is reachable
    xi = np.zeros(lat.steps + 1)
    calls = counting(lambda j, y, z: a * y)
    drv = Driver(f=calls, slope=a)
    with pytest.raises(ImplicitStepDivergence, match=r"1 - slope\*dt is") as info:
        solve_rbsde(lat, drv, free_barriers(lat, xi))
    assert (info.value.level, info.value.node) == (lat.steps - 1, 0)
    assert "in row 0 at (level 5, node 0)" in str(info.value)
    assert calls.calls == 0


def test_a_bad_slope_names_its_row():
    # rows at dt 0.1, 0.2 and 0.34: only the last has a dt >= 1
    lats = row_lattices([0.5, 1.0, 1.7])
    sets = [free_barriers(r, np.zeros(6)) for r in lats]
    xi, low, high = (a[:, None] for a in solver._stacked_sets(sets)[1:])
    drv = Driver.linear(np.array([1.0, 3.0, 3.0])[:, None, None], 0.0, 0.0)
    with pytest.raises(ImplicitStepDivergence, match="in row 2 at") as info:
        solver._backward(lats, drv, xi, low, high, (3, 1))
    assert info.value.level == 4


def test_drift_below_half_an_ulp_of_base_is_bracketed():
    # at node 0, F(base) rounds away in base + F(base), so the two known
    # points coincide and F takes one value at both: node 0 takes the
    # exact exit, within the bound, while node 1 is bracketed
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


def bitwise(a, b):
    """Equal arrays, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def mixed_nodes(rng, count, dt):
    """Per-node steps, each at random an affine rate, a ladder-like
    penalty ``k (kink - y)^+`` (or its mirror, weight up to ``2**16``)
    on a constant rate, or a constant rate, which takes the exact exit.
    Returns the bases and the coefficient columns of the rate."""
    kind = rng.integers(0, 3, count)
    base = rng.normal(size=count) * 10.0 ** rng.uniform(-3.0, 6.0, count)
    a = np.where(kind == 0, rng.uniform(-0.5, 0.5, count) / dt, 0.0)
    k = np.where(kind == 1, 2.0 ** rng.integers(0, 17, count) / dt, 0.0)
    kink = base + rng.normal(size=count) * np.maximum(1.0, np.abs(base))
    side = np.where(rng.uniform(size=count) < 0.5, 1.0, -1.0)
    return base, np.stack([a, rng.normal(size=count), k, kink, side])


def mixed_step(base, coef, dt):
    a, c, k, kink, side = coef

    def rate(j, y, z):
        return a * y + c + side * k * np.maximum(side * (kink - y), 0.0)

    return solver._implicit_core(
        base, np.zeros_like(base), dt, 0, rate, None, None, None
    )


def test_two_arrays_in_one_step_are_the_two_separate_steps():
    # every decision is per node, so the nodes an array shares its step
    # with do not move its roots, not even by an ulp
    rng = np.random.default_rng(18)
    dt = 0.01
    for _ in range(50):
        parts = [mixed_nodes(rng, int(rng.integers(1, 13)), dt) for _ in range(2)]
        base = np.concatenate([b for b, _ in parts])
        coef = np.concatenate([c for _, c in parts], axis=1)
        alone = np.concatenate([mixed_step(b, c, dt) for b, c in parts])
        assert bitwise(mixed_step(base, coef, dt), alone)


def test_exact_nodes_of_a_mixed_level_return_their_fixed_point():
    # node 0's constant drift puts y0 far beyond the runaway bound, which
    # the exact exit does not apply; node 2's drift rounds away in y0;
    # node 3's y0 is -0.0; node 1 is affine and is bracketed
    dt = 0.01
    base = np.array([0.0, 1.0, 1.0 + 2.0**-52, -0.0])
    a = np.array([0.0, 0.5, -1.0, 0.0])
    c = np.array([1e15, 0.3, 1.0, -0.0])
    y = solver._implicit_core(
        base, np.zeros(4), dt, 0, lambda j, y, z: a * y + c, None, None, None
    )
    y0 = base + (a * base + c) * dt
    assert bitwise(y[[0, 2, 3]], y0[[0, 2, 3]])
    assert y0[0] == 1e13 and y0[2] == base[2] and np.signbit(y0[3])
    root = (Fraction(1.0) + Fraction(0.3) * Fraction(dt)) / (
        1 - Fraction(0.5) * Fraction(dt)
    )
    assert abs(Fraction(y[1]) - root) <= np.spacing(float(root))


def test_the_closed_form_holds_moved_roots_to_the_runaway_bound():
    # as in the root finder: node 0's exact fixed-point image 1e13 is
    # returned unchecked; node 1's root lies 1 / (1 - a dt) from its
    # base, fine at a dt = 0.5 and named at 1 - a dt = 1e-13
    dt = 0.01
    base = np.array([0.0, 1.0])
    for a1, runaway in ((0.5 / dt, False), ((1.0 - 1e-13) / dt, True)):
        a = np.array([0.0, a1])
        c = np.array([1e15, 0.0])
        args = (base, np.zeros(2), dt, 0, lambda j, y, z: a * y + c, None, None, None)
        if runaway:
            with pytest.raises(ImplicitStepDivergence, match="away from the base") as info:
                solver._implicit_core(*args, a)
            assert (info.value.level, info.value.node) == (0, 1)
        else:
            assert solver._implicit_core(*args, a)[0] == 1e13


@pytest.mark.parametrize(
    "driver",
    [Driver.constant(1.7e308), Driver.linear(0.0, 0.0, 1.7e308)],
    ids=["constant", "linear"],
)
def test_an_exact_exit_root_past_the_largest_float_is_named(driver):
    # base 1e308 plus a finite drift of 1.7e308 overflows in y0; the
    # constant drift would take that infinity as its exact root
    lat = Lattice(TimeGrid(1.0, 1))
    bars = BarrierSet.build(lat, [1e308, 0.0])
    with pytest.raises(NonFiniteDriver) as info:
        solve_rbsde(lat, driver, bars)
    assert (info.value.level, info.value.node) == (0, 0)


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


def _affine_case(rng, dt, declared=False):
    a = rng.uniform(-0.5, 0.5) / dt
    c = rng.normal()
    E = rng.normal() * 10.0 ** rng.uniform(-3.0, 6.0)

    def rate(j, y, z):
        return a * y + c

    qE, qc, qa, qdt = map(Fraction, (E, c, a, dt))
    root = (qE + qc * qdt) / (1 - qa * qdt)
    return E, rate, None, a if declared else None, root


def _declared_affine_case(rng, dt):
    # the same rate, with its slope declared
    return _affine_case(rng, dt, declared=True)


def _kink_parts(rng, dt, a=0.0):
    """Rate ``a y + c`` plus a penalty ``k * (kink - y)^+`` (``side`` 1)
    or its upper mirror (``side`` -1), as in the penalized ladder, ``k
    dt`` up to 2**17; returns ``E``, ``c``, ``k``, ``kink``, ``side`` and
    the exact root."""
    k = 2.0 ** rng.integers(0, 17) * rng.uniform(0.5, 2.0) / dt
    c = rng.normal()
    E = rng.normal() * 10.0 ** rng.uniform(-3.0, 6.0)
    kink = E + rng.normal() * max(1.0, abs(E))
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    qa, qdt = Fraction(a), Fraction(dt)
    pushed = Fraction(E) + Fraction(c) * qdt
    free = pushed / (1 - qa * qdt)
    if side * (Fraction(kink) - free) <= 0:
        root = free  # penalty inactive at the root
    else:
        kdt = Fraction(k) * qdt
        root = (pushed + kdt * Fraction(kink)) / (1 - qa * qdt + kdt)
    return E, c, k, kink, side, root


def _kinked_case(rng, dt):
    # the penalty inside the rate, where the step cannot see its pieces
    E, c, k, kink, side, root = _kink_parts(rng, dt)

    def rate(j, y, z):
        return c + side * k * np.maximum(side * (kink - y), 0.0)

    return E, rate, None, None, root


def _ladder_penalty(k, kink, side, dt):
    """The penalty ``k dt (kink - y)^+`` or its mirror as the ladder's
    record, which declares its pieces: weight ``dt``, clock mass ``k``."""
    from rbsdelab.penalize import _Penalty

    one = np.ones(1)
    return _Penalty(
        kinks=kink * one, masses=k * one, weights=dt * one, side=side * one
    )


def _declared_kink_case(rng, dt):
    E, c, k, kink, side, root = _kink_parts(rng, dt)
    penalty = _ladder_penalty(k, kink, side, dt)
    return E, lambda j, y, z: np.full_like(y, c), penalty, 0.0, root


def _declared_kinked_case(rng, dt):
    # a declared affine rate under the declared penalty: the kinked
    # case's twin, with 1 - a dt away from 1
    a = rng.uniform(-0.5, 0.5) / dt
    E, c, k, kink, side, root = _kink_parts(rng, dt, a)
    penalty = _ladder_penalty(k, kink, side, dt)
    return E, lambda j, y, z: a * y + c, penalty, a, root


@pytest.mark.parametrize(
    "case",
    [
        _affine_case,
        _kinked_case,
        _declared_affine_case,
        _declared_kink_case,
        _declared_kinked_case,
    ],
)
def test_root_finder_property(case):
    """Closed-form roots to 4 ulps of the scale ``|E| + |root|``: where
    the rate declares its slope, from one call; otherwise in no more
    calls than bisection of the former bracket needs to reach that
    width."""
    rng = np.random.default_rng(2020)
    dt = 0.01
    for _ in range(200):
        E, rate, penalty, slope, root = case(rng, dt)
        f = counting(rate)
        y = implicit_step(E, f, dt, penalty=penalty, slope=slope)
        scale = abs(E) + abs(float(root))
        width = 4.0 * np.spacing(scale)
        assert abs(Fraction(y) - root) <= width, (E, y, float(root))
        bound = 1
        if slope is None:
            y0 = E + float(rate(-1, np.array([E]), 0.0)[0]) * dt
            bracket = abs(y0 - E) + 2.0
            bound = 2 + max(0, math.ceil(math.log2(bracket / width)))
        assert f.calls <= bound, (E, f.calls, bound)


@pytest.mark.parametrize("a, calls", [(-0.4, 5), (0.4, 6)])
def test_linear_solve_generator_calls_per_level(a, calls):
    # F at base and at base + F(base), two secant probes and the
    # polished value's residual, the polish reusing F at the last probe;
    # for a > 0 the root lies beyond base + F(base), one probe more
    lat = Lattice(TimeGrid(1.0, 50))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    drv = Driver.linear(a, -0.5, 0.3)
    f = counting(drv.f)
    undeclared = dataclasses.replace(drv, f=f, slope=None)
    solve_rbsde(lat, undeclared, band_barriers(lat, xi, 0.3))
    assert f.calls <= calls * lat.steps


def test_declared_linear_solve_takes_one_generator_call_per_level():
    lat = Lattice(TimeGrid(1.0, 50))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    drv = Driver.linear(0.4, -0.5, 0.3)
    f = counting(drv.f)
    bars = band_barriers(lat, xi, 0.3)
    sol = solve_rbsde(lat, dataclasses.replace(drv, f=f), bars)
    assert f.calls == lat.steps
    # the root finder's roots, to a few ulps of the largest value
    found = solve_rbsde(lat, dataclasses.replace(drv, slope=None), bars)
    scale = np.max(np.abs(found.Y.values))
    assert np.max(np.abs(sol.Y.values - found.Y.values)) <= 4.0 * np.spacing(scale)


def penalized_evaluations(monkeypatch):
    """The level of every generator evaluation in the penalized passes
    that ``penalize`` makes: the dominated driver's ``f_rest`` runs once
    per evaluation."""
    from rbsdelab import penalize

    levels = []
    build = penalize._dominated_driver

    def counted(*args):
        drv = build(*args)

        def f_rest(j, y, z):
            levels.append(j)
            return drv.f_rest(j, y, z)

        return dataclasses.replace(drv, f_rest=f_rest)

    monkeypatch.setattr(penalize, "_dominated_driver", counted)
    return levels


def test_penalized_ladder_generator_calls_per_level(monkeypatch):
    # the penalty n mass (l - y)^+ declares its two affine pieces, and
    # the dominated rate its zero slope: each level of the ladder's one
    # pass, up to weight 2**16, is solved in closed form from one
    # evaluation (about 60 with the root finder alone)
    from rbsdelab.penalize import DEFAULT_SCHEDULE, build_family
    from rbsdelab.verify import random_witness_instance

    levels = penalized_evaluations(monkeypatch)
    rng = np.random.default_rng(22)
    for _ in range(6):
        build_family(*random_witness_instance(rng, 8), DEFAULT_SCHEDULE)
        assert max(collections.Counter(levels).values()) == 1
        levels.clear()


def test_criterion_6_generator_evaluations(monkeypatch):
    # criterion 6 at its acceptance scale, seed 7: one evaluation per
    # level of its passes, where the root finder took 119 with a probe
    # at each kink and 1,111 without
    from rbsdelab.verify import CertificateLog, verify_sandwich

    levels = penalized_evaluations(monkeypatch)
    assert verify_sandwich(log=CertificateLog())["passed"]
    assert len(levels) <= 18


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


def row_lattices(horizons, steps=5):
    return [Lattice(TimeGrid(h, steps)) for h in horizons]


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_rows_on_their_own_horizons_are_their_separate_solves(kind):
    # one pass over three instances of depth 5 with horizons 0.5, 1 and
    # 1.7: dt and sqrt_dt are columns, and each row lives on its lattice
    lats = row_lattices([0.5, 1.0, 1.7])
    rng = np.random.default_rng(4)
    coef = rng.uniform(-0.8, 0.8, (3, 3))
    sets = [
        band_barriers(lat, np.sin(2.0 * lat.brownian(lat.steps)) + 0.1 * k, 0.3)
        for k, lat in enumerate(lats)
    ]
    if kind == "linear":
        drivers = [Driver.linear(*row) for row in coef]
        batched = Driver.linear(*coef.T[:, :, None])
    else:
        drivers = [Driver.quadratic(1.5)] * 3
        batched = drivers[0]
    sols = solver._backward(lats, batched, *solver._stacked_sets(sets)[1:], (3,))
    for sol, lat, drv, bars in zip(sols, lats, drivers, sets):
        alone = solve_rbsde(lat, drv, bars)
        assert sol.lattice is lat
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert bitwise(getattr(sol, name).values, getattr(alone, name).values)
        assert sol.residuals == alone.residuals


def test_slope_columns_under_a_penalty_are_the_rows_separate_solves():
    # a (3, 1, 1) slope column under the ladder's penalty record, which
    # binds at every node of row 0, at some of row 2 and at none of row 1
    from rbsdelab.penalize import _Penalty

    lats = row_lattices([0.5, 1.0, 1.7])
    sets = [
        band_barriers(r, np.sin(2.0 * r.brownian(r.steps)) + 0.1 * k, 0.3)
        for k, r in enumerate(lats)
    ]
    xi, low, high = (a[:, None] for a in solver._stacked_sets(sets)[1:])
    rng = np.random.default_rng(28)
    coef = rng.uniform(-0.8, 0.8, (3, 3))
    n = level_offset(lats[0].steps)
    kinks = np.stack([np.full(n, 5.0), np.full(n, -np.inf), np.zeros(n)])
    masses = rng.uniform(0.5, 2.0, (3, n))
    weight, side = np.array(4.0), np.array(1.0)
    penalty = _Penalty(kinks[:, None], masses[:, None], weight, side)
    batched = Driver.linear(*coef.T[:, :, None, None], penalty=penalty)
    sols = solver._backward(lats, batched, xi, low, high, (3, 1))
    for k, (sol, lat, bars) in enumerate(zip(sols, lats, sets)):
        drv = Driver.linear(
            *coef[k], penalty=_Penalty(kinks[k], masses[k], weight, side)
        )
        alone = solve_rbsde(lat, drv, bars)
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert bitwise(getattr(sol, name).values, getattr(alone, name).values)
        assert sol.residuals == alone.residuals
        free = solve_rbsde(lat, Driver.linear(*coef[k]), bars)
        moved = sol.drift.values != free.drift.values
        assert moved.all() if k == 0 else moved.any() == (k == 2)


def test_row_lattices_must_match_the_batch_rows_and_depth():
    bars = free_barriers(Lattice(TimeGrid(1.0, 5)), np.zeros(6))
    bands = bars.low.values, bars.high.values
    with pytest.raises(ValueError, match="one per row"):
        solver._backward(
            row_lattices([1.0, 2.0]), Driver.zero(), bars.xi, *bands, (3,)
        )
    lats = [Lattice(TimeGrid(1.0, 5)), Lattice(TimeGrid(1.0, 6))]
    with pytest.raises(ValueError, match="of equal depth"):
        solver._backward(lats, Driver.zero(), bars.xi, *bands, (2,))


def test_growth_bounds_on_another_grid_raise_for_row_lattices():
    # the bounds live on the first row's grid only
    lats = row_lattices([1.0, 2.0])
    drv = Driver.zero(bounds=GrowthBounds.constants(lats[0], eta=0.0, C=0.0))
    bars = free_barriers(lats[0], np.zeros(6))
    bands = bars.low.values, bars.high.values
    solver._backward(lats[:1], drv, bars.xi, *bands, (1,))
    with pytest.raises(ValueError, match="growth bounds live on a different grid"):
        solver._backward(lats, drv, bars.xi, *bands, (2,))


def test_row_bounds_are_checked_against_their_own_rows():
    lats = row_lattices([1.0, 2.0])
    bars = free_barriers(lats[0], np.zeros(6))
    bands = bars.low.values, bars.high.values
    own = [GrowthBounds.constants(r, eta=0.0, C=0.0) for r in lats]
    sols = solver._backward(lats, Driver.zero(bounds=own), bars.xi, *bands, (2,))
    assert [s.lattice for s in sols] == lats
    # row 1's bounds on row 0's grid
    crossed = Driver.zero(bounds=[own[0], own[0]])
    with pytest.raises(ValueError, match="growth bounds live on a different grid"):
        solver._backward(lats, crossed, bars.xi, *bands, (2,))
    with pytest.raises(ValueError, match="one per row lattice"):
        solver._backward(lats, Driver.zero(bounds=own[:1]), bars.xi, *bands, (2,))
    with pytest.raises(ValueError, match="one per row lattice"):
        solve_rbsde(lats[0], Driver.zero(bounds=own), bars)


def test_row_clocks_are_read_per_row():
    # one clock per row under a clock rate: each row is its own solve
    lats = row_lattices([0.5, 1.0, 1.7])
    rate = lambda j, y_left, y: 0.3 - 0.2 * y  # noqa: E731
    drivers = [
        Driver.zero(
            g=rate,
            bounds=GrowthBounds.constants(
                r, eta=0.0, C=0.0, beta=1.0,
                A=IncreasingProcess.from_time_atoms(r, {k + 1: 0.5 + k, 4: 1.0}),
            ),
        )
        for k, r in enumerate(lats)
    ]
    sets = [
        band_barriers(r, np.sin(2.0 * r.brownian(r.steps)), 0.3) for r in lats
    ]
    batched = Driver.zero(g=rate, bounds=[d.bounds for d in drivers])
    sols = solver._backward(lats, batched, *solver._stacked_sets(sets)[1:], (3,))
    for sol, lat, drv, bars in zip(sols, lats, drivers, sets):
        alone = solve_rbsde(lat, drv, bars)
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert bitwise(getattr(sol, name).values, getattr(alone, name).values)
        assert sol.residuals == alone.residuals


def test_outputs_of_a_batched_pass_are_read_only():
    lats = row_lattices([0.5, 1.0])
    sets = [band_barriers(r, np.sin(r.brownian(r.steps)), 0.3) for r in lats]
    xi, low, high = (a[:, None] for a in solver._stacked_sets(sets)[1:])
    drv = Driver.linear(0.2, -0.3, np.array([[[0.1], [0.4]]]))
    sols = solver._backward(lats, drv, xi, low, high, (2, 2))
    assert len(sols) == 4
    for sol in sols:
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            values = getattr(sol, name).values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0


def test_obstacles_on_another_grid_raise(lat):
    other = Lattice(TimeGrid(1.0, lat.steps + 1))
    bars = free_barriers(other, np.zeros(other.steps + 1))
    with pytest.raises(ValueError, match="obstacles live on a different grid"):
        solve_rbsde(lat, Driver.zero(), bars)


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
        low = bars.low.level(j)
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
        low, high = bars.low.level(j), bars.high.level(j)
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


def test_clock_rate_needs_the_bounds_that_carry_its_clock():
    # the clock A that g integrates against lives on the growth bounds,
    # so a driver without them cannot carry g: solving on would drop it
    # silently (g = 100 on a depth-8 lattice would read Y0 = 0.6, as
    # without g, where a Lebesgue clock gives 100.6)
    lat = Lattice(TimeGrid(1.0, 8))
    g = lambda j, y_left, y: np.full_like(y, 100.0)  # noqa: E731
    with pytest.raises(ValueError, match="clock rate g needs bounds"):
        Driver.constant(0.6, g=g)
    with pytest.raises(ValueError, match="clock rate g needs bounds"):
        dataclasses.replace(Driver.zero(), g=g)
    clock = GrowthBounds.constants(
        lat, eta=0.0, C=0.0, beta=100.0, A=IncreasingProcess.lebesgue(lat)
    )
    bars = free_barriers(lat, np.zeros(lat.steps + 1))
    sol = solve_rbsde(lat, Driver.constant(0.6, g=g, bounds=clock), bars)
    assert abs(sol.value() - 100.6) < 1e-9
    assert solve_rbsde(lat, Driver.constant(0.6), bars).value() == pytest.approx(0.6)


def test_comparison_rate_counts_source_and_clock_terms(lat):
    # the per-step drift is f dt + source + g dA: a source of 0.25 at
    # every node, or g = 2 against a clock of mass 0.5 at t_3 (slot 2),
    # is the whole gap to a zero driver
    bars = free_barriers(lat, np.sin(2.0 * lat.brownian(lat.steps)))
    zero = Driver.zero()
    clock = IncreasingProcess.from_time_atoms(lat, {3: 0.5})
    smalls = (
        (Driver.zero(source=lambda j: np.full(j + 1, 0.25)), 0.25),
        (
            Driver.zero(
                g=lambda j, y_left, y: np.full_like(y, 2.0),
                bounds=GrowthBounds.constants(
                    lat, eta=0.0, C=0.0, beta=2.0, A=clock
                ),
            ),
            1.0,
        ),
    )
    for drv, gap in smalls:
        sol = solve_rbsde(lat, drv, bars)
        report = comparison_check(sol, sol, zero, drv, bars, bars)
        assert not report.drift_domination_ok
        assert report.max_drift_violation == gap
        # against itself the terms cancel
        report = comparison_check(sol, sol, drv, drv, bars, bars)
        assert report.passed and report.max_drift_violation == 0.0


def test_budget_defect_is_rounding_sized():
    lat = Lattice(TimeGrid(1.0, 8))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    bars = band_barriers(lat, xi, width=0.05)
    sol = solve_rbsde(lat, Driver.linear(0.4, -0.3, 0.8), bars)
    assert budget_defect(sol) < 1e-10
    # the same sums, accumulated level by level from the root value
    paths = all_paths(lat.steps)
    nodes = path_nodes(paths)
    acc = np.full(paths.shape[0], sol.value())
    for j in range(lat.steps):
        k = nodes[:, j]
        db = (2.0 * paths[:, j] - 1.0) * lat.sqrt_dt
        acc += (
            sol.Z.atom(j)[k] * db
            - sol.drift.atom(j)[k]
            - sol.Kplus.atom(j)[k]
            + sol.Kminus.atom(j)[k]
        )
    terminal = sol.Y.terminal()[nodes[:, lat.steps]]
    assert budget_defect(sol) == np.max(np.abs(terminal - acc))


def test_solution_repr_mentions_the_root_value(lat):
    xi = np.ones(lat.steps + 1)
    sol = solve_rbsde(lat, Driver.zero(), free_barriers(lat, xi))
    assert sol.value() == 1.0
    assert "1.0" in repr(sol)
