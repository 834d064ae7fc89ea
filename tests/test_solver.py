import dataclasses
import math
import warnings
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
    ComparisonReport,
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
    ``slope`` is the declared slope of ``f``, if any, which the step
    takes as ``d = 1 - slope*dt``."""
    if dA is not None:
        dA = np.array([dA])
    level = -1 if penalty is None else 0
    d = None if slope is None else 1.0 - slope * dt
    y = solver._implicit_core(
        np.array([E]), np.zeros(1), dt, level, f, g, dA, penalty, d
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
                solver._implicit_core(*args, 1.0 - a * dt)
            assert (info.value.level, info.value.node) == (0, 1)
        else:
            assert solver._implicit_core(*args, 1.0 - a * dt)[0] == 1e13


# a deep lattice at dt = 1, and the node inside it where the drivers
# below break
DEEP = Lattice(TimeGrid(200.0, 200))
AT = (120, 37)


def at_node(j, shape, value, node=AT[1]):
    """``value`` at ``node`` of level ``AT[0]``, 0 elsewhere."""
    out = np.zeros(shape)
    if j == AT[0]:
        out[..., node] = value
    return out


def deep_solve_error(f, slope, xi, penalty=None):
    drv = Driver(f=f, slope=slope, penalty=penalty)
    with pytest.raises((NonFiniteDriver, ImplicitStepDivergence)) as info:
        solve_rbsde(DEEP, drv, free_barriers(DEEP, xi))
    return info.value


def named(error):
    return type(error), error.level, error.node, str(error)


# each driver breaks a closed-form step at AT; the error is the one the
# node-by-node checks raise there: (rate, slope, xi, class, message)
DEEP_ERRORS = {
    # a NaN rate is named where it is read
    "nan_rate": (
        lambda j, y, z: 0.5 * y + at_node(j, y.shape, np.nan),
        0.5,
        np.sin(DEEP.brownian(200)),
        NonFiniteDriver,
        "non-finite drift value at (level 120, node 37)",
    ),
    # so is an infinite one, before the runaway bound of its moved root
    "inf_rate": (
        lambda j, y, z: 0.5 * y + at_node(j, y.shape, np.inf),
        0.5,
        np.sin(DEEP.brownian(200)),
        NonFiniteDriver,
        "non-finite drift value at (level 120, node 37)",
    ),
    # a finite rate whose root base + G / d overflows: a moved root is
    # held to the runaway bound first
    "overflow_moved": (
        lambda j, y, z: 0.5 * y + at_node(j, y.shape, 1.7e308),
        0.5,
        np.sin(DEEP.brownian(200)),
        ImplicitStepDivergence,
        "root inf away from the base value at (level 120, node 37)",
    ),
    # under slope 0, base + G is the exact image: only its finiteness
    "overflow_exact": (
        lambda j, y, z: at_node(j, y.shape, 1.7e308),
        0.0,
        np.full(201, 8e307),
        NonFiniteDriver,
        "non-finite drift value at (level 120, node 37)",
    ),
    # 1 - a dt = 1e-13 sends the root of a unit rate past the bound
    "runaway": (
        lambda j, y, z: (1.0 - 1e-13) * y + at_node(j, y.shape, 1.0),
        1.0 - 1e-13,
        np.zeros(201),
        ImplicitStepDivergence,
        "root 9996891514695.885 away from the base value at (level 120, node 37)",
    ),
}


@pytest.mark.parametrize("case", DEEP_ERRORS)
def test_a_closed_form_step_names_its_failure_deep_in_the_lattice(case):
    f, slope, xi, cls, message = DEEP_ERRORS[case]
    assert named(deep_solve_error(f, slope, xi)) == (cls, *AT, message)


def test_a_slope_column_holds_only_its_moved_rows_to_the_runaway_bound():
    # row 0 (slope 0) takes its exact image 1e15 at node 10 unchecked;
    # row 1 (slope 0.5) moves its root 2e15 from the base at node 37
    a = np.array([[0.0], [0.5]])

    def f(j, y, z):
        big = at_node(j, y.shape, 1e15)
        big[0] = at_node(j, y.shape[-1:], 1e15, node=10)
        return a * y + big

    sets = [free_barriers(DEEP, np.zeros(201))] * 2
    _, xi, low, high = solver._stacked_sets(sets)
    with pytest.raises(ImplicitStepDivergence) as info:
        solver._backward([DEEP, DEEP], Driver(f=f, slope=a), xi, low, high, (2,))
    assert named(info.value) == (
        ImplicitStepDivergence,
        *AT,
        "root 2000000000000000.0 away from the base value at (level 120, node 37)",
    )


@pytest.mark.parametrize("weight", [0.0, 4.0])
@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_infinite_rate_under_a_ladder_penalty_is_named(sign, side, weight):
    # G = +-inf reaches the root as +-inf or NaN, through an active
    # piece of weight 0 too
    from rbsdelab.penalize import _Penalty

    n = level_offset(DEEP.steps)
    penalty = _Penalty(
        kinks=np.zeros(n), masses=np.ones(n), weights=np.array(weight), side=side
    )
    f = lambda j, y, z: at_node(j, y.shape, sign * np.inf)
    error = deep_solve_error(f, 0.0, np.zeros(201), penalty)
    assert named(error) == (
        NonFiniteDriver, *AT, "non-finite drift value at (level 120, node 37)"
    )


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


@pytest.mark.parametrize("slope", [0.0, None], ids=["closed-form", "root-finder"])
def test_a_rate_returning_a_float_is_its_full_array_twin(slope):
    # a rate may return a Python float: each route broadcasts it to the
    # level and steps it bitwise as the same value spelled out per node
    lat = Lattice(TimeGrid(1.0, 20))
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    scalar = Driver(f=lambda j, y, z: 0.3, slope=slope)
    full = Driver(f=lambda j, y, z: np.full_like(y, 0.3), slope=slope)
    for bars in (free_barriers(lat, xi), band_barriers(lat, xi, 0.3)):
        same_solutions([solve_rbsde(lat, scalar, bars)], [solve_rbsde(lat, full, bars)])


def penalized_evaluations(monkeypatch):
    """The level of every generator evaluation in the penalized passes
    that ``penalize`` makes: a call of the dominated driver's rate ``f``
    when it has one, or of its penalty."""
    from rbsdelab import penalize

    levels = []
    build = penalize._dominated_driver

    def counted(*args):
        drv = build(*args)

        def evaluated(j, y, z):
            levels.append(j)
            return drv.f(j, y, z)

        return drv if drv.f is None else dataclasses.replace(drv, f=evaluated)

    def penalty(self, level, y):
        levels.append(level)
        return call(self, level, y)

    call = penalize._Penalty.__call__
    monkeypatch.setattr(penalize, "_dominated_driver", counted)
    monkeypatch.setattr(penalize._Penalty, "__call__", penalty)
    return levels


def test_penalized_ladder_generator_calls_per_level(monkeypatch):
    # the penalty n mass (l - y)^+ declares its two affine pieces, and
    # the dominated driver has no remainder: each level of the ladder's
    # one pass, up to weight 2**16, is solved in closed form from no
    # evaluation at all (one before the remainder was left out, about
    # 60 with the root finder alone)
    from rbsdelab.penalize import DEFAULT_SCHEDULE, build_family
    from rbsdelab.verify import random_witness_instance

    levels = penalized_evaluations(monkeypatch)
    rng = np.random.default_rng(22)
    for _ in range(6):
        family = build_family(*random_witness_instance(rng, 8), DEFAULT_SCHEDULE)
        assert len(family.lower_solutions) == len(DEFAULT_SCHEDULE)
        assert levels == []


def test_criterion_6_generator_evaluations(monkeypatch):
    # criterion 6 at its acceptance scale, seed 7: no evaluation in its
    # passes, where the closed form took 18 with a zero remainder, the
    # root finder 119 with a probe at each kink and 1,111 without
    from rbsdelab.verify import CertificateLog, verify_sandwich

    levels = penalized_evaluations(monkeypatch)
    assert verify_sandwich(log=CertificateLog())["passed"]
    assert levels == []


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


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_rows_on_one_grid_are_their_separate_solves(kind, monkeypatch):
    # one pass over three instances of depth 5 on one horizon: dt and
    # sqrt_dt are Python floats, and a linear slope column keeps
    # d = 1 - slope*dt an array
    lats = row_lattices([1.3, 1.3, 1.3])
    rng = np.random.default_rng(5)
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
    seen = []
    step = solver._implicit_core

    def recorded(base, Z, dt, level, f_drift, g_fn, dA, penalty, d):
        seen.append((type(dt), type(d)))
        return step(base, Z, dt, level, f_drift, g_fn, dA, penalty, d)

    monkeypatch.setattr(solver, "_implicit_core", recorded)
    sols = solver._backward(lats, batched, *solver._stacked_sets(sets)[1:], (3,))
    d_type = np.ndarray if kind == "linear" else float
    assert set(seen) == {(float, d_type)}
    for sol, lat, drv, bars in zip(sols, lats, drivers, sets):
        alone = solve_rbsde(lat, drv, bars)
        assert sol.lattice is lat
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert bitwise(getattr(sol, name).values, getattr(alone, name).values)
        assert sol.residuals == alone.residuals


def same_bits(a, b):
    """Equal float arrays bit for bit, NaN payloads included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def tilt_offsets():
    """Slope offsets of two rows, NaN and both infinities included."""
    rng = np.random.default_rng(6)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]
    w = np.concatenate([rng.normal(0.0, 3.0, 40), special])
    return np.stack([w, -w])


@pytest.mark.parametrize("c", [1.5, -0.25, 1e-12, 3e5])
def test_a_float_tilt_coefficient_is_its_array_forms(c):
    w, sqrt_dt = tilt_offsets(), 0.1
    got = solver._tilt_increment(c, w, sqrt_dt)
    assert same_bits(got, solver._tilt_increment(np.array(c), w, sqrt_dt))
    assert same_bits(got, solver._tilt_increment(np.full((2, 1), c), w, sqrt_dt))
    assert np.isnan(got).any() and np.isinf(got).any()


def test_a_zero_tilt_coefficient_contributes_exactly_zero():
    w, sqrt_dt = tilt_offsets(), 0.1
    cycle = np.arange(w.shape[1]) % 3
    coef = np.array([[0.0, -0.0, 1.5], [-0.25, 0.0, 2.0]])[:, cycle]
    got = solver._tilt_increment(coef, w, sqrt_dt)
    zero = coef == 0.0
    assert np.all(got[zero] == 0.0) and not np.signbit(got[zero]).any()
    for c in (1.5, -0.25, 2.0):
        at = coef == c
        assert same_bits(got[at], solver._tilt_increment(c, w, sqrt_dt)[at])
    assert same_bits(solver._tilt_increment(0.0, w, sqrt_dt), np.zeros_like(w))


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
    # one set of bounds serves every row and is checked against each
    # row's grid: rows on the bounds' grid solve, and bounds on the
    # second row's grid fail at the first
    lats = row_lattices([1.0, 2.0])
    bars = free_barriers(lats[0], np.zeros(6))
    bands = bars.low.values, bars.high.values
    same = row_lattices([1.0, 1.0])
    shared = Driver.zero(bounds=GrowthBounds.constants(same[0], eta=0.0, C=0.0))
    sols = solver._backward(same, shared, bars.xi, *bands, (2,))
    assert [s.lattice for s in sols] == same
    other = Driver.zero(bounds=GrowthBounds.constants(lats[1], eta=0.0, C=0.0))
    with pytest.raises(ValueError, match="growth bounds live on a different grid"):
        solver._backward(lats, other, bars.xi, *bands, (2,))


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


def old_certificates(y, lows, highs, Kplus, Kminus):
    """The certificates as every node's masked products: the largest
    ``Kplus (y - lows)``, ``Kminus (highs - y)`` and ``Kplus Kminus``
    per batch entry, each gap zeroed where its reflection is not
    positive (``0 * inf`` is NaN)."""

    def flat_off(dk, gap):
        gap[dk <= 0.0] = 0.0
        return np.max(dk * gap, axis=-1, initial=0.0)

    return (
        flat_off(Kplus, np.broadcast_to(y - lows, Kplus.shape).copy()),
        flat_off(Kminus, np.broadcast_to(highs - y, Kminus.shape).copy()),
        np.max(Kplus * Kminus, axis=-1, initial=0.0),
    )


@pytest.mark.parametrize("batch", [(), (3,), (2, 3, 2)], ids=str)
def test_clamp_reflections_and_certificates_match_their_node_formulas(
    monkeypatch, batch
):
    # random unclamped roots against random bands: infinite bands,
    # crossed bands (both reflections move at one node), signed zeros
    # on both sides of a tie, and bands of one row per instance that
    # broadcast over the weight axis, as the penalized family's do
    rng = np.random.default_rng(31)
    lat = Lattice(TimeGrid(1.0, 40))
    n = level_offset(lat.steps)
    total = level_offset(lat.steps + 1)
    shape = batch + (total,)
    band_shape = batch[:1] + (1,) * (len(batch) > 1) + batch[2:] + (total,)

    def draw(values, size):
        pick = rng.choice(np.asarray(values), size)
        mixed = rng.random(size) < 0.5
        return np.where(mixed, rng.normal(0.0, 1.0, size), pick)

    low = draw([0.0, -0.0, -np.inf], band_shape)
    high = draw([0.0, -0.0, np.inf], band_shape)
    raw = draw([0.0, -0.0], batch + (n,))
    xi = rng.normal(0.0, 1.0, batch + (lat.steps + 1,))

    def fixed_roots(base, Z, dt, level, *args):
        return raw[..., level_offset(level) : level_offset(level + 1)].copy()

    monkeypatch.setattr(solver, "_implicit_core", fixed_roots)
    rows = [lat] * (batch[:1] or (1,))[0]
    sols = solver._backward(rows, Driver.zero(), xi, low, high, batch)
    Ys = solver._backward(rows, Driver.zero(), xi, low, high, batch, y_only=True)

    lows = np.broadcast_to(low[..., :n], batch + (n,))
    highs = np.broadcast_to(high[..., :n], batch + (n,))
    Y = raw.clip(lows, highs)
    Kplus = np.maximum(lows - raw, 0.0)
    Kminus = np.maximum(raw - highs, 0.0)
    assert np.any((Kplus > 0.0) & (Kminus > 0.0))
    assert np.any((raw == 0.0) & (lows == 0.0) & np.signbit(raw) & ~np.signbit(lows))
    assert np.any((raw == 0.0) & (highs == 0.0) & ~np.signbit(raw) & np.signbit(highs))
    certificates = old_certificates(Y, lows, highs, Kplus, Kminus)
    assert np.all(np.isfinite(certificates)) and np.max(certificates[2]) > 0.0

    def bits(a):
        return np.ascontiguousarray(a).reshape(-1, a.shape[-1]).view(np.int64)

    got = {
        name: np.stack([getattr(s, name).values for s in sols])
        for name in ("Y", "Kplus", "Kminus")
    }
    assert np.array_equal(bits(got["Y"][:, :n]), bits(Y))
    assert np.array_equal(bits(got["Y"][:, n:]), bits(xi))
    assert np.array_equal(bits(got["Kplus"]), bits(Kplus))
    assert np.array_equal(bits(got["Kminus"]), bits(Kminus))
    assert np.array_equal(bits(np.stack([y.values for y in Ys])), bits(got["Y"]))
    reports = [s.residuals for s in sols]
    for name, want in zip(
        ("flat_off_plus", "flat_off_minus", "singularity_defect"), certificates
    ):
        assert [getattr(r, name) for r in reports] == np.ravel(want).tolist()


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


def test_comparison_rate_counts_the_squared_slope_part(lat):
    # a quad driver's rate is f + q (z - center)^2: the catalog pair
    # c z^2 gives, bit for bit, the reports of that rate stated whole as f
    xi = np.sin(2.0 * lat.brownian(lat.steps)) + 0.1
    bars = band_barriers(lat, xi, 0.3)
    small, big = Driver.quadratic(0.3), Driver.quadratic(1.1)
    sol_small, sol_big = (solve_rbsde(lat, d, bars) for d in (small, big))
    whole_small, whole_big = (
        Driver(f=lambda j, y, z, c=c: c * z * z, slope=0.0) for c in (0.3, 1.1)
    )
    report = comparison_check(sol_big, sol_small, big, small, bars, bars)
    assert report == comparison_check(
        sol_big, sol_small, whole_big, whole_small, bars, bars
    )
    assert report == ComparisonReport(
        *(True,) * 5,
        max_order_violation=0.0,
        max_kminus_violation=0.0,
        max_drift_violation=0.0,
    )
    swapped = comparison_check(sol_small, sol_big, small, big, bars, bars)
    assert swapped == comparison_check(
        sol_small, sol_big, whole_small, whole_big, bars, bars
    )
    assert not (swapped.drift_domination_ok or swapped.ordered or swapped.kminus_ok)
    assert min(
        swapped.max_order_violation,
        swapped.max_kminus_violation,
        swapped.max_drift_violation,
    ) > 0.0
    # a remainder beside a centered squared-slope part: both count, so
    # the rate stated whole differs by rounding, the remainder alone by
    # the squared-slope part
    rest = lambda j, y, z: 0.2 * y - 0.1 * z + 0.05  # noqa: E731
    parts = Driver(f=rest, quad=lambda j: (0.7, 0.4), slope=0.2)
    whole = Driver(f=lambda j, y, z: rest(j, y, z) + 0.7 * (z - 0.4) ** 2)
    sol = solve_rbsde(lat, parts, bars)
    for a, b in ((parts, whole), (whole, parts)):
        report = comparison_check(sol, sol, a, b, bars, bars)
        assert report.drift_domination_ok
        assert report.max_drift_violation <= 1e-15
    report = comparison_check(sol, sol, Driver(f=rest), parts, bars, bars)
    z = np.concatenate([sol.Z.atom(j) for j in range(lat.steps)])
    assert report.max_drift_violation == pytest.approx(
        np.max(0.7 * (z - 0.4) ** 2) * lat.dt, rel=1e-12
    )


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


# ------------------------------------------------- drivers without a rate


def zeros(j, y, z):
    return np.zeros_like(y)


def spelled_out(drv):
    """``drv`` with its absent stepped rate spelled out as zeros."""
    assert drv.f is None
    return dataclasses.replace(drv, f=zeros)


def same_solutions(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert same_bits(getattr(a, name).values, getattr(b, name).values), name
        assert a.residuals == b.residuals


def signed_zero_terminals(lat, k=0):
    """Terminal values with a run of ``-0.0`` and of ``+0.0`` among them."""
    xi = np.sin(2.0 * lat.brownian(lat.steps) + k)
    xi[:3] = -0.0
    xi[3:5] = 0.0
    return xi


@pytest.mark.parametrize(
    "drv", [Driver.zero(), Driver.quadratic(0.7), Driver.quadratic(-1.3)]
)
def test_a_driver_without_a_rate_is_its_spelled_out_zero(drv, lat):
    # no generator evaluation, and the bits of the zeros it left out:
    # a -0.0 expectation steps to +0.0, as base + 0 dt makes it
    xi = signed_zero_terminals(lat)
    twin = spelled_out(drv)
    for bars in (free_barriers(lat, xi), band_barriers(lat, xi, 0.3)):
        same_solutions([solve_rbsde(lat, drv, bars)], [solve_rbsde(lat, twin, bars)])
    if drv.quad is None:
        # the first two nodes of level N - 1 expect -0.0
        y = solve_rbsde(lat, drv, free_barriers(lat, xi)).Y.level(lat.steps - 1)
        assert np.all(y[:2] == 0.0) and not np.any(np.signbit(y[:2]))


@pytest.mark.parametrize("drv", [Driver.zero(), Driver.quadratic(0.7)])
def test_a_batched_pass_without_a_rate_is_its_spelled_out_zero(drv):
    lats = row_lattices([1.3, 1.3, 0.6])
    sets = [
        band_barriers(lat, signed_zero_terminals(lat, k), 0.3)
        for k, lat in enumerate(lats)
    ]
    stacked = solver._stacked_sets(sets)[1:]
    got = solver._backward(lats, drv, *stacked, (3,))
    same_solutions(got, solver._backward(lats, spelled_out(drv), *stacked, (3,)))
    Ys = solver._backward(lats, drv, *stacked, (3,), y_only=True)
    assert all(same_bits(y.values, sol.Y.values) for y, sol in zip(Ys, got))


def test_a_penalty_step_without_a_rate_is_its_spelled_out_zero():
    # the ladder's closed form with no rate starts from base + 0.0, as
    # base + G / d does from a G of zeros, and moves the active piece
    from rbsdelab.penalize import _Penalty

    base = np.array([-0.0, 0.0, 0.5, -0.25])
    kinks = np.full(level_offset(4), -np.inf)
    kinks[level_offset(3) :] = [-1.0, 0.1, 0.2, -0.5]
    penalty = _Penalty(
        kinks=kinks,
        masses=np.full(kinks.shape, 2.0),
        weights=np.array(8.0),
        side=np.array(1.0),
    )
    for d in (1.0, 0.9):
        args = (base, np.zeros(4), 0.1, 3)
        got = solver._implicit_core(*args, None, None, None, penalty, d)
        want = solver._implicit_core(*args, zeros, None, None, penalty, d)
        assert same_bits(got, want)
        assert got[0] == 0.0 and not np.signbit(got[0]) and got[1] > 0.0


def witness_with_signed_zeros(seed, steps):
    """A random witness instance whose terminal values hold ``-0.0``."""
    from rbsdelab.verify import random_witness_instance

    bounds, bars = random_witness_instance(np.random.default_rng(seed), steps)
    xi = bars.xi.copy()
    xi[::3] = -0.0
    parts = ("L", "U", "l", "u", "delta", "alpha", "witness")
    return bounds, BarrierSet.build(
        bars.lattice, xi, **{name: getattr(bars, name) for name in parts}
    )


@pytest.mark.parametrize("seed, steps", [(3, 1), (4, 7), (5, 30)])
def test_penalized_passes_without_a_rate_are_their_spelled_out_zero(
    seed, steps, monkeypatch
):
    # the dominated driver has no remainder: the exact squeeze (no
    # penalty) and the ladder's rungs (a penalty with pieces) step with
    # no evaluation, and give the bits of a remainder of zeros
    from rbsdelab import penalize

    bounds, bars = witness_with_signed_zeros(seed, steps)

    def run():
        family = penalize.build_family(bounds, bars, (0, 1, 8, 2**16))
        limits = penalize.exact_squeeze_barriers(bounds, bars)
        return family.lower_solutions + family.upper_solutions, limits

    rungs, limits = run()
    build = penalize._dominated_driver
    monkeypatch.setattr(
        penalize, "_dominated_driver", lambda *args: spelled_out(build(*args))
    )
    twin_rungs, twin_limits = run()
    same_solutions(rungs, twin_rungs)
    for a, b in zip(limits, twin_limits):
        assert same_bits(a.values, b.values)


def overflowing_terminals(lat):
    """Terminal values whose expectations overflow to both infinities:
    at level ``N - 1`` node 1 is ``-inf`` and node 4 is ``+inf``."""
    big = 1.7e308
    return np.array([0.0, -big, -big, 0.0, big, big, 0.0])


@pytest.mark.parametrize(
    "drv, at", [(Driver.zero(), (5, 1)), (Driver.quadratic(0.5), (5, 0))]
)
def test_overflowing_terminals_raise_at_their_node_and_warn_no_more(drv, at, lat):
    # the step's finite check meets -inf and +inf in one level; it
    # raises at the same level and node as the spelled-out zero and adds
    # no floating-point warning to the expectation's and slope's own
    bars = free_barriers(lat, overflowing_terminals(lat))
    seen = []
    for d in (drv, spelled_out(drv)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteDriver) as info:
                solve_rbsde(lat, d, bars)
        assert (info.value.level, info.value.node) == at
        seen.append([(w.category, str(w.message)) for w in caught])
    assert seen[0] == seen[1]


def test_a_step_without_a_rate_checks_finite_without_warnings():
    # RuntimeWarnings are errors here: a sum over -inf and +inf would warn
    base = np.array([[1.0, 2.0, 3.0], [4.0, -np.inf, np.inf]])
    with pytest.raises(NonFiniteDriver) as info:
        solver._implicit_core(base, np.zeros(3), 0.1, 4, None, None, None, None, 1.0)
    assert (info.value.level, info.value.node) == (4, 1)
    base[1] = [np.nan, 0.0, -0.0]
    with pytest.raises(NonFiniteDriver) as info:
        solver._implicit_core(base, np.zeros(3), 0.1, 4, None, None, None, None)
    assert (info.value.level, info.value.node) == (4, 0)
    base[1, 0] = 1.7e308
    y = solver._implicit_core(base, np.zeros(3), 0.1, 4, None, None, None, None)
    assert same_bits(y, base + 0.0) and not np.signbit(y[1, 2])


@pytest.mark.parametrize(
    "g",
    [lambda j, y_left, y: -0.3 * y + 0.1, lambda j, y_left, y: -np.tanh(y) - 0.2 * y],
    ids=["affine", "tanh"],
)
def test_a_clock_rate_without_a_rate_takes_the_root_finder(g):
    # Driver.zero(g=...) has f=None; its live clock levels go through the
    # root finder, which reads the absent rate as zero
    lat = Lattice(TimeGrid(1.0, 40))
    A = IncreasingProcess.from_time_atoms(lat, {6: 1.0, 20: 0.5, 39: 2.0})
    bounds = GrowthBounds.constants(lat, eta=0.0, C=0.0, A=A)
    calls = []

    def counted(j, y_left, y):
        calls.append(j)
        return g(j, y_left, y)

    drv = Driver.zero(g=counted, bounds=bounds)
    xi = signed_zero_terminals(lat)
    for bars in (free_barriers(lat, xi), band_barriers(lat, xi, 0.3)):
        calls.clear()
        sol = solve_rbsde(lat, drv, bars)
        # only the three live levels evaluate, at base, at y0 and beyond
        assert set(calls) == {5, 19, 38}
        assert min(calls.count(j) for j in (5, 19, 38)) >= 3
        same_solutions([sol], [solve_rbsde(lat, spelled_out(drv), bars)])


def test_a_plain_penalty_without_a_rate_takes_the_root_finder(lat):
    # a penalty without pieces leaves the closed form: the root finder
    # reads the absent rate as zero
    def penalty(j, y):
        return 0.5 * np.maximum(0.2 - y, 0.0)

    drv = Driver(f=None, slope=0.0, penalty=penalty)
    xi = signed_zero_terminals(lat)
    bars = band_barriers(lat, xi, 0.3)
    twin = spelled_out(drv)
    same_solutions([solve_rbsde(lat, drv, bars)], [solve_rbsde(lat, twin, bars)])


@pytest.mark.parametrize("center", [0.0, -0.0, 0.25])
def test_a_float_zero_center_gives_the_bits_of_subtracting_it(center, lat):
    # the step skips z - 0.0, which is z; z - (-0.0) differs from z only
    # in the sign of a zero, which the tilt does not read
    w = tilt_offsets()
    if center == 0.0:
        for coef in (0.7, -1.3, 0.0, np.array([[0.7], [0.0]])):
            want = solver._tilt_increment(coef, w - np.asarray(center), 0.3)
            assert same_bits(solver._tilt_increment(coef, w, 0.3), want)
    # a solve with the float center is one with the center as an array
    bars = band_barriers(lat, signed_zero_terminals(lat), 0.3)
    drv = dataclasses.replace(Driver.quadratic(0.9), quad=lambda level: (0.9, center))
    subtracted = dataclasses.replace(drv, quad=lambda level: (0.9, np.array(center)))
    same_solutions([solve_rbsde(lat, drv, bars)], [solve_rbsde(lat, subtracted, bars)])
