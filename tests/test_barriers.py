import math
import tracemalloc

import numpy as np
import pytest

from rbsdelab.barriers import (
    BarrierSet,
    InfeasibleBarriers,
    check_left_constraint,
    envelope_profile,
    envelope_star_profile,
)
from rbsdelab.drivers import Driver, GrowthBounds, SemimartingaleSpec
from rbsdelab.lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    level_offset,
)
from rbsdelab.oracle import envelope_brute_force
from rbsdelab.penalize import reduce_and_solve
from rbsdelab.snell import SnellInstance, snell_envelope
from rbsdelab.solver import solve_rbsde


@pytest.fixture
def lat():
    return Lattice(TimeGrid(1.0, 4))


# hand case: atoms at t1 and t3 of a 5-point grid, weight n = 1
TIMES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
GVALS = np.array([9.0, 1.0, 5.0, 2.0, 7.0])
WEIGHTS = np.array([0.0, 1.0, 0.0, 2.0, 0.0])


def test_envelope_hand_case():
    prof = envelope_profile(TIMES, GVALS, WEIGHTS, 1.0)
    assert np.array_equal(
        prof.values, [-np.inf, 1.0, 0.75, 2.0, 1.75]
    )
    assert np.array_equal(
        prof.left_limit_values, [-np.inf, -np.inf, 0.75, 0.5, 1.75]
    )
    assert prof.n == 1.0


def test_envelope_zero_weight_is_running_max():
    prof = envelope_profile(TIMES, GVALS, WEIGHTS, 0.0)
    assert np.array_equal(prof.values, [-np.inf, 1.0, 1.0, 2.0, 2.0])


def test_envelope_star_hand_case():
    prof = envelope_star_profile(TIMES, GVALS, WEIGHTS)
    assert np.array_equal(
        prof.values, [-np.inf, 1.0, -np.inf, 2.0, -np.inf]
    )
    assert np.all(np.isneginf(prof.left_limit_values))
    assert prof.n == math.inf


def test_envelope_drift_compensation():
    # value(t) + n*t is the running max of g + n*s over atoms: nondecreasing
    rng = np.random.default_rng(7)
    for _ in range(20):
        npts = rng.integers(2, 40)
        times = np.sort(rng.uniform(0, 1, npts))
        times[0] = 0.0
        g = rng.normal(0, 3, npts)
        w = np.where(rng.random(npts) < 0.4, rng.uniform(0.1, 2, npts), 0.0)
        n = float(rng.uniform(0, 10))
        prof = envelope_profile(times, g, w, n)
        lifted = prof.values + n * times
        fin = np.isfinite(lifted)
        if fin.any():
            k0 = int(np.argmax(fin))
            assert not fin[:k0].any()  # -inf exactly until the first atom
            assert np.all(np.diff(lifted[k0:]) >= -1e-12)


def _within_4ulp(a, b):
    # equality covers shared infinities; spacing handles the finite part
    same = a == b
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b) <= 4.0 * np.spacing(
            np.maximum(np.abs(a), np.abs(b))
        )
    return bool(np.all(same | gap))


def test_envelope_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(25):
        npts = rng.integers(2, 60)
        times = np.unique(rng.uniform(0, 1, npts))
        g = rng.normal(0, 2, times.size)
        w = np.where(
            rng.random(times.size) < 0.5,
            rng.uniform(0.05, 1, times.size),
            0.0,
        )
        n = float(rng.choice([0.0, 0.5, 3.0, 50.0]))
        fast = envelope_profile(times, g, w, n)
        slow_values, slow_left = envelope_brute_force(times, g, w, n)
        assert _within_4ulp(fast.values, slow_values)
        assert _within_4ulp(fast.left_limit_values, slow_left)


def test_envelope_scan_matches_the_per_point_loop():
    # the scan keeps the earliest maximizing atom, as a left-to-right
    # loop with a strict comparison does: ties, infinities and signed
    # zeros give bitwise the loop's values
    def loop(t, g, w, n):
        values, left = np.empty_like(t), np.empty_like(t)
        best_key, best = -np.inf, -1
        for k in range(t.size):
            left[k] = -np.inf if best < 0 else g[best] - n * (t[k] - t[best])
            if w[k] > 0.0 and g[k] + n * t[k] > best_key:
                best_key, best = g[k] + n * t[k], k
            values[k] = -np.inf if best < 0 else g[best] - n * (t[k] - t[best])
        return values, left

    rng = np.random.default_rng(23)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        t = np.cumsum(rng.choice([0.25, 0.5, 1.0], size)) - 0.25
        g = rng.choice([-np.inf, np.inf, -0.0, 0.0, -1.0, 0.5, 2.0], size)
        w = rng.choice([0.0, 1.0], size)
        n = float(rng.choice([0.0, 1.0, 2.0]))
        prof = envelope_profile(t, g, w, n)
        values, left = loop(t, g, w, n)
        assert prof.values.tobytes() == values.tobytes()
        assert prof.left_limit_values.tobytes() == left.tobytes()


def padded_profiles(seed=29, count=40):
    """Profiles of mixed lengths, with infinite values, zero weights and
    profiles without atoms, and their rows padded with later non-atoms."""
    rng = np.random.default_rng(seed)
    profiles = []
    for k in range(count):
        size = int(rng.integers(1, 30))
        times = np.cumsum(rng.uniform(0.01, 1.0, size))
        g = rng.normal(0.0, 3.0, size)
        g[rng.random(size) < 0.15] = -np.inf
        g[rng.random(size) < 0.1] = np.inf
        w = np.where(rng.random(size) < 0.5, rng.exponential(1.0, size), 0.0)
        if k % 7 == 0:
            w[:] = 0.0
        n = 0.0 if k % 5 == 0 else float(10.0 ** rng.uniform(-2, 3))
        profiles.append((times, g, w, n))
    width = max(p[0].size for p in profiles)
    times, w = np.zeros((count, width)), np.zeros((count, width))
    g = np.full((count, width), -np.inf)
    for r, (t1, g1, w1, _) in enumerate(profiles):
        size = t1.size
        times[r] = np.concatenate([t1, t1[-1] + 1.0 + np.arange(width - size)])
        g[r, :size] = g1
        w[r, :size] = w1
    return profiles, (times, g, w, np.array([p[3] for p in profiles]))


def test_envelope_rows_are_bitwise_the_one_row_calls():
    profiles, (times, g, w, n) = padded_profiles()
    prof = envelope_profile(times, g, w, n)
    slow_values, slow_left = envelope_brute_force(times, g, w, n)
    assert np.array_equal(prof.n, n) and not prof.n.flags.writeable
    for r, (t1, g1, w1, n1) in enumerate(profiles):
        real = slice(0, t1.size)
        one = envelope_profile(t1, g1, w1, n1)
        ref_values, ref_left = envelope_brute_force(t1, g1, w1, n1)
        assert prof.values[r, real].tobytes() == one.values.tobytes()
        assert prof.left_limit_values[r, real].tobytes() == (
            one.left_limit_values.tobytes()
        )
        assert slow_values[r, real].tobytes() == ref_values.tobytes()
        assert slow_left[r, real].tobytes() == ref_left.tobytes()
        # the padded row through the 1-d call: the pads change nothing
        padded = envelope_profile(times[r], g[r], w[r], n1)
        assert padded.values[real].tobytes() == one.values.tobytes()
        assert padded.left_limit_values[real].tobytes() == (
            one.left_limit_values.tobytes()
        )


def test_envelope_rows_share_one_row_of_times():
    rng = np.random.default_rng(31)
    g = rng.normal(0.0, 1.0, (3, 2, TIMES.size))
    w = np.where(rng.random(g.shape) < 0.5, 1.0, 0.0)
    prof = envelope_profile(TIMES, g, w, 2.0)
    star = envelope_star_profile(TIMES, g, w)
    assert prof.values.shape == star.values.shape == g.shape
    for i in range(3):
        for j in range(2):
            one = envelope_profile(TIMES, g[i, j], w[i, j], 2.0)
            assert prof.values[i, j].tobytes() == one.values.tobytes()
            one_star = envelope_star_profile(TIMES, g[i, j], w[i, j])
            assert star.values[i, j].tobytes() == one_star.values.tobytes()


def test_envelope_validation():
    with pytest.raises(ValueError):
        envelope_profile(TIMES, GVALS[:3], WEIGHTS, 1.0)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, np.where(GVALS > 3, np.nan, GVALS), WEIGHTS, 1.0)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, GVALS, -WEIGHTS, 1.0)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, GVALS, WEIGHTS, -1.0)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, GVALS, WEIGHTS, np.inf)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, np.stack([GVALS] * 2), WEIGHTS, 1.0)
    rows = np.stack([GVALS] * 2), np.stack([WEIGHTS] * 2)
    with pytest.raises(ValueError):
        envelope_profile(TIMES, *rows, [1.0, -1.0])


@pytest.mark.parametrize("profile", [envelope_profile, envelope_star_profile])
@pytest.mark.parametrize(
    "weights", [[0.0, np.nan, -1.0], [0.0, -1.0, 1.0], [0.0, np.inf, 1.0]]
)
def test_both_profiles_reject_invalid_clock_masses(profile, weights):
    args = (1.0,) if profile is envelope_profile else ()
    with pytest.raises(ValueError, match="clock weights must be finite and >= 0"):
        profile([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], weights, *args)


@pytest.mark.parametrize("profile", [envelope_profile, envelope_star_profile])
@pytest.mark.parametrize(
    "times",
    [
        [0.0, np.nan, 1.0],
        [0.0, 1.0, np.inf],
        [0.0, 1.0, 1.0],
        [[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]],
    ],
    ids=["nan", "inf", "repeated", "row_decreasing"],
)
def test_both_profiles_reject_invalid_times(profile, times):
    # a NaN time once gave [1, nan, 0] silently
    args = (1.0,) if profile is envelope_profile else ()
    g, w = np.ones((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="times must be finite and strictly"):
        profile(times, g, w, *args)


@pytest.mark.parametrize("profile", [envelope_profile, envelope_star_profile])
def test_both_profiles_check_shapes_and_nan(profile):
    args = (1.0,) if profile is envelope_profile else ()
    with pytest.raises(ValueError, match="equal-shape rows"):
        profile(TIMES, GVALS, WEIGHTS[:3], *args)
    with pytest.raises(ValueError, match="equal-shape rows"):
        profile(TIMES[:3], GVALS, WEIGHTS, *args)
    rows = np.stack([GVALS] * 2), np.stack([WEIGHTS] * 2)
    with pytest.raises(ValueError, match="equal-shape rows"):
        profile(np.stack([TIMES] * 3), *rows, *args)
    with pytest.raises(ValueError, match="equal-shape rows"):
        profile(1.0, 2.0, 1.0, *args)
    with pytest.raises(ValueError, match="NaN"):
        profile(TIMES, np.where(GVALS > 3, np.nan, GVALS), WEIGHTS, *args)


def test_envelope_result_frozen():
    prof = envelope_profile(TIMES, GVALS, WEIGHTS, 1.0)
    with pytest.raises(ValueError):
        prof.values[0] = 0.0


def test_envelope_of_a_clock_at_grid_times(lat):
    rho = IncreasingProcess.from_time_atoms(lat, {1: 1.0, 3: 2.0})
    weights = rho.weights_by_time()
    assert np.array_equal(weights, WEIGHTS)
    prof = envelope_profile(lat.times, GVALS, weights, 1.0)
    star = envelope_star_profile(lat.times, GVALS, weights)
    # grid times 0.5, 1.0 and 0.75 are levels 2, 4 and 3
    assert prof.values[2] == 0.75
    assert prof.values[4] == 1.75
    assert star.values[3] == 2.0
    assert star.values[2] == -np.inf


def test_envelope_star_dominated_by_finite_n(lat):
    # the hard envelope is the monotone limit from below of the finite-n
    # ones: star <= finite-n for every n, equality on atoms
    rho = IncreasingProcess.from_time_atoms(lat, {2: 1.0})
    weights = rho.weights_by_time()
    g = np.array([0.0, 0.0, 4.0, 0.0, 0.0])
    star = envelope_star_profile(lat.times, g, weights).values
    for n in (0.0, 1.0, 10.0, 1e6):
        finite = envelope_profile(lat.times, g, weights, n).values
        assert np.all(star <= finite + 1e-9)
        on = weights > 0.0
        assert np.array_equal(star[on], finite[on])


def test_barrier_build_defaults(lat):
    xi = lat.brownian(lat.steps)
    bars = BarrierSet.build(lat, xi)
    assert np.array_equal(bars.xi, xi)
    assert np.all(np.isneginf(bars.L.level(2)))
    assert np.all(np.isposinf(bars.U.level(2)))
    assert np.array_equal(bars.L.terminal(), xi)
    assert np.array_equal(bars.U.terminal(), xi)
    low, high = bars.low.level(lat.steps), bars.high.level(lat.steps)
    assert np.array_equal(low, xi)
    assert np.array_equal(high, xi)
    # no clock charges: each merged band is its node obstacle's storage
    for j in range(lat.steps + 1):
        low, high = bars.low.level(j), bars.high.level(j)
        assert np.shares_memory(low, bars.L.level(j))
        assert np.shares_memory(high, bars.U.level(j))


def test_an_unconstrained_set_keeps_only_its_node_obstacles():
    # the absent pieces are constants, stored as one value each; only L
    # and U, which end at xi, hold packed buffers (and low and high are
    # those, since no clock charges)
    lat = Lattice(TimeGrid(1.0, 2000))
    xi = lat.brownian(lat.steps)
    buffer = 8 * level_offset(lat.steps + 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bars = BarrierSet.build(lat, xi)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bars.low is bars.L and bars.high is bars.U
    assert kept <= 2 * buffer + 2**20


def full_of(X):
    """The constant process ``X`` rebuilt on a packed buffer of its own."""
    return type(X)(X.lattice, np.full(X.values.shape, X.values[0]))


def same_bits(a, b):
    return all(
        getattr(a, k).values.tobytes() == getattr(b, k).values.tobytes()
        for k in ("Y", "Z", "Kplus", "Kminus", "drift")
    )


def test_unconstrained_solve_is_bitwise_the_one_on_full_buffers():
    lat = Lattice(TimeGrid(1.0, 200))
    xi = np.sin(lat.brownian(lat.steps))
    views = BarrierSet.build(lat, xi)
    pieces = {k: getattr(views, k) for k in ("l", "u", "delta", "alpha")}
    full = BarrierSet.build(
        lat,
        xi,
        L=full_of(AdaptedProcess.constant(lat, -np.inf)),
        U=full_of(AdaptedProcess.constant(lat, np.inf)),
        **{k: full_of(p) for k, p in pieces.items()},
    )
    assert views.delta.values.strides == (0,)
    assert full.delta.values.strides == (8,)
    drv = Driver.quadratic(0.7)
    assert same_bits(solve_rbsde(lat, drv, views), solve_rbsde(lat, drv, full))


def test_snell_envelope_is_bitwise_the_one_on_full_buffers():
    # an American put on the walk, under a constant martingale witness
    lat = Lattice(TimeGrid(1.0, 200))
    walk = np.concatenate([lat.brownian(i) for i in range(lat.steps + 1)])
    L = AdaptedProcess(lat, np.maximum(1.0 - np.exp(0.3 * walk), 0.0))
    pieces = (
        PredictableProcess.constant(lat, -np.inf),
        IncreasingProcess.zero(lat),
        IncreasingProcess.zero(lat),
        IncreasingProcess.zero(lat),
        PredictableProcess.constant(lat, 0.0),
    )

    def envelope(l, delta, vplus, vminus, gamma):
        spec = SemimartingaleSpec(1.0, vplus, vminus, gamma)
        return snell_envelope(
            SnellInstance(L, l, delta, L.terminal(), witness=spec)
        )

    views = envelope(*pieces)
    assert same_bits(views, envelope(*map(full_of, pieces)))
    assert views.value() > 0.0


def test_reduction_is_bitwise_the_one_on_full_buffers():
    # a linear rate pushed up against a flat cap, a floor on the left
    # limit charged at every grid time, the zero process as witness and
    # constant growth bounds that dominate the rate on [-0.2, 0.1]
    lat = Lattice(TimeGrid(1.0, 200))
    pieces = (
        AdaptedProcess.constant(lat, -0.2),
        AdaptedProcess.constant(lat, 0.1),
        PredictableProcess.constant(lat, -0.1),
        IncreasingProcess.lebesgue(lat),
        IncreasingProcess.zero(lat),
        PredictableProcess.constant(lat, 0.0),
    )
    bounds = GrowthBounds.constants(lat, eta=0.58, C=0.5)

    def reduce(L, U, l, delta, zero, gamma, eta, C, beta, A):
        spec = SemimartingaleSpec(0.0, zero, zero, gamma)
        bars = BarrierSet.build(
            lat, 0.0, L=L, U=U, l=l, delta=delta, witness=spec
        )
        drv = Driver.linear(
            0.2, -0.4, 0.3, bounds=GrowthBounds(eta, C, beta, A)
        )
        return reduce_and_solve(lat, drv, bars)

    parts = pieces + (bounds.eta, bounds.C, bounds.beta, bounds.A)
    assert all(p.values.strides == (0,) for p in parts)
    views, full = reduce(*parts), reduce(*map(full_of, parts))
    assert np.any(views.Kminus.values > 0.0)
    assert same_bits(views, full)


def test_barrier_terminal_must_be_finite(lat):
    with pytest.raises(ValueError):
        BarrierSet.build(lat, np.full(lat.steps + 1, np.inf))


def test_barrier_normalization_required(lat):
    L = AdaptedProcess.constant(lat, -1.0)
    U = AdaptedProcess.constant(lat, 1.0)
    kw = dict(
        l=PredictableProcess.constant(lat, -np.inf),
        u=PredictableProcess.constant(lat, np.inf),
        delta=IncreasingProcess.zero(lat),
        alpha=IncreasingProcess.zero(lat),
    )
    with pytest.raises(ValueError):
        BarrierSet(L, U, **kw)  # terminals differ
    xi = np.zeros(lat.steps + 1)
    bars = BarrierSet(L.with_terminal(xi), U.with_terminal(xi), **kw)
    assert np.array_equal(bars.xi, xi)


def test_barrier_rejects_wrong_infinities(lat):
    xi = np.zeros(lat.steps + 1)
    L_bad = AdaptedProcess.constant(lat, np.inf)
    with pytest.raises(ValueError):
        BarrierSet.build(lat, xi, L=L_bad)
    U_bad = AdaptedProcess.constant(lat, -np.inf)
    with pytest.raises(ValueError):
        BarrierSet.build(lat, xi, U=U_bad)
    with pytest.raises(ValueError):
        BarrierSet.build(
            lat,
            xi,
            l=PredictableProcess.constant(lat, np.inf),
            delta=IncreasingProcess.lebesgue(lat),
        )
    with pytest.raises(ValueError):
        BarrierSet.build(
            lat,
            xi,
            u=PredictableProcess.constant(lat, -np.inf),
            alpha=IncreasingProcess.lebesgue(lat),
        )


def test_barrier_grid_mismatch(lat):
    other = Lattice(TimeGrid(1.0, 5))
    with pytest.raises(ValueError):
        BarrierSet.build(
            lat,
            np.zeros(lat.steps + 1),
            L=AdaptedProcess.constant(other, -1.0),
        )


def test_witness_on_another_grid_is_rejected(lat):
    # equal steps, another horizon: every slot stands for another time
    other = Lattice(TimeGrid(2.0, lat.steps))
    spec = SemimartingaleSpec.from_levels(
        other, np.zeros(level_offset(lat.steps + 1))
    )
    with pytest.raises(ValueError, match="^witness lives on a different grid"):
        BarrierSet.build(lat, np.zeros(lat.steps + 1), witness=spec)
    own = SemimartingaleSpec.from_levels(lat, np.zeros(level_offset(lat.steps + 1)))
    assert BarrierSet.build(lat, np.zeros(lat.steps + 1), witness=own).witness is own


def test_effective_barriers_merge(lat):
    xi = np.zeros(lat.steps + 1)
    L = AdaptedProcess.constant(lat, -1.0)
    U = AdaptedProcess.constant(lat, 1.0)
    l = PredictableProcess.from_time_values(lat, {2: -0.5})
    u = PredictableProcess.from_time_values(lat, {3: 0.25}, fill=np.inf)
    delta = IncreasingProcess.from_time_atoms(lat, {2: 1.0})
    alpha = IncreasingProcess.from_time_atoms(lat, {3: 1.0})
    bars = BarrierSet.build(
        lat, xi, L=L, U=U, l=l, u=u, delta=delta, alpha=alpha
    )
    low, high = bars.low.level(1), bars.high.level(1)  # t2 charged by delta
    assert np.all(low == -0.5)
    assert np.all(high == 1.0)
    low, high = bars.low.level(2), bars.high.level(2)  # t3 charged by alpha
    assert np.all(low == -1.0)
    assert np.all(high == 0.25)
    low, high = bars.low.level(0), bars.high.level(0)  # nothing charges t1
    assert np.all(low == -1.0)
    assert np.all(high == 1.0)


def test_effective_barriers_ignore_value_off_support(lat):
    # a predictable obstacle entry where the clock puts no mass is inert
    xi = np.zeros(lat.steps + 1)
    l = PredictableProcess.constant(lat, 99.0)
    bars = BarrierSet.build(
        lat, xi, l=l, delta=IncreasingProcess.zero(lat)
    )
    for j in range(lat.steps):
        low = bars.low.level(j)
        assert np.all(np.isneginf(low))


def test_effective_barriers_are_the_merge_stored_at_construction(lat):
    # node-dependent clocks and predictable obstacles, both sides, with
    # levels the clocks leave uncharged
    rng = np.random.default_rng(5)
    steps = lat.steps
    xi = rng.normal(0.0, 0.1, steps + 1)
    L = AdaptedProcess(
        lat, [rng.uniform(-2.0, -1.0, i + 1) for i in range(steps + 1)]
    ).with_terminal(xi)
    U = AdaptedProcess(
        lat, [rng.uniform(1.0, 2.0, i + 1) for i in range(steps + 1)]
    ).with_terminal(xi)
    l = PredictableProcess(
        lat, [rng.uniform(-1.5, 0.0, i + 1) for i in range(steps)]
    )
    u = PredictableProcess(
        lat, [rng.uniform(0.0, 1.5, i + 1) for i in range(steps)]
    )
    charged = {1, 3}
    delta = IncreasingProcess(
        lat,
        [
            np.where(np.arange(i + 1) % 2 == 0, 1.0, 0.0)
            if i in charged
            else np.zeros(i + 1)
            for i in range(steps)
        ],
    )
    alpha = IncreasingProcess(
        lat,
        [
            np.where(np.arange(i + 1) % 2 == 1, 0.5, 0.0)
            if i in charged
            else np.zeros(i + 1)
            for i in range(steps)
        ],
    )
    bars = BarrierSet(L, U, l, u, delta, alpha)
    for j in range(steps):
        low, high = bars.low.level(j), bars.high.level(j)
        expect_low = L.level(j).copy()
        expect_high = U.level(j).copy()
        for k in range(j + 1):
            if delta.atom(j)[k] > 0.0:
                expect_low[k] = max(expect_low[k], l.atom(j)[k])
            if alpha.atom(j)[k] > 0.0:
                expect_high[k] = min(expect_high[k], u.atom(j)[k])
        assert np.array_equal(low, expect_low)
        assert np.array_equal(high, expect_high)
        assert not low.flags.writeable and not high.flags.writeable
        if j not in charged:
            assert np.array_equal(low, L.level(j))
            assert np.array_equal(high, U.level(j))
    assert np.any(bars.low.level(1) != L.level(1))
    assert np.any(bars.high.level(3) != U.level(3))
    low, high = bars.low.level(steps), bars.high.level(steps)
    assert np.array_equal(low, bars.xi) and np.array_equal(high, bars.xi)
    assert not low.flags.writeable and not high.flags.writeable


def test_infeasible_predictable_obstacle_raises_at_construction(lat):
    # the floor at t3 crosses the upper node obstacle at node 2 only
    xi = np.zeros(lat.steps + 1)
    floor = np.array([0.0, 0.5, 3.0])
    l = PredictableProcess(
        lat,
        [
            floor if i == 2 else np.full(i + 1, -np.inf)
            for i in range(lat.steps)
        ],
    )
    with pytest.raises(InfeasibleBarriers) as err:
        BarrierSet.build(
            lat,
            xi,
            U=AdaptedProcess.constant(lat, 1.0),
            l=l,
            delta=IncreasingProcess.from_time_atoms(lat, {3: 1.0}),
        )
    assert err.value.level == 2
    assert err.value.node == 2
    assert err.value.low == 3.0
    assert err.value.high == 1.0


def test_the_first_defect_by_level_is_raised():
    # two defects of two kinds: whichever sits at the lower level wins
    lat = Lattice(TimeGrid(1.0, 6))
    xi = np.zeros(lat.steps + 1)
    U = AdaptedProcess.constant(lat, 1.0)

    def lower(defects):
        levels = [np.full(i + 1, -1.0) for i in range(lat.steps + 1)]
        for i, value in defects.items():
            levels[i][0] = value
        return AdaptedProcess(lat, levels)

    # a +inf lower obstacle at level 1 before an infeasible level 3
    with pytest.raises(ValueError, match=r"takes the value \+inf"):
        BarrierSet.build(lat, xi, L=lower({1: np.inf, 3: 2.0}), U=U)
    # an infeasible level 2 before a +inf lower obstacle at level 4
    with pytest.raises(InfeasibleBarriers) as err:
        BarrierSet.build(lat, xi, L=lower({2: 2.0, 4: np.inf}), U=U)
    assert err.value.level == 2
    assert err.value.node == 0


def test_infeasible_barriers_name_the_node(lat):
    xi = np.zeros(lat.steps + 1)
    L = AdaptedProcess.constant(lat, 0.0)
    levels = [np.full(i + 1, 5.0) for i in range(lat.steps + 1)]
    levels[2][1] = -3.0  # crossing at level 2, node 1
    U = AdaptedProcess(lat, levels)
    with pytest.raises(InfeasibleBarriers) as err:
        BarrierSet.build(lat, xi, L=L, U=U)
    assert err.value.level == 2
    assert err.value.node == 1
    assert err.value.low == 0.0
    assert err.value.high == -3.0


def test_check_left_constraint(lat):
    Y = AdaptedProcess(lat, [lat.brownian(i) for i in range(lat.steps + 1)])
    rho = IncreasingProcess.from_time_atoms(lat, {3: 1.0})
    # constraint reads the level before the atom: level 2 here
    g_ok = PredictableProcess(
        lat, [lat.brownian(i) - 0.1 for i in range(lat.steps)]
    )
    assert check_left_constraint(Y, g_ok, rho)
    bad = [lat.brownian(i) - 0.1 for i in range(lat.steps)]
    bad[2] = lat.brownian(2) + 0.1
    g_bad = PredictableProcess(lat, bad)
    assert not check_left_constraint(Y, g_bad, rho)
    # the violation is invisible to a clock that never charges t3
    rho_off = IncreasingProcess.from_time_atoms(lat, {1: 1.0})
    assert check_left_constraint(Y, g_bad, rho_off)


def test_check_left_constraint_checks_every_grid(lat):
    short = Lattice(TimeGrid(1.0, 3))
    Y = AdaptedProcess.constant(short, 0.0)
    rho = IncreasingProcess.from_time_atoms(short, {2: 1.0})
    # same depth on a longer horizon, then one level deeper
    for other in (Lattice(TimeGrid(2.0, 3)), lat):
        g = PredictableProcess.constant(other, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            check_left_constraint(Y, g, rho)
        with pytest.raises(ValueError, match="different grids"):
            check_left_constraint([Y], [g], [rho])


def test_check_left_constraint_rows_are_the_one_row_calls():
    rng = np.random.default_rng(37)
    rows = []
    for horizon in (0.5, 1.0, 1.5, 2.0, 2.5):
        row_lat = Lattice(TimeGrid(horizon, 3))
        Y = AdaptedProcess(row_lat, rng.normal(0.0, 1.0, 10))
        g = PredictableProcess(row_lat, Y.values[:6] + rng.normal(0.0, 0.3, 6))
        rho = IncreasingProcess(row_lat, np.where(rng.random(6) < 0.5, 1.0, 0.0))
        rows.append((Y, g, rho))
    verdicts = check_left_constraint(*zip(*rows))
    assert verdicts.tolist() == [check_left_constraint(*row) for row in rows]
    assert verdicts.any() and not verdicts.all()
    # one clock for two rows
    Ys, gs, _ = zip(*rows[:2])
    with pytest.raises(ValueError):
        check_left_constraint(Ys, gs, [rows[0][2]])
