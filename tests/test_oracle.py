import math
import tracemalloc

import numpy as np
import pytest

from rbsdelab.lattice import (
    AdaptedProcess,
    Lattice,
    TimeGrid,
    all_paths,
    expectation_level,
    path_nodes,
)
from rbsdelab.oracle import (
    DepthTooLarge,
    NoValue,
    StoppingRule,
    envelope_brute_force,
    exhaustive_dynkin_value,
    exhaustive_stopping_value,
    linear_continuous_value,
    quadratic_closed_form,
    quadratic_continuous_value,
    stopping_rule_value,
)


def adapted(lat, levels):
    return AdaptedProcess(lat, [np.asarray(v, dtype=float) for v in levels])


def test_rule_decoding():
    rule = StoppingRule.from_bitmask(3, 0b001100)
    # bits fill level 0 first, then level 1 (2 nodes), then level 2
    assert not rule.marks[0][0]
    assert np.array_equal(rule.marks[1], [False, True])
    assert np.array_equal(rule.marks[2], [True, False, False])
    assert rule.stop_level([0, 0, 0]) == 2  # down-down hits level-2 node 0
    assert rule.stop_level([1, 0, 0]) == 1  # up first: level-1 node 1
    assert rule.stop_level([0, 1, 1]) == 3  # never marked: terminal


def test_rule_shape_validation():
    with pytest.raises(ValueError):
        StoppingRule([np.array([True, False])])


def test_rule_value_by_hand():
    # stop only at the up node of level 1: paths ud/uu collect the
    # stop payoff, dd/du run to the terminal condition
    lat = Lattice(TimeGrid(1.0, 2))
    L = adapted(lat, [[0.5], [0.0, 2.0], [0.0, 0.0, 0.0]])
    xi = np.array([3.0, 1.0, 0.0])
    rule = StoppingRule([[False], [False, True]])
    v = stopping_rule_value(L, xi, rule)
    assert v == (3.0 + 1.0 + 2.0 + 2.0) / 4.0
    stop_now = StoppingRule([[True], [False, False]])
    assert stopping_rule_value(L, xi, stop_now) == 0.5


def test_exhaustive_stopping_by_hand():
    # at the up node stopping (2.0) beats continuing (0.5); at the down
    # node continuing (2.0) beats stopping (0.0); at the root
    # continuing (2.0) beats stopping (0.5)
    lat = Lattice(TimeGrid(1.0, 2))
    L = adapted(lat, [[0.5], [0.0, 2.0], [0.0, 0.0, 0.0]])
    xi = np.array([3.0, 1.0, 0.0])
    assert exhaustive_stopping_value(L, xi) == 2.0


def test_exhaustive_stopping_vs_recursion():
    # independent check of the enumeration: the one-step recursion
    # value max(E, payoff) must coincide at the root
    rng = np.random.default_rng(5)
    for depth in (1, 2, 3, 4):
        lat = Lattice(TimeGrid(1.0, depth))
        for _ in range(8):
            L = adapted(
                lat, [rng.normal(0, 1, i + 1) for i in range(depth + 1)]
            )
            xi = rng.normal(0, 1, depth + 1)
            v = xi
            for i in range(depth - 1, -1, -1):
                v = np.maximum(expectation_level(v), L.level(i))
            enum = exhaustive_stopping_value(L, xi)
            assert abs(enum - v[0]) <= 1e-12


def test_stopping_depth_cap():
    lat = Lattice(TimeGrid(1.0, 6))
    L = AdaptedProcess.constant(lat, 0.0)
    with pytest.raises(DepthTooLarge):
        exhaustive_stopping_value(L, np.zeros(7), max_depth=5)
    with pytest.raises(TypeError):
        exhaustive_stopping_value([0.0], np.zeros(7))


def test_dynkin_by_hand():
    # the controller stops at t1 to cap the payoff at 0.2; waiting
    # would leave the mean terminal payoff 2.0 on the table
    lat = Lattice(TimeGrid(1.0, 2))
    xi = np.array([4.0, 0.0, 4.0])
    L = adapted(lat, [[0.0], [0.0, 0.0], xi])
    U = adapted(lat, [[10.0], [0.2, 0.2], xi])
    v = exhaustive_dynkin_value(L, U, xi)
    assert abs(v - 0.2) <= 1e-12


def test_dynkin_stopper_priority():
    # simultaneous stopping pays the stopper's obstacle, so the stopper
    # can always lock in L at the root
    lat = Lattice(TimeGrid(1.0, 1))
    xi = np.array([-5.0, -5.0])
    L = adapted(lat, [[1.0], xi])
    U = adapted(lat, [[0.0], xi])  # crossed on purpose
    v = exhaustive_dynkin_value(L, U, xi)
    assert v == 1.0


def test_dynkin_vs_clipped_recursion():
    rng = np.random.default_rng(9)
    for depth in (1, 2, 3):
        lat = Lattice(TimeGrid(1.0, depth))
        for _ in range(6):
            low = [rng.normal(0, 1, i + 1) for i in range(depth)]
            high = [lo + rng.uniform(0.0, 2.0, lo.size) for lo in low]
            xi = rng.normal(0, 1, depth + 1)
            L = adapted(lat, low + [xi])
            U = adapted(lat, high + [xi])
            v = xi
            for i in range(depth - 1, -1, -1):
                v = np.clip(expectation_level(v), low[i], high[i])
            enum = exhaustive_dynkin_value(L, U, xi)
            assert abs(enum - v[0]) <= 1e-12


def test_dynkin_depth_cap():
    lat = Lattice(TimeGrid(1.0, 5))
    L = AdaptedProcess.constant(lat, 0.0)
    U = AdaptedProcess.constant(lat, 1.0)
    xi = np.zeros(6)
    with pytest.raises(DepthTooLarge):
        exhaustive_dynkin_value(L, U, xi)
    with pytest.raises(DepthTooLarge):
        # raising max_depth does not lift the rule-bit budget
        exhaustive_dynkin_value(L, U, xi, max_depth=5)


def test_no_value_reporting():
    err = NoValue(1.25, 1.5)
    assert err.maxmin == 1.25
    assert err.minmax == 1.5
    assert "1.25" in str(err) and "1.5" in str(err)


def test_quadratic_constant_payoff():
    xi = np.full(6, 3.25)
    for c in (0.1, 0.5, 2.0):
        assert abs(quadratic_closed_form(c, xi) - 3.25) <= 1e-12


def test_quadratic_depth_one_cosh():
    # two equally likely outcomes +-a: the log-average collapses to
    # log(cosh(2 c a)) / (2 c)
    a = 0.7
    for c in (0.1, 0.5, 2.0, 10.0):
        v = quadratic_closed_form(c, np.array([-a, a]))
        assert abs(v - math.log(math.cosh(2 * c * a)) / (2 * c)) <= 1e-12


def test_quadratic_monotone_in_c():
    rng = np.random.default_rng(2)
    xi = rng.normal(0, 1, 9)
    vals = [quadratic_closed_form(c, xi) for c in (0.01, 0.1, 0.5, 2.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    mean = xi.mean() * 0  # binomial weights, not uniform ones
    n = xi.size - 1
    mean = sum(xi[k] * math.comb(n, k) for k in range(n + 1)) / 2.0 ** n
    assert vals[0] >= mean - 1e-3
    assert abs(quadratic_closed_form(1e-8, xi) - mean) <= 1e-6


def test_quadratic_no_overflow():
    v = quadratic_closed_form(2.0, np.array([300.0, 400.0]))
    assert np.isfinite(v)
    assert 399.0 < v <= 400.0


def test_quadratic_validation():
    with pytest.raises(ValueError):
        quadratic_closed_form(0.0, np.zeros(3))
    with pytest.raises(ValueError):
        quadratic_closed_form(-1.0, np.zeros(3))


@pytest.mark.parametrize("c", [0.5, -0.3])
def test_continuous_quadratic_value_of_the_endpoint(c):
    # E[exp(2c W_T)] = exp(2 c**2 T), so Y_0 = c T
    got = quadratic_continuous_value(c, lambda w: w, horizon=2.0)
    assert abs(got - 2.0 * c) < 1e-12
    with pytest.raises(ValueError):
        quadratic_continuous_value(0.0, lambda w: w)


@pytest.mark.parametrize(
    "a, want",
    [(0.0, 2.2), (0.4, 2.0 * math.exp(0.8) + 0.25 * (math.exp(0.8) - 1.0))],
)
def test_continuous_linear_value_of_an_affine_payoff(a, want):
    # payoff 1 + w with b = 0.5, c = 0.1, T = 2: E[1 + W_T + bT] = 2,
    # grown by e^{aT}, plus the rate c carried to 0
    got = linear_continuous_value(a, 0.5, 0.1, lambda w: 1.0 + w, horizon=2.0)
    assert abs(got - want) < 1e-12


def test_brute_force_envelope_hand_case():
    times = np.array([0.0, 0.5, 1.0])
    g = np.array([5.0, 1.0, 2.0])
    w = np.array([0.0, 1.0, 0.0])
    values, left = envelope_brute_force(times, g, w, 2.0)
    assert np.array_equal(values, [-np.inf, 1.0, 0.0])
    assert np.array_equal(left, [-np.inf, -np.inf, 0.0])


def test_enumeration_covers_all_rules():
    # 2 interior markings at depth 1: stop or wait; the best of the two
    lat = Lattice(TimeGrid(1.0, 1))
    L = adapted(lat, [[0.9], [0.0, 0.0]])
    xi = np.array([0.0, 1.6])
    assert exhaustive_stopping_value(L, xi) == 0.9
    xi2 = np.array([0.0, 2.0])
    assert exhaustive_stopping_value(L, xi2) == 1.0
    assert all_paths(1).shape == (2, 1)


def literal_game(L, U, xi):
    """Both one-sided optima of the stopping game, one ordered pair of
    markings at a time, every marking decoded on its own."""
    steps = L.lattice.steps
    paths = all_paths(steps)
    nodes = path_nodes(paths)
    rules = [
        StoppingRule.from_bitmask(steps, mask)
        for mask in range(2 ** (steps * (steps + 1) // 2))
    ]
    stops = [[rule.stop_level(ups) for ups in paths] for rule in rules]

    def paid(proc, level, p):
        if level == steps:
            return xi[nodes[p, steps]]
        return proc.level(level)[nodes[p, level]]

    J = np.empty((len(rules), len(rules)))
    for a, stop_low in enumerate(stops):
        for b, stop_high in enumerate(stops):
            total = 0.0
            for p in range(len(paths)):
                if stop_low[p] <= stop_high[p]:
                    total += paid(L, stop_low[p], p)
                else:
                    total += paid(U, stop_high[p], p)
            J[a, b] = total / len(paths)
    return J.min(axis=1).max(), J.max(axis=0).min()


def test_dynkin_matches_a_literal_pair_loop():
    rng = np.random.default_rng(21)
    for depth in (1, 1, 2, 2, 2, 3, 3):
        lat = Lattice(TimeGrid(1.0, depth))
        low = [rng.normal(0, 1, i + 1) for i in range(depth)]
        # crossed (U below L) and touching (U equal to L) nodes included
        shift = rng.choice([-0.6, 0.0, 0.4, 1.2], size=depth * (depth + 1) // 2)
        high = [
            lo + shift[i * (i + 1) // 2 : i * (i + 1) // 2 + i + 1]
            for i, lo in enumerate(low)
        ]
        xi = rng.normal(0, 1, depth + 1)
        L = adapted(lat, low + [xi])
        U = adapted(lat, high + [xi])
        maxmin, minmax = literal_game(L, U, xi)
        if abs(maxmin - minmax) > 1e-12:
            with pytest.raises(NoValue) as err:
                exhaustive_dynkin_value(L, U, xi)
            assert abs(err.value.maxmin - maxmin) <= 1e-14
            assert abs(err.value.minmax - minmax) <= 1e-14
        else:
            assert abs(exhaustive_dynkin_value(L, U, xi) - maxmin) <= 1e-14
        # with stopper priority every node's one-shot game has a pure
        # saddle, so crossed obstacles still leave a value; a negative
        # tolerance always raises and exposes both optima
        with pytest.raises(NoValue) as err:
            exhaustive_dynkin_value(L, U, xi, tol=-1.0)
        assert abs(err.value.maxmin - maxmin) <= 1e-14
        assert abs(err.value.minmax - minmax) <= 1e-14


def envelope_index_loop(times, g, weights, n):
    t = np.asarray(times, dtype=float)
    gv = np.asarray(g, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = float(n)
    values = np.full_like(t, -np.inf)
    left = np.full_like(t, -np.inf)
    for k in range(t.size):
        cand = np.where(
            w[: k + 1] > 0.0, gv[: k + 1] - n * (t[k] - t[: k + 1]), -np.inf
        )
        values[k] = cand.max(initial=-np.inf)
        left[k] = cand[:k].max(initial=-np.inf)
    return values, left


def test_envelope_rescan_matches_the_index_loop():
    rng = np.random.default_rng(13)
    profiles = [
        ([0.0], [1.5], [2.0], 3.0),  # a single point
        ([0.0], [1.5], [0.0], 3.0),  # a single point without weight
        ([0.0, 0.5, 2.0], [1.0, -np.inf, 4.0], [0.0, 0.0, 0.0], 1.0),
        ([0.0, 1.0, 1.0, 2.0], [3.0, -np.inf, 5.0, 1.0], [1.0, 1.0, 0.0, 2.0], 0.0),
    ]
    for _ in range(200):
        m = int(rng.integers(1, 80))
        times = np.cumsum(rng.uniform(0.0, 0.5, m))  # repeats possible
        g = rng.normal(0.0, 10.0 ** rng.uniform(-2, 2), m)
        g[rng.random(m) < 0.1] = -np.inf
        w = np.where(rng.random(m) < 0.5, rng.exponential(1.0, m), 0.0)
        if rng.random() < 0.05:
            w[:] = 0.0
        n = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-2, 4)
        profiles.append((times, g, w, n))
    for times, g, w, n in profiles:
        values, left = envelope_brute_force(times, g, w, n)
        ref_values, ref_left = envelope_index_loop(times, g, w, n)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(left, ref_left)


def test_depth_four_game_stays_small():
    rng = np.random.default_rng(4)
    lat = Lattice(TimeGrid(1.0, 4))
    low = [rng.normal(0, 1, i + 1) for i in range(4)]
    xi = rng.normal(0, 1, 5)
    L = adapted(lat, low + [xi])
    U = adapted(lat, [lo + 0.5 for lo in low] + [xi])
    tracemalloc.start()
    try:
        exhaustive_dynkin_value(L, U, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
