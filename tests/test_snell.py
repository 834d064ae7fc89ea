import warnings

import numpy as np
import pytest

from rbsdelab.drivers import Driver, SemimartingaleSpec
from rbsdelab.lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    expectation_level,
)
from rbsdelab.oracle import exhaustive_stopping_value
from rbsdelab.snell import (
    HypothesisAViolated,
    SnellInstance,
    snell_envelope,
)
from rbsdelab.solver import budget_defect, solve_rbsde


def silent_envelope(inst):
    """The envelope of ``inst`` with every warning raised as an error:
    an instance without a witness skips its audit without a word."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return snell_envelope(inst)


def martingale_spec(lat, terminal):
    """Decomposition of the martingale closing at ``terminal``."""
    levels = [np.asarray(terminal, dtype=float)]
    for _ in range(lat.steps):
        levels.append(expectation_level(levels[-1]))
    levels.reverse()
    gamma = [
        (levels[i + 1][1:] - levels[i + 1][:-1]) / (2.0 * lat.sqrt_dt)
        for i in range(lat.steps)
    ]
    zeros = [np.zeros(i + 1) for i in range(lat.steps)]
    spec = SemimartingaleSpec(
        float(levels[0][0]),
        IncreasingProcess(lat, zeros),
        IncreasingProcess(lat, zeros),
        PredictableProcess(lat, gamma),
    )
    return spec, levels


def dominated_instance(steps=6, seed=11, with_witness=True):
    """Obstacles kept under an explicit closing martingale."""
    lat = Lattice(TimeGrid(1.0, steps))
    rng = np.random.default_rng(seed)
    spec, m_levels = martingale_spec(
        lat, np.cosh(lat.brownian(steps)) + rng.uniform(0.0, 0.5, steps + 1)
    )
    L = AdaptedProcess(
        lat,
        [
            m_levels[i] - rng.uniform(0.05, 0.8, i + 1)
            for i in range(steps + 1)
        ],
    )
    k = max(1, steps // 2)
    delta = IncreasingProcess.from_time_atoms(lat, {k: 1.0})
    slots = [np.full(i + 1, -np.inf) for i in range(steps)]
    slots[k - 1] = m_levels[k - 1] - rng.uniform(0.0, 0.2, k)
    l = PredictableProcess(lat, slots)
    xi = m_levels[steps] - rng.uniform(0.0, 0.3, steps + 1)
    return SnellInstance(
        L, l, delta, xi, witness=spec if with_witness else None
    )


def test_audit_rejects_bounded_variation_mass():
    bars = dominated_instance().barriers
    lat = bars.lattice
    spec = bars.witness
    bumped = SemimartingaleSpec(
        spec.s0,
        spec.vplus,
        IncreasingProcess(
            lat,
            [
                np.full(i + 1, 0.1 if i == 2 else 0.0)
                for i in range(lat.steps)
            ],
        ),
        spec.gamma,
    )
    bad = SnellInstance(bars.L, bars.l, bars.delta, bars.xi, witness=bumped)
    with pytest.raises(HypothesisAViolated) as info:
        snell_envelope(bad)
    assert "martingale" in str(info.value)


def test_audit_rejects_obstacle_above_witness():
    inst = dominated_instance()
    lat = inst.barriers.lattice
    levels = [inst.barriers.L.level(i).copy() for i in range(lat.steps + 1)]
    levels[3][1] += 5.0
    bad = SnellInstance(
        AdaptedProcess(lat, levels),
        inst.barriers.l,
        inst.barriers.delta,
        inst.barriers.xi,
        witness=inst.barriers.witness,
    )
    with pytest.raises(HypothesisAViolated) as info:
        bad.audit()
    assert info.value.level == 3
    assert info.value.node == 1


def test_audit_rejects_left_limit_above_witness():
    inst = dominated_instance()
    lat = inst.barriers.lattice
    k = max(1, lat.steps // 2)
    slots = [inst.barriers.l.atom(i).copy() for i in range(lat.steps)]
    slots[k - 1][0] += 5.0
    bad = SnellInstance(
        inst.barriers.L,
        PredictableProcess(lat, slots),
        inst.barriers.delta,
        inst.barriers.xi,
        witness=inst.barriers.witness,
    )
    with pytest.raises(HypothesisAViolated) as info:
        bad.audit()
    assert "left limit" in str(info.value)


def test_missing_witness_skips_the_audit_silently():
    inst = dominated_instance(with_witness=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inst.audit() is None
    sol = silent_envelope(inst)
    assert np.isfinite(sol.value())


def test_envelope_equals_the_general_solver_bitwise():
    inst = dominated_instance()
    sol = snell_envelope(inst)
    general = solve_rbsde(inst.barriers.lattice, Driver.zero(), inst.barriers)
    for i in range(inst.barriers.lattice.steps + 1):
        assert np.array_equal(sol.Y.level(i), general.Y.level(i))
    for j in range(inst.barriers.lattice.steps):
        assert np.array_equal(sol.Z.atom(j), general.Z.atom(j))
        assert np.array_equal(sol.Kplus.atom(j), general.Kplus.atom(j))


def test_envelope_is_a_flat_off_supermartingale():
    inst = dominated_instance(seed=5)
    sol = snell_envelope(inst)
    lat = inst.barriers.lattice
    for j in range(lat.steps):
        E = expectation_level(sol.Y.level(j + 1))
        y = sol.Y.level(j)
        assert np.all(y >= E)
        low = inst.barriers.low.level(j)
        dkp = sol.Kplus.atom(j)
        assert np.all((dkp == 0.0) | (y == low))
        assert not sol.Kminus.atom(j).any()
        assert not sol.drift.atom(j).any()
    assert budget_defect(sol) < 1e-12


def test_constant_floor_by_hand():
    lat = Lattice(TimeGrid(1.0, 2))
    L = AdaptedProcess.constant(lat, 0.5)
    xi = np.array([2.0, 0.0, 2.0])
    inst = SnellInstance(L, None, None, xi)
    sol = silent_envelope(inst)
    # level 1: max(mean children, 0.5) = (1, 1); root: max(1, 0.5)
    assert np.array_equal(sol.Y.level(1), [1.0, 1.0])
    assert sol.value() == 1.0


@pytest.mark.parametrize("steps", range(3, 13))
def test_early_exercise_value_matches_plain_recursion(steps):
    lat = Lattice(TimeGrid(1.0, steps))
    strike = 1.1

    def payoff(i):
        return np.maximum(strike - np.exp(lat.brownian(i)), 0.0)

    L = AdaptedProcess(lat, [payoff(i) for i in range(steps + 1)])
    inst = SnellInstance(L, None, None, payoff(steps))
    sol = silent_envelope(inst)
    v = payoff(steps)
    for i in range(steps - 1, -1, -1):
        v = np.maximum(0.5 * (v[:-1] + v[1:]), payoff(i))
    assert abs(sol.value() - float(v[0])) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_envelope_agrees_with_exhaustive_stopping(seed):
    lat = Lattice(TimeGrid(1.0, 4))
    rng = np.random.default_rng(seed)
    L = AdaptedProcess(
        lat, [rng.uniform(-1.0, 1.0, i + 1) for i in range(lat.steps + 1)]
    )
    xi = rng.uniform(-1.0, 1.0, lat.steps + 1)
    inst = SnellInstance(L, None, None, xi)
    sol = silent_envelope(inst)
    assert abs(sol.value() - exhaustive_stopping_value(L, xi)) < 1e-12


def test_envelope_is_smallest_among_dominating_supermartingales():
    inst = dominated_instance(seed=7)
    lat = inst.barriers.lattice
    sol = snell_envelope(inst)
    rng = np.random.default_rng(17)
    for _ in range(20):
        slack = [rng.uniform(0.0, 0.4, i + 1) for i in range(lat.steps + 1)]
        d = np.asarray(inst.barriers.xi, dtype=float) + slack[lat.steps]
        dominating = [d]
        for j in range(lat.steps - 1, -1, -1):
            low = inst.barriers.low.level(j)
            d = np.maximum(expectation_level(d), low) + slack[j]
            dominating.append(d)
        dominating.reverse()
        for i in range(lat.steps + 1):
            assert np.all(dominating[i] >= sol.Y.level(i) - 1e-12)


def test_lebesgue_floor_binds_at_every_level():
    lat = Lattice(TimeGrid(1.0, 4))
    L = AdaptedProcess.constant(lat, -np.inf).with_terminal(np.zeros(5))
    full = IncreasingProcess(lat, [np.ones(i + 1) for i in range(lat.steps)])
    floor = PredictableProcess.constant(lat, 0.25)
    inst = SnellInstance(L, floor, full, np.zeros(5))
    sol = silent_envelope(inst)
    for i in range(lat.steps):
        assert np.all(sol.Y.level(i) >= 0.25)
    assert sol.value() == 0.25


def atom_floor(lat, k, values):
    """Floor on the left limit at grid time ``k`` only, and its clock."""
    slots = [np.full(i + 1, -np.inf) for i in range(lat.steps)]
    slots[k - 1] = np.broadcast_to(values, (k,))
    return (
        PredictableProcess(lat, slots),
        IncreasingProcess.from_time_atoms(lat, {k: 1.0}),
    )


def test_stopping_time_atom_clamps_one_level():
    lat = Lattice(TimeGrid(1.0, 4))
    L = AdaptedProcess.constant(lat, -np.inf).with_terminal(np.zeros(5))
    xi = np.zeros(5)
    sol = silent_envelope(SnellInstance(L, *atom_floor(lat, 3, 0.6), xi))
    # the floor acts on level 2 only; everything upstream is its plain
    # expectation and downstream the constraint has no force
    assert np.all(sol.Y.level(2) == 0.6)
    assert np.all(sol.Y.level(3) == 0.0)
    assert sol.value() == 0.6


def test_stopping_time_atom_inactive_when_low():
    lat = Lattice(TimeGrid(1.0, 4))
    payoff = [np.cos(lat.brownian(i)) for i in range(5)]
    L = AdaptedProcess(lat, payoff)
    xi = payoff[-1]
    plain = silent_envelope(SnellInstance(L, None, None, xi))
    tied = silent_envelope(
        SnellInstance(L, *atom_floor(lat, 2, np.full(2, -100.0)), xi)
    )
    for i in range(lat.steps + 1):
        assert np.array_equal(plain.Y.level(i), tied.Y.level(i))


def test_verify_snell_passes_numeric_warnings_through(monkeypatch):
    # the strike loop gives no witness on purpose, which is silent; any
    # warning of the envelope, a numeric one above all, reaches the caller
    from rbsdelab import verify

    def noisy(inst):
        warnings.warn("overflow in a test envelope", RuntimeWarning)
        return snell_envelope(inst)

    monkeypatch.setattr(verify, "snell_envelope", noisy)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        report = verify.verify_snell(cases=0, log=verify.CertificateLog())
    assert report["passed"]
    kinds = [(w.category, str(w.message)) for w in seen]
    # one numeric warning per strike depth, and nothing else
    assert kinds.count((RuntimeWarning, "overflow in a test envelope")) == 10
    assert len(kinds) == 10


def test_overflowing_expectation_names_its_node():
    # two terminal values near the largest float overflow their
    # midpoint at (level 3, node 3), the first failure in backward order
    from rbsdelab.solver import NonFiniteDriver

    lat = Lattice(TimeGrid(1.0, 4))
    xi = np.array([0.0, 0.0, 0.0, 1.7e308, 1.7e308])
    L = AdaptedProcess(lat, [np.zeros(i + 1) for i in range(4)] + [xi])
    inst = SnellInstance(
        L, PredictableProcess.constant(lat, -np.inf), IncreasingProcess.zero(lat), xi
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteDriver) as info:
            snell_envelope(inst)
    assert (info.value.level, info.value.node) == (3, 3)
