import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rbsdelab.barriers import (
    BarrierSet,
    check_left_constraint,
)
from rbsdelab.cli import ScenarioConfig, load_config
from rbsdelab.drivers import (
    Driver,
    GrowthBounds,
    SemimartingaleSpec,
)
from rbsdelab.lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    level_offset,
)
from rbsdelab.penalize import (
    DEFAULT_SCHEDULE,
    PenalizedFamily,
    ReductionDisagreement,
    SandwichViolation,
    ScheduleExhausted,
    _SIDE,
    _dominated_driver,
    _one_sided_pair,
    _reduce_pass,
    _schedule,
    build_family,
    exact_squeeze_barriers,
    reduce_and_solve,
    squeeze_limits,
)
from rbsdelab.solver import (
    NonFiniteDriver,
    solve_rbsde,
)
from rbsdelab.verify import random_witness_instance
from test_drivers import constant_spec

ROOT = Path(__file__).resolve().parents[1]


def witness_instance(steps=5, seed=3, tight=True):
    """Obstacle set built around an explicit candidate process.

    Level-constant decomposition data keep the candidate on the
    recombining lattice.  ``tight`` pins the predictable floors and
    caps to the candidate at their charged times so the penalties have
    something to do.  Returns the growth bounds and the obstacle set,
    which carries its lattice and the candidate's decomposition as its
    witness.
    """
    lat = Lattice(TimeGrid(1.0, steps))
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(-0.5, 0.5, 3)

    def shape(t, w):
        return a * np.sin(2.0 * w) + b * w + c * t

    levels = [shape(lat.times[i], lat.brownian(i)) for i in range(steps + 1)]
    gamma, vplus, vminus = [], [], []
    for i in range(steps):
        upv, downv = levels[i + 1][1:], levels[i + 1][:-1]
        gamma.append((upv - downv) / (2.0 * lat.sqrt_dt))
        drift = 0.5 * (upv + downv) - levels[i]
        vminus.append(np.maximum(drift, 0.0))
        vplus.append(np.maximum(-drift, 0.0))
    spec = SemimartingaleSpec(
        float(levels[0][0]),
        IncreasingProcess(lat, vplus),
        IncreasingProcess(lat, vminus),
        PredictableProcess(lat, gamma),
    )
    S = spec.reconstruct()
    xi = S.terminal()
    # pad 0 pins the predictable obstacles to the candidate (binding);
    # the loose pad hides them behind the node obstacles (inert)
    pad = 0.0 if tight else 0.6
    L = AdaptedProcess(
        lat,
        [S.level(i) - 0.4 for i in range(steps)] + [xi],
    )
    U = AdaptedProcess(
        lat,
        [S.level(i) + 0.4 for i in range(steps)] + [xi],
    )
    k_low, k_high = max(1, steps // 2), max(1, steps - 2)
    delta = IncreasingProcess.from_time_atoms(lat, {k_low: 1.0})
    alpha = IncreasingProcess.from_time_atoms(lat, {k_high: 1.0})
    l_slots = [np.full(i + 1, -np.inf) for i in range(steps)]
    l_slots[k_low - 1] = S.level(k_low - 1) - pad
    u_slots = [np.full(i + 1, np.inf) for i in range(steps)]
    u_slots[k_high - 1] = S.level(k_high - 1) + pad
    bars = BarrierSet.build(
        lat,
        xi,
        L=L,
        U=U,
        l=PredictableProcess(lat, l_slots),
        u=PredictableProcess(lat, u_slots),
        delta=delta,
        alpha=alpha,
        witness=spec,
    )
    bounds = GrowthBounds.constants(lat, eta=0.2, C=0.5)
    return bounds, bars


def penalized(bounds, bars, n):
    """Both penalized solves at weight ``n``: the lower equation's and
    the upper one's."""
    (low,), (high,) = _one_sided_pair([PenalizedFamily(bounds, bars)], [n])
    return low, high


def dominated(bounds, spec):
    """The dominated driver of one pair: the one-row case of
    ``_dominated_driver``, its parts shaped ``(1, 1, 2, nodes)``."""
    return _dominated_driver([bounds], [spec])


def squared(driver, j, z):
    """The squared-slope part ``q (z - center)^2`` of ``driver``'s rate
    at level ``j``, from its ``quad``: the part the step integrates."""
    q, center = driver.quad(j)
    return q * (z - center) ** 2


def one_side(driver, row):
    """The one-pair dominated driver's equation ``row`` alone, for an
    unbatched solve: 0 the lower, 1 the upper."""
    return replace(
        driver,
        quad=lambda j: (driver.quad(j)[0][0, 0, row], driver.quad(j)[1][0, 0, 0]),
        source=lambda j: driver.source(j)[0, 0, row],
    )


def same_solution(a, b):
    """Bitwise equal solutions, signs of zero included."""
    return a.residuals == b.residuals and all(
        np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
        for x, y in (
            (getattr(a, name).values, getattr(b, name).values)
            for name in ("Y", "Z", "Kplus", "Kminus", "drift")
        )
    )


@pytest.fixture
def lat():
    return Lattice(TimeGrid(1.0, 5))


def test_dominated_driver_beats_quadratic_bound(lat):
    # eta + 4*C*gamma^2 + (m/2)(z - gamma)^2 >= eta + C z^2 for all z
    # needs m >= 8C; the dominated driver uses m = 1 + 8 * running max
    # of |C|.  The witness has no drift and the clock is empty, so the
    # per-step drift q (z - center)^2 dt + source is that rate times dt,
    # from the squared-slope part the step integrates (there is no f).
    # Row 1 is the upper equation, whose drift carries the rate's own sign
    rng = np.random.default_rng(8)
    C_levels = [rng.uniform(0.0, 2.0, i + 1) for i in range(lat.steps + 1)]
    bounds = GrowthBounds(
        AdaptedProcess.constant(lat, 0.3),
        AdaptedProcess(lat, C_levels),
        AdaptedProcess.constant(lat, 0.0),
    )
    spec = constant_spec(lat, slope=1.5)
    drv = dominated(bounds, spec)
    assert drv.f is None
    zs = np.linspace(-30.0, 30.0, 61)
    for i in range(lat.steps):
        for z in zs:
            rate = squared(drv, i, np.full(i + 1, z))
            step = rate[0, 0, 1] * lat.dt + drv.source(i)[0, 0, 1]
            cap = (0.3 + C_levels[i] * z * z) * lat.dt
            assert np.all(step >= cap - 1e-12 * lat.dt)


def test_dominated_driver_orientation_mirror(lat):
    # row 0 (the lower equation) is row 1 (the upper one) with every
    # sign flipped, in each part that carries the side axis, and each
    # row's drift pushes against the side of its penalty
    bounds = GrowthBounds.constants(lat, eta=0.2, C=0.5)
    spec = constant_spec(lat, slope=0.7, drift_up=0.05, drift_down=0.02)
    drv = dominated(bounds, spec)
    z = np.array([-1.0, 0.0, 2.0])
    for rows in (squared(drv, 2, z), drv.quad(2)[0], drv.source(2)):
        assert rows.shape == (1, 1, 2, 3)
        rows = rows[0, 0]
        assert np.array_equal(rows[0], -rows[1])
        assert np.all(rows[1] > 0.0)
        assert np.all(np.sign(rows) == -_SIDE)


def test_dominated_driver_rows_stack_the_single_drivers():
    # one pair per row lattice: each part leads with the instance axis,
    # shaped (B, 1, 2, nodes), and row k is bitwise the single driver k;
    # the bounds are folded into the parts, so the driver carries none
    lats = [Lattice(TimeGrid(h, 4)) for h in (0.5, 1.0, 1.5)]
    rng = np.random.default_rng(5)
    pairs = [
        (
            GrowthBounds(
                AdaptedProcess(r, rng.uniform(0.0, 1.0, 15)),
                AdaptedProcess(r, rng.uniform(0.0, 2.0, 15)),
                AdaptedProcess.constant(r, 0.3),
                A=IncreasingProcess.lebesgue(r),
            ),
            constant_spec(r, slope=k - 0.5, drift_up=0.01 * k),
        )
        for k, r in enumerate(lats)
    ]
    rows = _dominated_driver(*zip(*pairs))
    assert rows.bounds is None
    singles = [dominated(b, s) for b, s in pairs]
    for i in range(4):
        z = rng.normal(0.0, 2.0, (3, 1, 2, i + 1))
        parts = (
            (
                squared(rows, i, z),
                [squared(d, i, z[k : k + 1]) for k, d in enumerate(singles)],
            ),
            (rows.quad(i)[0], [d.quad(i)[0] for d in singles]),
            (rows.source(i), [d.source(i) for d in singles]),
        )
        for got, alone in parts:
            assert got.shape == (3, 1, 2, i + 1)
            assert np.array_equal(got, np.concatenate(alone))
        center = rows.quad(i)[1]
        assert np.array_equal(center, np.concatenate([d.quad(i)[1] for d in singles]))


def test_a_constant_C_is_its_own_running_maximum(lat, monkeypatch):
    # a zero-stride C takes m = 1 + 8|C| as one broadcast value, bitwise
    # what the running-max recursion gives for the same C stored in full
    from rbsdelab import penalize

    spec = constant_spec(lat, slope=0.3, drift_up=0.01)
    const = GrowthBounds.constants(lat, eta=0.1, C=0.37)
    assert const.C.values.strides == (0,)
    full = GrowthBounds(const.eta, AdaptedProcess(lat, const.C.values.copy()), const.beta)
    recursions = []
    running_max = penalize._running_max

    def counted(*args):
        recursions.append(args)
        return running_max(*args)

    monkeypatch.setattr(penalize, "_running_max", counted)
    a = dominated(const, spec)
    assert not recursions
    b = dominated(full, spec)
    assert len(recursions) == 1
    for j in range(lat.steps):
        (qa, ca), (qb, cb) = a.quad(j), b.quad(j)
        assert qa.shape == qb.shape and qa.tobytes() == qb.tobytes()
        assert ca.tobytes() == cb.tobytes()


def test_dominated_driver_structure_consistent(lat):
    bounds = GrowthBounds.constants(lat, eta=0.1, C=0.4, beta=0.2,
                                    A=IncreasingProcess.lebesgue(lat))
    spec = constant_spec(lat, slope=0.3, drift_up=0.01)
    drv = dominated(bounds, spec)
    # source carries total variation, the clock term and the constant
    # rate eta + 4 C gamma^2 over the step
    dv = 0.01  # vminus mass per step
    for i in range(lat.steps):
        expect = dv + 0.2 * lat.dt + (0.1 + 4.0 * 0.4 * 0.3**2) * lat.dt
        assert np.allclose(drv.source(i)[0, 0, 1], expect)


def test_one_sided_solves_have_one_sided_reflection():
    bounds, bars = witness_instance()
    fam = build_family(bounds, bars, schedule=(0, 1, 8))
    steps = bars.lattice.steps
    for low in fam.lower_solutions:
        assert all(not low.Kminus.atom(j).any() for j in range(steps))
    for high in fam.upper_solutions:
        assert all(not high.Kplus.atom(j).any() for j in range(steps))


def test_negative_weight_rejected():
    bounds, bars = witness_instance()
    with pytest.raises(ValueError):
        penalized(bounds, bars, -1)
    with pytest.raises(ValueError):
        build_family(bounds, bars, schedule=(-2, 0))
    # the first weight of an empty family enters through extend
    empty = PenalizedFamily(bounds, bars)
    with pytest.raises(ValueError, match="penalty weight must be >= 0"):
        empty.extend(-1)


def test_obstacles_on_another_grid_are_rejected():
    # equal steps, another horizon: every slot stands for another time
    bounds, bars = witness_instance()
    other = Lattice(TimeGrid(2.0, bars.lattice.steps))
    moved = BarrierSet.build(
        other,
        bars.xi,
        L=AdaptedProcess(other, bars.L.values),
        U=AdaptedProcess(other, bars.U.values),
        witness=SemimartingaleSpec.from_levels(
            other, bars.witness.reconstruct().values
        ),
    )
    for call in (
        lambda: build_family(bounds, moved, schedule=(0, 1)),
        lambda: exact_squeeze_barriers(bounds, moved),
        lambda: reduce_and_solve(other, Driver.zero(bounds=bounds), moved),
        lambda: reduce_and_solve(bars.lattice, Driver.zero(bounds=bounds), moved),
    ):
        with pytest.raises(ValueError, match="live on a different grid"):
            call()


def test_a_missing_witness_or_missing_bounds_is_named():
    bounds, bars = witness_instance()
    plain = BarrierSet.build(bars.lattice, bars.xi, L=bars.L, U=bars.U)
    for call in (
        lambda: PenalizedFamily(bounds, plain),
        lambda: build_family(bounds, plain),
        lambda: exact_squeeze_barriers(bounds, plain),
        lambda: reduce_and_solve(bars.lattice, Driver.zero(bounds=bounds), plain),
    ):
        with pytest.raises(ValueError, match="witness decomposition"):
            call()
    for call in (
        lambda: PenalizedFamily(None, bars),
        lambda: build_family(None, bars),
        lambda: exact_squeeze_barriers(None, bars),
        lambda: reduce_and_solve(bars.lattice, Driver.zero(), bars),
    ):
        with pytest.raises(ValueError, match="needs the generator's growth bounds"):
            call()


def test_a_sequence_of_bounds_is_named_where_it_enters():
    # a penalized instance takes one GrowthBounds: a sequence raises at
    # once, not as an AttributeError inside the squeeze
    bounds, bars = witness_instance()
    for wrong in ([bounds], (bounds, bounds)):
        kind = type(wrong).__name__
        for call in (
            lambda: PenalizedFamily(wrong, bars),
            lambda: build_family(wrong, bars),
            lambda: exact_squeeze_barriers(wrong, bars),
        ):
            with pytest.raises(ValueError, match=f"one GrowthBounds, not a {kind}"):
                call()
    # one GrowthBounds on another grid than the instance's set
    lat = bars.lattice
    other = Lattice(TimeGrid(2.0 * lat.grid.horizon, lat.steps))
    with pytest.raises(ValueError, match="growth bounds live on a different grid"):
        build_family(GrowthBounds.constants(other, eta=0.2, C=0.5), bars)


def test_zero_weight_is_the_unpenalized_solve():
    bounds, bars = witness_instance()
    lat = bars.lattice
    pair = penalized(bounds, bars, 0)
    spec2, _ = bars.witness.retarget(bars.xi)
    drv = dominated(bounds, spec2)
    plain = (
        solve_rbsde(lat, one_side(drv, 0), BarrierSet.build(lat, bars.xi, L=bars.L)),
        solve_rbsde(lat, one_side(drv, 1), BarrierSet.build(lat, bars.xi, U=bars.U)),
    )
    for pen, sol in zip(pair, plain):
        assert np.array_equal(pen.Y.values, sol.Y.values)


def test_penalty_root_formula_single_step():
    # depth 1, unpenalized root 0, atom mass 1 at the floor 0.8:
    # y = n (0.8 - y)^+  =>  y = 0.8 n / (1 + n) while y < 0.8
    lat = Lattice(TimeGrid(1.0, 1))
    for n in (1.0, 4.0, 64.0):
        drv = Driver(
            f=lambda j, y, z: np.zeros_like(y),
            penalty=lambda level, y: n * np.maximum(0.8 - y, 0.0),
        )
        sol = solve_rbsde(
            lat, drv, BarrierSet.build(lat, np.zeros(2))
        )
        assert abs(sol.value() - 0.8 * n / (1.0 + n)) < 1e-9


def test_family_is_monotone_and_tightens():
    bounds, bars = witness_instance()
    fam = build_family(bounds, bars, schedule=(0, 1, 2, 4, 8, 16))
    rows = fam.gaps()
    assert len(rows) == 5
    # movement per rung shrinks once the penalty regime sets in
    assert max(rows[-1][1], rows[-1][2]) < max(rows[1][1], rows[1][2])
    # the witness sits between the two chains at the root
    S0 = fam.witness.level(0)[0]
    assert fam.Yunder.level(0)[0] <= S0 + 1e-9
    assert S0 <= fam.Ybar.level(0)[0] + 1e-9


def test_family_schedule_validation():
    bounds, bars = witness_instance()
    with pytest.raises(ValueError):
        build_family(bounds, bars, schedule=(4,))
    with pytest.raises(ValueError):
        build_family(bounds, bars, schedule=(0, 4, 4))
    fam = build_family(bounds, bars, schedule=(0, 2))
    with pytest.raises(ValueError):
        fam.extend(2)


@pytest.mark.parametrize(
    "schedule, says",
    [
        ((0, 1.5, 2.9), "penalty weight 1.5 is a float"),
        ((0, True, 2), "penalty weight True is a bool"),
        ((0, float("nan")), "penalty weight nan is a float"),
        ((0, np.float64(2.0)), "penalty weight 2.0 is a float64"),
    ],
    ids=["float", "bool", "nan", "numpy-float"],
)
def test_weights_that_are_not_integers_are_rejected(schedule, says):
    # these were once cut to integers and solved at other weights
    bounds, bars = witness_instance()
    with pytest.raises(ValueError, match=says):
        build_family(bounds, bars, schedule=schedule)


def test_extend_rejects_a_weight_that_is_not_an_integer():
    bounds, bars = witness_instance()
    fam = build_family(bounds, bars, schedule=(0, 2))
    with pytest.raises(ValueError, match="penalty weight 2.5 is a float"):
        fam.extend(2.5)
    assert fam.n_schedule == [0, 2]
    # numpy integers are integers
    fam.extend(np.int64(4))
    assert fam.n_schedule == [0, 2, 4]
    assert type(fam.n_schedule[-1]) is int


def test_schedule_cap_leaves_two_weights_at_least():
    assert _schedule(DEFAULT_SCHEDULE, 4) == [0, 1, 2, 4]
    with pytest.raises(ValueError, match=r"got \[0\] of those at most 0"):
        _schedule(DEFAULT_SCHEDULE, 0)
    with pytest.raises(ValueError, match="at least two weights, got"):
        _schedule((7,))


def test_empty_family_grows_one_weight_at_a_time():
    bounds, bars = witness_instance()
    fam = PenalizedFamily(bounds, bars)
    assert fam.lattice is bars.lattice
    assert fam.gaps() == []
    for n in (0, 4, 16):
        fam.extend(n)
    batched = build_family(bounds, bars, schedule=(0, 4, 16))
    assert fam.n_schedule == batched.n_schedule
    for (n, lo, hi), (m, lo2, hi2) in zip(fam.gaps(), batched.gaps()):
        assert n == m
        assert abs(lo - lo2) <= 1e-14 and abs(hi - hi2) <= 1e-14


def test_sandwich_violation_names_the_break():
    # a node obstacle pushed above the candidate forces the lower
    # chain over the witness, which the ladder must reject
    bounds, bars = witness_instance()
    lat, spec = bars.lattice, bars.witness
    S = spec.reconstruct()
    bad_L = AdaptedProcess(
        lat,
        [S.level(i) + 0.5 for i in range(lat.steps)] + [bars.xi],
    )
    bad = BarrierSet.build(
        lat,
        bars.xi,
        L=bad_L,
        U=AdaptedProcess(
            lat, [S.level(i) + 2.0 for i in range(lat.steps)] + [bars.xi]
        ),
        witness=spec,
    )
    with pytest.raises(SandwichViolation) as info:
        build_family(bounds, bad, schedule=(0, 1))
    assert "witness" in str(info.value)


def test_first_broken_rung_is_raised_before_later_ones():
    # floors lifted above the witness: by 0.1 at time 2, which breaks
    # the lower chain from weight 8 at level 1, and by 0.04 at time 1,
    # which breaks it from weight 16 at level 0.  The family must name
    # the lightest broken weight, not the earliest level.
    bounds, bars = witness_instance()
    lat, spec = bars.lattice, bars.witness
    S = spec.reconstruct()
    slots = [np.full(i + 1, -np.inf) for i in range(lat.steps)]
    slots[0] = S.level(0) + 0.04
    slots[1] = S.level(1) + 0.1
    bad = BarrierSet.build(
        lat,
        bars.xi,
        L=bars.L,
        U=bars.U,
        l=PredictableProcess(lat, slots),
        u=bars.u,
        delta=IncreasingProcess.from_time_atoms(lat, {1: 1.0, 2: 1.0}),
        alpha=bars.alpha,
        witness=spec,
    )
    what = "lower solution below witness"
    for schedule, first in (
        ((0, 1, 2, 4, 8, 16), (what, 8, 1, 1)),
        ((0, 16), (what, 16, 0, 0)),
    ):
        with pytest.raises(SandwichViolation) as info:
            build_family(bounds, bad, schedule=schedule)
        e = info.value
        assert (e.what, e.n, e.level, e.node) == first


def test_overflowing_weight_names_its_node_within_the_level():
    # a heavy floor atom on a binding penalty: weight 2**1023 overflows
    # the lower equation at level 1.  With a heavy atom on the binding
    # cap too, the upper equation overflows first, at level 2: one pass
    # over both sides reports the first failure in backward order
    bounds, bars = witness_instance(tight=True)
    lat, spec = bars.lattice, bars.witness
    caps = {
        "u": bars.u,
        "alpha": IncreasingProcess.from_time_atoms(lat, {lat.steps - 2: 100.0}),
    }
    for upper, level in ((caps, 2), ({}, 1)):
        heavy = BarrierSet.build(
            lat,
            bars.xi,
            L=bars.L,
            U=bars.U,
            l=bars.l,
            delta=IncreasingProcess.from_time_atoms(lat, {lat.steps // 2: 100.0}),
            witness=spec,
            **upper,
        )
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteDriver) as single:
                penalized(bounds, heavy, 2**1023)
            with pytest.raises(NonFiniteDriver) as family:
                build_family(bounds, heavy, schedule=(0, 2**1023))
        e = family.value
        assert (e.level, e.node) == (single.value.level, single.value.node)
        assert e.level == level and 0 <= e.node <= e.level


def test_batched_family_matches_single_rung_solves(monkeypatch):
    from rbsdelab import penalize

    bounds, bars = witness_instance()
    passes = []
    backward = penalize._backward

    def counted(*args, **kwargs):
        passes.append(args[5])
        return backward(*args, **kwargs)

    monkeypatch.setattr(penalize, "_backward", counted)
    fam = build_family(bounds, bars, DEFAULT_SCHEDULE)
    # one pass, the instance, the whole schedule and then the side as
    # the batch
    assert passes == [(1, len(DEFAULT_SCHEDULE), 2)]
    # the implicit step decides per node, so every rung is bitwise its
    # single-weight solve
    for k, n in enumerate(DEFAULT_SCHEDULE):
        pair = penalized(bounds, bars, n)
        for single, sols in zip(pair, (fam.lower_solutions, fam.upper_solutions)):
            assert same_solution(sols[k], single)
    # the exact squeeze solves both sides in one pass too
    passes.clear()
    exact_squeeze_barriers(bounds, bars)
    assert passes == [(1, 1, 2)]


def test_squeeze_converges_on_loose_tolerance():
    bounds, bars = witness_instance()
    lat = bars.lattice
    fam = build_family(bounds, bars, schedule=(0, 1))
    Ybar, Yunder = squeeze_limits(fam, tol=1e-3, n_max=2**20)
    rows = fam.gaps()
    assert max(rows[-1][1], rows[-1][2]) <= 1e-3
    for i in range(lat.steps + 1):
        assert np.all(Yunder.level(i) <= Ybar.level(i) + 1e-9)


def test_squeeze_needs_two_weights():
    # a movement needs two weights: an empty family and a one-rung one
    # have no gaps, which the squeeze reports by name
    bounds, bars = witness_instance()
    fam = PenalizedFamily(bounds, bars)
    for n in (None, 0):
        if n is not None:
            fam.extend(n)
        with pytest.raises(ValueError, match="two weights at least"):
            squeeze_limits(fam, tol=1e-3)
    fam.extend(1)
    squeeze_limits(fam, tol=1e-3)


def test_squeeze_tolerance_has_no_default():
    bounds, bars = witness_instance()
    fam = build_family(bounds, bars, schedule=(0, 1))
    with pytest.raises(TypeError):
        squeeze_limits(fam)
    with pytest.raises(TypeError):
        squeeze_limits(fam, 1e-3)
    assert fam.n_schedule == [0, 1]


def test_squeeze_exhaustion_is_loud_or_soft():
    bounds, bars = witness_instance()
    fam = build_family(bounds, bars, schedule=(0, 1))
    with pytest.raises(ScheduleExhausted) as info:
        squeeze_limits(fam, tol=1e-14, n_max=64)
    assert info.value.gap > 0.0
    # the family keeps every weight it reached: the current estimates
    # stay readable after the loud failure
    assert fam.n_schedule == [0, 1, 2, 4, 8, 16, 32, 64]
    assert info.value.n_last == 64
    n, lo, hi = fam.gaps()[-1]
    assert max(lo, hi) == info.value.gap


def test_binding_penalty_moves_like_one_over_n():
    bounds, bars = witness_instance(tight=True)
    lat = bars.lattice
    sols = {
        n: penalized(bounds, bars, n)[0] for n in (256, 512, 1024)
    }
    exact_bar, exact_under = exact_squeeze_barriers(bounds, bars)
    errs = {
        n: max(
            float(np.max(np.abs(sols[n].Y.level(i) - exact_under.level(i))))
            for i in range(lat.steps + 1)
        )
        for n in sols
    }
    assert errs[1024] > 0.0
    # halving per doubling, with slack for the non-asymptotic part
    assert errs[512] <= 0.65 * errs[256]
    assert errs[1024] <= 0.65 * errs[512]


def rung_distances(bounds, barriers, schedule):
    """``e_n`` of every weight ``n`` of ``schedule``: the sup distance,
    over both rows, from the family's rung to the exact limit."""
    family = build_family(bounds, barriers, schedule=schedule)
    Ybar, Yunder = exact_squeeze_barriers(bounds, barriers)
    return np.array(
        [
            max(
                np.max(np.abs(lower.Y.values - Yunder.values)),
                np.max(np.abs(upper.Y.values - Ybar.values)),
            )
            for lower, upper in zip(family.lower_solutions, family.upper_solutions)
        ]
    )


def test_a_binding_ladder_tends_to_the_exact_limit_at_first_order():
    # depth 300, with the predictable floor and cap hugging the witness
    # at their atoms: the penalties bind (e_0 > 0), and the ladder
    # reaches the hard-constraint solve like 1/n
    schedule = [0] + [2**k for k in range(21)]
    bounds, bars = random_witness_instance(np.random.default_rng(0), 300)
    e = rung_distances(bounds, bars, schedule)
    assert e[0] > 0.0 and e[-1] > 0.0
    assert np.all(np.diff(e) <= 0.0)
    # e_n / e_2n for n = 1, 2, ..., 2**19; from n = 2**12 on
    ratios = e[1:-1] / e[2:]
    assert np.all(np.abs(ratios[12:] - 2.0) <= 0.01), ratios[12:]


def test_a_ladder_that_never_binds_is_its_limit_at_every_weight():
    # the witness_squeeze demo scenario: its penalties never act
    cfg, _ = load_config(ROOT / "demos" / "scenarios" / "witness_squeeze.json")
    scn = ScenarioConfig(cfg)
    e = rung_distances(scn.driver.bounds, scn.barriers, DEFAULT_SCHEDULE)
    assert e.shape == (len(DEFAULT_SCHEDULE),)
    assert np.all(e == 0.0)


@pytest.mark.parametrize("seed, steps", [(0, 40), (4, 7)])
def test_a_ladder_without_a_slope_calls_its_penalty_in_the_root_finder(
    seed, steps, monkeypatch
):
    # with slope=None no rung can take the closed form: the root finder
    # calls the _Penalty as a function, at every level, and lands on the
    # closed-form rungs to the root finder's resolution at every node
    from rbsdelab import penalize

    bounds, bars = random_witness_instance(np.random.default_rng(seed), steps)
    schedule = (0, 1, 8, 64, 2**16)
    want = build_family(bounds, bars, schedule)
    levels = []
    call = penalize._Penalty.__call__

    def counted(self, level, y):
        levels.append(level)
        return call(self, level, y)

    build = penalize._dominated_driver
    monkeypatch.setattr(penalize._Penalty, "__call__", counted)
    monkeypatch.setattr(
        penalize, "_dominated_driver", lambda *args: replace(build(*args), slope=None)
    )
    got = build_family(bounds, bars, schedule)
    assert set(levels) == set(range(steps))
    rungs = zip(
        got.lower_solutions + got.upper_solutions,
        want.lower_solutions + want.upper_solutions,
    )
    for a, b in rungs:
        gap = np.abs(a.Y.values - b.Y.values)
        assert np.all(gap <= 1e-13 * (1.0 + np.abs(b.Y.values)))
    # the penalties bind: the rungs move with the weight
    assert not np.array_equal(want.lower_solutions[0].Y.values, want.Yunder.values)


def test_exact_limits_agree_with_the_large_weight_chain():
    bounds, bars = witness_instance()
    lat = bars.lattice
    fam = build_family(bounds, bars, schedule=(0, 2**12, 2**14))
    exact_bar, exact_under = exact_squeeze_barriers(bounds, bars)
    for i in range(lat.steps + 1):
        assert np.all(fam.Yunder.level(i) <= exact_under.level(i) + 1e-9)
        assert np.all(exact_under.level(i) - fam.Yunder.level(i) < 1e-3)
        assert np.all(exact_bar.level(i) <= fam.Ybar.level(i) + 1e-9)
        assert np.all(fam.Ybar.level(i) - exact_bar.level(i) < 1e-3)


def test_reduction_matches_the_direct_solve():
    _, bars = witness_instance()
    lat, spec = bars.lattice, bars.witness
    a, b, c = 0.2, -0.4, 0.3
    S = spec.reconstruct()
    ymax = 1.0 + max(
        float(np.max(np.abs(S.level(i)))) for i in range(lat.steps + 1)
    )
    # bounds that genuinely dominate the linear rate on that range
    bounds = GrowthBounds.constants(
        lat, eta=abs(a) * ymax + abs(c) + b * b / 2.0, C=0.5
    )
    drv = Driver.linear(a, b, c, bounds=bounds)
    sol = reduce_and_solve(lat, drv, bars)
    direct = solve_rbsde(lat, drv, bars)
    assert abs(sol.value() - direct.value()) <= 1e-6
    # all four original constraints, the terminal value unconstrained
    n = level_offset(lat.steps)
    y = sol.Y.values[:n]
    assert np.all(bars.L.values[:n] <= y) and np.all(y <= bars.U.values[:n])
    assert check_left_constraint(sol.Y, bars.l, bars.delta)
    negated = AdaptedProcess(lat, -sol.Y.values)
    cap = PredictableProcess(lat, -bars.u.values)
    assert check_left_constraint(negated, cap, bars.alpha)


def test_reduction_solves_both_problems_in_one_pass(monkeypatch):
    # after the squeeze's pass, one pass holds the reduced problem and
    # the direct one; each row is bitwise its own solve_rbsde
    from rbsdelab import penalize

    _, bars = witness_instance()
    lat, spec = bars.lattice, bars.witness
    a, b, c = 0.2, -0.4, 0.3
    ymax = 1.0 + float(np.max(np.abs(spec.reconstruct().values)))
    # bounds that dominate the linear rate on that range
    bounds = GrowthBounds.constants(
        lat, eta=abs(a) * ymax + abs(c) + b * b / 2.0, C=0.5
    )
    drv = Driver.linear(a, b, c, bounds=bounds)
    passes = []
    backward = penalize._backward

    def counted(*args, **kwargs):
        passes.append(args[5])
        return backward(*args, **kwargs)

    monkeypatch.setattr(penalize, "_backward", counted)
    ((sol, direct),) = penalize._reduce_pass(drv, [bars], [bounds])
    penalize._check_reduction(sol, direct, bars, 1e-6)
    assert passes == [(1, 1, 2), (1, 2)]
    assert same_solution(direct, solve_rbsde(lat, drv, bars))
    Ybar, Yunder = exact_squeeze_barriers(bounds, bars)
    reduced = BarrierSet.build(lat, bars.xi, L=Yunder, U=Ybar)
    assert same_solution(sol, solve_rbsde(lat, drv, reduced))
    assert same_solution(reduce_and_solve(lat, drv, bars), sol)


def test_one_instance_squeeze_and_reduction_keep_their_memory():
    # one instance is a batch of one row whose packed parts are adopted
    # as views (a[None]), not copied: a copy would turn the zero-stride
    # constant growth bounds into full buffers.  The squeeze builds its
    # two Y rows alone, and the reduction copies its row out of the pass
    # that also holds the direct solve.  Under tracemalloc this
    # depth-500 instance peaks at 11,133,264 bytes for the squeeze and
    # 15,051,760 for the reduction.  Each bound allows 512 KiB more,
    # less than one packed buffer (1,006,008 bytes), so no buffer can
    # come back unseen
    from rbsdelab.verify import random_witness_instance

    bounds, bars = random_witness_instance(np.random.default_rng(24), 500)
    lat = bars.lattice
    assert bounds.eta.values.strides == (0,)
    drv = Driver.zero(bounds=bounds)
    for run, peak_seen in (
        (lambda: exact_squeeze_barriers(bounds, bars), 11_133_264),
        (lambda: reduce_and_solve(lat, drv, bars), 15_051_760),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_seen + 2**19


def test_the_returned_reduction_owns_its_memory():
    # the pass solves the reduced and the direct problem as two rows of
    # each buffer; the returned solution holds its own row only, so the
    # direct solve is freed with the pass
    from rbsdelab.verify import random_witness_instance

    bounds, bars = random_witness_instance(np.random.default_rng(24), 60)
    lat = bars.lattice
    drv = Driver.zero(bounds=bounds)
    sol = reduce_and_solve(lat, drv, bars)
    ((reduced, _),) = _reduce_pass(drv, [bars], [bounds])
    assert same_solution(sol, reduced)
    for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
        values = getattr(sol, name).values
        owner = values if values.base is None else values.base
        assert owner.nbytes == values.nbytes, name
        assert not values.flags.writeable


def counted_passes(monkeypatch):
    """The batch of every backward pass that ``penalize`` makes."""
    from rbsdelab import penalize

    passes = []
    backward = penalize._backward

    def counted(*args, **kwargs):
        passes.append(args[5])
        return backward(*args, **kwargs)

    monkeypatch.setattr(penalize, "_backward", counted)
    return passes


def drawn_instances(steps, seed=5):
    from rbsdelab.verify import random_witness_instance

    rng = np.random.default_rng(seed)
    return [random_witness_instance(rng, k, tight=k % 2 == 0) for k in steps]


def test_every_rung_of_a_cross_instance_pass_is_its_own_family(monkeypatch):
    # instances of depths 3 and 4 on their own horizons, one pass per
    # depth; every rung is bitwise the one build_family solves alone
    from rbsdelab import penalize

    schedule = (0, 1, 8, 64, 2**12)
    drawn = drawn_instances([3, 4, 3, 4, 3])
    assert len({bars.lattice.grid.horizon for _, bars in drawn}) == 5
    passes = counted_passes(monkeypatch)
    for depth in (3, 4):
        group = [inst for inst in drawn if inst[1].lattice.steps == depth]
        for inst, (fam, rungs) in zip(group, penalize._families(group, schedule)):
            fam._grow(*rungs)
            alone = build_family(*inst, schedule=schedule)
            assert fam.n_schedule == alone.n_schedule == list(schedule)
            for side in ("lower_solutions", "upper_solutions"):
                for a, b in zip(getattr(fam, side), getattr(alone, side)):
                    assert a.lattice is inst[1].lattice
                    assert same_solution(a, b)
    # one pass per depth, then one per family alone
    assert passes == [(3, 5, 2)] + [(1, 5, 2)] * 3 + [(2, 5, 2)] + [(1, 5, 2)] * 2


def test_every_row_of_the_batched_reduction_is_its_own_reduction(monkeypatch):
    from rbsdelab import penalize

    drawn = drawn_instances([4, 4, 4, 4])
    rng = np.random.default_rng(6)
    coef = rng.uniform(-0.4, 0.4, (4, 3))
    sets = [bars for _, bars in drawn]
    bounds = [
        GrowthBounds.constants(bars.lattice, eta=2.0 + rng.uniform(), C=0.5)
        for bars in sets
    ]
    drv = Driver.linear(*coef.T[..., None, None])
    passes = counted_passes(monkeypatch)
    rows = penalize._reduce_pass(drv, sets, bounds)
    assert passes == [(4, 1, 2), (4, 2)]
    for bars, b, abc, (sol, direct) in zip(sets, bounds, coef, rows):
        penalize._check_reduction(sol, direct, bars, 1e-6)
        (alone,) = penalize._reduce_pass(Driver.linear(*abc), [bars], [b])
        assert sol.lattice is bars.lattice and direct.lattice is bars.lattice
        assert same_solution(sol, alone[0]) and same_solution(direct, alone[1])


def test_verify_sandwich_takes_one_pass_per_depth(monkeypatch):
    from rbsdelab import verify

    passes = counted_passes(monkeypatch)
    log = verify.CertificateLog()
    report = verify.verify_sandwich(
        cases=12, max_depth=5, seed=3, schedule=(0, 1, 4), log=log
    )
    assert report["passed"] and report["cases"] == 12
    # depths 3, 4 and 5: (instances, weights, side) each
    assert len(passes) == 3
    assert all(shape[1:] == (3, 2) for shape in passes)
    assert sum(shape[0] for shape in passes) == 12
    assert log.solves == report["weights_solved"] * 2 == 12 * 3 * 2


def test_verify_reduction_takes_two_passes(monkeypatch):
    from rbsdelab import verify

    passes = counted_passes(monkeypatch)
    log = verify.CertificateLog()
    report = verify.verify_reduction(cases=6, max_depth=4, seed=3, log=log)
    assert report["passed"] and report["cases"] == 6
    assert passes == [(6, 1, 2), (6, 2)]
    assert log.solves == 12
    # no instance, no pass
    assert verify.verify_reduction(cases=0, log=log)["cases"] == 0
    assert verify.verify_sandwich(cases=0, log=log)["cases"] == 0
    assert len(passes) == 2 and log.solves == 12


def test_verify_comparison_takes_one_pass_per_depth(monkeypatch):
    from rbsdelab import verify

    passes = []
    backward = verify._backward

    def counted(*args, **kwargs):
        passes.append(args[5])
        return backward(*args, **kwargs)

    monkeypatch.setattr(verify, "_backward", counted)
    log = verify.CertificateLog()
    report = verify.verify_comparison(cases=30, max_depth=5, seed=3, log=log)
    assert report["passed"] and report["cases"] == 30
    # depths 3, 4 and 5, each pair one (dominating, dominated) row
    assert len(passes) == 3
    assert all(rows == 2 for _, rows in passes)
    assert sum(count for count, _ in passes) == 30
    assert log.solves == 60


def test_reduction_numeric_route_agrees_with_exact_route():
    # inert predictable obstacles: the chains converge immediately, so
    # solving between the numerical squeeze limits must give the
    # reduction's value
    bounds, bars = witness_instance(tight=False)
    lat = bars.lattice
    drv = Driver.linear(0.0, 0.3, -0.2, bounds=bounds)
    via_exact = reduce_and_solve(lat, drv, bars)
    family = build_family(bounds, bars, schedule=(0, 1, 2))
    Ybar, Yunder = squeeze_limits(family, tol=1e-4, n_max=2)
    between = BarrierSet.build(lat, bars.xi, L=Yunder, U=Ybar)
    via_chain = solve_rbsde(lat, drv, between)
    assert abs(via_exact.value() - via_chain.value()) < 1e-9


def test_reduction_validation():
    bounds, bars = witness_instance()
    lat = bars.lattice
    with pytest.raises(ValueError):
        reduce_and_solve(lat, Driver.zero(), bars)
    plain = BarrierSet.build(lat, bars.xi, L=bars.L, U=bars.U)
    with pytest.raises(ValueError):
        reduce_and_solve(lat, Driver.zero(bounds=bounds), plain)


def test_reduction_under_bounds_that_do_not_dominate_is_named():
    # zero growth bounds cannot dominate a drift of 1, so the reduced
    # solve and the direct one disagree at the root
    _, bars = witness_instance()
    lat = bars.lattice
    weak = GrowthBounds.constants(lat, eta=0.0, C=0.0)
    drv = Driver.linear(0.0, 0.0, 1.0, bounds=weak)
    with pytest.raises(ReductionDisagreement) as info:
        reduce_and_solve(lat, drv, bars)
    assert info.value.gap > 1e-6
    assert f"by {info.value.gap!r} at the root" in str(info.value)


def test_reduced_solve_outside_the_obstacles_is_named(monkeypatch):
    # a squeeze pair lifted above the upper obstacle must be caught by
    # the membership check, with the excursion as the gap
    from rbsdelab import penalize

    bounds, bars = witness_instance()
    lat = bars.lattice
    lifted = AdaptedProcess.constant(lat, 5.0).with_terminal(bars.xi)
    monkeypatch.setattr(
        penalize, "_exact_limits", lambda *args: [(lifted, lifted)]
    )
    drv = Driver.zero(bounds=bounds)
    with pytest.raises(ReductionDisagreement) as info:
        reduce_and_solve(lat, drv, bars)
    lowest_cap = min(
        float(bars.high.level(i).min()) for i in range(lat.steps)
    )
    assert info.value.gap == 5.0 - lowest_cap
    assert "leaves the original obstacles" in str(info.value)


def test_verify_reduction_counts_disagreements_only(monkeypatch):
    # a disagreement is a failed case; any other error is a bug and
    # must surface, even one that subclasses RuntimeError.  Each row of
    # the batched pass is checked on its own
    from rbsdelab import verify

    def disagree(*args, **kwargs):
        raise ReductionDisagreement("forced", 1.0)

    monkeypatch.setattr(verify, "_check_reduction", disagree)
    log = verify.CertificateLog()
    report = verify.verify_reduction(cases=2, max_depth=3, log=log)
    assert report["failures"] == 2
    assert report["max_err"] == 1.0

    def broken(*args, **kwargs):
        raise RecursionError("forced")

    monkeypatch.setattr(verify, "_check_reduction", broken)
    with pytest.raises(RecursionError):
        verify.verify_reduction(cases=2, max_depth=3, log=log)


def test_verify_dynkin_takes_one_pass_per_depth(monkeypatch):
    # the games with a value are solved one depth per pass, each row
    # bitwise its own solve
    from rbsdelab import verify

    passes, stacked = [], []
    backward, stack = verify._backward, verify._stacked_sets

    def counted(*args, **kwargs):
        out = backward(*args, **kwargs)
        passes.append((args[5], out))
        return out

    def recorded(sets):
        stacked.append(list(sets))
        return stack(sets)

    monkeypatch.setattr(verify, "_backward", counted)
    monkeypatch.setattr(verify, "_stacked_sets", recorded)
    log = verify.CertificateLog()
    report = verify.verify_dynkin(cases=40, seed=3, log=log)
    assert report["passed"] and report["cases"] == 40
    # depths 1 to 4, every game with a value
    assert len(passes) == 4
    assert sum(batch[0] for batch, _ in passes) == log.solves == 40
    for (batch, out), sets in zip(passes, stacked):
        assert batch == (len(sets),)
        assert len({bars.lattice.steps for bars in sets}) == 1
        for sol, bars in zip(out, sets):
            alone = solve_rbsde(bars.lattice, Driver.zero(), bars)
            for part in ("Y", "Z", "Kplus", "Kminus", "drift"):
                got = getattr(sol, part).values
                assert got.tobytes() == getattr(alone, part).values.tobytes()
            assert sol.residuals == alone.residuals
            assert sol.lattice is bars.lattice


def test_verify_dynkin_skips_the_pass_of_games_without_value(monkeypatch):
    # games without a value are failures and never solved; the rest of
    # their depth still is, in one pass
    from rbsdelab import verify
    from rbsdelab.oracle import NoValue

    exhaustive = verify.exhaustive_dynkin_value
    calls = []

    def every_other(L, U, xi):
        calls.append(L.lattice.steps)
        if len(calls) % 2:
            raise NoValue(0.0, 0.5)
        return exhaustive(L, U, xi)

    passes = []
    backward = verify._backward

    def counted(*args, **kwargs):
        passes.append(args[5])
        return backward(*args, **kwargs)

    monkeypatch.setattr(verify, "exhaustive_dynkin_value", every_other)
    monkeypatch.setattr(verify, "_backward", counted)
    log = verify.CertificateLog()
    report = verify.verify_dynkin(cases=20, seed=3, log=log)
    assert (report["cases"], report["failures"]) == (20, 10)
    assert report["max_err"] == 0.5
    assert log.solves == sum(batch[0] for batch in passes) == 10
    assert len(passes) == len(set(calls[1::2]))


def test_verify_dynkin_fails_a_game_without_value(monkeypatch):
    # a game without a value fails whatever the tolerance, and its
    # error is the gap between the two one-sided optima
    from rbsdelab import verify
    from rbsdelab.oracle import NoValue

    def no_value(*args, **kwargs):
        raise NoValue(0.0, 1e-15)

    monkeypatch.setattr(verify, "exhaustive_dynkin_value", no_value)
    monkeypatch.setattr(verify, "_GAME_TOL", 1.0)
    log = verify.CertificateLog()
    report = verify.verify_dynkin(cases=3, log=log)
    assert (report["cases"], report["failures"]) == (3, 3)
    assert report["max_err"] == 1e-15
    assert not report["passed"]
    assert log.solves == 0


def test_verify_sandwich_counts_a_broken_ladder(monkeypatch):
    # each instance's ladder is checked on its own after the batched pass
    from rbsdelab import penalize, verify

    def broken(*args, **kwargs):
        raise SandwichViolation("forced", 1, 0, 0, 0.5)

    monkeypatch.setattr(penalize, "_check_ladder", broken)
    report = verify.verify_sandwich(
        cases=2, max_depth=3, log=verify.CertificateLog()
    )
    assert (report["cases"], report["failures"]) == (2, 2)
    assert report["max_err"] == 1.0
    assert report["weights_solved"] == 0
    assert not report["passed"]


def test_verify_comparison_fails_on_a_failed_check(monkeypatch):
    # the check's own verdict decides, even with both violations at 0
    from types import SimpleNamespace

    from rbsdelab import verify

    def failed(*args, **kwargs):
        return SimpleNamespace(
            passed=False, max_order_violation=0.0, max_kminus_violation=0.0
        )

    monkeypatch.setattr(verify, "comparison_check", failed)
    report = verify.verify_comparison(
        cases=2, max_depth=3, log=verify.CertificateLog()
    )
    assert (report["cases"], report["failures"]) == (2, 2)
    assert report["max_err"] == 0.0
    assert not report["passed"]


def test_default_schedule_shape():
    assert DEFAULT_SCHEDULE[0] == 0
    assert DEFAULT_SCHEDULE[1] == 1
    diffs = np.diff(DEFAULT_SCHEDULE)
    assert np.all(diffs > 0)
