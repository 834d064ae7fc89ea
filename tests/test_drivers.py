import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from rbsdelab.barriers import BarrierSet
from rbsdelab.drivers import (
    Driver,
    GrowthBounds,
    InconsistentSemimartingale,
    SemimartingaleSpec,
    _running_max,
    dominate_growth,
)
from rbsdelab.lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    all_paths,
    expectation_level,
    increment_level,
    level_offset,
    path_nodes,
)
from rbsdelab.penalize import _dominated_driver
from rbsdelab.solver import solve_rbsde


@pytest.fixture
def lat():
    return Lattice(TimeGrid(1.0, 5))


def constant_spec(lat, s0=0.0, drift_up=0.0, drift_down=0.0, slope=1.0):
    return SemimartingaleSpec(
        s0,
        IncreasingProcess(
            lat, [np.full(i + 1, drift_down) for i in range(lat.steps)]
        ),
        IncreasingProcess(
            lat, [np.full(i + 1, drift_up) for i in range(lat.steps)]
        ),
        PredictableProcess.constant(lat, slope),
    )


def test_driver_catalog(lat):
    y = np.array([1.0, -2.0])
    z = np.array([0.5, 3.0])
    # a zero part is left out: the zero rate, and the quadratic's rate
    # beside its squared-slope part, which states c z^2 once, in quad
    assert Driver.zero().f is None
    assert np.array_equal(Driver.constant(2.5).f(1, y, z), [2.5, 2.5])
    lin = Driver.linear(2.0, -1.0, 0.25)
    assert np.array_equal(lin.f(1, y, z), 2.0 * y - z + 0.25)
    quad = Driver.quadratic(0.5)
    assert quad.f is None
    coef, center = quad.quad(3)
    assert coef == 0.5 and center == 0.0
    # the rate is stated once: f_rest is no field, only a None that
    # reads by name, and it can be neither passed nor set
    assert [f.name for f in dataclasses.fields(Driver)] == [
        "f", "g", "bounds", "quad", "slope", "source", "penalty", "label"
    ]
    assert quad.f_rest is None
    with pytest.raises(TypeError, match="f_rest"):
        Driver(f=None, f_rest=lambda j, y, z: z)
    with pytest.raises(dataclasses.FrozenInstanceError):
        quad.f_rest = lambda j, y, z: z
    bounds = GrowthBounds.constants(lat, eta=0.5, C=1.0)
    assert Driver.zero(bounds=bounds).bounds is bounds


def test_driver_quad_without_remainder_steps_as_quadratic(lat):
    # a squared-slope part without f has a zero remainder: the driver is
    # accepted, and its solve is the catalog quadratic's, bit for bit
    drv = Driver(f=None, quad=lambda level: (1.0, 0.0), slope=0.0)
    xi = np.sin(2.0 * lat.brownian(lat.steps))
    bars = BarrierSet.build(lat, xi)
    got, want = (solve_rbsde(lat, d, bars) for d in (drv, Driver.quadratic(1.0)))
    for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
        a, b = getattr(got, name).values, getattr(want, name).values
        assert a.tobytes() == b.tobytes()


def test_driver_bounds_are_one_growth_bounds_or_none(lat):
    # a sequence of bounds raises where it enters, not later in a solve
    bounds = GrowthBounds.constants(lat, eta=0.1, C=0.2)
    for wrong in ([bounds], (bounds, bounds)):
        kind = type(wrong).__name__
        with pytest.raises(ValueError, match=f"one GrowthBounds or None, not a {kind}"):
            Driver.zero(bounds=wrong)
    # replace reruns the checks: a driver rebuilt around a wrapped rate,
    # as a tracer rebuilds it, keeps its bounds
    rate = lambda j, y_left, y: 0.3 - 0.2 * y  # noqa: E731
    for drv in (
        Driver.linear(0.1, 0.2, 0.3, bounds=bounds),
        Driver.zero(g=rate, bounds=bounds),
    ):
        wrapped = dataclasses.replace(drv, f=lambda j, y, z, f=drv.f: f(j, y, z))
        assert wrapped.bounds is bounds and wrapped.g is drv.g


def test_growth_bounds_validation(lat):
    with pytest.raises(ValueError):
        GrowthBounds.constants(lat, eta=-0.1, C=1.0)
    with pytest.raises(ValueError):
        GrowthBounds.constants(lat, eta=0.1, C=np.inf)
    gb = GrowthBounds.constants(lat, eta=0.5, C=2.0, beta=0.25)
    assert np.all(gb.eta.level(3) == 0.5)
    assert np.all(gb.C.level(0) == 2.0)
    assert not (gb.A.atom(0) > 0.0).any()


def test_growth_bounds_reject_pieces_on_another_grid(lat):
    # equal steps, another horizon: every slot stands for another time
    other = Lattice(TimeGrid(2.0, lat.steps))
    eta = AdaptedProcess.constant(lat, 0.1)
    off = AdaptedProcess.constant(other, 0.5)
    for name, args in (("C", (off, 0.0)), ("beta", (0.5, off))):
        with pytest.raises(ValueError, match=f"^{name} lives on a different"):
            GrowthBounds(eta, *args)
    with pytest.raises(ValueError, match="^A lives on a different grid"):
        GrowthBounds(eta, 0.5, 0.0, A=IncreasingProcess.lebesgue(other))


def test_dominate_growth_rejects_pieces_on_another_grid(lat):
    other = Lattice(TimeGrid(2.0, lat.steps))
    L = AdaptedProcess.constant(lat, -2.0)
    U = AdaptedProcess.constant(lat, 3.0)
    phi = lambda r: 1.0 + r  # noqa: E731
    with pytest.raises(ValueError, match="^U lives on a different grid"):
        dominate_growth(phi, 0.5, 0.25, 0.1, L, AdaptedProcess.constant(other, 3.0))
    with pytest.raises(ValueError, match="^eta_tilde lives on a different grid"):
        dominate_growth(phi, AdaptedProcess.constant(other, 0.5), 0.25, 0.1, L, U)
    with pytest.raises(ValueError, match="^A lives on a different grid"):
        dominate_growth(phi, 0.5, 0.25, 0.1, L, U, IncreasingProcess.lebesgue(other))


def test_constant_growth_bounds_keep_no_buffer():
    lat = Lattice(TimeGrid(1.0, 2000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gb = GrowthBounds.constants(lat, eta=0.5, C=2.0, beta=0.25)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for k in ("eta", "C", "beta", "A"):
        assert getattr(gb, k).values.strides == (0,)
    assert kept <= 2**20


def test_reconstruct_hand_case(lat):
    # drift +0.1 per step (added part), slope 2: S = 0.5 + 0.1*i + 2*B
    spec = constant_spec(lat, s0=0.5, drift_up=0.1, slope=2.0)
    S = spec.reconstruct()
    for i in range(lat.steps + 1):
        expect = 0.5 + 0.1 * i + 2.0 * lat.brownian(i)
        assert np.allclose(S.level(i), expect, atol=1e-12)


def test_reconstruct_detects_non_recombining(lat):
    # node-dependent slope breaks up-down symmetry
    slopes = [np.arange(i + 1, dtype=float) for i in range(lat.steps)]
    spec = SemimartingaleSpec(
        0.0,
        IncreasingProcess.zero(lat),
        IncreasingProcess.zero(lat),
        PredictableProcess(lat, slopes),
    )
    with pytest.raises(InconsistentSemimartingale) as err:
        spec.reconstruct()
    assert err.value.level >= 1
    assert err.value.gap > 0.0


def broken_spec(steps, level, node, by=1e-3):
    """Decomposition of a smooth process on a depth-``steps`` lattice,
    its step into ``level`` moved so that ``node`` there no longer
    recombines: ``by`` more drift and ``by`` less slope increment move
    the down child by ``2 by`` and leave the up child in place."""
    lat = Lattice(TimeGrid(1.0, steps))
    S = np.concatenate(
        [
            0.4 * np.sin(1.3 * lat.brownian(i)) + 0.1 * lat.times[i]
            for i in range(steps + 1)
        ]
    )
    spec = SemimartingaleSpec.from_levels(lat, S)
    at = level_offset(level - 1) + node
    vminus = spec.vminus.values.copy()
    vminus[at] += by
    gamma = spec.gamma.values.copy()
    gamma[at] -= by / lat.sqrt_dt
    return SemimartingaleSpec(
        spec.s0,
        spec.vplus,
        IncreasingProcess(lat, vminus),
        PredictableProcess(lat, gamma),
    )


def test_a_broken_deep_spec_names_its_level_node_and_gap():
    spec = broken_spec(200, 151, 7)
    for rebuild in (spec.reconstruct, lambda: spec.retarget(np.zeros(201))):
        with pytest.raises(InconsistentSemimartingale) as err:
            rebuild()
        assert type(err.value) is InconsistentSemimartingale
        assert (err.value.level, err.value.node) == (151, 7)
        assert err.value.gap == 0.002000000000000224
        assert str(err.value) == (
            "up and down reconstructions disagree by 0.002000000000000224 at "
            "(level 151, node 7); the decomposition does not recombine"
        )


def test_reconstruct_is_the_level_by_level_forward_build():
    rng = np.random.default_rng(12)
    lat = Lattice(TimeGrid(0.7, 60))
    freq = rng.uniform(0.5, 2.0)
    S = np.concatenate(
        [np.cos(freq * lat.brownian(i)) - 0.3 * lat.times[i] for i in range(61)]
    )
    spec = SemimartingaleSpec.from_levels(lat, S)
    built = spec.reconstruct()
    cur = np.array([spec.s0])
    assert np.array_equal(built.level(0), cur)
    for i in range(lat.steps):
        drift = spec.vminus.atom(i) - spec.vplus.atom(i)
        g = spec.gamma.atom(i) * lat.sqrt_dt
        down = cur + drift - g
        up = cur + drift + g
        cur = np.append(down, up[-1])
        assert np.array_equal(built.level(i + 1), cur)


def test_from_levels_reconstructs_the_levels(lat):
    rng = np.random.default_rng(8)
    levels = [rng.normal(0.0, 1.0, i + 1) for i in range(lat.steps + 1)]
    spec = SemimartingaleSpec.from_levels(lat, levels)
    S = spec.reconstruct()
    for i in range(lat.steps + 1):
        assert np.allclose(S.level(i), levels[i], rtol=0.0, atol=1e-12)
    for i in range(lat.steps):
        # the signed drift is split, never charged to both parts
        assert np.all(spec.vplus.atom(i) * spec.vminus.atom(i) == 0.0)
        # and both come from the level operators, bit for bit
        nxt = levels[i + 1]
        drift = expectation_level(nxt) - levels[i]
        assert np.array_equal(spec.gamma.atom(i), increment_level(nxt, lat.sqrt_dt))
        assert np.array_equal(spec.vminus.atom(i), np.maximum(drift, 0.0))
        assert np.array_equal(spec.vplus.atom(i), np.maximum(-drift, 0.0))


def test_running_max_envelope_dominates_paths(lat):
    rng = np.random.default_rng(4)
    X = AdaptedProcess(
        lat, [rng.normal(0, 1, i + 1) for i in range(lat.steps + 1)]
    )
    D = AdaptedProcess(lat, _running_max(X.values, lat.steps))
    for ups in all_paths(lat.steps):
        nodes = path_nodes(ups)
        run = -np.inf
        for i, j in enumerate(nodes):
            run = max(run, X.level(i)[j])
            assert D.level(i)[j] >= run
    # envelope values are always attained by some sample
    for i in range(lat.steps + 1):
        for j in range(i + 1):
            vals = [
                X.level(k)[m]
                for k in range(i + 1)
                for m in range(k + 1)
            ]
            assert D.level(i)[j] in vals


def test_running_max_envelope_exact_for_time_indexed(lat):
    # when the sample depends only on time, every path shares the same
    # running max and the node envelope is exactly it
    seq = [3.0, 1.0, 4.0, 1.0, 5.0, 2.0]
    X = AdaptedProcess(
        lat, [np.full(i + 1, seq[i]) for i in range(lat.steps + 1)]
    )
    D = AdaptedProcess(lat, _running_max(X.values, lat.steps))
    run = np.maximum.accumulate(seq)
    for i in range(lat.steps + 1):
        assert np.all(D.level(i) == run[i])


def test_dominate_growth_scales_by_phi(lat):
    L = AdaptedProcess.constant(lat, -2.0)
    U = AdaptedProcess.constant(lat, 3.0)
    phi = lambda r: 1.0 + r
    gb = dominate_growth(phi, 0.5, 0.25, 0.1, L, U)
    # size envelope is constant 2*(3 + 2) = 10, so phi(D) = 11
    assert np.all(gb.eta.level(2) == 0.5 * 11.0)
    assert np.all(gb.C.level(4) == 0.25 * 11.0)
    assert np.all(gb.beta.level(0) == 0.1 * 11.0)
    with pytest.raises(ValueError, match="scaling function decreases"):
        dominate_growth(lambda r: -r, 0.5, 0.25, 0.1, L, U)


def test_dominate_growth_evaluates_phi_on_the_envelope_once():
    # phi sees the monotonicity probe, then the node envelope exactly
    # once, and each bound is the envelope's one scale times its raw value
    lat = Lattice(TimeGrid(1.0, 200))
    rng = np.random.default_rng(30)

    def drawn():
        return AdaptedProcess(
            lat, [rng.normal(size=i + 1) for i in range(lat.steps + 1)]
        )

    L, U = drawn(), drawn()
    eta, C, beta = (AdaptedProcess(lat, np.abs(drawn().values)) for _ in range(3))
    seen = []

    def phi(r):
        seen.append(np.array(r))
        return 1.0 + r * r

    gb = dominate_growth(phi, eta, C, beta, L, U)
    size = 2.0 * (np.maximum(U.values, 0.0) + np.maximum(-L.values, 0.0))
    D = _running_max(size, lat.steps)
    probe = np.unique(np.concatenate([D, np.linspace(0.0, D.max(), 17)]))
    assert len(seen) == 2
    assert np.array_equal(seen[0], probe) and np.array_equal(seen[1], D)
    scale = 1.0 + D * D
    for got, raw in ((gb.eta, eta), (gb.C, C), (gb.beta, beta)):
        assert np.array_equal(got.values, scale * raw.values)


def test_declared_slopes_are_the_rates_slopes(lat):
    # a wrong declaration would give wrong roots silently: every catalog
    # constructor's slope is the difference quotient of its stepped rate
    # f, to rounding, at random points
    bounds = GrowthBounds.constants(lat, eta=0.1, C=0.4)
    column = np.array([[0.5], [-3.0]])
    spec = constant_spec(lat, slope=0.3, drift_up=0.01)
    drivers = {
        "zero": [Driver.zero()],
        "constant": [Driver.constant(-1.3)],
        "linear": [Driver.linear(2.0, -1.0, 0.25), Driver.linear(column, 0.7, column)],
        "quadratic": [Driver.quadratic(0.5)],
        "dominated": [_dominated_driver([bounds], [spec])],
    }
    catalog = {name for name, v in vars(Driver).items() if isinstance(v, classmethod)}
    assert catalog | {"dominated"} == set(drivers)
    rng = np.random.default_rng(28)
    for drv in (d for group in drivers.values() for d in group):
        rate = drv.f
        if rate is None:
            # an absent rate is zero, whose slope is exactly 0
            assert drv.slope == 0.0, drv
            continue
        for i in range(lat.steps):
            y = rng.normal(0.0, 3.0, (2, i + 1))
            z = rng.normal(0.0, 2.0, (2, i + 1))
            h = rng.uniform(0.1, 2.0)
            at, past = rate(i, y, z), rate(i, y + h, z)
            quotient = (past - at) / h
            scale = 1.0 + np.maximum(np.abs(at), np.abs(past)) / h
            gap = np.abs(quotient - drv.slope)
            assert np.all(gap <= 8.0 * np.finfo(float).eps * scale), drv


# the names a tracer reads from a driver and rebuilds it around
_READ_BY_NAME = ("f", "f_rest", "g", "penalty", "quad", "source")


def wrapped_parts(drv):
    """``drv`` rebuilt by ``dataclasses.replace`` around a wrapped copy
    of each part it has, as a tracer that records the calls rebuilds it."""

    def wrap(fn):
        return functools.wraps(fn)(lambda *args, **kw: fn(*args, **kw))

    parts = {name: getattr(drv, name) for name in _READ_BY_NAME}
    changes = {name: wrap(fn) for name, fn in parts.items() if fn is not None}
    assert "f_rest" not in changes
    return dataclasses.replace(drv, **changes)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_every_name_read_by_name_reads_and_rebuilds_bitwise(lat, monkeypatch):
    # each catalog driver and the dominated driver answers all six names
    # (f_rest with None); rebuilt around wrapped parts, each solves as it did
    from rbsdelab import penalize
    from rbsdelab.verify import random_witness_instance

    xi = np.sin(2.0 * lat.brownian(lat.steps))
    xi[:2] = -0.0
    lo = AdaptedProcess(lat, [np.full(i + 1, -0.4) for i in range(lat.steps)] + [xi])
    bars = BarrierSet.build(lat, xi, L=lo)
    for drv in (
        Driver.zero(),
        Driver.constant(-1.3),
        Driver.linear(0.4, -0.5, 0.3),
        Driver.quadratic(0.7),
    ):
        got, want = (solve_rbsde(lat, d, bars) for d in (wrapped_parts(drv), drv))
        for name in ("Y", "Z", "Kplus", "Kminus", "drift"):
            assert same_bits(getattr(got, name).values, getattr(want, name).values)
    # the dominated driver of the exact squeeze, which has no penalty
    bounds, sets = random_witness_instance(np.random.default_rng(2), 30)
    drv = _dominated_driver([bounds], [sets.witness])
    assert drv.f is None and drv.f_rest is None and drv.penalty is None
    want = penalize.exact_squeeze_barriers(bounds, sets)
    build = penalize._dominated_driver
    monkeypatch.setattr(
        penalize, "_dominated_driver", lambda *args: wrapped_parts(build(*args))
    )
    got = penalize.exact_squeeze_barriers(bounds, sets)
    assert all(same_bits(a.values, b.values) for a, b in zip(got, want))
