import tracemalloc

import numpy as np
import pytest

from rbsdelab.drivers import (
    Driver,
    GrowthBounds,
    InconsistentSemimartingale,
    SemimartingaleSpec,
    _dominated_driver,
    _running_max_envelope,
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
    path_nodes,
)


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
    assert np.array_equal(Driver.zero().f(1, y, z), [0.0, 0.0])
    assert np.array_equal(Driver.constant(2.5).f(1, y, z), [2.5, 2.5])
    lin = Driver.linear(2.0, -1.0, 0.25)
    assert np.array_equal(lin.f(1, y, z), 2.0 * y - z + 0.25)
    quad = Driver.quadratic(0.5)
    assert np.array_equal(quad.f(1, y, z), 0.5 * z * z)
    coef, center = quad.quad(3)
    assert coef == 0.5 and center == 0.0
    assert np.array_equal(quad.f_rest(1, y, z), [0.0, 0.0])
    bounds = GrowthBounds.constants(lat, eta=0.5, C=1.0)
    assert Driver.zero(bounds=bounds).bounds is bounds


def test_driver_quad_requires_remainder():
    with pytest.raises(ValueError):
        Driver(f=lambda j, y, z: z * z, quad=lambda level: (1.0, 0.0))


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
    D = _running_max_envelope(X)
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
    D = _running_max_envelope(X)
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


def dominated(bounds, spec):
    """The dominated driver of one pair: the one-row case of
    ``_dominated_driver``, each part leading with the side axis."""
    return _dominated_driver([bounds], [spec], (-1,))


def test_dominated_driver_beats_quadratic_bound(lat):
    # eta + 4*C*gamma^2 + (m/2)(z - gamma)^2 >= eta + C z^2 for all z
    # needs m >= 8C; the dominated driver uses m = 1 + 8 * running max
    # of |C|.  The witness has no drift and the clock is empty, so the
    # per-step drift f dt + source is that rate times dt.  Row 1 is the
    # upper equation, whose drift carries the rate's own sign
    rng = np.random.default_rng(8)
    C_levels = [rng.uniform(0.0, 2.0, i + 1) for i in range(lat.steps + 1)]
    bounds = GrowthBounds(
        AdaptedProcess.constant(lat, 0.3),
        AdaptedProcess(lat, C_levels),
        AdaptedProcess.constant(lat, 0.0),
    )
    spec = constant_spec(lat, slope=1.5)
    drv = dominated(bounds, spec)
    zs = np.linspace(-30.0, 30.0, 61)
    for i in range(lat.steps):
        y = np.zeros(i + 1)
        for z in zs:
            step = drv.f(i, y, np.full(i + 1, z))[1] * lat.dt + drv.source(i)[1]
            cap = (0.3 + C_levels[i] * z * z) * lat.dt
            assert np.all(step >= cap - 1e-12 * lat.dt)


def test_dominated_driver_orientation_mirror(lat):
    # row 0 (the lower equation) is row 1 (the upper one) with every
    # sign flipped, in each part that carries the side axis
    bounds = GrowthBounds.constants(lat, eta=0.2, C=0.5)
    spec = constant_spec(lat, slope=0.7, drift_up=0.05, drift_down=0.02)
    drv = dominated(bounds, spec)
    y = np.zeros(3)
    z = np.array([-1.0, 0.0, 2.0])
    for rows in (drv.f(2, y, z), drv.quad(2)[0], drv.source(2)):
        assert rows.shape == (2, 3)
        assert np.array_equal(rows[0], -rows[1])
        assert np.all(rows[1] > 0.0)


def test_dominated_driver_rows_stack_the_single_drivers():
    # one pair per row lattice: each part leads with the instance axis,
    # shaped (B, 1, 2, nodes), and row k is bitwise the single driver k
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
    rows = _dominated_driver(*zip(*pairs), (3, 1, 1, -1))
    assert rows.bounds == tuple(b for b, _ in pairs)
    singles = [dominated(b, s) for b, s in pairs]
    for i in range(4):
        y = np.zeros((3, 1, 2, i + 1))
        z = rng.normal(0.0, 2.0, (3, 1, 2, i + 1))
        parts = (
            (rows.f(i, y, z), [d.f(i, y[k, 0], z[k, 0]) for k, d in enumerate(singles)]),
            (rows.quad(i)[0], [d.quad(i)[0] for d in singles]),
            (rows.source(i), [d.source(i) for d in singles]),
        )
        for got, alone in parts:
            assert got.shape == (3, 1, 2, i + 1)
            assert np.array_equal(got[:, 0], np.stack(alone))
        center = rows.quad(i)[1]
        assert np.array_equal(center[:, 0, 0], np.stack([d.quad(i)[1] for d in singles]))


def test_dominated_driver_structure_consistent(lat):
    # declared split must reproduce f: f == f_rest + q * (z - center)^2
    bounds = GrowthBounds.constants(lat, eta=0.1, C=0.4, beta=0.2,
                                    A=IncreasingProcess.lebesgue(lat))
    spec = constant_spec(lat, slope=0.3, drift_up=0.01)
    drv = dominated(bounds, spec)
    rng = np.random.default_rng(1)
    for i in range(lat.steps):
        y = rng.normal(0, 1, i + 1)
        z = rng.normal(0, 2, i + 1)
        q, center = drv.quad(i)
        recomposed = np.asarray(drv.f_rest(i, y, z)) + q[1] * (z - center) ** 2
        assert np.allclose(drv.f(i, y, z)[1], recomposed, atol=1e-12)
    # source carries total variation, the clock term and the constant
    # rate eta + 4 C gamma^2 over the step
    dv = 0.01  # vminus mass per step
    for i in range(lat.steps):
        expect = dv + 0.2 * lat.dt + (0.1 + 4.0 * 0.4 * 0.3**2) * lat.dt
        assert np.allclose(drv.source(i)[1], expect)
