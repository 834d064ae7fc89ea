import numpy as np
import pytest

from rbsdelab.lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    _constant,
    _process_rows,
    all_paths,
    expectation_level,
    increment_level,
    level_offset,
    path_nodes,
)


@pytest.fixture
def lat():
    return Lattice(TimeGrid(1.0, 6))


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(float("inf"), 4)


def test_grid_times():
    g = TimeGrid(2.0, 4)
    assert np.array_equal(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.dt == 0.5
    assert g == TimeGrid(2.0, 4)
    assert g != TimeGrid(2.0, 5)
    assert hash(g) == hash(TimeGrid(2.0, 4))


def test_walk_values(lat):
    # node j at level i sits at (2j - i) * sqrt(dt)
    h = lat.sqrt_dt
    assert np.array_equal(lat.brownian(0), [0.0])
    assert np.allclose(lat.brownian(2), [-2 * h, 0.0, 2 * h])
    with pytest.raises(IndexError):
        lat.brownian(7)


def test_walk_is_martingale(lat):
    h = lat.sqrt_dt
    for i in range(lat.steps):
        E = expectation_level(lat.brownian(i + 1))
        assert np.all(
            np.abs(E - lat.brownian(i)) <= 4 * np.spacing(np.abs(E) + h)
        )
        M = increment_level(lat.brownian(i + 1), h)
        assert np.all(np.abs(M - 1.0) <= 8 * np.spacing(1.0))


def test_level_operators_batch_over_leading_axes():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(3, 2, 6))
    E = expectation_level(batch)
    M = increment_level(batch, 0.3)
    assert E.shape == M.shape == (3, 2, 5)
    for idx in np.ndindex(3, 2):
        assert np.array_equal(E[idx], expectation_level(batch[idx]))
        assert np.array_equal(M[idx], increment_level(batch[idx], 0.3))
    # written in place when given an out buffer; without one, a column
    # of step sizes broadcasts the result
    buf = np.empty((3, 2, 5))
    assert increment_level(batch, 0.3, out=buf) is buf
    assert np.array_equal(buf, M)
    h = np.array([[0.3], [0.6]])
    assert np.array_equal(increment_level(batch[0, 0], h), [M[0, 0], M[0, 0] / 2.0])


def test_adapted_shape_checks(lat):
    with pytest.raises(ValueError, match="needs 7 level arrays, got 3"):
        AdaptedProcess(lat, [np.zeros(i + 1) for i in range(3)])
    bad = [np.zeros(i + 1) for i in range(lat.steps + 1)]
    bad[2] = np.zeros(5)
    with pytest.raises(ValueError, match=r"level 2 must have shape \(3,\)"):
        AdaptedProcess(lat, bad)
    # NaN at levels 2 and 4: the first one is named
    bad[2] = np.array([0.0, np.nan, 0.0])
    bad[4] = np.full(5, np.nan)
    with pytest.raises(ValueError, match="level 2 contains NaN"):
        AdaptedProcess(lat, bad)


def test_process_layout(lat):
    # one read-only array per process; level i is the view at offset
    # i (i + 1) / 2
    rng = np.random.default_rng(2)
    X = AdaptedProcess(
        lat, [rng.normal(size=i + 1) for i in range(lat.steps + 1)]
    )
    P = PredictableProcess(
        lat, [rng.normal(size=i + 1) for i in range(lat.steps)]
    )
    D = IncreasingProcess(
        lat, [rng.uniform(size=i + 1) for i in range(lat.steps)]
    )
    n = lat.steps
    assert X.values.shape == ((n + 1) * (n + 2) // 2,)
    assert P.values.shape == D.values.shape == (n * (n + 1) // 2,)
    views = [(X.values, X.level(i), i) for i in range(lat.steps + 1)]
    views += [(X.values, X.terminal(), lat.steps)]
    views += [(P.values, P.atom(i), i) for i in range(lat.steps)]
    views += [(D.values, D.atom(i), i) for i in range(lat.steps)]
    for packed, view, i in views:
        assert not packed.flags.writeable and not view.flags.writeable
        assert view.base is packed and np.shares_memory(view, packed)
        offset = (view.ctypes.data - packed.ctypes.data) // packed.itemsize
        assert offset == i * (i + 1) // 2 and view.shape == (i + 1,)
    for bad in (-1, lat.steps + 1):
        with pytest.raises(IndexError):
            X.level(bad)
    with pytest.raises(IndexError):
        P.atom(lat.steps)


def test_adapted_is_frozen(lat):
    X = AdaptedProcess.constant(lat, 1.0)
    with pytest.raises(ValueError):
        X.level(2)[0] = 3.0
    # infinities are legal values, NaN is not
    Y = AdaptedProcess.constant(lat, -np.inf)
    assert np.all(np.isneginf(Y.terminal()))


@pytest.mark.parametrize(
    "make",
    [
        lambda lat: AdaptedProcess.constant(lat, -np.inf),
        lambda lat: PredictableProcess.constant(lat, np.inf),
        IncreasingProcess.zero,
        IncreasingProcess.lebesgue,
    ],
    ids=["adapted", "predictable", "zero_clock", "lebesgue_clock"],
)
def test_a_constant_is_one_read_only_zero_stride_view(lat, make):
    X = make(lat)
    count = lat.steps + isinstance(X, AdaptedProcess)
    assert X.values.shape == (level_offset(count),)
    assert X.values.strides == (0,)
    with pytest.raises(ValueError):
        X.values[0] = 1.0
    with pytest.raises(ValueError):
        X.values[-3:] = 1.0


@pytest.mark.parametrize("cls", [AdaptedProcess, PredictableProcess])
def test_a_nan_constant_raises_as_its_constructor(lat, cls):
    with pytest.raises(ValueError) as info:
        cls.constant(lat, np.nan)
    assert str(info.value) == f"{cls.__name__} level 0 contains NaN"


@pytest.mark.parametrize(
    "value, says",
    [(-1.0, "clock mass at slot 0 must be >= 0"),
     (np.inf, "clock mass at slot 0 must be finite"),
     (np.nan, "IncreasingProcess level 0 contains NaN")],
    ids=["negative", "infinite", "nan"],
)
def test_a_bad_clock_constant_raises_as_its_constructor(lat, value, says):
    with pytest.raises(ValueError) as info:
        _constant(IncreasingProcess, lat, value)
    assert str(info.value) == says
    with pytest.raises(ValueError) as alone:
        IncreasingProcess(lat, np.full(level_offset(lat.steps), value))
    assert str(alone.value) == says


def batch_parts(lat, rng):
    """A (3, 2) batch of adapted, predictable and clock rows."""
    adapted = rng.normal(size=(3, 2, level_offset(lat.steps + 1)))
    slots = rng.uniform(0.0, 1.0, (2, 3, 2, level_offset(lat.steps)))
    return [
        (AdaptedProcess, adapted),
        (PredictableProcess, slots[0]),
        (IncreasingProcess, slots[1]),
    ]


def test_batch_rows_adopt_frozen_views(lat):
    parts = batch_parts(lat, np.random.default_rng(2))
    rows = _process_rows([lat] * 6, parts)
    assert len(rows) == 6
    for k, row in enumerate(rows):
        for (cls, buf), proc in zip(parts, row):
            assert type(proc) is cls and proc.lattice is lat
            assert np.array_equal(proc.values, buf.reshape(6, -1)[k])
            assert np.shares_memory(proc.values, buf)
            assert not proc.values.flags.writeable


@pytest.mark.parametrize(
    "part, slot, value",
    [(0, (1, 0, 4), np.nan), (1, (2, 1, 7), np.nan), (2, (1, 1, 3), -0.5),
     (2, (0, 1, 9), np.inf), (2, (2, 0, 2), np.nan)],
    ids=["adapted_nan", "predictable_nan", "negative_mass", "infinite_mass",
         "nan_mass"],
)
def test_a_bad_row_of_a_batch_raises_as_its_constructor(lat, part, slot, value):
    parts = batch_parts(lat, np.random.default_rng(3))
    cls, buf = parts[part]
    buf[slot] = value
    with pytest.raises(ValueError) as alone:
        cls(lat, buf[slot[:2]].copy())
    with pytest.raises(ValueError) as batch:
        _process_rows([lat] * 6, parts)
    assert str(batch.value) == str(alone.value)


def test_with_terminal(lat):
    X = AdaptedProcess.constant(lat, 0.0)
    xi = np.arange(lat.steps + 1, dtype=float)
    Y = X.with_terminal(xi)
    assert np.array_equal(Y.terminal(), xi)
    assert np.array_equal(Y.level(2), X.level(2))
    Z = X.with_terminal(7.0)
    assert np.all(Z.terminal() == 7.0)


def test_along_path(lat):
    ups = np.array([1, 0, 1, 1, 0, 0])
    nodes = path_nodes(ups)
    vals = [lat.brownian(i)[nodes[i]] for i in range(lat.steps + 1)]
    walk = np.concatenate([[0.0], np.cumsum(2.0 * ups - 1.0) * lat.sqrt_dt])
    assert np.allclose(vals, walk)


def test_predictable_slots(lat):
    P = PredictableProcess(
        lat, [lat.brownian(i) + lat.times[i + 1] for i in range(lat.steps)]
    )
    # slot i is measurable at level i but attributed to t_{i+1}
    for i in range(lat.steps):
        assert P.atom(i).shape == (i + 1,)
        assert np.array_equal(P.atom(i), lat.brownian(i) + lat.times[i + 1])


def test_predictable_from_time_values(lat):
    P = PredictableProcess.from_time_values(lat, {2: 5.0}, fill=-np.inf)
    assert np.all(P.atom(1) == 5.0)
    assert np.all(np.isneginf(P.atom(0)))
    assert np.all(np.isneginf(P.atom(3)))
    with pytest.raises(ValueError):
        PredictableProcess.from_time_values(lat, {0: 1.0})
    with pytest.raises(ValueError):
        PredictableProcess.from_time_values(lat, {lat.steps + 1: 1.0})
    # or one value per node of the slot's level
    P = PredictableProcess.from_time_values(lat, {3: [1.0, 2.0, 3.0]})
    assert P.atom(2).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="time index 3 needs 3 values"):
        PredictableProcess.from_time_values(lat, {3: [1.0, 2.0]})


def test_clock_validation(lat):
    with pytest.raises(ValueError, match="slot 0 must be >= 0"):
        IncreasingProcess(
            lat, [np.full(i + 1, -0.1) for i in range(lat.steps)]
        )
    with pytest.raises(ValueError, match="slot 0 must be finite"):
        IncreasingProcess(
            lat, [np.full(i + 1, np.inf) for i in range(lat.steps)]
        )
    # negative mass at slot 3 only, at its last node
    atoms = [np.ones(i + 1) for i in range(lat.steps)]
    atoms[3][3] = -1.0
    with pytest.raises(ValueError, match="slot 3 must be >= 0"):
        IncreasingProcess(lat, atoms)


def test_clock_constructors(lat):
    Z = IncreasingProcess.zero(lat)
    assert not (Z.values > 0.0).any()
    Leb = IncreasingProcess.lebesgue(lat)
    assert (Leb.values > 0.0).all()
    w = Leb.weights_by_time()
    assert w[0] == 0.0
    assert np.allclose(w[1:], lat.dt)

    D = IncreasingProcess.from_time_atoms(lat, {3: 0.5, 6: 1.0})
    assert np.all(D.atom(2) == 0.5)
    assert np.all(D.atom(5) == 1.0)
    assert not (D.atom(0) > 0.0).any()
    with pytest.raises(ValueError):
        IncreasingProcess.from_time_atoms(lat, {3: -1.0})
    with pytest.raises(ValueError):
        IncreasingProcess.from_time_atoms(lat, {0: 1.0})


def test_clock_node_dependent_weights(lat):
    atoms = [np.zeros(i + 1) for i in range(lat.steps)]
    atoms[2][0] = 1.0
    D = IncreasingProcess(lat, atoms)
    assert not D.is_time_indexed()
    with pytest.raises(ValueError):
        D.weights_by_time()


def test_clock_along_path(lat):
    D = IncreasingProcess.from_time_atoms(lat, {2: 0.25, 5: 0.75})
    ups = np.array([0, 1, 1, 0, 1, 0])
    nodes = path_nodes(ups)
    jumps = [D.atom(i)[nodes[i]] for i in range(lat.steps)]
    cum = np.concatenate([[0.0], np.cumsum(jumps)])
    assert cum[0] == 0.0
    assert cum[2] == 0.25
    assert cum[4] == 0.25
    assert cum[5] == 1.0
    assert cum[-1] == 1.0


def test_level_operators_match_nodewise(lat):
    rng = np.random.default_rng(0)
    X = AdaptedProcess(
        lat, [rng.standard_normal(i + 1) for i in range(lat.steps + 1)]
    )
    for i in range(lat.steps):
        nxt = X.level(i + 1)
        E = expectation_level(nxt)
        Z = increment_level(nxt, lat.sqrt_dt)
        for j in range(i + 1):
            down, up = nxt[j], nxt[j + 1]
            assert E[j] == 0.5 * (down + up)
            assert Z[j] == (up - down) / (2.0 * lat.sqrt_dt)


def test_tower_property(lat):
    # iterating the one-step expectation from the terminal level gives
    # the unconditional mean: sum of xi against binomial weights / 2^N
    rng = np.random.default_rng(1)
    xi = rng.standard_normal(lat.steps + 1)
    v = xi
    for _ in range(lat.steps):
        v = expectation_level(v)
    from math import comb

    mean = sum(xi[k] * comb(lat.steps, k) for k in range(lat.steps + 1))
    mean /= 2.0 ** lat.steps
    assert abs(v[0] - mean) < 1e-14


def test_all_paths():
    P = all_paths(3)
    assert P.shape == (8, 3)
    assert np.array_equal(P[0], [0, 0, 0])
    assert np.array_equal(P[5], [1, 0, 1])
    assert len(np.unique(P, axis=0)) == 8
    with pytest.raises(ValueError):
        all_paths(21)
    with pytest.raises(ValueError):
        all_paths(-1)


def test_path_nodes():
    assert np.array_equal(path_nodes([1, 0, 1]), [0, 1, 1, 2])
    assert np.array_equal(path_nodes([]), [0])


def test_path_nodes_of_a_path_batch_match_row_by_row():
    P = all_paths(5)
    nodes = path_nodes(P)
    assert nodes.shape == (32, 6)
    assert np.array_equal(nodes, np.stack([path_nodes(row) for row in P]))


def test_path_enumeration_consistency(lat):
    # path_nodes over every enumerated path visits each node the
    # binomial number of times
    from math import comb

    counts = {}
    for ups in all_paths(lat.steps):
        nodes = path_nodes(ups)
        for i, j in enumerate(nodes):
            counts[(i, int(j))] = counts.get((i, int(j)), 0) + 1
    for (i, j), c in counts.items():
        assert c == comb(i, j) * 2 ** (lat.steps - i)
