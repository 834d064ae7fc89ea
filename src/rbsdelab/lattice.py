"""Recombining binomial lattice and the process types living on it.

The driving noise is the symmetric +-1 random walk scaled by sqrt(dt).
A node at level ``i`` (time ``t_i``) is indexed by the number ``j`` of
up-moves so far, ``0 <= j <= i``; its children at level ``i + 1`` are
``j`` (down) and ``j + 1`` (up), each with probability one half.  The
walk value at node ``(i, j)`` is ``(2 j - i) * sqrt(dt)``.

Every process stores its values in one packed read-only array, level
after level: level ``i`` (``i + 1`` entries, ascending in up-moves)
starts at offset ``i (i + 1) / 2`` (:func:`level_offset`), so node
``(i, j)`` is entry ``i (i + 1) / 2 + j`` and its children are the
entries ``i + 1`` and ``i + 2`` further on.

- *adapted* processes pack levels ``0..N``, entry ``(i, j)`` being the
  value observed at time ``t_i``;
- *predictable* processes pack levels ``0..N-1``: the slot at level
  ``i`` is attributed to the time ``t_{i+1}`` but measurable at
  ``t_i``.  The left limit of an adapted process at ``t_{i+1}`` is
  likewise read at level ``i``.

``level(i)``, ``atom(i)`` and ``terminal()`` return views into the
packed array.  A constant process stores one read-only zero-stride
view of its value instead, so hot paths must not call
``np.ascontiguousarray`` on ``values``, which would copy it out.

Conditional expectation one step ahead is the exact midpoint of the
two children, and the integrand of the martingale part is the exact
divided difference; no quadrature error enters anywhere.
"""

import math

import numpy as np

__all__ = [
    "TimeGrid",
    "Lattice",
    "AdaptedProcess",
    "PredictableProcess",
    "IncreasingProcess",
    "expectation_level",
    "increment_level",
    "all_paths",
    "path_nodes",
    "level_offset",
    "entry_levels",
]

# hard cap for exhaustive path enumeration: 2^20 paths
_MAX_ENUM_STEPS = 20


def _frozen(a):
    """Return a read-only contiguous float copy of ``a``."""
    out = np.ascontiguousarray(a, dtype=float)
    if out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


class TimeGrid:
    """Uniform partition of ``[0, horizon]`` into ``steps`` intervals."""

    __slots__ = ("horizon", "steps", "times")

    def __init__(self, horizon, steps):
        horizon = float(horizon)
        steps = int(steps)
        if not np.isfinite(horizon) or horizon <= 0.0:
            raise ValueError("horizon must be a finite positive number")
        if steps < 1:
            raise ValueError("steps must be at least 1")
        self.horizon = horizon
        self.steps = steps
        self.times = _frozen(np.linspace(0.0, horizon, steps + 1))

    @property
    def dt(self):
        return self.horizon / self.steps

    def __repr__(self):
        return f"TimeGrid(horizon={self.horizon!r}, steps={self.steps})"

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and other.horizon == self.horizon
            and other.steps == self.steps
        )

    def __hash__(self):
        return hash((self.horizon, self.steps))


class Lattice:
    """Recombining binomial tree over a :class:`TimeGrid`."""

    __slots__ = ("grid", "sqrt_dt")

    def __init__(self, grid):
        if not isinstance(grid, TimeGrid):
            raise TypeError("grid must be a TimeGrid")
        self.grid = grid
        self.sqrt_dt = float(np.sqrt(grid.dt))

    @property
    def steps(self):
        return self.grid.steps

    @property
    def times(self):
        return self.grid.times

    @property
    def dt(self):
        return self.grid.dt

    def brownian(self, level):
        """Walk values at every node of ``level`` (ascending in up-moves)."""
        if not 0 <= level <= self.steps:
            raise IndexError(f"level {level} outside [0, {self.steps}]")
        j = np.arange(level + 1, dtype=float)
        return (2.0 * j - level) * self.sqrt_dt

    def __repr__(self):
        return f"Lattice({self.grid!r})"


def level_offset(i):
    """Offset ``i (i + 1) / 2`` of level ``i`` in a packed process, also
    elementwise; ``count`` levels take ``level_offset(count)`` entries."""
    return i * (i + 1) // 2


def _level_view(values, i):
    """Level ``i`` of a packed process, as a view into ``values``.
    Runs on every level read, so the offset is plain arithmetic here."""
    start = i * (i + 1) // 2
    out = values[start : start + i + 1]
    if i < 0 or out.size != i + 1:
        raise IndexError(f"level {i} outside the process")
    return out


def entry_levels(count):
    """Level of every entry of a process packed over ``count`` levels."""
    return np.repeat(np.arange(count), np.arange(1, count + 1))


def _walk_and_times(lattice):
    """Walk value and time of every node of levels 0..N, packed."""
    count = lattice.steps + 1
    walk = np.concatenate([lattice.brownian(i) for i in range(count)])
    return walk, lattice.times[entry_levels(count)]


def _varying_level(values, count):
    """First of ``count`` packed levels whose nodes differ, or ``None``."""
    levels = entry_levels(count)
    varies = values != values[level_offset(levels)]
    return int(levels[np.argmax(varies)]) if varies.any() else None


def _packed(levels, count, what):
    """``levels`` (``count`` arrays, level ``i`` of shape ``(i + 1,)``,
    or their packed concatenation) checked and packed into one read-only
    float array: per-level arrays are concatenated, a packed float array
    is frozen in place.  Errors name the first offending level."""
    if isinstance(levels, np.ndarray) and levels.ndim == 1:
        size = level_offset(count)
        if levels.size != size:
            raise ValueError(
                f"{what} needs {size} packed entries, got {levels.size}"
            )
        out = np.ascontiguousarray(levels, dtype=float)
    else:
        levels = list(levels)
        if len(levels) != count:
            raise ValueError(
                f"{what} needs {count} level arrays, got {len(levels)}"
            )
        for i, arr in enumerate(levels):
            shape = np.shape(arr)
            if shape != (i + 1,):
                raise ValueError(
                    f"{what} level {i} must have shape ({i + 1},), got {shape}"
                )
        out = np.concatenate(levels, dtype=float)
    if not _admissible(out):
        level = entry_levels(count)[np.argmax(np.isnan(out))]
        raise ValueError(f"{what} level {level} contains NaN")
    out.setflags(write=False)
    return out


def _admissible(values, clock=False):
    """The process constructors' rule on a packed array, or on a buffer
    of packed rows at once: no NaN, and for a clock every mass finite
    and >= 0.  One reduction settles the first part, since the minimum
    is NaN if any entry is."""
    if not values.size:
        return True
    low = np.minimum.reduce(values, axis=None)
    if clock:
        return low >= 0.0 and np.maximum.reduce(values, axis=None) < np.inf
    return not np.isnan(low)


def _stack_rows(arrays):
    """The arrays as the rows of one new array; a single array is
    adopted as the view ``a[None]``, so a zero-stride constant stays one
    value."""
    arrays = list(arrays)
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _process_rows(lattices, parts):
    """One tuple of processes per packed row of batch buffers.

    ``parts`` holds ``(cls, buffer)`` pairs whose buffers share their
    leading batch axes; the rows are taken in C order, and row ``k``
    lives on ``lattices[k]``.  Each buffer is frozen and checked once
    against its class's rule, and every process adopts a view of its
    row.  When a buffer fails, the rows are built through the checking
    constructors, in order, so the first bad row raises the error it
    raises alone.
    """
    for _, buf in parts:
        buf.setflags(write=False)
    rows = [buf.reshape(-1, buf.shape[-1]) for _, buf in parts]
    classes = [cls for cls, _ in parts]
    if all(
        _admissible(flat, cls is IncreasingProcess)
        for cls, flat in zip(classes, rows)
    ):
        build = [_adopted(cls) for cls in classes]
    else:
        build = classes
    return [
        tuple(make(lat, flat[k]) for make, flat in zip(build, rows))
        for k, lat in enumerate(lattices)
    ]


def _adopted(cls):
    """Constructor of ``cls`` processes that adopts a packed array
    already checked and frozen."""

    def make(lattice, values):
        out = object.__new__(cls)
        out.lattice = lattice
        out.values = values
        return out

    return make


def _constant(cls, lattice, value):
    """A ``cls`` process equal to ``value`` everywhere, stored as one
    read-only zero-stride view of a one-entry array; a value the class's
    rule (:func:`_admissible`, checked here on the one value) rejects
    goes through the checking constructor, which raises its usual
    error."""
    count = lattice.steps + (cls is AdaptedProcess)
    value = float(value)
    values = np.ndarray((level_offset(count),), float, np.array([value]), 0, (0,))
    values.setflags(write=False)
    if cls is IncreasingProcess:
        ok = 0.0 <= value < math.inf
    else:
        ok = not math.isnan(value)
    return (_adopted(cls) if ok else cls)(lattice, values)


class AdaptedProcess:
    """Node-indexed process: one value per lattice node.

    ``levels`` holds one array per level ``0..N``, level ``i`` having
    ``i + 1`` entries (entry ``j`` is the value at node ``(i, j)``), or
    their packed concatenation.  Values may be +-inf (extended-real
    obstacles) but never NaN.  They are stored packed, read-only, in
    ``values``; a packed array passed in becomes that storage and is
    frozen in place, so pass a copy to keep a writable one.  A
    ``constant`` is stored as one read-only zero-stride view.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice, levels):
        self.lattice = lattice
        self.values = _packed(levels, lattice.steps + 1, "AdaptedProcess")

    @classmethod
    def constant(cls, lattice, value):
        return _constant(cls, lattice, value)

    def level(self, i):
        return _level_view(self.values, i)

    def terminal(self):
        return self.values[level_offset(self.lattice.steps) :]

    def with_terminal(self, values):
        """Copy of the process with the last level replaced."""
        steps = self.lattice.steps
        v = np.asarray(values, dtype=float)
        if v.ndim == 0:
            v = np.full(steps + 1, float(v))
        elif v.shape != (steps + 1,):
            raise ValueError(
                f"AdaptedProcess level {steps} must have shape "
                f"({steps + 1},), got {v.shape}"
            )
        head = self.values[: level_offset(steps)]
        return AdaptedProcess(self.lattice, np.concatenate([head, v]))

    def __repr__(self):
        return (
            f"AdaptedProcess(steps={self.lattice.steps}, "
            f"t0={self.values[0]!r})"
        )


class PredictableProcess:
    """Process attributed to ``t_{i+1}`` but known at ``t_i``.

    ``atoms`` holds one array per slot ``0..N-1``, slot ``i`` having
    ``i + 1`` entries (the nodes of level ``i``) and representing the
    value effective at time ``t_{i+1}``, or their packed concatenation.
    There is no entry for time 0.  Values may be +-inf but never NaN;
    they are stored packed, read-only, in ``values``, and a
    ``constant`` as one read-only zero-stride view.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice, atoms):
        self.lattice = lattice
        self.values = _packed(atoms, lattice.steps, "PredictableProcess")

    @classmethod
    def constant(cls, lattice, value):
        return _constant(cls, lattice, value)

    @classmethod
    def from_time_values(cls, lattice, pairs, fill=-np.inf):
        """Values at chosen times, ``fill`` elsewhere.

        ``pairs`` maps time index ``k`` (1-based: the value acts at
        ``t_k``) to a scalar, or to one value per node of level
        ``k - 1``.
        """
        return cls(lattice, _time_slots(lattice, pairs, float(fill)))

    def atom(self, i):
        """Entries effective at time ``t_{i+1}`` (level-``i`` nodes)."""
        return _level_view(self.values, i)

    def __repr__(self):
        return f"PredictableProcess(steps={self.lattice.steps})"


def _time_slots(lattice, pairs, fill):
    """Packed slots holding ``pairs[k]`` (a scalar for every node, or
    ``k`` node values) in slot ``k - 1`` and ``fill`` elsewhere."""
    out = np.full(level_offset(lattice.steps), fill)
    for k, val in dict(pairs).items():
        k = int(k)
        if not 1 <= k <= lattice.steps:
            raise ValueError(f"time index {k} outside [1, {lattice.steps}]")
        val = np.asarray(val, dtype=float)
        if val.ndim and val.shape != (k,):
            raise ValueError(
                f"time index {k} needs {k} values (one per node of level "
                f"{k - 1}), got shape {val.shape}"
            )
        out[level_offset(k - 1) : level_offset(k)] = val
    return out


class IncreasingProcess:
    """Nondecreasing predictable clock given by its jumps.

    ``atoms`` holds the nonnegative mass placed at time ``t_{i+1}`` in
    slot ``i``, one entry per node of level ``i`` (per-slot arrays or
    their packed concatenation, stored packed in ``values``).  The
    process starts at 0 and is purely atomic on the grid; a continuous
    part would put mass on every interval, which is the `lebesgue`
    constructor.  ``zero`` and ``lebesgue`` are stored as one read-only
    zero-stride view.
    """

    __slots__ = ("lattice", "values")

    def __init__(self, lattice, atoms):
        self.lattice = lattice
        v = _packed(atoms, lattice.steps, "IncreasingProcess")
        if not _admissible(v, clock=True):
            bad = ~np.isfinite(v) | (v < 0.0)
            i = entry_levels(lattice.steps)[np.argmax(bad)]
            slot = _level_view(v, i)
            what = ">= 0" if np.all(np.isfinite(slot)) else "finite"
            raise ValueError(f"clock mass at slot {i} must be {what}")
        self.values = v

    @classmethod
    def zero(cls, lattice):
        return _constant(cls, lattice, 0.0)

    @classmethod
    def lebesgue(cls, lattice):
        """Clock with mass ``dt`` at every grid time (discrete dt)."""
        return _constant(cls, lattice, lattice.dt)

    @classmethod
    def from_time_atoms(cls, lattice, pairs):
        """Deterministic atoms: ``pairs`` maps 1-based time index to mass."""
        return cls(lattice, _time_slots(lattice, pairs, 0.0))

    def atom(self, i):
        return _level_view(self.values, i)

    def is_time_indexed(self):
        """True when every slot is constant across its level's nodes."""
        return _varying_level(self.values, self.lattice.steps) is None

    def weights_by_time(self):
        """Per-time masses for a time-indexed clock, shape (steps + 1,).

        Entry ``k`` is the mass at ``t_k`` (entry 0 is always 0).
        Raises if the clock is node-dependent.
        """
        if not self.is_time_indexed():
            raise ValueError("clock mass varies across nodes of a level")
        out = np.zeros(self.lattice.steps + 1)
        out[1:] = self.values[level_offset(np.arange(self.lattice.steps))]
        return out

    def __repr__(self):
        starts = level_offset(np.arange(self.lattice.steps))
        tot = sum(np.maximum.reduceat(self.values, starts).tolist())
        return (
            f"IncreasingProcess(steps={self.lattice.steps}, "
            f"max_total={tot!r})"
        )


def expectation_level(values_next, out=None):
    """One-step expectation at every node: level ``i+1`` -> level ``i``.

    Entry ``j`` is the midpoint of the children ``j`` and ``j + 1``;
    the nodes are the last axis, any leading axes are a batch.  Written
    into ``out`` when one is given.
    """
    v = np.asarray(values_next, dtype=float)
    out = np.add(v[..., :-1], v[..., 1:], out=out)
    out *= 0.5
    return out


def increment_level(values_next, sqrt_dt, out=None):
    """Martingale coefficients at every node: level ``i+1`` -> level ``i``.

    With children ``d`` (down) and ``u`` (up), the unique integrand
    making ``X_{i+1} - E[X_{i+1}]`` a walk increment is
    ``(u - d) / (2 sqrt(dt))``.  Batched like :func:`expectation_level`;
    written into ``out`` when one is given.
    """
    v = np.asarray(values_next, dtype=float)
    diff = np.subtract(v[..., 1:], v[..., :-1], out=out)
    return np.divide(diff, 2.0 * sqrt_dt, out=out)


def all_paths(steps):
    """All up/down paths of length ``steps`` as a (2^steps, steps) 0/1 array.

    Row ``p`` spells path ``p`` with bit ``i`` (most significant first)
    giving the move over ``[t_i, t_{i+1}]``.  Capped at 2^20 rows.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > _MAX_ENUM_STEPS:
        raise ValueError(
            f"enumerating 2^{steps} paths exceeds the 2^{_MAX_ENUM_STEPS} cap"
        )
    p = np.arange(2 ** steps, dtype=np.int64)[:, None]
    shifts = np.arange(steps - 1, -1, -1, dtype=np.int64)[None, :]
    return ((p >> shifts) & 1).astype(np.int8)


def path_nodes(ups):
    """Node index visited at each level along paths of 0/1 up-moves.

    ``ups`` is one path, shape ``(steps,)``, or one path per row, shape
    ``(P, steps)`` as from :func:`all_paths`; the result has one more
    column, starting at node 0.
    """
    u = np.asarray(ups, dtype=np.int64)
    out = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(u, axis=-1, out=out[..., 1:])
    return out
