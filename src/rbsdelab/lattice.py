"""Recombining binomial lattice and the process types living on it.

The driving noise is the symmetric +-1 random walk scaled by sqrt(dt).
A node at level ``i`` (time ``t_i``) is indexed by the number ``j`` of
up-moves so far, ``0 <= j <= i``; its children at level ``i + 1`` are
``j`` (down) and ``j + 1`` (up), each with probability one half.  The
walk value at node ``(i, j)`` is ``(2 j - i) * sqrt(dt)``.

Two storage conventions coexist:

- *adapted* processes carry one array per level, level ``i`` having
  ``i + 1`` entries, so entry ``(i, j)`` is the value observed at time
  ``t_i``;
- *predictable* processes attribute their entry ``i`` to the time
  ``t_{i+1}`` but make it measurable at ``t_i``: the array stored at
  slot ``i`` has ``i + 1`` entries (one per node of level ``i``).  The
  left limit of an adapted process at ``t_{i+1}`` is likewise read at
  level ``i``.

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

    def level_of(self, t):
        """Index ``k`` of the grid time ``t_k`` equal to ``t``.

        Raises ``ValueError`` when ``t`` is not a grid time (up to a
        relative ``1e-9`` of the horizon).
        """
        q = float(t) / self.dt
        k = round(q) if math.isfinite(q) else -1
        if not 0 <= k <= self.steps or abs(
            self.times[k] - float(t)
        ) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"{t!r} is not a grid time")
        return k

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

    def node_count(self, level):
        if not 0 <= level <= self.steps:
            raise IndexError(f"level {level} outside [0, {self.steps}]")
        return level + 1

    def brownian(self, level):
        """Walk values at every node of ``level`` (ascending in up-moves)."""
        if not 0 <= level <= self.steps:
            raise IndexError(f"level {level} outside [0, {self.steps}]")
        j = np.arange(level + 1, dtype=float)
        return (2.0 * j - level) * self.sqrt_dt

    def brownian_process(self):
        """The walk itself as an :class:`AdaptedProcess`."""
        return AdaptedProcess(
            self, [self.brownian(i) for i in range(self.steps + 1)]
        )

    def __repr__(self):
        return f"Lattice({self.grid!r})"


def _check_levels(lattice, levels, count, what):
    if len(levels) != count:
        raise ValueError(
            f"{what} needs {count} level arrays, got {len(levels)}"
        )
    out = []
    for i, arr in enumerate(levels):
        a = np.asarray(arr, dtype=float)
        if a.shape != (i + 1,):
            raise ValueError(
                f"{what} level {i} must have shape ({i + 1},), got {a.shape}"
            )
        if np.isnan(a).any():
            raise ValueError(f"{what} level {i} contains NaN")
        out.append(_frozen(a))
    return tuple(out)


class AdaptedProcess:
    """Node-indexed process: one value per lattice node.

    ``levels[i]`` has ``i + 1`` entries; entry ``j`` is the value at
    node ``(i, j)``.  Values may be +-inf (extended-real obstacles) but
    never NaN.  Arrays are stored read-only.
    """

    __slots__ = ("lattice", "levels")

    def __init__(self, lattice, levels):
        self.lattice = lattice
        self.levels = _check_levels(
            lattice, list(levels), lattice.steps + 1, "AdaptedProcess"
        )

    @classmethod
    def from_function(cls, lattice, fn):
        """Build from ``fn(t, b)`` evaluated on every node.

        ``fn`` receives the time and the vector of walk values of one
        level and must return an array of matching shape (scalars are
        broadcast).
        """
        levels = []
        for i in range(lattice.steps + 1):
            b = lattice.brownian(i)
            v = np.broadcast_to(
                np.asarray(fn(lattice.times[i], b), dtype=float), b.shape
            )
            levels.append(v)
        return cls(lattice, levels)

    @classmethod
    def constant(cls, lattice, value):
        value = float(value)
        return cls(
            lattice,
            [np.full(i + 1, value) for i in range(lattice.steps + 1)],
        )

    def level(self, i):
        return self.levels[i]

    def terminal(self):
        return self.levels[-1]

    def with_terminal(self, values):
        """Copy of the process with the last level replaced."""
        v = np.asarray(values, dtype=float)
        if v.ndim == 0:
            v = np.full(self.lattice.steps + 1, float(v))
        return AdaptedProcess(self.lattice, list(self.levels[:-1]) + [v])

    def __repr__(self):
        return (
            f"AdaptedProcess(steps={self.lattice.steps}, "
            f"t0={self.levels[0][0]!r})"
        )


class PredictableProcess:
    """Process attributed to ``t_{i+1}`` but known at ``t_i``.

    ``atoms[i]`` has ``i + 1`` entries (the nodes of level ``i``) and
    represents the value effective at time ``t_{i+1}``.  There is no
    entry for time 0.  Values may be +-inf but never NaN.
    """

    __slots__ = ("lattice", "atoms")

    def __init__(self, lattice, atoms):
        self.lattice = lattice
        self.atoms = _check_levels(
            lattice, list(atoms), lattice.steps, "PredictableProcess"
        )

    @classmethod
    def from_function(cls, lattice, fn):
        """Build from ``fn(t_next, b)`` with ``b`` the level-``i`` walk."""
        atoms = []
        for i in range(lattice.steps):
            b = lattice.brownian(i)
            v = np.broadcast_to(
                np.asarray(fn(lattice.times[i + 1], b), dtype=float), b.shape
            )
            atoms.append(v)
        return cls(lattice, atoms)

    @classmethod
    def constant(cls, lattice, value):
        value = float(value)
        return cls(
            lattice, [np.full(i + 1, value) for i in range(lattice.steps)]
        )

    @classmethod
    def from_time_values(cls, lattice, pairs, fill=-np.inf):
        """Constant-per-time values, ``fill`` elsewhere.

        ``pairs`` maps time index ``k`` (1-based: the value acts at
        ``t_k``) to a scalar.
        """
        atoms = [np.full(i + 1, float(fill)) for i in range(lattice.steps)]
        for k, val in dict(pairs).items():
            k = int(k)
            if not 1 <= k <= lattice.steps:
                raise ValueError(
                    f"time index {k} outside [1, {lattice.steps}]"
                )
            atoms[k - 1][:] = float(val)
        return cls(lattice, atoms)

    def atom(self, i):
        """Entries effective at time ``t_{i+1}`` (level-``i`` nodes)."""
        return self.atoms[i]

    def __repr__(self):
        return f"PredictableProcess(steps={self.lattice.steps})"


class IncreasingProcess:
    """Nondecreasing predictable clock given by its jumps.

    ``atoms[i]`` holds the nonnegative mass placed at time ``t_{i+1}``,
    one entry per node of level ``i``.  The process starts at 0 and is
    purely atomic on the grid; a continuous part would put mass on
    every interval, which is the `lebesgue` constructor.
    """

    __slots__ = ("lattice", "atoms")

    def __init__(self, lattice, atoms):
        self.lattice = lattice
        checked = _check_levels(
            lattice, list(atoms), lattice.steps, "IncreasingProcess"
        )
        for i, a in enumerate(checked):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"clock mass at slot {i} must be finite")
            if np.any(a < 0.0):
                raise ValueError(f"clock mass at slot {i} must be >= 0")
        self.atoms = checked

    @classmethod
    def zero(cls, lattice):
        return cls(
            lattice, [np.zeros(i + 1) for i in range(lattice.steps)]
        )

    @classmethod
    def lebesgue(cls, lattice):
        """Clock with mass ``dt`` at every grid time (discrete dt)."""
        dt = lattice.dt
        return cls(
            lattice, [np.full(i + 1, dt) for i in range(lattice.steps)]
        )

    @classmethod
    def from_time_atoms(cls, lattice, pairs):
        """Deterministic atoms: ``pairs`` maps 1-based time index to mass."""
        atoms = [np.zeros(i + 1) for i in range(lattice.steps)]
        for k, w in dict(pairs).items():
            k = int(k)
            if not 1 <= k <= lattice.steps:
                raise ValueError(
                    f"time index {k} outside [1, {lattice.steps}]"
                )
            w = float(w)
            if w < 0.0:
                raise ValueError("clock mass must be >= 0")
            atoms[k - 1][:] = w
        return cls(lattice, atoms)

    def atom(self, i):
        return self.atoms[i]

    def support(self, i):
        """Boolean mask of nodes at level ``i`` charging time ``t_{i+1}``."""
        return self.atoms[i] > 0.0

    def is_time_indexed(self):
        """True when every slot is constant across its level's nodes."""
        return all(np.all(a == a[0]) for a in self.atoms if a.size)

    def weights_by_time(self):
        """Per-time masses for a time-indexed clock, shape (steps + 1,).

        Entry ``k`` is the mass at ``t_k`` (entry 0 is always 0).
        Raises if the clock is node-dependent.
        """
        if not self.is_time_indexed():
            raise ValueError("clock mass varies across nodes of a level")
        out = np.zeros(self.lattice.steps + 1)
        for i, a in enumerate(self.atoms):
            out[i + 1] = a[0] if a.size else 0.0
        return out

    def __repr__(self):
        tot = sum(float(a.max()) if a.size else 0.0 for a in self.atoms)
        return (
            f"IncreasingProcess(steps={self.lattice.steps}, "
            f"max_total={tot!r})"
        )


def expectation_level(values_next):
    """One-step expectation at every node: level ``i+1`` -> level ``i``.

    Entry ``j`` is the midpoint of the children ``j`` and ``j + 1``.
    """
    v = np.asarray(values_next, dtype=float)
    return 0.5 * (v[:-1] + v[1:])


def increment_level(values_next, sqrt_dt):
    """Martingale coefficients at every node: level ``i+1`` -> level ``i``.

    With children ``d`` (down) and ``u`` (up), the unique integrand
    making ``X_{i+1} - E[X_{i+1}]`` a walk increment is
    ``(u - d) / (2 sqrt(dt))``.
    """
    v = np.asarray(values_next, dtype=float)
    return (v[1:] - v[:-1]) / (2.0 * sqrt_dt)


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
