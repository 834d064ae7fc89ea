"""Obstacles, their penalization envelopes, and admissibility checks.

Four obstacles constrain the solution: a lower and an upper node-indexed
(rcll) obstacle acting on ``Y_t`` for ``t < T``, and a lower and an
upper predictable obstacle acting on the left limit ``Y_{t-}`` at the
atoms of two increasing clocks.  The predictable constraints collapse,
on the lattice, to interval constraints at the level preceding each
atom; :class:`BarrierSet` performs that merge once and keeps the
merged bands.

The envelope transform of a sampled function ``g`` along a clock
``rho`` with penalty weight ``n`` is

    value(t) = -n*t + max{ g(s) + n*s : s <= t, clock charges s },

with ``-inf`` over an empty set.  Its monotone limit in ``n`` keeps
``g(t)`` exactly on the clock's support and drops to ``-inf`` off it;
both are computed in one left-to-right scan.  The transform is what
turns an "almost everywhere against a measure" constraint into a
pointwise one, and the tests exercise that equivalence by enumeration.

Infinities are legal obstacle values throughout: ``-inf`` disables a
lower constraint, ``+inf`` an upper one.  NaN is rejected at
construction time by the process containers.
"""

import math

import numpy as np

from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    _frozen,
    entry_levels,
    level_offset,
)

__all__ = [
    "InfeasibleBarriers",
    "EnvelopeResult",
    "envelope_profile",
    "envelope_star_profile",
    "BarrierSet",
    "check_left_constraint",
]


class InfeasibleBarriers(Exception):
    """Merged obstacle interval empty at some node."""

    def __init__(self, level, node, low, high):
        self.level = int(level)
        self.node = int(node)
        self.low = float(low)
        self.high = float(high)
        super().__init__(
            f"empty obstacle interval at (level {self.level}, node "
            f"{self.node}): lower {self.low!r} > upper {self.high!r}"
        )


class EnvelopeResult:
    """Envelope of a sampled function along a clock, at one penalty weight.

    ``values[..., k]`` is the envelope at grid time ``t_k`` and
    ``left_limit_values[..., k]`` its left limit there (atoms strictly
    before ``t_k`` only); leading axes are rows.  ``n`` is ``math.inf``
    for the hard limit, and a read-only array for one weight per row.
    """

    __slots__ = ("n", "values", "left_limit_values")

    def __init__(self, n, values, left_limit_values):
        self.n = float(n) if np.ndim(n) == 0 else _frozen(n)
        self.values = _frozen(values)
        self.left_limit_values = _frozen(left_limit_values)

    def __repr__(self):
        return f"EnvelopeResult(n={self.n!r}, points={self.values.size})"


def _profile_arrays(times, g, weights):
    """The float arrays of a sampled function along a clock, checked:
    ``g`` and ``weights`` of one shape, rows along the last axis, and
    ``times`` one row for all or broadcasting against them; times
    finite and strictly increasing along their rows, no NaN in ``g``,
    and every clock mass finite and >= 0."""
    t, gv, w = (np.asarray(a, dtype=float) for a in (times, g, weights))
    lead = gv.ndim - t.ndim
    if (
        gv.ndim == 0
        or w.shape != gv.shape
        or lead < 0
        or t.shape[-1:] != gv.shape[-1:]
        or any(a not in (1, b) for a, b in zip(t.shape, gv.shape[lead:]))
    ):
        raise ValueError("g, weights must be equal-shape rows as long as times")
    if not (np.isfinite(t).all() and (np.diff(t, axis=-1) > 0.0).all()):
        raise ValueError("times must be finite and strictly increasing")
    if np.isnan(gv).any():
        raise ValueError("g contains NaN")
    if not (np.all(w >= 0.0) and np.all(w < np.inf)):
        raise ValueError("clock weights must be finite and >= 0")
    return t, gv, w


def _shifted(a, fill):
    """``a`` shifted one place later along the last axis, ``fill`` in
    front."""
    out = np.full_like(a, fill)
    out[..., 1:] = a[..., :-1]
    return out


def _lagged(t, g, n, s):
    """``g[s] - n (t - t[s])`` along the last axis wherever ``s >= 0``,
    and -inf where ``s`` is -1 (no atom yet); all four arrays have one
    shape, and nothing is computed where ``s`` is -1."""
    past = s >= 0
    at = np.maximum(s, 0)
    lag = np.zeros(g.shape)
    np.subtract(t, np.take_along_axis(t, at, axis=-1), out=lag, where=past)
    np.multiply(n, lag, out=lag, where=past)
    # subtracting last avoids the cancellation a large n*t would force
    # on the lifted form
    out = np.full(g.shape, -np.inf)
    return np.subtract(np.take_along_axis(g, at, axis=-1), lag, out=out, where=past)


def envelope_profile(times, g, weights, n):
    """One-scan envelope of ``g`` along a deterministic clock.

    Parameters
    ----------
    times : array, shape (N+1,) or rows (..., N+1)
        Grid times, strictly increasing along the last axis; one row
        serves every row of ``g``.
    g : array, shape (N+1,) or rows (..., N+1)
        Function values at the grid times; only entries on the clock's
        support matter.  May contain +-inf, never NaN.
    weights : array, shaped like ``g``
        Clock mass at each grid time, all finite and >= 0.
        ``weights[..., k] > 0`` marks an atom at ``t_k``.
    n : nonnegative finite float, or one per row
        Penalty weight.

    Returns
    -------
    EnvelopeResult
        ``values[k] = -n*t_k + max{g[s] + n*t_s : s <= k, weights[s] > 0}``
        and the strict-past variant in ``left_limit_values``, row by
        row; both are ``-inf`` while no atom has occurred.  A point
        never changes the envelope before it, so rows of different
        lengths may be padded at the end with later non-atoms.
    """
    t, gv, w = _profile_arrays(times, g, weights)
    n = np.asarray(n, dtype=float)
    if not (np.all(n >= 0.0) and np.all(n < np.inf)):
        raise ValueError("n must be a finite nonnegative number")
    # every step below is elementwise on full rows
    t = np.broadcast_to(t, gv.shape)
    nb = np.broadcast_to(n[..., None], gv.shape)

    # the atom carrying the envelope at a time is the earliest maximizer
    # of the drift-lifted key g(s) + n*s so far: the last atom whose key
    # is a strict new running maximum (an atom with g = -inf never is)
    on = (w > 0.0) & (gv > -np.inf)
    key = np.full(gv.shape, -np.inf)
    np.add(gv, np.multiply(nb, t, where=on, out=key), out=key, where=on)
    lead = key > _shifted(np.maximum.accumulate(key, axis=-1), -np.inf)
    k = np.arange(gv.shape[-1])
    s = np.maximum.accumulate(np.where(lead, k, -1), axis=-1)
    return EnvelopeResult(
        n, _lagged(t, gv, nb, s), _lagged(t, gv, nb, _shifted(s, -1))
    )


def envelope_star_profile(times, g, weights):
    """Hard (infinite-penalty) envelope: ``g`` on atoms, -inf elsewhere.

    For a clock with finitely many atoms the left limit is -inf
    everywhere, since a left neighborhood of any time is eventually
    atom-free.  Shapes are as for :func:`envelope_profile`: ``g`` and
    ``weights`` may hold rows, one result row each.
    """
    _, gv, w = _profile_arrays(times, g, weights)
    values = np.where(w > 0.0, gv, -np.inf)
    left = np.full_like(gv, -np.inf)
    return EnvelopeResult(math.inf, values, left)


class BarrierSet:
    """The four obstacles, their clocks, and an optional witness process.

    Constructing one validates that every instance is already in
    normalized form: both node-indexed obstacles end at the same finite
    terminal values (the terminal condition), and the merged obstacle
    interval is nonempty at every node.  Use :meth:`build` to assemble
    one from raw pieces; it applies the terminal normalization for you.

    ``witness`` optionally carries the decomposition data of a process
    known to satisfy all four constraints; the penalization scheme and
    the envelope's audit read it from here.  A witness with a lattice
    must live on the obstacles' grid; it is otherwise stored as-is.

    The merged interval of every node is computed here, once: ``low``
    and ``high`` are the merged (effective) bands, as adapted
    processes.  The lower one is the node obstacle joined with the
    lower predictable obstacle wherever the lower clock charges the
    next grid time, the upper one mirrors it, and at the terminal level
    both equal the terminal values.
    """

    __slots__ = (
        "lattice",
        "L",
        "U",
        "l",
        "u",
        "delta",
        "alpha",
        "witness",
        "low",
        "high",
    )

    def __init__(self, L, U, l, u, delta, alpha, witness=None):
        lattice = L.lattice
        for other in (U, l, u, delta, alpha):
            if other.lattice.grid != lattice.grid:
                raise ValueError("barrier pieces live on different grids")
        if getattr(witness, "lattice", lattice).grid != lattice.grid:
            raise ValueError("witness lives on a different grid")
        if not (
            isinstance(L, AdaptedProcess)
            and isinstance(U, AdaptedProcess)
            and isinstance(l, PredictableProcess)
            and isinstance(u, PredictableProcess)
            and isinstance(delta, IncreasingProcess)
            and isinstance(alpha, IncreasingProcess)
        ):
            raise TypeError("barrier pieces have wrong types")
        xi_low = L.terminal()
        xi_high = U.terminal()
        if not np.all(np.isfinite(xi_low)):
            raise ValueError("terminal values must be finite")
        if not np.array_equal(xi_low, xi_high):
            raise ValueError(
                "obstacles are not terminally normalized; use BarrierSet.build"
            )
        # a predictable obstacle acts on the left limit at the next grid
        # time, so it joins the node obstacle where its clock charges; a
        # band no clock charges is the node obstacle itself
        n = level_offset(lattice.steps)

        def band(node, pred, clock, join):
            on = np.flatnonzero(clock.values > 0.0)
            if not on.size:
                return node
            out = node.values.copy()
            out[on] = join(out[on], pred.values[on])
            return AdaptedProcess(lattice, out)

        low = band(L, l, delta, np.maximum)
        high = band(U, u, alpha, np.minimum)
        # -inf disables a lower constraint and +inf an upper one; the
        # opposite signs would force infinite solutions, so reject them.
        # The first defect by level is raised, ties in this order.
        defects = (
            (L.values[:n] == np.inf, "lower node obstacle takes the value +inf"),
            (U.values[:n] == -np.inf, "upper node obstacle takes the value -inf"),
            (l.values == np.inf, "lower predictable obstacle takes the value +inf"),
            (u.values == -np.inf, "upper predictable obstacle takes the value -inf"),
            (low.values[:n] > high.values[:n], None),
        )
        found = [
            (int(np.argmax(bad)), order)
            for order, (bad, _) in enumerate(defects)
            if bad.any()
        ]
        if found:
            levels = entry_levels(lattice.steps)
            k, order = min(found, key=lambda f: (levels[f[0]], f[1]))
            what = defects[order][1]
            if what is not None:
                raise ValueError(what)
            i = int(levels[k])
            raise InfeasibleBarriers(
                i, k - level_offset(i), low.values[k], high.values[k]
            )
        self.lattice = lattice
        self.L = L
        self.U = U
        self.l = l
        self.u = u
        self.delta = delta
        self.alpha = alpha
        self.witness = witness
        self.low = low
        self.high = high

    @classmethod
    def build(
        cls,
        lattice,
        xi,
        L=None,
        U=None,
        l=None,
        u=None,
        delta=None,
        alpha=None,
        witness=None,
    ):
        """Assemble a validated obstacle set.

        ``xi`` (scalar or one value per terminal node) becomes the
        common terminal value of both node-indexed obstacles.  Omitted
        pieces default to the unconstrained ones: ``L = -inf``,
        ``U = +inf``, predictable obstacles vacuous, clocks zero.
        """
        L = AdaptedProcess.constant(lattice, -np.inf) if L is None else L
        U = AdaptedProcess.constant(lattice, np.inf) if U is None else U
        l = PredictableProcess.constant(lattice, -np.inf) if l is None else l
        u = PredictableProcess.constant(lattice, np.inf) if u is None else u
        delta = IncreasingProcess.zero(lattice) if delta is None else delta
        alpha = IncreasingProcess.zero(lattice) if alpha is None else alpha
        return cls(
            L.with_terminal(xi),
            U.with_terminal(xi),
            l,
            u,
            delta,
            alpha,
            witness=witness,
        )

    @property
    def xi(self):
        """Common terminal values of the normalized obstacles."""
        return self.L.terminal()

    def __repr__(self):
        return f"BarrierSet(steps={self.lattice.steps})"


def check_left_constraint(Y, g, rho):
    """Does ``g <= Y_{t-}`` hold at every atom of ``rho``?

    ``Y`` is node-indexed, ``g`` predictable, ``rho`` a clock, all on
    one grid.  The left limit at ``t_{i+1}`` is the level-``i`` value,
    so the per-path quantifier reduces to a node-wise test.  Ties pass.
    Each argument may also be a sequence of processes, one per row, on
    lattices of one depth; the verdict is then one bool per row.
    """
    single = isinstance(Y, AdaptedProcess)
    rows = [(Y, g, rho)] if single else list(zip(Y, g, rho, strict=True))
    if any(
        not y.lattice.grid == p.lattice.grid == r.lattice.grid for y, p, r in rows
    ):
        raise ValueError("processes live on different grids")
    Y, g, rho = (np.stack([row[k].values for row in rows]) for k in range(3))
    ok = ~np.any((g > Y[:, : rho.shape[-1]]) & (rho > 0.0), axis=-1)
    return bool(ok[0]) if single else ok
