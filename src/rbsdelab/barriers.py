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

    ``values[k]`` is the envelope at grid time ``t_k`` and
    ``left_limit_values[k]`` its left limit there (atoms strictly
    before ``t_k`` only).  ``n`` is ``math.inf`` for the hard limit.
    """

    __slots__ = ("n", "values", "left_limit_values")

    def __init__(self, n, values, left_limit_values):
        self.n = float(n)
        self.values = _frozen(values)
        self.left_limit_values = _frozen(left_limit_values)

    def __repr__(self):
        return f"EnvelopeResult(n={self.n!r}, points={self.values.size})"


def envelope_profile(times, g, weights, n):
    """One-scan envelope of ``g`` along a deterministic clock.

    Parameters
    ----------
    times : array, shape (N+1,)
        Grid times, strictly increasing.
    g : array, shape (N+1,)
        Function values at the grid times; only entries on the clock's
        support matter.  May contain +-inf, never NaN.
    weights : array, shape (N+1,)
        Clock mass at each grid time, all >= 0.  ``weights[k] > 0``
        marks an atom at ``t_k``.
    n : nonnegative finite float
        Penalty weight.

    Returns
    -------
    EnvelopeResult
        ``values[k] = -n*t_k + max{g[s] + n*t_s : s <= k, weights[s] > 0}``
        and the strict-past variant in ``left_limit_values``; both are
        ``-inf`` while no atom has occurred.
    """
    t = np.asarray(times, dtype=float)
    gv = np.asarray(g, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.ndim != 1 or gv.shape != t.shape or w.shape != t.shape:
        raise ValueError("times, g, weights must be equal-length 1-d arrays")
    if np.isnan(gv).any():
        raise ValueError("g contains NaN")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("clock weights must be finite and >= 0")
    n = float(n)
    if not (n >= 0.0) or not math.isfinite(n):
        raise ValueError("n must be a finite nonnegative number")

    # the atom carrying the envelope at a time is the earliest maximizer
    # of the drift-lifted key g(s) + n*s so far: the last atom whose key
    # is a strict new running maximum (an atom with g = -inf never is)
    on = np.flatnonzero((w > 0.0) & (gv > -np.inf))
    key = gv[on] + n * t[on]
    top = np.maximum.accumulate(np.concatenate([[-np.inf], key]))
    lead = on[key > top[:-1]]
    values = np.full_like(t, -np.inf)
    left = np.full_like(t, -np.inf)
    if lead.size:
        # evaluate as g(s*) - n*(t - s*): subtracting first avoids the
        # cancellation a large n*t would force on the lifted form
        first = lead[0]
        mark = np.full(t.size, -1)
        mark[lead] = lead
        s = np.maximum.accumulate(mark)[first:]
        values[first:] = gv[s] - n * (t[first:] - t[s])
        s = s[:-1]
        left[first + 1 :] = gv[s] - n * (t[first + 1 :] - t[s])
    return EnvelopeResult(n, values, left)


def envelope_star_profile(times, g, weights):
    """Hard (infinite-penalty) envelope: ``g`` on atoms, -inf elsewhere.

    For a clock with finitely many atoms the left limit is -inf
    everywhere, since a left neighborhood of any time is eventually
    atom-free.  ``g`` and ``weights`` may also be ``(P, N+1)``: one
    function and clock per row, and one result row each.
    """
    t = np.asarray(times, dtype=float)
    gv = np.asarray(g, dtype=float)
    w = np.asarray(weights, dtype=float)
    if t.ndim != 1 or gv.ndim > 2 or gv.shape[-1:] != t.shape or w.shape != gv.shape:
        raise ValueError("g, weights must be equal-shape rows as long as times")
    if np.isnan(gv).any():
        raise ValueError("g contains NaN")
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
    known to satisfy all four constraints (consumed by the penalization
    scheme); it is stored as-is and never interpreted here.

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
        xi = np.asarray(xi, dtype=float)
        if xi.ndim == 0:
            xi = np.full(lattice.steps + 1, float(xi))
        if L is None:
            L = AdaptedProcess.constant(lattice, -np.inf)
        if U is None:
            U = AdaptedProcess.constant(lattice, np.inf)
        if l is None:
            l = PredictableProcess.constant(lattice, -np.inf)
        if u is None:
            u = PredictableProcess.constant(lattice, np.inf)
        if delta is None:
            delta = IncreasingProcess.zero(lattice)
        if alpha is None:
            alpha = IncreasingProcess.zero(lattice)
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

    ``Y`` is node-indexed, ``g`` predictable, ``rho`` a clock.  The
    left limit at ``t_{i+1}`` is the level-``i`` value, so the per-path
    quantifier reduces to a node-wise test.  Ties pass.
    """
    if Y.lattice.grid != rho.lattice.grid:
        raise ValueError("processes live on different grids")
    on = rho.values > 0.0
    left = Y.values[: on.size]
    return not np.any(g.values[on] > left[on])
