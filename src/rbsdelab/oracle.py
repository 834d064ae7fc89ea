"""Brute-force reference values for the fast code paths.

Everything here is deliberately naive.  Every marking of the tree's
interior nodes is decoded into the stop level it gives each path;
stopping problems then try every distinct stopping rule, and games
play every pair of distinct rules.  Markings that differ only on
nodes an earlier mark shadows stop every path at the same level, so
they are one rule: depths 1 to 4 have 2, 5, 18 and 97 distinct rules
out of 2, 8, 64 and 1,024 markings.  Envelopes are a quadratic
rescan, and the pure-quadratic-driver value is its log-sum-exp
closed form.  Two continuous-time closed forms (squared-slope and
affine drivers on a payoff of the Brownian endpoint) are Gauss–Hermite
averages; the lattice converges to them at first order.  The only
imports are the lattice containers and their packed layout, so these
references share no logic with the solvers they are used to check.

Enumeration is exponential in the square of the depth, hence the hard
caps: a depth-5 tree already has 2^15 markings and a depth-4 game
2^20 marking pairs.
"""

import math

import numpy as np

from .lattice import AdaptedProcess, all_paths, level_offset, path_nodes

__all__ = [
    "DepthTooLarge",
    "NoValue",
    "StoppingRule",
    "stopping_rule_value",
    "exhaustive_stopping_value",
    "exhaustive_dynkin_value",
    "quadratic_closed_form",
    "quadratic_continuous_value",
    "linear_continuous_value",
    "envelope_brute_force",
]

# 2^21 rule bitmasks is the largest enumeration we allow
_MAX_RULE_BITS = 21
# Gauss–Hermite nodes of the continuous closed forms: for the tanh
# payoff of the convergence test 100 nodes agree with 200 to 3e-12, and
# numpy's weights overflow from about 375 nodes on
_HERMITE_POINTS = 120


class DepthTooLarge(Exception):
    """Tree too deep for exhaustive enumeration."""


class NoValue(Exception):
    """The enumerated game's two one-sided optima disagree.

    Carries both optima, so a caller can report the gap between them.
    """

    def __init__(self, maxmin, minmax):
        self.maxmin = float(maxmin)
        self.minmax = float(minmax)
        super().__init__(
            f"game has no value at this depth: "
            f"maxmin {self.maxmin!r} != minmax {self.minmax!r}"
        )


class StoppingRule:
    """Marking of interior nodes; stop at the first marked node.

    ``marks[i]`` is a boolean array over the ``i + 1`` nodes of level
    ``i`` for ``0 <= i < steps``; stopping at the terminal level is
    forced.  Any marking is legal: nodes shadowed by an earlier mark
    are simply never reached.
    """

    __slots__ = ("marks",)

    def __init__(self, marks):
        self.marks = tuple(
            np.asarray(m, dtype=bool).copy() for m in marks
        )
        for i, m in enumerate(self.marks):
            if m.shape != (i + 1,):
                raise ValueError(
                    f"level {i} marking must have shape ({i + 1},)"
                )

    @classmethod
    def from_bitmask(cls, steps, mask):
        """Decode a rule from ``mask``'s bits, level by level, low bits first."""
        marks = []
        k = 0
        for i in range(steps):
            row = np.zeros(i + 1, dtype=bool)
            for j in range(i + 1):
                row[j] = (mask >> k) & 1
                k += 1
            marks.append(row)
        return cls(marks)

    def stop_level(self, ups):
        """First marked level along the path, or ``len(ups)`` if none."""
        nodes = path_nodes(ups)
        for i, m in enumerate(self.marks):
            if m[nodes[i]]:
                return i
        return len(ups)


def _payoff_matrix(L, xi, nodes):
    """Payoff-if-stopped-at-level matrix, shape (paths, steps + 1):
    ``L`` before the last level, ``xi`` at it.

    ``nodes`` is the per-path node matrix from :func:`path_nodes`.
    """
    steps = nodes.shape[1] - 1
    n = level_offset(steps)
    payoff = np.concatenate([L.values[:n], np.asarray(xi, dtype=float)])
    return payoff[level_offset(np.arange(steps + 1)) + nodes]


def _distinct_stop_levels(nodes, bits):
    """Distinct rows of the first-marked-level matrix of all 2**bits rules.

    ``nodes`` is the per-path node matrix from :func:`path_nodes`.
    Interior node (i, j) is rule bit i(i+1)/2 + j.  A row holds one
    rule's stop level per path, ``steps`` when the rule never marks the
    path.  Rules whose marks differ only on shadowed nodes share a row,
    and everything the oracles compute depends on a rule only through
    its row, so one row of each is kept, in no particular order.
    """
    n_paths = nodes.shape[0]
    steps = nodes.shape[1] - 1
    flat = level_offset(np.arange(steps, dtype=np.int64)) + nodes[:, :steps]
    row = np.dtype((np.void, n_paths))  # one uint8 row as one sortable key
    block = 2 ** 15  # rules per pass: int64 temporaries stay under 16 MB
    distinct = np.empty((0, n_paths), dtype=np.uint8)
    for lo in range(0, 2 ** bits, block):
        rules = np.arange(lo, min(lo + block, 2 ** bits), dtype=np.int64)
        stop = np.full((rules.size, n_paths), steps, dtype=np.uint8)
        # walk the levels backwards so the earliest mark is written last
        for i in range(steps - 1, -1, -1):
            stop[((rules[:, None] >> flat[:, i]) & 1).astype(bool)] = i
        stop = np.concatenate([distinct, stop])
        _, first = np.unique(stop.view(row), return_index=True)
        distinct = stop[first]
    return distinct


def _interior_bits(steps, max_depth, cap):
    if steps > max_depth:
        raise DepthTooLarge(
            f"depth {steps} exceeds the enumeration cap {max_depth}"
        )
    bits = steps * (steps + 1) // 2
    if bits > cap:
        raise DepthTooLarge(
            f"{bits} interior nodes exceed the {cap}-bit rule cap"
        )
    return bits


def stopping_rule_value(L, xi, rule):
    """Expected payoff of one explicit rule: stop payoff from ``L``,
    terminal payoff ``xi`` when the rule never fires."""
    steps = L.lattice.steps
    paths = all_paths(steps)
    pay = _payoff_matrix(L, xi, path_nodes(paths))
    total = 0.0
    for p in range(paths.shape[0]):
        total += pay[p, rule.stop_level(paths[p])]
    return total / paths.shape[0]


def exhaustive_stopping_value(L, xi, max_depth=5):
    """Best expected stopped payoff over every stopping rule.

    ``L`` gives the payoff when stopping before the end, ``xi`` the
    forced terminal payoff.  Enumerates all 2^(interior nodes)
    markings and tries each distinct stopping rule they give; raises
    :class:`DepthTooLarge` beyond the cap.
    """
    if not isinstance(L, AdaptedProcess):
        raise TypeError("L must be an AdaptedProcess")
    steps = L.lattice.steps
    bits = _interior_bits(steps, max_depth, _MAX_RULE_BITS)
    nodes = path_nodes(all_paths(steps))
    stop = _distinct_stop_levels(nodes, bits)
    n_paths = nodes.shape[0]
    pay = _payoff_matrix(L, xi, nodes)[np.arange(n_paths), stop]
    return float((pay.sum(axis=1) / n_paths).max())


def exhaustive_dynkin_value(L, U, xi, max_depth=4, tol=1e-12):
    """Value of the two-player stopping game, by full enumeration.

    One player stops to collect ``L`` (and wants the value high), the
    other stops to pay ``U`` (and wants it low); simultaneous stops pay
    ``L``, and if nobody stops the terminal payoff is ``xi``.  Returns
    the common value of the two one-sided optima; raises
    :class:`NoValue` (with both optima attached) when they differ by
    more than ``tol``, and :class:`DepthTooLarge` beyond the caps.
    """
    steps = L.lattice.steps
    if U.lattice.grid != L.lattice.grid:
        raise ValueError("L and U live on different grids")
    bits = _interior_bits(steps, max_depth, _MAX_RULE_BITS // 2)
    nodes = path_nodes(all_paths(steps))
    stop = _distinct_stop_levels(nodes, bits)
    n_paths = nodes.shape[0]
    path_ids = np.arange(n_paths)
    low_at_stop = _payoff_matrix(L, xi, nodes)[path_ids, stop]
    high_at_stop = _payoff_matrix(U, xi, nodes)[path_ids, stop]

    # J[a, b]: the L-stopper plays row a, the U-stopper row b
    J = np.where(
        stop[:, None, :] <= stop[None, :, :],
        low_at_stop[:, None, :],
        high_at_stop[None, :, :],
    ).sum(axis=2) / n_paths
    maxmin = float(J.min(axis=1).max())
    minmax = float(J.max(axis=0).min())
    if abs(maxmin - minmax) > tol:
        raise NoValue(maxmin, minmax)
    return maxmin


def quadratic_closed_form(c, xi):
    """Exact lattice value of the driver ``c * z**2`` with payoff ``xi``.

    The exponential change of variable turns the backward recursion
    into a plain expectation, giving ``ln E[exp(2c xi)] / (2c)`` with
    the binomial terminal weights.  Computed in log space so large
    ``c * xi`` cannot overflow: the largest exponent is shifted out and
    its own (unit) term is kept apart in a ``log1p``.  Requires
    ``c > 0``.
    """
    c = float(c)
    if not c > 0.0:
        raise ValueError("c must be > 0")
    xi = np.asarray(xi, dtype=float)
    n = xi.size - 1
    logw = np.array(
        [math.log(math.comb(n, j)) for j in range(n + 1)]
    ) - n * math.log(2.0)
    a = 2.0 * c * xi + logw
    top = a.max()
    at_top = a == top
    ties = np.count_nonzero(at_top)
    rest = np.sum(np.exp(np.where(at_top, -np.inf, a - top))) / ties
    return float((np.log1p(rest) + math.log(ties) + top) / (2.0 * c))


def _brownian_mean(h, horizon):
    """``E[h(W_T)]`` for a standard Brownian motion at ``T = horizon``,
    by Gauss–Hermite quadrature (weight ``exp(-x**2 / 2)``, whose total
    is ``sqrt(2 pi)``)."""
    x, w = np.polynomial.hermite_e.hermegauss(_HERMITE_POINTS)
    vals = np.asarray(h(math.sqrt(horizon) * x), dtype=float)
    return float(w @ vals) / math.sqrt(2.0 * math.pi)


def quadratic_continuous_value(c, payoff, horizon=1.0):
    """Continuous-time value at 0 of the driver ``c * z**2`` with
    terminal value ``payoff(W_T)``.

    The exponential change of variable makes ``exp(2c Y)`` a
    martingale, so ``Y_0 = ln E[exp(2c payoff(W_T))] / (2c)``.
    ``payoff`` maps an array of endpoints to payoffs.  Requires
    ``c != 0``.
    """
    c = float(c)
    if c == 0.0:
        raise ValueError("c must be nonzero")
    mean = _brownian_mean(lambda w: np.exp(2.0 * c * payoff(w)), horizon)
    return math.log(mean) / (2.0 * c)


def linear_continuous_value(a, b, c, payoff, horizon=1.0):
    """Continuous-time value at 0 of the driver ``a*y + b*z + c`` with
    terminal value ``payoff(W_T)``.

    Discounting by ``e^{a t}`` removes ``a y``, and the Girsanov shift
    by ``b`` removes ``b z``, so
    ``Y_0 = e^{aT} E[payoff(W_T + bT)] + c (e^{aT} - 1) / a``, the last
    term being ``c T`` when ``a == 0``.
    """
    a, b, c, T = float(a), float(b), float(c), float(horizon)
    mean = _brownian_mean(lambda w: payoff(w + b * T), T)
    carry = c * T if a == 0.0 else c * math.expm1(a * T) / a
    return math.exp(a * T) * mean + carry


def envelope_brute_force(times, g, weights, n):
    """Quadratic rescan of the penalized envelope, plus its left variant.

    For every grid index the maximum of ``g(s) - n (t - s)`` is taken
    over the atoms ``s <= t`` (strictly before ``t`` for the left
    variant), each candidate computed from scratch in one matrix over
    all pairs of indices; -inf over an empty set.
    """
    t = np.asarray(times, dtype=float)
    gv = np.asarray(g, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = float(n)
    k = np.arange(t.size)
    cand = np.where(
        (k[None, :] <= k[:, None]) & (w[None, :] > 0.0),
        gv[None, :] - n * (t[:, None] - t[None, :]),
        -np.inf,
    )
    values = cand.max(axis=1, initial=-np.inf)
    np.fill_diagonal(cand, -np.inf)
    left = cand.max(axis=1, initial=-np.inf)
    return values, left
