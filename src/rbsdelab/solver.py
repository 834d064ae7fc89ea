"""Backward solver for the doubly reflected equation in standard form.

One backward step at level ``j`` does three things, per node:

1. aggregates the next level into the one-step expectation and the
   martingale slope (both exact two-point formulas);
2. solves the scalar implicit equation
   ``y = E + f(j, y, Z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``
   (every generator part takes the level ``j``, not the time), in
   closed form where the rate declares its slope in ``y``, otherwise by
   monotone bracketing and a safeguarded secant; a generator's declared
   squared-slope component is not frozen into an Euler term but
   integrated by its exact one-step exponential average, which keeps
   the step strictly monotone in the next level's values at any step
   size and makes pure squared-slope generators exact;
3. projects the unconstrained value onto the merged obstacle interval,
   recording the two projection residuals as the increments of the
   reflection processes.

Because the projection is a clamp, the Skorokhod flat-off and the
mutual singularity of the two reflection processes hold exactly, not
up to a tolerance; the solver still reports them, as regression
guards.  The realized per-step drift (solved value minus one-step
expectation) is recorded verbatim, so the per-path budget identity
telescopes to floating-point accumulation error.
"""

import math

from dataclasses import dataclass

import numpy as np

from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    _process_rows,
    _stack_rows,
    all_paths,
    expectation_level,
    increment_level,
    level_offset,
    path_nodes,
)

__all__ = [
    "ImplicitStepDivergence",
    "NonFiniteDriver",
    "SkorokhodReport",
    "Solution",
    "ComparisonReport",
    "solve_rbsde",
    "comparison_check",
    "budget_defect",
]

_LN2 = math.log(2.0)

# bracket width at which a node's root is done, relative to its scale
# |y| + |base|; the smallest normal float floors that scale so a root
# at 0 is done too
_ULPS = 2.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# caps on the bracket expansions and on the root-finding steps (any
# three steps at least halve the bracket)
_EXPAND_MAX = 64
_SECANT_MAX = 300
# roots further than this (relative) from the starting value sit where
# float cancellation erases the drift term entirely, so a vanishing
# residual there proves nothing: treat them as divergence
_SANE_SPAN = 1e12
# slack of every inequality that comparison_check audits
_COMPARISON_TOL = 1e-9


class ImplicitStepDivergence(Exception):
    """The implicit step has no reachable root.

    Raised when a declared slope leaves ``1 - slope*dt <= 0``, when
    bracketing fails, when the root lies so far from the base value that
    float cancellation erases the drift, or when the root finder reaches
    its step cap with the bracket still open: a drift growing at least
    linearly in ``y`` with ``rate * dt >= 1`` (too coarse a grid) or a
    clock rate violating the monotonicity requirement.  ``span`` is the
    value the message names: ``1 - slope*dt``, the last expansion step,
    the root's distance from the base, or the open bracket's width.
    """

    def __init__(self, level, node, span, what=None):
        self.level = int(level)
        self.node = int(node)
        self.span = float(span)
        if what is None:
            what = f"no sign change within +-{self.span!r} of the base value"
        super().__init__(f"{what} at (level {self.level}, node {self.node})")


class NonFiniteDriver(Exception):
    """A generator part (rate, clock rate, source, squared-slope
    coefficient or penalty) gave NaN or an infinity during a step."""

    def __init__(self, level, node):
        self.level = int(level)
        self.node = int(node)
        super().__init__(
            f"non-finite drift value at "
            f"(level {self.level}, node {self.node})"
        )


@dataclass(frozen=True)
class SkorokhodReport:
    """Reflection certificates, maxima over all nodes.

    ``flat_off_plus``: largest lower-reflection mass placed while the
    solution sat strictly above the lower obstacle; ``flat_off_minus``
    mirrors it; ``singularity_defect``: largest product of the two
    reflection increments at one node.  All are exactly zero for the
    clamp-based projection and are reported as regression guards.
    """

    flat_off_plus: float
    flat_off_minus: float
    singularity_defect: float


class Solution:
    """Output of one backward solve.

    ``Y`` is node-indexed; ``Z`` (martingale slope), ``drift`` (realized
    per-step drift, reflection excluded) and the two reflection
    processes are all attributed to the step ending at the next grid
    time, hence predictable.
    """

    __slots__ = ("Y", "Z", "Kplus", "Kminus", "residuals", "drift")

    def __init__(self, Y, Z, Kplus, Kminus, residuals, drift):
        self.Y = Y
        self.Z = Z
        self.Kplus = Kplus
        self.Kminus = Kminus
        self.residuals = residuals
        self.drift = drift

    @property
    def lattice(self):
        return self.Y.lattice

    def value(self):
        """The solved value at the root node."""
        return float(self.Y.level(0)[0])

    def __repr__(self):
        return (
            f"Solution(steps={self.lattice.steps}, "
            f"value={self.value()!r})"
        )


def _lncosh(x):
    """``ln cosh(x)``, overwriting ``x``."""
    ax = np.abs(x, out=x)
    tail = np.multiply(-2.0, ax)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    ax += tail
    ax -= _LN2
    return ax


def _tilt_increment(coef, w, sqrt_dt):
    """Exact one-step value of a squared-slope drift component.

    For the component ``coef * (z - center)**2`` with realized slope
    offset ``w = Z - center``, the exponential change of variable gives
    the closed one-step increment ``lncosh(2 coef w sqrt_dt)/(2 coef)``
    (any sign of ``coef``; zero contributes nothing).  Its derivative
    in ``Z`` is ``sqrt_dt * tanh(...)``, bounded by ``sqrt_dt``, which
    is what keeps the step monotone unconditionally.  A nonzero float
    ``coef`` takes the formula as it stands; an array takes the
    zero-rate masks only where some entry is zero.
    """
    live = None
    if isinstance(coef, float) and coef != 0.0:
        twice = 2.0 * coef
    else:
        coef = np.asarray(coef, dtype=float)
        w = np.asarray(w, dtype=float)
        if np.count_nonzero(coef) < coef.size:
            live = coef != 0.0
            coef = np.where(live, coef, 1.0)
        twice = 2.0 * coef
    x = twice * w
    x *= sqrt_dt
    out = _lncosh(x)
    out /= twice
    return out if live is None else np.where(live, out, 0.0)


def _narrow(y, f_y, lo, f_lo, hi, f_hi, only=None):
    """Bracket after a probe, in place: ``y`` replaces ``lo`` where
    ``phi(y) <= 0`` and ``hi`` where ``phi(y) >= 0`` (both where it is a
    root), at the nodes of the mask ``only`` when one is given."""
    left = f_y <= 0.0
    right = f_y >= 0.0
    if only is not None:
        left &= only
        right &= only
    np.putmask(lo, left, y)
    np.putmask(f_lo, left, f_y)
    np.putmask(hi, right, y)
    np.putmask(f_hi, right, f_y)


def _check_finite(a, level):
    """Raise :class:`NonFiniteDriver` at the first non-finite node of
    ``a``.  Its minimum and maximum settle the common case and warn on
    no infinity or NaN (a sum would, on ``inf - inf``); only when one is
    not finite are the nodes scanned."""
    if not -np.inf < np.minimum.reduce(a, None) <= np.maximum.reduce(a, None) < np.inf:
        raise NonFiniteDriver(level, np.argmin(np.isfinite(a)) % a.shape[-1])


def _check_span(gap, base, level, where):
    """Raise :class:`ImplicitStepDivergence` at the first node of ``where``
    whose root lies ``gap`` from ``base``, over ``_SANE_SPAN (|base| + 1)``."""
    runaway = gap > (np.abs(base) + 1.0) * _SANE_SPAN
    runaway &= where
    if runaway.any():
        k = int(np.argmax(runaway))
        span = float(gap.flat[k])
        what = f"root {span!r} away from the base value"
        raise ImplicitStepDivergence(level, k % gap.shape[-1], span, what)


def _affine_step(base, Z, dt, level, f_drift, d, pieces):
    """:func:`_implicit_core` from one evaluation: with ``G = f_drift(level,
    base, Z) dt`` (no ``G`` without a rate) and the pass's ``d = 1 -
    slope*dt``, the free root ``y = base + G / d`` (``base + G`` exactly
    where ``d`` is 1, ``base + 0.0`` without ``G``), or ``y + w (k - y) /
    (d + w)`` where the penalty's ``pieces`` are active at it.  One
    reduction settles every check: ``|y - base| <= _SANE_SPAN`` at every
    node means ``G`` and ``y`` are finite (a non-finite ``G`` reaches
    ``y``) and no root runs away.  Only when it fails are ``G``, the span
    and ``y`` checked node by node, in that order; the span holds the
    moved roots (``d != 1`` or a piece active), not the exact fixed-point
    image ``base + G``, as in the root finder."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if f_drift is None:
            G, y = None, base + 0.0
        else:
            G = np.asarray(f_drift(level, base, Z), dtype=float) * dt
            if G.shape != base.shape:
                G = np.broadcast_to(G, base.shape)
            y = base + G / d
        active = False
        if pieces is not None:
            k, w, side = pieces(level)
            active = side * (k - y) > 0.0
            if active.any():
                # k is infinite where a row has no predictable obstacle
                k = np.where(active, k, y)
                y = np.where(active, y + w * (k - y) / (d + w), y)
        gap = y - base
        np.abs(gap, out=gap)
        if not np.maximum.reduce(gap, axis=None) <= _SANE_SPAN:
            if G is not None:
                _check_finite(G, level)
            _check_span(gap, base, level, (d != 1.0) | active)
            _check_finite(y, level)
    return y


def _implicit_core(base, Z, dt, level, f_drift, g_fn, dA, penalty, d=None):
    """Vectorized solve of ``y = base + F(y)`` per node.

    ``F(y) = f_drift(level, y, Z) dt + g_fn(level, y, y) dA +
    penalty(level, y)``
    with the rate, clock and penalty pieces skipped where absent.  The nodes
    of the level are the last axis of ``base``, leading axes a batch,
    and errors name the node within its level.  Returns the root array;
    raises :class:`NonFiniteDriver` / :class:`ImplicitStepDivergence`.

    No rate, live clock term or penalty leaves the root at ``base +
    0.0`` (the signed zeros of a zero drift), checked finite with no
    floating-point warning to silence.  A declared slope of
    ``f_drift`` in ``y``, given as ``d = 1 - slope*dt``, with no live
    clock term, and a penalty absent or declaring its ``pieces``, takes
    :func:`_affine_step`; the root finder below solves the rest.

    Every decision is made per node, so a node's root does not depend
    on which nodes share its array: solving two arrays at once gives,
    bitwise, the two separate results.  The generator still sees the
    whole array at every evaluation, so a level takes as many
    evaluations as its slowest node.

    ``phi(y) = y - base - F(y)`` is increasing, so walking outwards
    from the two points where it is already known (``base`` and the
    fixed-point image ``y0 = base + F(base)``) brackets the root.  A
    node where ``F`` takes the same value at both points has the exact
    root ``y0`` and takes it; when every node does, the step returns
    there.  The bracket is then shrunk by Illinois steps (regula falsi
    that halves the value kept at an end retained twice running; Dowell
    and Jarratt, BIT 1971), replaced by a bisection step wherever the
    last two steps did not halve the bracket.  No step lands closer
    than half the stopping width to either end.  A node is done when
    its bracket is at most ``_ULPS * (|y| + |base|)`` wide; ``phi == 0``
    closes it outright.  A done node keeps its ``y`` from then on: the
    steps the other nodes still take probe it again at the same point,
    which changes nothing it returns.
    ``base``, ``y0`` and every generator value are checked, and reaching
    ``_SECANT_MAX`` steps with a bracket still open raises.  One
    fixed-point polish ``base + F(y)`` follows; ``y`` is the last probe,
    so ``F(y)`` is already known and the polish costs one evaluation,
    the polished value's residual.  Each node keeps the candidate with
    the smaller residual.

    Each finite check is a minimum and a maximum, with a per-node scan
    only when one is not finite, and each step narrows the bracket in place.
    Floating-point warnings are silenced for the whole step, generator
    evaluations included: a non-finite value raises instead.
    """
    base = np.asarray(base, dtype=float)
    use_g = g_fn is not None and dA is not None and np.any(dA > 0.0)
    if f_drift is None and not use_g and penalty is None:
        y = base + 0.0
        _check_finite(y, level)
        return y
    pieces = getattr(penalty, "pieces", None)
    if d is not None and not use_g and (penalty is None or pieces is not None):
        return _affine_step(base, Z, dt, level, f_drift, d, pieces)

    def F(y):
        out = 0.0 if f_drift is None else f_drift(level, y, Z)
        out = np.asarray(out, dtype=float) * dt
        if use_g:
            out = out + np.asarray(g_fn(level, y, y), dtype=float) * dA
        if penalty is not None:
            out = out + np.asarray(penalty(level, y), dtype=float)
        if out.shape != base.shape:
            # a part returned a broadcastable shape, say a scalar
            out = np.broadcast_to(out, base.shape)
        _check_finite(out, level)
        return out

    def phi(y):
        return y - base - F(y)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _check_finite(base, level)
        Fb = F(base)
        y0 = base + Fb
        # finite parts can still sum past the largest float
        _check_finite(y0, level)
        F0 = F(y0)
        # where the drift does not depend on the unknown, y0 is the exact root
        exact = F0 == Fb
        if exact.all():
            return y0

        # phi is known at base (-Fb) and at y0 = base + Fb; call them
        # p < q.  A node with phi(p) > 0 has its root below p, one with
        # phi(p) <= 0 and phi(q) < 0 above q: walk each such node away
        # from the pair, doubling the step, until phi changes sign.
        # Every probe either closes the bracket or becomes its new near
        # end.  The first step is floored at the stopping width: q == p
        # wherever Fb is below half an ulp of base.
        floor = np.abs(base) + _TINY
        swap = y0 < base
        p = np.minimum(base, y0)
        q = np.maximum(base, y0)
        f_y0 = y0 - base
        f_y0 -= F0
        f_b = -Fb
        f_p = np.where(swap, f_y0, f_b)
        f_q = np.where(swap, f_b, f_y0)
        # an exact node's bracket is closed at y0, a root at both ends:
        # it neither walks nor steps
        for a, v in ((p, y0), (q, y0), (f_p, 0.0), (f_q, 0.0)):
            np.copyto(a, v, where=exact)
        down = f_p > 0.0
        up = (f_q < 0.0) & ~down
        lo = np.where(up, q, p)
        f_lo = np.where(up, f_q, f_p)
        hi = np.where(down, p, q)
        f_hi = np.where(down, f_p, f_q)
        span = np.maximum(q - p, _ULPS * floor)
        probes = 0
        walk = down | up
        while walk.any():
            if probes == _EXPAND_MAX:
                k = int(np.argmax(walk))
                raise ImplicitStepDivergence(
                    level, k % span.shape[-1], float(span.flat[k])
                )
            probes += 1
            y = np.where(down, hi - span, np.where(up, lo + span, lo))
            _narrow(y, phi(y), lo, f_lo, hi, f_hi, walk)
            down = f_lo > 0.0
            up = f_hi < 0.0
            walk = down | up
            span = 2.0 * span

        width = hi - lo
        y = lo + 0.5 * width
        # half the width one and two steps back, from the second and
        # the third step on
        halved = shrunk = None
        F_y = None  # F at the last probe, which y then is
        for step in range(_SECANT_MAX):
            tol = np.abs(y)
            tol += floor
            tol *= _ULPS
            done = width <= tol
            if done.all():
                break
            x = f_hi - f_lo
            np.divide(width, x, out=x)
            np.multiply(f_lo, x, out=x)
            np.subtract(lo, x, out=x)
            # no step closer than half the stopping width to either end;
            # fmax also drops the NaN of a 0/0 step
            nudge = 0.5 * tol
            end = lo + nudge
            np.fmax(x, end, out=x)
            np.subtract(hi, nudge, out=end)
            np.fmin(x, end, out=x)
            if step >= 2:
                # bisect wherever the last two steps did not halve the
                # bracket
                x = np.where(width > shrunk, lo + 0.5 * width, x)
            y = np.where(done, y, x)
            F_y = F(y)
            f_y = y - base
            f_y -= F_y
            # Illinois: halve the value of an end kept twice running
            sign = np.sign(f_y)
            if step:
                keep = np.where(sign == side, 0.5, 1.0)
                f_lo *= keep
                f_hi *= keep
            _narrow(y, f_y, lo, f_lo, hi, f_hi)
            side = sign
            shrunk = halved
            halved = 0.5 * width
            width = hi - lo
        else:
            k = int(np.argmax(width > tol))
            gap = float(width.flat[k])
            raise ImplicitStepDivergence(
                level,
                k % width.shape[-1],
                gap,
                f"root bracket still {gap!r} wide after {_SECANT_MAX} steps",
            )

        # one fixed-point polish, from F at the last probe unless the
        # bracket was closed before any; keep whichever candidate has
        # the smaller residual, element-wise
        yp = base + (F(y) if F_y is None else F_y)
        res = yp - base
        res -= F(yp)
        np.abs(res, out=res)
        gap = y - yp
        np.abs(gap, out=gap)
        y = np.where(res < gap, yp, y)
        gap = y - base
        np.abs(gap, out=gap)
        # the exact nodes return y0 unchecked, as they do alone
        _check_span(gap, base, level, ~exact)
        np.copyto(y, y0, where=exact)
    return y


def solve_rbsde(lattice, driver, barriers):
    """Backward induction over the whole lattice.

    The terminal values are the obstacle set's normalized ones,
    ``barriers.xi``.  Per level: expectation and slope from the solved
    next level, the implicit drift step (structural squared-slope,
    source and penalty terms included), then the clamp onto the merged
    obstacle interval with the projection residuals recorded as
    reflection increments.
    """
    if barriers.lattice.grid != lattice.grid:
        raise ValueError("obstacles live on a different grid")
    bands = barriers.low.values, barriers.high.values
    return _backward([lattice], driver, barriers.xi, *bands)[0]


def _stacked_sets(sets, bands=("low", "high")):
    """What :func:`_backward` reads from obstacle sets on one depth: their
    lattices, then their terminal values and the two named bands (the
    merged ones by default), each stacked one row per set."""
    return (
        [s.lattice for s in sets],
        _stack_rows([s.xi for s in sets]),
        *(_stack_rows([getattr(s, band).values for s in sets]) for band in bands),
    )


def _backward(lattices, driver, xi, low, high, batch=(), *, y_only=False):
    """:func:`solve_rbsde` over a batch, from the terminal values ``xi``
    and packed merged bands: each level has shape ``batch + (i + 1,)``,
    which the driver's callables see and the bands' leading axes
    broadcast against.  ``lattices`` are of equal depth, one per entry
    of the first batch axis, and an empty batch is one row on one
    lattice; ``dt`` and ``sqrt_dt`` are columns over that axis (Python
    floats when every row has one step size), and each row's solutions
    live on its own lattice.  ``driver.bounds``, when
    given, is one :class:`GrowthBounds`, checked against the grid of
    every row; its clock is read only when ``driver.g`` is set.  One
    solution per entry, built from the output buffers checked once.

    Each level writes its expectation into ``drift`` and its unclamped
    root into ``Kminus``; after the loop, one subtraction makes the
    drift and two the reflection increments.  The certificates are
    products that vanish where their reflection did not move, so their
    maxima are taken over the nodes where it did, across the whole
    batch at once.  With ``y_only`` the pass builds ``Y`` alone: the
    level's expectation and slope go to one-level scratch buffers, no
    drift, reflection or certificate is formed, and it returns one
    :class:`AdaptedProcess` per entry, with the same values and errors
    as the full pass."""
    rows = tuple(lattices)
    steps = rows[0].steps
    if (batch[:1] or (1,)) != (len(rows),) or any(r.steps != steps for r in rows):
        raise ValueError("row lattices must be one per row, of equal depth")
    column = (-1,) + (1,) * len(batch)
    dt = np.reshape([r.dt for r in rows], column)
    sqrt_dt = np.reshape([r.sqrt_dt for r in rows], column)
    # rows on one step size take dt and sqrt_dt as Python floats, as a
    # one-entry d does: the same products, with no broadcast per call
    if (dt == dt.flat[0]).all():
        dt, sqrt_dt = dt.item(0), sqrt_dt.item(0)
    # 1 - slope*dt, for every level's closed-form step
    d = None
    if driver.slope is not None:
        d = np.asarray(1.0 - driver.slope * dt)
        if not (d > 0.0).all():
            at = np.unravel_index(int(np.argmin(d > 0.0)), d.shape)
            row, node = (at[0], at[-1]) if at else (0, 0)
            what = f"1 - slope*dt is {float(d[at])!r}, not positive, in row {row}"
            raise ImplicitStepDivergence(steps - 1, node, d[at], what)
        if d.size == 1:
            d = d.item()
    bounds = driver.bounds
    if bounds is not None and any(bounds.lattice.grid != r.grid for r in rows):
        raise ValueError("growth bounds live on a different grid")
    clock = None if driver.g is None else bounds.A.values
    # packed buffers: each level is written in place, and each buffer
    # is checked and frozen once at the end
    n = level_offset(steps)
    top = level_offset(steps + 1)
    Y = np.empty(batch + (top,))
    Y[..., n:] = xi
    if y_only:
        E_buf, Z = (np.empty(batch + (steps,)) for _ in range(2))
    else:
        Z, drift, Kplus, Kminus = (np.empty(batch + (n,)) for _ in range(4))
        E_buf = drift
    lows = low[..., :n]
    highs = high[..., :n]

    # level j spans [start, end) and level j + 1 spans [end, top)
    end = n
    for j in range(steps - 1, -1, -1):
        start = end - j - 1
        nxt = Y[..., end:top]
        level = slice(start, end)
        top, end = end, start
        at = slice(j + 1) if y_only else level
        E = expectation_level(nxt, out=E_buf[..., at])
        z = increment_level(nxt, sqrt_dt, out=Z[..., at])
        base = E
        if driver.quad is not None:
            coef, center = driver.quad(j)
            # z - 0.0 is z, and the tilt reads only |z - center|
            w = z if isinstance(center, float) and center == 0.0 else z - center
            base = base + _tilt_increment(coef, w, sqrt_dt)
        if driver.source is not None:
            base = base + driver.source(j)
        dA = None if clock is None else clock[..., level]
        y_raw = _implicit_core(
            base, z, dt, j, driver.f, driver.g, dA, driver.penalty, d
        )
        # ndarray.clip's order, ties to the band included
        y = np.maximum(y_raw, lows[..., level], out=Y[..., level])
        np.minimum(y, highs[..., level], out=y)
        if not y_only:
            Kminus[..., level] = y_raw

    # row k of the flattened batch lives on the lattice of its first index
    per_lattice = math.prod(batch[1:])
    lats = [r for r in rows for _ in range(per_lattice)]
    if y_only:
        return [y for (y,) in _process_rows(lats, ((AdaptedProcess, Y),))]

    np.subtract(Kminus, drift, out=drift)
    # the projection residuals are the reflection increments
    np.subtract(lows, Kminus, out=Kplus)
    np.maximum(Kplus, 0.0, out=Kplus)
    np.subtract(Kminus, highs, out=Kminus)
    np.maximum(Kminus, 0.0, out=Kminus)
    reports = zip(*_certificates(Y[..., :n], lows, highs, Kplus, Kminus).tolist())

    parts = (
        (AdaptedProcess, Y),
        (PredictableProcess, Z),
        (IncreasingProcess, Kplus),
        (IncreasingProcess, Kminus),
        (PredictableProcess, drift),
    )
    return [
        Solution(y, z, kp, km, SkorokhodReport(*report), d)
        for (y, z, kp, km, d), report in zip(_process_rows(lats, parts), reports)
    ]


def _certificates(y, lows, highs, Kplus, Kminus):
    """The reflection certificates of every batch entry, as the rows of
    a ``(3, entries)`` array: the largest ``Kplus (y - lows)``,
    ``Kminus (highs - y)`` and ``Kplus Kminus``, each at least 0.  Each
    product vanishes where its first factor is zero, so it is formed
    only at the nodes where that reflection moved, and an infinite gap
    at a free band never meets a zero factor (their product is NaN).
    The bands broadcast against the batch."""
    nodes = Kplus.shape[-1]
    out = np.zeros((3, Kplus.size // nodes))
    for row, k, near, far in ((0, Kplus, y, lows), (1, Kminus, highs, y)):
        flat = np.flatnonzero(k > 0.0)
        at = np.unravel_index(flat, k.shape)
        moved = k.reshape(-1)[flat]
        gap = np.broadcast_to(near, k.shape)[at] - np.broadcast_to(far, k.shape)[at]
        entry = flat // nodes
        np.maximum.at(out[row], entry, moved * gap)
        if row == 0:
            np.maximum.at(out[2], entry, moved * Kminus.reshape(-1)[flat])
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Ordering consequences of one dominating/dominated solve pair.

    ``upper_envelope_ok`` / ``lower_envelope_ok``: the crossed obstacle
    hypotheses (small solution under the big problem's upper obstacle;
    big solution above the small problem's lower obstacle).
    ``drift_domination_ok``: the small solution's realized drift never
    exceeds the big generator's rate along the small solution.
    ``ordered``: big solution >= small solution at every node.
    ``kminus_ok``: where the effective upper obstacles coincide, the
    small problem's upper reflection increment never exceeds the big
    problem's.
    """

    upper_envelope_ok: bool
    lower_envelope_ok: bool
    drift_domination_ok: bool
    ordered: bool
    kminus_ok: bool
    max_order_violation: float
    max_kminus_violation: float
    max_drift_violation: float

    @property
    def hypotheses_ok(self):
        return (
            self.upper_envelope_ok
            and self.lower_envelope_ok
            and self.drift_domination_ok
        )

    @property
    def passed(self):
        return self.hypotheses_ok and self.ordered and self.kminus_ok


def comparison_check(
    sol_big, sol_small, driver_big, driver_small, bars_big, bars_small
):
    """Audit the ordering relations between two solves.

    The caller asserts that ``sol_big`` solves the problem meant to
    dominate.  The crossed obstacle and rate-domination hypotheses are
    audited first (report fields, not preconditions): both generators'
    per-step drifts ``(f + q (z - center)**2) dt + g dA + source``, the
    squared-slope term from ``quad``, are evaluated at the small
    solution's realized state, never at different points.  Then the
    node-wise ordering of the solutions and of the upper reflection
    increments on the set where the effective upper obstacles agree.
    Every inequality holds up to ``_COMPARISON_TOL``.
    """
    lat = sol_big.lattice
    steps = lat.steps
    n = level_offset(steps)
    up_ok = not np.any(
        sol_small.Y.values[:n] > bars_big.U.values[:n] + _COMPARISON_TOL
    )
    low_ok = not np.any(
        bars_small.L.values[:n] > sol_big.Y.values[:n] + _COMPARISON_TOL
    )

    def rate(driver, j, y, z):
        out = 0.0 if driver.f is None else np.asarray(driver.f(j, y, z), dtype=float)
        if driver.quad is not None:
            coef, center = driver.quad(j)
            w = z - center
            out = out + coef * w * w
        out = out * lat.dt
        if driver.source is not None:
            out = out + np.asarray(driver.source(j), dtype=float)
        if driver.g is not None:
            dA = driver.bounds.A.atom(j)
            out = out + np.asarray(driver.g(j, y, y), dtype=float) * dA
        return out

    drift_ok = True
    max_drift = 0.0
    for j in range(steps):
        y = sol_small.Y.level(j)
        z = sol_small.Z.atom(j)
        gap = float(
            np.max(
                rate(driver_small, j, y, z) - rate(driver_big, j, y, z),
                initial=-np.inf,
            )
        )
        max_drift = max(max_drift, gap)
        if gap > _COMPARISON_TOL:
            drift_ok = False

    max_order = float(np.max(sol_small.Y.values - sol_big.Y.values))
    # the upper reflections compare where the effective upper obstacles
    # coincide
    same = bars_big.high.values[:n] == bars_small.high.values[:n]
    max_km = float(
        np.max(
            (sol_small.Kminus.values - sol_big.Kminus.values)[same],
            initial=-np.inf,
        )
    )
    return ComparisonReport(
        upper_envelope_ok=up_ok,
        lower_envelope_ok=low_ok,
        drift_domination_ok=drift_ok,
        ordered=not max_order > _COMPARISON_TOL,
        kminus_ok=not max_km > _COMPARISON_TOL,
        max_order_violation=max(0.0, max_order),
        max_kminus_violation=max(0.0, max_km),
        max_drift_violation=max(max_drift, 0.0),
    )


def budget_defect(sol):
    """Largest per-path defect of the telescoped backward identity.

    Along every path, the terminal value minus the root value must
    equal the sum of slope-times-increment minus realized drift minus
    lower reflection plus upper reflection.  Exact on paper; the
    return value is the floating-point accumulation, maximized over
    every path.
    """
    lat = sol.lattice
    steps = lat.steps
    paths = all_paths(steps)
    nodes = path_nodes(paths)
    # every slot's increment after a down move (row 0) and an up move
    db = np.array([[-lat.sqrt_dt], [lat.sqrt_dt]])
    step = sol.Z.values * db - sol.drift.values - sol.Kplus.values
    step += sol.Kminus.values
    # gathered along every path and summed in step order from the root
    inc = step[paths, nodes[:, :steps] + level_offset(np.arange(steps))]
    inc[:, 0] += sol.Y.values[0]
    np.add.accumulate(inc, axis=1, out=inc)
    terminal = sol.Y.terminal()[nodes[:, steps]]
    return float(np.max(np.abs(terminal - inc[:, -1])))
