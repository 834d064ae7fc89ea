"""Backward solver for the doubly reflected equation in standard form.

One backward step at level ``j`` does three things, per node:

1. aggregates the next level into the one-step expectation and the
   martingale slope (both exact two-point formulas);
2. solves the scalar implicit equation
   ``y = E + f(j, y, Z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``
   (every generator part takes the level ``j``, not the time) by
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


class ImplicitStepDivergence(Exception):
    """The implicit step has no reachable root.

    Raised when bracketing fails, when the root lies so far from the
    base value that float cancellation erases the drift, or when the
    root finder reaches its step cap with the bracket still open.
    Usually means the drift grows at least linearly in ``y`` with
    ``rate * dt >= 1`` (too coarse a grid) or a clock rate violating
    the monotonicity requirement.  ``span`` is the distance the message
    names: the last expansion step, the root's distance from the base
    value, or the width of the open bracket.
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
    is what keeps the step monotone unconditionally.  The zero-rate
    masks are applied only where some ``coef`` is zero.
    """
    coef = np.asarray(coef, dtype=float)
    w = np.asarray(w, dtype=float)
    live = coef != 0.0
    every = live.all()
    twice = 2.0 * (coef if every else np.where(live, coef, 1.0))
    x = twice * w
    x *= sqrt_dt
    out = _lncosh(x)
    out /= twice
    return out if every else np.where(live, out, 0.0)


def _narrow(y, f_y, lo, f_lo, hi, f_hi):
    """Bracket after a probe, in place: ``y`` replaces ``lo`` where
    ``phi(y) <= 0`` and ``hi`` where ``phi(y) >= 0`` (both where it is a
    root)."""
    left = f_y <= 0.0
    right = f_y >= 0.0
    np.putmask(lo, left, y)
    np.putmask(f_lo, left, f_y)
    np.putmask(hi, right, y)
    np.putmask(f_hi, right, f_y)


def _check_finite(a, level):
    """Raise :class:`NonFiniteDriver` at the first non-finite node of
    ``a``.  One sum settles the common case, since it is finite only
    when every entry is; a sum that overflowed gets the per-node scan.
    Call it with overflow and invalid-value warnings silenced."""
    if not math.isfinite(np.add.reduce(a, axis=None)):
        finite = np.isfinite(a)
        if not finite.all():
            raise NonFiniteDriver(level, np.argmin(finite) % a.shape[-1])


def _implicit_core(base, Z, dt, level, f_drift, g_fn, dA, penalty):
    """Vectorized solve of ``y = base + F(y)`` per node.

    ``F(y) = f_drift(level, y, Z) dt + g_fn(level, y, y) dA +
    penalty(level, y)``
    with the clock and penalty pieces skipped where absent.  The nodes
    of the level are the last axis of ``base``, leading axes a batch,
    and errors name the node within its level.  Returns the root array;
    raises :class:`NonFiniteDriver` / :class:`ImplicitStepDivergence`.

    ``phi(y) = y - base - F(y)`` is increasing, so walking outwards
    from the two points where it is already known (``base`` and the
    fixed-point image ``base + F(base)``) brackets the root.  The
    bracket is then shrunk by Illinois steps (regula falsi that halves
    the value kept at an end retained twice running; Dowell and
    Jarratt, BIT 1971), replaced by a bisection step wherever the last
    two steps did not halve the bracket.  No step lands closer than
    half the stopping width to either end.  A node is done when its
    bracket is at most ``_ULPS * (|y| + |base|)`` wide; ``phi == 0``
    closes it outright.
    ``base`` and every generator value are checked, and reaching
    ``_SECANT_MAX`` steps with a bracket still open raises.  One
    fixed-point polish ``base + F(y)`` follows; ``y`` is the last probe,
    so ``F(y)`` is already known and the polish costs one evaluation,
    the polished value's residual.  Each node keeps the candidate with
    the smaller residual.

    Which array passes run when: each finite check is one sum, with a
    per-node scan only when the sum is not finite.  ``F`` at the second
    known point is checked only when the exact exit fails, since to
    pass it that ``F`` must equal the checked ``F(base)``.  The
    expansion walk and its ``np.where`` setup run only when some
    node's root lies outside the known pair; otherwise that pair is
    the bracket.  A root-finding step builds the stopping width, the
    secant point and the residual in one buffer each, and narrows the
    bracket in place.  The test against the width two steps back
    starts at the third step, the bisection midpoint is formed only
    when some node bisects, and the Illinois halving starts at the
    second step (at the first, only an exact root matches the zero
    start sign, and both of its ends are replaced).  Floating-point
    warnings are silenced for the whole step, generator evaluations
    included: a non-finite value raises instead.
    """
    base = np.asarray(base, dtype=float)
    use_g = g_fn is not None and dA is not None and np.any(dA > 0.0)

    def F(y, check=True):
        out = np.asarray(f_drift(level, y, Z), dtype=float) * dt
        if use_g:
            out = out + np.asarray(g_fn(level, y, y), dtype=float) * dA
        if penalty is not None:
            out = out + np.asarray(penalty(level, y), dtype=float)
        if out.shape != base.shape:
            # a part returned a broadcastable shape, say a scalar
            out = np.broadcast_to(out, base.shape)
        if check:
            _check_finite(out, level)
        return out

    def phi(y):
        return y - base - F(y)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _check_finite(base, level)
        Fb = F(base)
        y0 = base + Fb
        F0 = F(y0, check=False)
        if (F0 == Fb).all():
            # drift does not depend on the unknown here: y0 is the exact
            # root (and F0, equal to the checked Fb, is finite)
            return y0
        _check_finite(F0, level)

        # phi is known at base (-Fb) and at y0 = base + Fb; call them
        # p < q.  A node with phi(p) > 0 has its root below p, one with
        # phi(p) <= 0 and phi(q) < 0 above q: walk each such node away
        # from the pair, doubling the step, until phi changes sign.
        # Every probe either closes the bracket or becomes its new near
        # end.  The first step is floored at the stopping width: q == p
        # wherever Fb is below half an ulp of base.
        abs_base = np.abs(base)
        floor = abs_base + _TINY
        swap = y0 < base
        p = np.minimum(base, y0)
        q = np.maximum(base, y0)
        f_y0 = y0 - base
        f_y0 -= F0
        f_b = -Fb
        f_p = np.where(swap, f_y0, f_b)
        f_q = np.where(swap, f_b, f_y0)
        down = f_p > 0.0
        up = f_q < 0.0
        if not (down.any() or up.any()):
            lo, f_lo, hi, f_hi = p, f_p, q, f_q
        else:
            up &= ~down
            lo = np.where(up, q, p)
            f_lo = np.where(up, f_q, f_p)
            hi = np.where(down, p, q)
            f_hi = np.where(down, f_p, f_q)
            span = np.maximum(q - p, _ULPS * floor)
            probes = 0
            while down.any() or up.any():
                if probes == _EXPAND_MAX:
                    k = int(np.argmax(down | up))
                    raise ImplicitStepDivergence(
                        level, k % span.shape[-1], float(span.flat[k])
                    )
                probes += 1
                y = np.where(down, hi - span, np.where(up, lo + span, lo))
                _narrow(y, phi(y), lo, f_lo, hi, f_hi)
                down = f_lo > 0.0
                up = f_hi < 0.0
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
            # bisect wherever the last two steps did not halve the
            # bracket, which needs two steps back
            bisect = done if step < 2 else (width > shrunk) | done
            y = np.where(bisect, lo + 0.5 * width, x) if bisect.any() else x
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
        bound = abs_base + 1.0
        bound *= _SANE_SPAN
        runaway = gap > bound
    if runaway.any():
        k = int(np.argmax(runaway))
        span = float(gap.flat[k])
        raise ImplicitStepDivergence(
            level, k % y.shape[-1], span, f"root {span!r} away from the base value"
        )
    return y


def _flat_off(dk, gap):
    """Largest ``dk * gap`` over the nodes where ``dk > 0``, per batch
    entry; ``gap`` is overwritten.  The gap is masked before the
    product, since ``0 * inf`` is NaN."""
    gap[dk <= 0.0] = 0.0
    return np.max(np.multiply(dk, gap, out=gap), axis=-1, initial=0.0)


def solve_rbsde(lattice, driver, barriers):
    """Backward induction over the whole lattice.

    The terminal values are the obstacle set's normalized ones,
    ``barriers.xi``.  Per level: expectation and slope from the solved
    next level, the implicit drift step (structural squared-slope,
    source and penalty terms included), then the clamp onto the merged
    obstacle interval with the projection residuals recorded as
    reflection increments.
    """
    return _backward(lattice, driver, barriers)[0]


def _backward(lattice, driver, barriers, batch=()):
    """:func:`solve_rbsde` over a batch: each level has shape ``batch +
    (i + 1,)``, which the driver's callables see, so a ``(B, 1)``
    penalty weight solves ``B`` weights.  One solution per entry."""
    steps = lattice.steps
    if barriers.lattice.grid != lattice.grid:
        raise ValueError("obstacles live on a different grid")
    bounds = driver.bounds
    if bounds is not None and any(
        p.lattice.grid != lattice.grid for p in (bounds, bounds.A)
    ):
        # the clock's mass is read slot by slot, and on another grid a
        # slot stands for another time
        raise ValueError("growth bounds live on a different grid")
    # packed buffers: each level is written in place, and each row is
    # frozen by its process at the end
    n = level_offset(steps)
    Y = np.empty(batch + (level_offset(steps + 1),))
    Y[..., n:] = barriers.xi
    # Kminus holds the unclamped roots until the loop is done
    Z, drift, Kplus, Kminus = (np.empty(batch + (n,)) for _ in range(4))
    lows = barriers.low.values[:n]
    highs = barriers.high.values[:n]

    for j in range(steps - 1, -1, -1):
        nxt = Y[..., level_offset(j + 1) : level_offset(j + 2)]
        E = expectation_level(nxt)
        z = increment_level(nxt, lattice.sqrt_dt)
        base = E
        if driver.quad is not None:
            coef, center = driver.quad(j)
            base = base + _tilt_increment(coef, z - center, lattice.sqrt_dt)
            f_drift = driver.f_rest
        else:
            f_drift = driver.f
        if driver.source is not None:
            src = np.asarray(driver.source(j), dtype=float)
            if src.shape != E.shape:
                src = np.broadcast_to(src, E.shape)
            base = base + src
        dA = bounds.A.atom(j) if bounds is not None else None
        y_raw = _implicit_core(
            base,
            z,
            lattice.dt,
            level=j,
            f_drift=f_drift,
            g_fn=driver.g,
            dA=dA,
            penalty=driver.penalty,
        )
        level = slice(level_offset(j), level_offset(j + 1))
        np.clip(y_raw, lows[level], highs[level], out=Y[..., level])
        Z[..., level] = z
        np.subtract(y_raw, E, out=drift[..., level])
        Kminus[..., level] = y_raw

    # the projection residuals are the reflection increments
    np.subtract(lows, Kminus, out=Kplus)
    np.maximum(Kplus, 0.0, out=Kplus)
    np.subtract(Kminus, highs, out=Kminus)
    np.maximum(Kminus, 0.0, out=Kminus)
    # reflection certificates, maxima per batch entry
    y = Y[..., :n]
    fplus = _flat_off(Kplus, y - lows)
    fminus = _flat_off(Kminus, highs - y)
    defect = np.max(Kplus * Kminus, axis=-1, initial=0.0)

    return [
        Solution(
            AdaptedProcess(lattice, Y[k]),
            PredictableProcess(lattice, Z[k]),
            IncreasingProcess(lattice, Kplus[k]),
            IncreasingProcess(lattice, Kminus[k]),
            SkorokhodReport(float(fplus[k]), float(fminus[k]), float(defect[k])),
            PredictableProcess(lattice, drift[k]),
        )
        for k in np.ndindex(batch)
    ]


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
    sol_big, sol_small, driver_big, driver_small, bars_big, bars_small, tol=1e-9
):
    """Audit the ordering relations between two solves.

    The caller asserts that ``sol_big`` solves the problem meant to
    dominate.  The crossed obstacle and rate-domination hypotheses are
    audited first (report fields, not preconditions): both generators'
    per-step drifts ``f dt + g dA + source`` are evaluated at the small
    solution's realized state, never at different points.  Then the node-wise ordering of the solutions
    and of the upper reflection increments on the set where the
    effective upper obstacles agree.
    """
    lat = sol_big.lattice
    steps = lat.steps
    n = level_offset(steps)
    up_ok = not np.any(sol_small.Y.values[:n] > bars_big.U.values[:n] + tol)
    low_ok = not np.any(bars_small.L.values[:n] > sol_big.Y.values[:n] + tol)

    def rate(driver, j, y, z):
        out = np.asarray(driver.f(j, y, z), dtype=float) * lat.dt
        if driver.source is not None:
            out = out + np.asarray(driver.source(j), dtype=float)
        if driver.g is not None and driver.bounds is not None:
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
        if gap > tol:
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
        ordered=not max_order > tol,
        kminus_ok=not max_km > tol,
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
    acc = np.full(paths.shape[0], sol.Y.level(0)[0])
    for j in range(steps):
        idx = nodes[:, j]
        db = (2.0 * paths[:, j] - 1.0) * lat.sqrt_dt
        acc += (
            sol.Z.atom(j)[idx] * db
            - sol.drift.atom(j)[idx]
            - sol.Kplus.atom(j)[idx]
            + sol.Kminus.atom(j)[idx]
        )
    terminal = sol.Y.terminal()[nodes[:, steps]]
    return float(np.max(np.abs(terminal - acc)))
