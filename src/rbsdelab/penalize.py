"""Penalized one-sided equations, their monotone squeeze, and the
reduction of the predictable-obstacle problem to a plain one.

A penalized problem is stated once: an obstacle set, which carries its
lattice and the witness decomposition, and the generator's growth
bounds.  Every entry point takes that pair and nothing beside it.

The two penalized equations replace the predictable constraints by
penalty terms with weight ``n``.  Each is solved one-sided:

- the lower equation reflects on the lower node obstacle only and
  carries the downward-pushing dominating drift plus the upward penalty
  ``n (l - y)^+`` at the lower clock's atoms; its upper reflection
  process is identically zero by construction (there is no upper
  obstacle in the solve), which is the discrete face of the fact that
  the witness dominates it;
- the upper equation mirrors this below the upper node obstacle.

Both equations along a weight schedule take one backward pass, batched
over instance, weight and side, under one dominating generator that
this module builds with its penalty.  Containment by the witness
(lower solutions below it, upper ones above) and monotonicity in ``n``
are then verified for every weight at once, not assumed, with a small
tolerance absorbing the rounding left in the implicit steps.
The squeeze estimates the two monotone limits along a doubling
schedule; since a binding penalty converges only like ``1/n``, the
squeeze honestly reports exhaustion when the requested tolerance is
out of reach.  The reduction does not take that route: the limit of
each one-sided penalized family is the solve in which its penalized
constraint is enforced exactly through the merged obstacles, so the
reduction uses those hard-constraint solves and the finite-n family
stays an exhibit of the convergence.
"""

from dataclasses import dataclass

import numpy as np

from .barriers import BarrierSet
from .drivers import Driver, GrowthBounds, SemimartingaleSpec, _running_max
from .lattice import _process_rows, _stack_rows, level_offset
from .solver import Solution, _backward, _stacked_sets

__all__ = [
    "ScheduleExhausted",
    "SandwichViolation",
    "ReductionDisagreement",
    "DEFAULT_SCHEDULE",
    "PenalizedFamily",
    "build_family",
    "squeeze_limits",
    "exact_squeeze_barriers",
    "reduce_and_solve",
]

DEFAULT_SCHEDULE = (0,) + tuple(2 ** k for k in range(17))

# slack absorbing the implicit steps' rounding in ordering checks
_ORDER_TOL = 1e-9

# side axis of the one-sided pair: the penalty pushes row 0 (the lower
# equation) up to its floor and row 1 down to its cap, the drift back
_SIDE = np.array([[1.0], [-1.0]])


class ScheduleExhausted(Exception):
    """Penalty schedule hit its cap before the squeeze converged."""

    def __init__(self, gap, n_last):
        self.gap = float(gap)
        self.n_last = int(n_last)
        super().__init__(
            f"squeeze gap {self.gap!r} still above tolerance at penalty "
            f"weight {self.n_last} (binding penalties converge like 1/n; "
            f"use the exact hard-constraint limits instead)"
        )


class ReductionDisagreement(RuntimeError):
    """The reduced solve failed a cross-check against the original
    problem; ``gap`` is the size of the failure."""

    def __init__(self, message, gap):
        super().__init__(message)
        self.gap = float(gap)


class SandwichViolation(Exception):
    """Ordering of the penalized family broke beyond tolerance."""

    def __init__(self, what, n, level, node, gap):
        self.what = str(what)
        self.n = n
        self.level = int(level)
        self.node = int(node)
        self.gap = float(gap)
        super().__init__(
            f"{self.what} violated by {self.gap!r} at (level {self.level}, "
            f"node {self.node}), penalty weight {self.n}"
        )


def _first_break(weights, groups):
    """Raise :class:`SandwichViolation` at the first ordering break.

    ``groups`` holds ``(levels, rows)`` pairs, each row a triple
    ``(what, gap, tol)`` with ``gap`` packed over ``levels`` levels,
    one line per weight.  A row breaks at a level whose largest gap
    exceeds ``tol``.  The scan goes weight by weight, then group, level
    and row, and names the level's largest gap (the first on ties).
    """
    broken, names = [], []
    for levels, rows in groups:
        starts = level_offset(np.arange(levels))
        top = [np.maximum.reduceat(g, starts, axis=-1) > tol for _, g, tol in rows]
        broken.append(np.stack(top, axis=-1).reshape(len(weights), -1))
        names += [(i, what, gap) for i in range(levels) for what, gap, _ in rows]
    broken = np.concatenate(broken, axis=1)
    if broken.any():
        w, c = divmod(int(np.argmax(broken)), broken.shape[1])
        i, what, gap = names[c]
        gap = gap[w, level_offset(i) : level_offset(i + 1)]
        k = int(np.argmax(gap))
        raise SandwichViolation(what, weights[w], i, k, gap[k])


@dataclass(frozen=True, eq=False)
class _Penalty:
    """The penalty of both one-sided equations at every weight,
    ``side * weight * mass * (side * (kink - y))^+`` per node.

    ``kinks`` and ``masses`` are the packed predictable obstacles
    (``l``, ``u``) and their clocks (``delta``, ``alpha``), side by
    side, and ``weights`` a column.  Called as ``penalty(level, y)``,
    it is a driver's penalty; :meth:`pieces` declares its two affine
    pieces for the implicit step's closed form.
    """

    kinks: np.ndarray
    masses: np.ndarray
    weights: np.ndarray
    side: np.ndarray

    def pieces(self, level):
        """Per node of ``level``: the kink, weight times mass, and side."""
        at = slice(level_offset(level), level_offset(level + 1))
        return self.kinks[..., at], self.weights * self.masses[..., at], self.side

    def __call__(self, level, y):
        k, w, side = self.pieces(level)
        return side * w * np.maximum(side * (k - y), 0.0)


def _dominated_driver(bounds, specs, penalty=None):
    """Generator of both one-sided penalized equations, with ``penalty``
    (none for the exact squeeze), for pairs ``(bounds, specs)`` of one
    depth, one per row.

    Drift rate ``eta + 4*C*gamma**2 + (m/2)*(z - gamma)**2`` with ``m``
    one plus eight times the running maximum (node envelope) of ``|C|``,
    plus the per-step increments of both bounded-variation parts of the
    witness and the clock term ``beta * dA``.  Only the squared-slope
    part is ``f``; the constant rate ``eta + 4*C*gamma**2`` depends on
    the node alone, so it enters ``source`` times ``dt`` with the
    increments, all built once as one packed node-only step, and
    ``f_rest`` is zero.  The squared-slope part is
    declared exact (see :mod:`rbsdelab.drivers`), so the one-sided
    solves stay monotone at any step size.

    Every packed part is shaped ``(B, 1, 1, nodes)`` to broadcast
    against a batch ``(B, W, 2)``: the instance, a weight (one without
    a penalty), then the side of :data:`_SIDE`, whose opposite is the
    drift's sign.  The rows' bounds are folded into ``m``, ``gamma``
    and the step, and the driver has no clock rate ``g``, so it carries
    no ``bounds`` of its own.
    """
    parts = []
    for b, s in zip(bounds, specs, strict=True):
        lattice = b.lattice
        n = level_offset(lattice.steps)
        # m >= 8*sup|C| makes (m/2)(z-g)^2 + 4*C*g^2 dominate C*z^2 pointwise
        C = b.C.values
        if C.strides == (0,):
            # a constant's running maximum is the constant
            m = np.broadcast_to(1.0 + 8.0 * abs(float(C[0])), C.shape)
        else:
            m = 1.0 + 8.0 * _running_max(np.abs(C), lattice.steps)
        g = s.gamma.values
        rate = b.eta.values[:n] + 4.0 * C[:n] * g * g
        step = s.vplus.values + s.vminus.values
        step += b.beta.values[:n] * b.A.values
        step += rate * lattice.dt
        parts.append((m, g, step))
    m, gamma, step = (
        _stack_rows(rows).reshape(len(parts), 1, 1, -1) for rows in zip(*parts)
    )
    sgn = -_SIDE
    # the signed half: sgn * 0.5 * m evaluates as half * m
    half = sgn * 0.5

    def f(j, y, z):
        at = slice(level_offset(j), level_offset(j + 1))
        return half * m[..., at] * (z - gamma[..., at]) ** 2

    def f_rest(j, y, z):
        return np.zeros_like(y)

    def quad(level):
        at = slice(level_offset(level), level_offset(level + 1))
        return half * m[..., at], gamma[..., at]

    def source(level):
        return sgn * step[..., level_offset(level) : level_offset(level + 1)]

    return Driver(
        f=f,
        quad=quad,
        f_rest=f_rest,
        slope=0.0,
        source=source,
        penalty=penalty,
        label="dominated",
    )


def _stated(bounds, barriers):
    """Check one penalized instance: raise ``ValueError`` for an
    obstacle set without a witness decomposition, for missing bounds,
    for bounds that are not one :class:`GrowthBounds`, and for bounds
    on another grid than the set."""
    if not isinstance(barriers.witness, SemimartingaleSpec):
        raise ValueError("penalization needs the obstacle set's witness decomposition")
    if bounds is None:
        raise ValueError("penalization needs the generator's growth bounds")
    if not isinstance(bounds, GrowthBounds):
        kind = type(bounds).__name__
        raise ValueError(f"growth bounds must be one GrowthBounds, not a {kind}")
    if bounds.lattice.grid != barriers.lattice.grid:
        raise ValueError("growth bounds live on a different grid")


def _one_sided_pair(families, weights=None):
    """The lower equation reflected at its lower band only and the upper
    one at its upper band only, in one backward pass.

    Without ``weights`` the bands are the merged ones (the exact
    squeeze); with them they are the node obstacles, and the predictable
    obstacles enter as penalties at every weight.  ``families`` state
    one instance each, all of one depth: the growth bounds, the
    normalized witness and the obstacle set.  The batch is the instance,
    the weight (one without weights), then the side.  Returns the lower
    and the upper solutions, each in (instance, weight) order; without
    weights, their ``Y`` processes alone.

    Each side's free band is infinite on every row, and the step keeps
    every root finite, so the reflection at that band is zero: the
    lower solutions' ``Kminus`` and the upper ones' ``Kplus`` vanish.
    """
    if weights is not None:
        weights = _weights(weights)
    sets = [family.barriers for family in families]
    names = ("low", "high") if weights is None else ("L", "U")
    lattices, xi, lo, hi = _stacked_sets(sets, names)
    penalty = None
    if weights is not None:
        # the instance leads, then a weight axis of one and the side
        kinks, masses = (
            _stack_rows(
                [np.stack([getattr(b, name).values for name in pair]) for b in sets]
            )[:, None]
            for pair in (("l", "u"), ("delta", "alpha"))
        )
        penalty = _Penalty(
            kinks=kinks,
            masses=masses,
            weights=np.asarray(weights, dtype=float)[:, None, None],
            side=_SIDE,
        )
    # each side reflects at its own band, the other band free
    low = np.full((len(sets), 1, 2, lo.shape[-1]), -np.inf)
    high = np.full_like(low, np.inf)
    low[:, 0, 0] = lo
    high[:, 0, 1] = hi
    batch = (len(sets), 1 if weights is None else len(weights), 2)
    bounds, specs = zip(*[(family.bounds, family.spec) for family in families])
    driver = _dominated_driver(bounds, specs, penalty)
    sols = _backward(
        lattices, driver, xi[:, None, None], low, high, batch, y_only=weights is None
    )
    return sols[0::2], sols[1::2]


class PenalizedFamily:
    """Monotone family of one-sided penalized solves of one problem.

    ``PenalizedFamily(bounds, barriers)`` starts an empty family of the
    obstacle set ``barriers``, whose witness decomposition it reads,
    under the growth bounds ``bounds``; :meth:`extend` adds weights.
    ``lower_solutions[k]`` / ``upper_solutions[k]`` correspond to
    ``n_schedule[k]``; ``Yunder`` / ``Ybar`` are the current limit
    estimates (largest weight solved).  ``spec`` is the witness
    decomposition normalized to the terminal values, and ``witness``
    the process it rebuilds.
    """

    __slots__ = (
        "n_schedule",
        "lower_solutions",
        "upper_solutions",
        "witness",
        "lattice",
        "bounds",
        "spec",
        "barriers",
    )

    def __init__(self, bounds, barriers):
        _stated(bounds, barriers)
        self.bounds = bounds
        self.spec, self.witness = barriers.witness.retarget(barriers.xi)
        self.lattice = barriers.lattice
        self.barriers = barriers
        self.n_schedule, self.lower_solutions, self.upper_solutions = [], [], []

    @property
    def Yunder(self):
        return self.lower_solutions[-1].Y

    @property
    def Ybar(self):
        return self.upper_solutions[-1].Y

    def gaps(self):
        """Sup-norm movement between consecutive schedule entries.

        Returns a list of ``(n, lower_gap, upper_gap)`` rows, one per
        entry after the first.
        """
        if len(self.n_schedule) < 2:
            return []
        lo, hi = (
            np.abs(np.diff(_stacked(sols), axis=0)).max(axis=1)
            for sols in (self.lower_solutions, self.upper_solutions)
        )
        return list(zip(self.n_schedule[1:], lo.tolist(), hi.tolist()))

    def extend(self, n):
        """Solve both equations at one more weight and re-verify order.

        The first weight of an empty family is checked against itself.
        """
        weights = _weights(self.n_schedule[-1:] + [n])[-1:]
        self._grow(weights, *_one_sided_pair([self], weights))

    def _grow(self, weights, lows, highs):
        """Check the ladder of the rungs solved at ``weights`` from the
        last rung (an empty family's first rung against itself), then
        append them."""
        _check_ladder(
            (self.lower_solutions[-1:] or lows[:1]) + lows,
            (self.upper_solutions[-1:] or highs[:1]) + highs,
            self.witness,
            self.barriers,
            weights,
        )
        self.n_schedule += weights
        self.lower_solutions += lows
        self.upper_solutions += highs

    def __repr__(self):
        return (
            f"PenalizedFamily(n={self.n_schedule!r}, "
            f"steps={self.lattice.steps})"
        )


def _stacked(sols):
    """The solutions' ``Y`` as rows of one array."""
    return np.stack([s.Y.values for s in sols])


def _check_ladder(lows, highs, S, barriers, weights):
    """Ordering ladder of every rung: obstacle <= previous lower <= lower
    <= witness <= upper <= previous upper <= obstacle, the chains
    within ``_ORDER_TOL`` (the clamp makes the node obstacles exact;
    checked anyway).
    ``lows[k + 1]`` / ``highs[k + 1]`` solve at ``weights[k]``, above
    the rung ``lows[0]`` / ``highs[0]``."""
    lo, hi = _stacked(lows), _stacked(highs)
    steps = S.lattice.steps
    n = level_offset(steps)
    chains = (
        ("lower solutions nondecreasing in n", lo[:-1] - lo[1:], _ORDER_TOL),
        ("lower solution below witness", lo[1:] - S.values, _ORDER_TOL),
        ("witness below upper solution", S.values - hi[1:], _ORDER_TOL),
        ("upper solutions nonincreasing in n", hi[1:] - hi[:-1], _ORDER_TOL),
    )
    obstacles = (
        ("lower obstacle", barriers.L.values[:n] - lo[1:, :n], 0.0),
        ("upper obstacle", hi[1:, :n] - barriers.U.values[:n], 0.0),
    )
    _first_break(weights, ((steps + 1, chains), (steps, obstacles)))


def build_family(bounds, barriers, schedule=DEFAULT_SCHEDULE):
    """Solve both penalized equations of the obstacle set ``barriers``,
    under the growth bounds ``bounds``, along a weight schedule, in one
    backward pass, then verify the full ordering ladder between
    the node obstacles, the two monotone chains and the witness; a
    break raises :class:`SandwichViolation` at the first offending
    weight, then level and node.  Solver errors come before any ladder
    check, whichever weight they occur at.
    """
    ((family, rungs),) = _families([(bounds, barriers)], schedule)
    family._grow(*rungs)
    return family


def _families(instances, schedule):
    """:func:`build_family` of instances ``(bounds, barriers)`` of one
    depth, every rung of every instance in one backward pass, with each
    ladder left to check.  Returns one ``(family, rungs)`` pair per
    instance: an empty family and its solved rungs, which
    ``family._grow(*rungs)`` checks and appends.
    """
    schedule = _schedule(schedule)
    families = [PenalizedFamily(bounds, barriers) for bounds, barriers in instances]
    lows, highs = _one_sided_pair(families, schedule)
    w = len(schedule)
    return [
        (family, (schedule, lows[k * w : (k + 1) * w], highs[k * w : (k + 1) * w]))
        for k, family in enumerate(families)
    ]


def _weights(weights):
    """Penalty weights as a list of ints, each a Python or numpy integer
    (a bool is not one) and >= 0, strictly increasing; raises
    ``ValueError`` naming the first weight that breaks the rule."""
    checked = []
    for n in weights:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(
                f"penalty weight {n} is a {type(n).__name__}, not an integer"
            )
        if n < 0:
            raise ValueError(f"penalty weight must be >= 0, got {n}")
        if checked and n <= checked[-1]:
            raise ValueError(
                f"penalty weights must be strictly increasing, got {n} "
                f"after {checked[-1]}"
            )
        checked.append(int(n))
    return checked


def _schedule(schedule, cap=None):
    """A family's weight schedule: :func:`_weights` of ``schedule``, cut
    to the weights at most ``cap`` when one is given.  A family needs
    at least two weights; fewer raise ``ValueError``."""
    weights = _weights(schedule)
    if cap is not None:
        weights = [n for n in weights if n <= cap]
    if len(weights) < 2:
        kept = "" if cap is None else f" of those at most {cap}"
        raise ValueError(f"a family needs at least two weights, got {weights}{kept}")
    return weights


def squeeze_limits(family, *, tol, n_max=2 ** 16):
    """Estimate the monotone limits along a doubling schedule.

    Returns ``(Ybar, Yunder)`` once the last consecutive sup-norm
    movement of both chains is at most ``tol``, extending the family by
    doubling up to ``n_max``; a movement needs two weights solved.
    There is no default ``tol``: a binding penalty moves like ``1/n``,
    so the reachable tolerance depends on the instance (the demo 02
    chains still move by 8.3e-6 at n = 65,536).  An unreachable one
    raises :class:`ScheduleExhausted`, and the family keeps every
    weight solved so far.
    """
    if len(family.n_schedule) < 2:
        raise ValueError("the squeeze needs a family of two weights at least")

    def last_gap():
        rows = family.gaps()
        n, lo, hi = rows[-1]
        return max(lo, hi)

    gap = last_gap()
    while gap > tol:
        n_next = max(2 * family.n_schedule[-1], 1)
        if n_next > n_max:
            raise ScheduleExhausted(gap, family.n_schedule[-1])
        family.extend(n_next)
        gap = last_gap()
    return family.Ybar, family.Yunder


def exact_squeeze_barriers(bounds, barriers):
    """The two limits of the penalized family of ``(bounds, barriers)``
    computed exactly, as hard-constraint solves.

    Per backward step, the penalized root increases to the unpenalized
    root when that already clears the constraint and to the constraint
    value otherwise; that is precisely the clamp against the merged
    obstacle.  So the limit of the lower family is the one-sided solve
    with the lower predictable obstacle enforced exactly, and the
    upper limit mirrors it.  Returns ``(Ybar, Yunder)``.
    """
    return _exact_limits([PenalizedFamily(bounds, barriers)])[0]


def _exact_limits(families):
    """:func:`exact_squeeze_barriers` of empty families of one depth, in
    one backward pass, which builds their ``Y`` alone; one ``(Ybar,
    Yunder)`` pair per family."""
    lows, highs = _one_sided_pair(families)
    limits = []
    for family, lower, upper in zip(families, lows, highs):
        S = family.witness
        rows = (
            ("lower limit below witness", lower.values - S.values),
            ("witness below upper limit", S.values - upper.values),
        )
        levels = S.lattice.steps + 1
        _first_break(
            ("inf",), [(levels, [(w, g[None], _ORDER_TOL)]) for w, g in rows]
        )
        limits.append((upper, lower))
    return limits


def reduce_and_solve(lattice, driver, barriers, agreement_tol=1e-6):
    """Solve the predictable-obstacle problem through its reduction.

    Builds the squeeze pair exactly (:func:`exact_squeeze_barriers`
    under the driver's growth bounds), then solves the plain
    two-obstacle problem between the pair with the original generator.
    The result is cross-checked against the original constraints and
    against the direct merged-obstacle solve; a failed check raises
    :class:`ReductionDisagreement`, since it would mean the two routes
    diverged.  The returned solution owns its memory: it is copied out
    of the pass that solved it beside the direct problem.
    """
    if barriers.lattice.grid != lattice.grid:
        raise ValueError("obstacles live on a different grid")
    ((sol, direct),) = _reduce_pass(driver, [barriers], [driver.bounds])
    _check_reduction(sol, direct, barriers, agreement_tol)
    parts = [
        (type(p), p.values.copy())
        for p in (sol.Y, sol.Z, sol.Kplus, sol.Kminus, sol.drift)
    ]
    ((Y, Z, Kplus, Kminus, drift),) = _process_rows([sol.lattice], parts)
    return Solution(Y, Z, Kplus, Kminus, sol.residuals, drift)


def _reduce_pass(driver, sets, bounds):
    """The reduced and the direct solve of obstacle sets of one depth,
    one instance per row, unchecked.

    ``driver`` is batched over the rows; ``bounds`` holds one
    :class:`GrowthBounds` per set, under which the squeeze builds that
    set's pair.  After the squeeze's pass, one pass holds the reduced
    problem and the direct one as the last batch axis.  Returns one
    ``(reduced, direct)`` pair per instance.
    """
    families = [
        PenalizedFamily(b, bars) for b, bars in zip(bounds, sets, strict=True)
    ]
    limits = _exact_limits(families)
    del families
    # the reduced problem and the direct one of every row; the reduced
    # obstacle sets live only until their bands are stacked
    _, xi, low, high = _stacked_sets(
        [
            s
            for bars, (Ybar, Yunder) in zip(sets, limits)
            for s in (BarrierSet.build(bars.lattice, bars.xi, L=Yunder, U=Ybar), bars)
        ]
    )
    del limits
    batch = (len(sets), 2)
    xi, low, high = (a.reshape(batch + (-1,)) for a in (xi, low, high))
    sols = _backward([s.lattice for s in sets], driver, xi, low, high, batch)
    return list(zip(sols[0::2], sols[1::2]))


def _check_reduction(sol, direct, barriers, agreement_tol):
    """Raise :class:`ReductionDisagreement` where the reduced solve
    ``sol`` leaves the original obstacles, or where its root value and
    the direct solve's differ by more than ``agreement_tol``."""
    n = level_offset(barriers.lattice.steps)
    y = sol.Y.values[:n]
    excursion = max(
        0.0,
        float(np.max(barriers.low.values[:n] - y)),
        float(np.max(y - barriers.high.values[:n])),
    )
    if excursion > 0.0:
        raise ReductionDisagreement(
            f"reduced solve leaves the original obstacles by {excursion!r}",
            excursion,
        )
    gap = abs(sol.value() - direct.value())
    if gap > agreement_tol:
        raise ReductionDisagreement(
            f"reduction disagrees with the direct merged-obstacle solve "
            f"by {gap!r} at the root (usual cause: growth bounds that do "
            f"not dominate the generator on the obstacle range)",
            gap,
        )
