"""Penalized one-sided equations, their monotone squeeze, and the
reduction of the predictable-obstacle problem to a plain one.

The two penalized equations replace the predictable constraints by
penalty terms with weight ``n``.  Each is solved one-sided:

- the lower equation reflects on the lower node obstacle only and
  carries the downward-pushing dominating drift plus the upward penalty
  ``n (l - y)^+`` at the lower clock's atoms; its upper reflection
  process is identically zero by construction (there is no upper
  obstacle in the solve), which is the discrete face of the fact that
  the witness dominates it;
- the upper equation mirrors this below the upper node obstacle.

A weight schedule takes one backward pass per side: the weights are
a batch axis of the solve.  Containment by the witness (lower
solutions below it, upper ones above) and monotonicity in ``n`` are
then verified for every weight at once, not assumed, with a small
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

from dataclasses import replace

import numpy as np

from .barriers import BarrierSet
from .drivers import SemimartingaleSpec, build_dominated_driver
from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    level_offset,
)
from .solver import _backward, solve_rbsde

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


def _normalized_witness(spec, xi):
    """Rebuild the witness decomposition's last step to end at ``xi``.

    The last-step martingale slope becomes the slope of ``xi`` and the
    leftover one-step gap is split into the two bounded-variation
    parts, so the rebuilt process hits the terminal values (up to
    rounding) while keeping the decomposition consistent.  Its levels
    ``0..N-1`` are the witness's own, built from the same data, so
    only its last step is built.
    """
    lat = spec.lattice
    steps = lat.steps
    S = spec.reconstruct()
    prev = S.level(steps - 1)
    xi = np.asarray(xi, dtype=float)
    gap = 0.5 * (xi[1:] + xi[:-1]) - prev
    last = level_offset(steps - 1)

    def rebuilt(proc, slot):
        return np.concatenate([proc.values[:last], slot])

    spec2 = SemimartingaleSpec(
        spec.s0,
        IncreasingProcess(lat, rebuilt(spec.vplus, np.maximum(-gap, 0.0))),
        IncreasingProcess(lat, rebuilt(spec.vminus, np.maximum(gap, 0.0))),
        PredictableProcess(
            lat,
            rebuilt(spec.gamma, (xi[1:] - xi[:-1]) / (2.0 * lat.sqrt_dt)),
        ),
    )
    head = S.values[: level_offset(steps)]
    nxt = spec2._next_level(steps - 1, prev)
    return spec2, AdaptedProcess(lat, np.concatenate([head, nxt]))


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


def _solve_penalized(lattice, bounds, spec2, barriers, weights, orientation):
    """One-sided penalized solves at every weight, in one backward pass
    with the weights as batch axis (``spec2``: the normalized witness).

    ``orientation=-1`` is the lower equation of the module docstring,
    ``+1`` the upper one.
    """
    if any(n < 0 for n in weights):
        raise ValueError("penalty weight must be >= 0")
    up = orientation == -1
    side = 1.0 if up else -1.0
    signed = side * np.asarray(weights, dtype=float)[:, None]
    kink, mass = (barriers.l, barriers.delta) if up else (barriers.u, barriers.alpha)
    node = {"L": barriers.L} if up else {"U": barriers.U}

    def penalty(level, y):
        push = np.maximum(side * (kink.atom(level) - y), 0.0)
        return signed * push * mass.atom(level)

    driver = replace(
        build_dominated_driver(bounds, spec2, orientation=orientation),
        penalty=penalty,
        label=f"penalized-{'lower' if up else 'upper'}",
    )
    bars = BarrierSet.build(lattice, barriers.xi, **node)
    sols = _backward(lattice, driver, bars, (len(weights),))
    assert not any((s.Kminus if up else s.Kplus).values.any() for s in sols)
    return sols


class PenalizedFamily:
    """Monotone family of one-sided penalized solves.

    ``lower_solutions[k]`` / ``upper_solutions[k]`` correspond to
    ``n_schedule[k]``; ``Yunder`` / ``Ybar`` are the current limit
    estimates (largest weight solved).  The construction context is
    kept so the schedule can be extended in place by the squeeze;
    ``spec`` is the witness decomposition normalized to the terminal
    values, and ``witness`` the process it rebuilds.
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

    def __init__(
        self,
        lattice,
        bounds,
        spec,
        barriers,
        n_schedule,
        lower_solutions,
        upper_solutions,
        witness,
    ):
        self.lattice = lattice
        self.bounds = bounds
        self.spec = spec
        self.barriers = barriers
        self.n_schedule = list(n_schedule)
        self.lower_solutions = list(lower_solutions)
        self.upper_solutions = list(upper_solutions)
        self.witness = witness

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
        if self.n_schedule and n <= self.n_schedule[-1]:
            raise ValueError("schedule must increase")
        self._append([n])

    def _append(self, weights):
        # both sides in one pass each, then the ladder from the last rung
        args = (self.lattice, self.bounds, self.spec, self.barriers, weights)
        lows = _solve_penalized(*args, -1)
        highs = _solve_penalized(*args, 1)
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


def build_family(lattice, bounds, spec, barriers, schedule=DEFAULT_SCHEDULE):
    """Solve both penalized equations along a weight schedule, one
    backward pass per side, then verify the full ordering ladder between
    the node obstacles, the two monotone chains and the witness; a
    break raises :class:`SandwichViolation` at the first offending
    weight, then level and node.  Solver errors come before any ladder
    check, whichever weight they occur at.
    """
    schedule = [int(n) for n in schedule]
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two entries")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    spec2, S = _normalized_witness(spec, barriers.xi)
    family = PenalizedFamily(lattice, bounds, spec2, barriers, [], [], [], S)
    family._append(schedule)
    return family


def squeeze_limits(family, *, tol, n_max=2 ** 16):
    """Estimate the monotone limits along a doubling schedule.

    Returns ``(Ybar, Yunder)`` once the last consecutive sup-norm
    movement of both chains is at most ``tol``, extending the family by
    doubling up to ``n_max``.  There is no default ``tol``: a binding
    penalty moves like ``1/n``, so the reachable tolerance depends on
    the instance (the demo 02 chains still move by 8.3e-6 at n = 65,536).
    An unreachable one raises :class:`ScheduleExhausted`, and the family
    keeps every weight solved so far.
    """

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


def exact_squeeze_barriers(lattice, bounds, spec, barriers):
    """The two limits computed exactly, as hard-constraint solves.

    Per backward step, the penalized root increases to the unpenalized
    root when that already clears the constraint and to the constraint
    value otherwise; that is precisely the clamp against the merged
    obstacle.  So the limit of the lower family is the one-sided solve
    with the lower predictable obstacle enforced exactly, and the
    upper limit mirrors it.  Returns ``(Ybar, Yunder)``.
    """
    spec2, S = _normalized_witness(spec, barriers.xi)
    lower, upper = (
        solve_rbsde(
            lattice,
            build_dominated_driver(bounds, spec2, orientation=side),
            BarrierSet.build(lattice, barriers.xi, **pieces),
        )
        for side, pieces in (
            (-1, {"L": barriers.L, "l": barriers.l, "delta": barriers.delta}),
            (1, {"U": barriers.U, "u": barriers.u, "alpha": barriers.alpha}),
        )
    )
    rows = (
        ("lower limit below witness", lower.Y.values - S.values),
        ("witness below upper limit", S.values - upper.Y.values),
    )
    levels = lattice.steps + 1
    _first_break(("inf",), [(levels, [(w, g[None], _ORDER_TOL)]) for w, g in rows])
    return upper.Y, lower.Y


def reduce_and_solve(lattice, driver, barriers, agreement_tol=1e-6):
    """Solve the predictable-obstacle problem through its reduction.

    Builds the squeeze pair exactly (:func:`exact_squeeze_barriers`),
    then solves the plain two-obstacle problem between the pair with
    the original generator.  The result is cross-checked against the
    original constraints and against the direct merged-obstacle solve;
    a failed check raises :class:`ReductionDisagreement`, since it
    would mean the two routes diverged.
    """
    if driver.bounds is None:
        raise ValueError("reduction needs the generator's growth bounds")
    spec = barriers.witness
    if not isinstance(spec, SemimartingaleSpec):
        raise ValueError(
            "reduction needs a witness decomposition on the obstacle set"
        )
    Ybar, Yunder = exact_squeeze_barriers(
        lattice, driver.bounds, spec, barriers
    )
    reduced_bars = BarrierSet.build(lattice, barriers.xi, L=Yunder, U=Ybar)
    sol = solve_rbsde(lattice, driver, reduced_bars)
    n = level_offset(lattice.steps)
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
    direct = solve_rbsde(lattice, driver, barriers)
    gap = abs(sol.value() - direct.value())
    if gap > agreement_tol:
        raise ReductionDisagreement(
            f"reduction disagrees with the direct merged-obstacle solve "
            f"by {gap!r} at the root (usual cause: growth bounds that do "
            f"not dominate the generator on the obstacle range)",
            gap,
        )
    return sol
