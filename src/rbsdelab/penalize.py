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

Containment by the witness (lower solutions below it, upper ones
above) and monotonicity in ``n`` are then verified, not assumed, with
a small tolerance absorbing the rounding left in the implicit steps.
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
from .lattice import IncreasingProcess, PredictableProcess, level_offset
from .solver import solve_rbsde

__all__ = [
    "ScheduleExhausted",
    "SandwichViolation",
    "ReductionDisagreement",
    "DEFAULT_SCHEDULE",
    "PenalizedFamily",
    "solve_penalized_lower",
    "solve_penalized_upper",
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
    rounding) while keeping the decomposition consistent.
    """
    lat = spec.lattice
    steps = lat.steps
    S = spec.reconstruct()
    xi = np.asarray(xi, dtype=float)
    gap = 0.5 * (xi[1:] + xi[:-1]) - S.level(steps - 1)
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
    return spec2, spec2.reconstruct()


def _lower_penalty(l, delta, n):
    n = float(n)

    def penalty(level, y):
        mass = delta.atom(level)
        return n * np.maximum(l.atom(level) - y, 0.0) * mass

    return penalty


def _upper_penalty(u, alpha, n):
    n = float(n)

    def penalty(level, y):
        mass = alpha.atom(level)
        return -n * np.maximum(y - u.atom(level), 0.0) * mass

    return penalty


def _check_upper_dominates(Y, S, tol, what, n):
    for i in range(Y.lattice.steps + 1):
        gap = Y.level(i) - S.level(i)
        k = int(np.argmax(gap))
        if gap[k] > tol:
            raise SandwichViolation(what, n, i, k, gap[k])


def solve_penalized_lower(lattice, bounds, spec, barriers, n):
    """One lower penalized solve at penalty weight ``n``.

    Reflects on the lower node obstacle only (the upper reflection
    process is zero by construction) under the sign-flipped dominating
    drift, with the penalty pushing up at the lower clock's atoms.
    """
    if n < 0:
        raise ValueError("penalty weight must be >= 0")
    spec2, _ = _normalized_witness(spec, barriers.xi)
    driver = replace(
        build_dominated_driver(bounds, spec2, orientation=-1),
        penalty=_lower_penalty(barriers.l, barriers.delta, n),
        label=f"penalized-lower(n={n})",
    )
    bars = BarrierSet.build(lattice, barriers.xi, L=barriers.L)
    sol = solve_rbsde(lattice, driver, bars)
    assert not sol.Kminus.values.any()
    return sol


def solve_penalized_upper(lattice, bounds, spec, barriers, n):
    """Mirror image: reflect below the upper node obstacle, penalty
    pushing down at the upper clock's atoms, lower reflection zero."""
    if n < 0:
        raise ValueError("penalty weight must be >= 0")
    spec2, _ = _normalized_witness(spec, barriers.xi)
    driver = replace(
        build_dominated_driver(bounds, spec2, orientation=1),
        penalty=_upper_penalty(barriers.u, barriers.alpha, n),
        label=f"penalized-upper(n={n})",
    )
    bars = BarrierSet.build(lattice, barriers.xi, U=barriers.U)
    sol = solve_rbsde(lattice, driver, bars)
    assert not sol.Kplus.values.any()
    return sol


class PenalizedFamily:
    """Monotone family of one-sided penalized solves.

    ``lower_solutions[k]`` / ``upper_solutions[k]`` correspond to
    ``n_schedule[k]``; ``Yunder`` / ``Ybar`` are the current limit
    estimates (largest weight solved).  The construction context is
    kept so the schedule can be extended in place by the squeeze.
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
        "sandwich_tol",
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
        sandwich_tol,
    ):
        self.lattice = lattice
        self.bounds = bounds
        self.spec = spec
        self.barriers = barriers
        self.n_schedule = list(n_schedule)
        self.lower_solutions = list(lower_solutions)
        self.upper_solutions = list(upper_solutions)
        self.witness = witness
        self.sandwich_tol = float(sandwich_tol)

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
        rows = []
        for k in range(1, len(self.n_schedule)):
            lo = _sup_gap(
                self.lower_solutions[k].Y, self.lower_solutions[k - 1].Y
            )
            hi = _sup_gap(
                self.upper_solutions[k].Y, self.upper_solutions[k - 1].Y
            )
            rows.append((self.n_schedule[k], lo, hi))
        return rows

    def extend(self, n):
        """Solve both equations at one more weight and re-verify order.

        The first weight of an empty family is checked against itself.
        """
        if self.n_schedule and n <= self.n_schedule[-1]:
            raise ValueError("schedule must increase")
        low = solve_penalized_lower(
            self.lattice, self.bounds, self.spec, self.barriers, n
        )
        high = solve_penalized_upper(
            self.lattice, self.bounds, self.spec, self.barriers, n
        )
        _check_pair(
            self.lower_solutions[-1].Y if self.n_schedule else low.Y,
            low.Y,
            high.Y,
            self.upper_solutions[-1].Y if self.n_schedule else high.Y,
            self.witness,
            self.barriers,
            n,
            self.sandwich_tol,
        )
        self.n_schedule.append(n)
        self.lower_solutions.append(low)
        self.upper_solutions.append(high)

    def __repr__(self):
        return (
            f"PenalizedFamily(n={self.n_schedule!r}, "
            f"steps={self.lattice.steps})"
        )


def _sup_gap(A, B):
    return float(np.max(np.abs(A.values - B.values)))


def _check_pair(prev_low, low, high, prev_high, S, barriers, n, tol):
    """One rung of the ordering ladder:
    obstacle <= previous lower <= lower <= witness <= upper <= previous
    upper <= obstacle, everything within ``tol``."""
    steps = S.lattice.steps
    for i in range(steps + 1):
        rows = (
            ("lower solutions nondecreasing in n", prev_low.level(i), low.level(i)),
            ("lower solution below witness", low.level(i), S.level(i)),
            ("witness below upper solution", S.level(i), high.level(i)),
            ("upper solutions nonincreasing in n", high.level(i), prev_high.level(i)),
        )
        for what, a, b in rows:
            gap = a - b
            k = int(np.argmax(gap))
            if gap[k] > tol:
                raise SandwichViolation(what, n, i, k, gap[k])
    # node obstacles hold bitwise via the clamp; check anyway
    for i in range(steps):
        gap = barriers.L.level(i) - low.level(i)
        k = int(np.argmax(gap))
        if gap[k] > 0.0:
            raise SandwichViolation("lower obstacle", n, i, k, gap[k])
        gap = high.level(i) - barriers.U.level(i)
        k = int(np.argmax(gap))
        if gap[k] > 0.0:
            raise SandwichViolation("upper obstacle", n, i, k, gap[k])


def build_family(
    lattice, bounds, spec, barriers, schedule=DEFAULT_SCHEDULE, sandwich_tol=1e-9
):
    """Solve both penalized equations along a weight schedule.

    Verifies, entry by entry, the full ordering ladder between the
    node obstacles, the two monotone chains and the witness; raises
    :class:`SandwichViolation` with the first offending node.
    """
    schedule = [int(n) for n in schedule]
    if len(schedule) < 2:
        raise ValueError("schedule needs at least two entries")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    _, S = _normalized_witness(spec, barriers.xi)
    family = PenalizedFamily(
        lattice, bounds, spec, barriers, [], [], [], S, sandwich_tol
    )
    for n in schedule:
        family.extend(n)
    return family


def squeeze_limits(family, tol=1e-8, n_max=2 ** 16, strict=True):
    """Estimate the monotone limits along a doubling schedule.

    Returns ``(Ybar, Yunder, converged)`` once the last consecutive
    sup-norm movement of both chains is at most ``tol``, extending the
    family by doubling up to ``n_max``.  A binding penalty moves like
    ``1/n``, so tight tolerances are often unreachable: with ``strict``
    (the default) that raises :class:`ScheduleExhausted`, otherwise the
    current estimates are returned with ``converged=False``.
    """

    def last_gap():
        rows = family.gaps()
        n, lo, hi = rows[-1]
        return max(lo, hi)

    gap = last_gap()
    while gap > tol:
        n_next = max(2 * family.n_schedule[-1], 1)
        if n_next > n_max or n_next <= family.n_schedule[-1]:
            if strict:
                raise ScheduleExhausted(gap, family.n_schedule[-1])
            return family.Ybar, family.Yunder, False
        family.extend(n_next)
        gap = last_gap()
    return family.Ybar, family.Yunder, True


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
    low_bars = BarrierSet.build(
        lattice,
        barriers.xi,
        L=barriers.L,
        l=barriers.l,
        delta=barriers.delta,
    )
    lower = solve_rbsde(
        lattice, build_dominated_driver(bounds, spec2, orientation=-1), low_bars
    )
    high_bars = BarrierSet.build(
        lattice,
        barriers.xi,
        U=barriers.U,
        u=barriers.u,
        alpha=barriers.alpha,
    )
    upper = solve_rbsde(
        lattice, build_dominated_driver(bounds, spec2, orientation=1), high_bars
    )
    _check_upper_dominates(lower.Y, S, _ORDER_TOL, "lower limit below witness", "inf")
    _check_upper_dominates(S, upper.Y, _ORDER_TOL, "witness below upper limit", "inf")
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
