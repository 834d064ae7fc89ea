"""Smallest supermartingale dominating a node obstacle and a
left-limit obstacle charged by a clock.

On the lattice the envelope is the backward recursion

    Y_N = xi,    Y_j = max(E[Y_{j+1} | node], merged lower obstacle),

where the merged obstacle folds the left-limit constraint into the
level preceding each clock atom.  The recursion is deliberately
written out here rather than delegated to the general solver: the
equality of the two routes is one of the package's cross-checks, and a
shared implementation would make it vacuous.

The instance's obstacle set optionally carries a martingale witness
dominating both obstacles.  When present it is audited (martingale
structure and domination node by node); when absent the audit is
skipped, since the recursion itself needs no witness on a finite
lattice.
"""

import numpy as np

from .barriers import BarrierSet
from .drivers import SemimartingaleSpec
from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    entry_levels,
    expectation_level,
    increment_level,
    level_offset,
)
from .solver import NonFiniteDriver, SkorokhodReport, Solution

__all__ = [
    "HypothesisAViolated",
    "SnellInstance",
    "snell_envelope",
]

class HypothesisAViolated(Exception):
    """The supplied witness fails the domination audit."""

    def __init__(self, what, level, node, gap):
        self.what = str(what)
        self.level = int(level)
        self.node = int(node)
        self.gap = float(gap)
        super().__init__(
            f"{self.what} at (level {self.level}, node {self.node}) "
            f"by {self.gap!r}"
        )


def _raise_first_gap(what, gap, count, shift=0):
    """Raise :class:`HypothesisAViolated` at the first of ``count``
    packed levels whose largest ``gap`` is positive, naming that
    level's largest gap and reporting packed level ``i`` as level
    ``i + shift``.  A NaN gap makes its level's maximum NaN, so the
    level passes."""
    top = np.maximum.reduceat(gap, level_offset(np.arange(count)))
    offends = top > 0.0
    if offends.any():
        i = int(np.argmax(offends))
        level = gap[level_offset(i) : level_offset(i + 1)]
        k = int(np.argmax(level))
        raise HypothesisAViolated(what, i + shift, k, level[k])


class SnellInstance:
    """Obstacle data for one envelope computation.

    ``L`` acts on the solution at every node before the terminal time,
    ``l`` on its left limit wherever the clock ``delta`` charges, and
    ``xi`` closes the recursion.  ``witness``, when given, must be the
    decomposition of a martingale dominating all of it.  Everything is
    held by one obstacle set, ``barriers``, the witness included.
    """

    __slots__ = ("barriers",)

    def __init__(self, L, l, delta, xi, witness=None):
        if witness is not None and not isinstance(witness, SemimartingaleSpec):
            raise TypeError("witness must be a SemimartingaleSpec")
        self.barriers = BarrierSet.build(
            L.lattice, xi, L=L, l=l, delta=delta, witness=witness
        )

    def audit(self):
        """Check the witness: a martingale above both obstacles.

        Returns the reconstructed witness process, or ``None`` when no
        witness was supplied.  Raises :class:`HypothesisAViolated` on
        any failure.
        """
        bars = self.barriers
        spec = bars.witness
        if spec is None:
            return None
        steps = bars.lattice.steps
        # both parts are >= 0, so their sum is positive wherever either
        # is nonzero; the mass of slot i acts at time t_{i+1}
        _raise_first_gap(
            "witness is not a martingale (bounded-variation mass)",
            spec.vplus.values + spec.vminus.values,
            steps,
            shift=1,
        )
        M = spec.reconstruct()
        _raise_first_gap(
            "witness below the node obstacle", bars.L.values - M.values, steps + 1
        )
        _raise_first_gap(
            "witness left limit below the predictable obstacle",
            np.where(
                bars.delta.values > 0.0,
                bars.l.values - M.values[: level_offset(steps)],
                -np.inf,
            ),
            steps,
        )
        return M

    def __repr__(self):
        bars = self.barriers
        w = "with witness" if bars.witness is not None else "no witness"
        return f"SnellInstance(steps={bars.lattice.steps}, {w})"


def snell_envelope(inst):
    """The envelope by direct backward recursion.

    Audits the witness first (when there is one), then runs
    ``Y_j = max(E, merged obstacle)`` down to the root.  A non-finite
    expectation or slope raises :class:`NonFiniteDriver` at its first
    node in backward order.  The upward reflection increment is
    ``(obstacle - E)^+``; the downward one and the realized drift are
    identically zero.
    """
    inst.audit()
    bars = inst.barriers
    lat = bars.lattice
    steps = lat.steps
    low = bars.low.values
    # packed buffers, each level written in place
    n = level_offset(steps)
    top = level_offset(steps + 1)
    Y = np.empty(top)
    Y[n:] = bars.xi
    E, Z = np.empty(n), np.empty(n)
    # level j spans [start, end) and level j + 1 spans [end, top)
    end = n
    for j in range(steps - 1, -1, -1):
        start = end - j - 1
        at = slice(start, end)
        nxt = Y[end:top]
        top, end = end, start
        e = expectation_level(nxt, out=E[at])
        increment_level(nxt, lat.sqrt_dt, out=Z[at])
        np.maximum(e, low[at], out=Y[at])
    # obstacles near the largest float overflow the expectation: name
    # the first non-finite node in backward order, as the solver does
    bad = ~(np.isfinite(E) & np.isfinite(Z))
    if bad.any():
        j = int(entry_levels(steps)[bad].max())
        at = slice(level_offset(j), level_offset(j + 1))
        raise NonFiniteDriver(j, np.argmax(bad[at]))
    return Solution(
        Y=AdaptedProcess(lat, Y),
        Z=PredictableProcess(lat, Z),
        Kplus=IncreasingProcess(lat, np.maximum(low[:n] - E, 0.0)),
        Kminus=IncreasingProcess.zero(lat),
        residuals=SkorokhodReport(0.0, 0.0, 0.0),
        drift=PredictableProcess.constant(lat, 0.0),
    )
