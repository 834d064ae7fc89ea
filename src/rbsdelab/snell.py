"""Smallest supermartingale dominating a node obstacle and a
left-limit obstacle charged by a clock.

On the lattice the envelope is the backward recursion

    Y_N = xi,    Y_j = max(E[Y_{j+1} | node], merged lower obstacle),

where the merged obstacle folds the left-limit constraint into the
level preceding each clock atom.  The recursion is deliberately
written out here rather than delegated to the general solver: the
equality of the two routes is one of the package's cross-checks, and a
shared implementation would make it vacuous.

The instance optionally carries a martingale witness dominating both
obstacles.  When present it is audited (martingale structure and
domination node by node); when absent the audit is skipped with a
warning, since the recursion itself needs no witness on a finite
lattice.
"""

import warnings

import numpy as np

from .barriers import BarrierSet, effective_barriers
from .drivers import SemimartingaleSpec
from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    expectation_level,
    increment_level,
)
from .solver import SkorokhodReport, Solution

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


class SnellInstance:
    """Obstacle data for one envelope computation.

    ``L`` acts on the solution at every node before the terminal time,
    ``l`` on its left limit wherever the clock ``delta`` charges, and
    ``xi`` closes the recursion.  ``witness``, when given, must be the
    decomposition of a martingale dominating all of it.
    """

    __slots__ = ("barriers", "witness")

    def __init__(self, L, l, delta, xi, witness=None):
        if witness is not None and not isinstance(witness, SemimartingaleSpec):
            raise TypeError("witness must be a SemimartingaleSpec")
        self.barriers = BarrierSet.build(
            L.lattice, xi, L=L, l=l, delta=delta
        )
        self.witness = witness

    @property
    def lattice(self):
        return self.barriers.lattice

    @property
    def L(self):
        return self.barriers.L

    @property
    def l(self):
        return self.barriers.l

    @property
    def delta(self):
        return self.barriers.delta

    @property
    def xi(self):
        return self.barriers.xi

    def audit(self):
        """Check the witness: a martingale above both obstacles.

        Returns the reconstructed witness process, or ``None`` (with a
        warning) when no witness was supplied.  Raises
        :class:`HypothesisAViolated` on any failure.
        """
        if self.witness is None:
            warnings.warn(
                "no martingale witness supplied; domination audit skipped",
                stacklevel=2,
            )
            return None
        spec = self.witness
        for i in range(self.lattice.steps):
            if np.any(spec.vplus.atom(i) != 0.0) or np.any(
                spec.vminus.atom(i) != 0.0
            ):
                k = int(
                    np.argmax(
                        np.abs(spec.vplus.atom(i)) + np.abs(spec.vminus.atom(i))
                    )
                )
                raise HypothesisAViolated(
                    "witness is not a martingale (bounded-variation mass)",
                    i + 1,
                    k,
                    (spec.vplus.atom(i) + spec.vminus.atom(i))[k],
                )
        M = spec.reconstruct()
        for i in range(self.lattice.steps + 1):
            gap = self.L.level(i) - M.level(i)
            k = int(np.argmax(gap))
            if gap[k] > 0.0:
                raise HypothesisAViolated(
                    "witness below the node obstacle", i, k, gap[k]
                )
        for i in range(self.lattice.steps):
            on = self.delta.support(i)
            if not on.any():
                continue
            gap = np.where(on, self.l.atom(i) - M.level(i), -np.inf)
            k = int(np.argmax(gap))
            if gap[k] > 0.0:
                raise HypothesisAViolated(
                    "witness left limit below the predictable obstacle",
                    i,
                    k,
                    gap[k],
                )
        return M

    def __repr__(self):
        w = "with witness" if self.witness is not None else "no witness"
        return f"SnellInstance(steps={self.lattice.steps}, {w})"


def snell_envelope(inst):
    """The envelope by direct backward recursion.

    Audits the witness first (or warns when there is none), then runs
    ``Y_j = max(E, merged obstacle)`` down to the root.  The upward
    reflection increment is ``(obstacle - E)^+``; the downward one and
    the realized drift are identically zero.
    """
    inst.audit()
    lat = inst.lattice
    steps = lat.steps
    bars = inst.barriers
    y_levels = [None] * (steps + 1)
    y_levels[steps] = np.asarray(bars.xi, dtype=float)
    z_slots = [None] * steps
    kp_slots = [None] * steps
    for j in range(steps - 1, -1, -1):
        nxt = y_levels[j + 1]
        E = expectation_level(nxt)
        low, _ = effective_barriers(bars, j)
        y_levels[j] = np.maximum(E, low)
        z_slots[j] = increment_level(nxt, lat.sqrt_dt)
        kp_slots[j] = np.maximum(low - E, 0.0)
    return Solution(
        Y=AdaptedProcess(lat, y_levels),
        Z=PredictableProcess(lat, z_slots),
        Kplus=IncreasingProcess(lat, kp_slots),
        Kminus=IncreasingProcess.zero(lat),
        residuals=SkorokhodReport(0.0, 0.0, 0.0),
        drift=PredictableProcess.constant(lat, 0.0),
    )
