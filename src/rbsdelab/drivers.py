"""Generators, their growth data, and the dominating generator.

A generator is a pair of rate functions of the lattice level ``j``:
``f(j, y, z)`` integrated against time, and ``g(j, y_left, y)``
integrated against an increasing clock.  A generator that needs the
time reads ``lattice.times[j]``.  Alongside the analytic form, a
generator may carry structural hints the backward solver exploits:

- ``quad``: a squared-slope component ``q * (z - center)**2``, stepped
  by its exact one-step exponential average instead of an Euler term
  (this is what makes pure squared-slope generators land on their
  log-expectation closed form to machine precision);
- ``source``: a per-node increment independent of the unknown and the
  slope (bounded variation and clock terms of the penalized equations,
  and any rate that depends on the node alone, times ``dt``);
- ``penalty``: a per-node increment, nonincreasing in the unknown, for
  constraint penalties.

Per step from level ``j``, the drift is
``f(j, y, z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``.

Growth data consists of node-indexed processes bounding the generator
(slope-quadratic bound for ``f``, flat bound for ``g``) plus the clock.
:func:`dominate_growth` rescales raw bounds by a nondecreasing function
of the obstacles' running size (growth of any order in the unknown),
and the bounds feed the construction of the dominating generator whose
drift beats every generator within them after recentering the slope.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    PredictableProcess,
    _packed,
    entry_levels,
    level_offset,
)

__all__ = [
    "InconsistentSemimartingale",
    "NonMonotonePhi",
    "GrowthBounds",
    "SemimartingaleSpec",
    "Driver",
    "dominate_growth",
    "build_dominated_driver",
]

# largest relative gap at which two routes to a node still recombine
_RECOMBINE_TOL = 1e-9


class InconsistentSemimartingale(Exception):
    """Decomposition data does not define a process on the lattice."""

    def __init__(self, level, node, gap):
        self.level = int(level)
        self.node = int(node)
        self.gap = float(gap)
        super().__init__(
            f"up and down reconstructions disagree by {self.gap!r} at "
            f"(level {self.level}, node {self.node}); the decomposition "
            f"does not recombine"
        )


class NonMonotonePhi(Exception):
    """Scaling function decreased between two probe points."""


def _as_adapted(lattice, x):
    if isinstance(x, AdaptedProcess):
        return x
    return AdaptedProcess.constant(lattice, float(x))


class GrowthBounds:
    """Node-indexed domination data for a generator.

    ``eta + C * z**2`` bounds ``|f|`` (with the first argument clamped
    between the node obstacles), ``beta`` bounds ``|g|``, and ``A`` is
    the clock ``g`` integrates against.
    """

    __slots__ = ("lattice", "eta", "C", "beta", "A")

    def __init__(self, eta, C, beta, A=None):
        lattice = eta.lattice
        self.lattice = lattice
        self.eta = eta
        self.C = _as_adapted(lattice, C)
        self.beta = _as_adapted(lattice, beta)
        self.A = A if A is not None else IncreasingProcess.zero(lattice)
        for name in ("eta", "C", "beta"):
            v = getattr(self, name).values
            bad = (v < 0.0) | ~np.isfinite(v)
            if bad.any():
                i = entry_levels(lattice.steps + 1)[np.argmax(bad)]
                raise ValueError(f"{name} must be finite and >= 0 (level {i})")

    @classmethod
    def constants(cls, lattice, eta, C, beta=0.0, A=None):
        return cls(
            AdaptedProcess.constant(lattice, eta),
            AdaptedProcess.constant(lattice, C),
            AdaptedProcess.constant(lattice, beta),
            A=A,
        )

    def __repr__(self):
        return f"GrowthBounds(steps={self.lattice.steps})"


class SemimartingaleSpec:
    """Decomposition of a candidate process: start value, two
    nondecreasing parts (added, subtracted), and the slope of its
    martingale part.

    ``reconstruct`` rebuilds the process forward and verifies that the
    up/down increments recombine, so the data actually defines a
    node-indexed process.
    """

    __slots__ = ("s0", "vplus", "vminus", "gamma")

    def __init__(self, s0, vplus, vminus, gamma):
        if not (
            isinstance(vplus, IncreasingProcess)
            and isinstance(vminus, IncreasingProcess)
            and isinstance(gamma, PredictableProcess)
        ):
            raise TypeError("vplus/vminus must be clocks, gamma predictable")
        if vplus.lattice.grid != gamma.lattice.grid or (
            vminus.lattice.grid != gamma.lattice.grid
        ):
            raise ValueError("decomposition pieces on different grids")
        self.s0 = float(s0)
        self.vplus = vplus
        self.vminus = vminus
        self.gamma = gamma

    @classmethod
    def from_levels(cls, lattice, levels):
        """Decomposition of the node-indexed process with these levels.

        ``levels[i]`` holds the ``i + 1`` node values of level ``i``;
        their packed concatenation is accepted too.  The slope is the
        children's divided difference; the one-step drift (expected
        next value minus current value) goes to ``vminus`` where
        positive and to ``vplus`` where negative.
        """
        x = _packed(levels, lattice.steps + 1, "SemimartingaleSpec")
        k = np.arange(level_offset(lattice.steps))
        child = k + entry_levels(lattice.steps) + 1  # the down child
        down, up = x[child], x[child + 1]
        drift = 0.5 * (down + up) - x[k]
        return cls(
            float(x[0]),
            IncreasingProcess(lattice, np.maximum(-drift, 0.0)),
            IncreasingProcess(lattice, np.maximum(drift, 0.0)),
            PredictableProcess(lattice, (up - down) / (2.0 * lattice.sqrt_dt)),
        )

    @property
    def lattice(self):
        return self.gamma.lattice

    def reconstruct(self, tol=_RECOMBINE_TOL):
        """Forward-build the process ``s0 - vplus + vminus + slope part``.

        Raises :class:`InconsistentSemimartingale` when a node is
        reachable with two different values (the data does not live on
        the recombining lattice).
        """
        levels = [np.array([self.s0])]
        for i in range(self.lattice.steps):
            levels.append(self._next_level(i, levels[i], tol))
        return AdaptedProcess(self.lattice, levels)

    def _next_level(self, i, cur, tol=_RECOMBINE_TOL):
        """Level ``i + 1`` of the forward build, from level ``i``'s
        values ``cur``, with the recombination check of
        :meth:`reconstruct`."""
        drift = self.vminus.atom(i) - self.vplus.atom(i)
        g = self.gamma.atom(i) * self.lattice.sqrt_dt
        down = cur + drift - g
        up = cur + drift + g
        nxt = np.empty(i + 2)
        nxt[: i + 1] = down
        nxt[i + 1] = up[i]
        gap = np.abs(nxt[1 : i + 1] - up[:i])
        if gap.size and gap.max() > tol * max(1.0, np.abs(nxt).max()):
            node = int(np.argmax(gap)) + 1
            raise InconsistentSemimartingale(i + 1, node, gap.max())
        return nxt

    def __repr__(self):
        return (
            f"SemimartingaleSpec(s0={self.s0!r}, "
            f"steps={self.lattice.steps})"
        )


@dataclass(frozen=True)
class Driver:
    """Generator of the backward equation.

    ``f(j, y, z)`` must accept a level index and equal-shape arrays and
    return a broadcastable array; same for ``g(j, y_left, y)``.  Per
    step from level ``j`` the drift is
    ``f(j, y, z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``.  The
    optional structural fields are described in the module docstring;
    when ``quad`` is given, ``f_rest`` must hold the remainder so that
    ``f == f_rest + q * (z - center)**2`` at every node.
    """

    f: object
    g: object = None
    bounds: object = None
    quad: object = None
    f_rest: object = None
    source: object = None
    penalty: object = None
    label: str = "custom"

    def __post_init__(self):
        if self.quad is not None and self.f_rest is None:
            raise ValueError(
                "a driver with an exact squared-slope part must also "
                "supply f_rest (the remainder of f)"
            )

    @classmethod
    def zero(cls, **kw):
        return cls(f=lambda j, y, z: np.zeros_like(y), label="zero", **kw)

    @classmethod
    def constant(cls, value, **kw):
        value = float(value)
        return cls(
            f=lambda j, y, z: np.full_like(y, value),
            label=f"constant({value!r})",
            **kw,
        )

    @classmethod
    def linear(cls, a, b, c, **kw):
        """Rate ``a*y + b*z + c``."""
        a, b, c = float(a), float(b), float(c)
        return cls(
            f=lambda j, y, z: a * y + b * z + c,
            label=f"linear({a!r},{b!r},{c!r})",
            **kw,
        )

    @classmethod
    def quadratic(cls, c, **kw):
        """Rate ``c * z**2``, stepped exactly via its exponential average."""
        c = float(c)
        return cls(
            f=lambda j, y, z: c * z * z,
            quad=lambda level: (c, 0.0),
            f_rest=lambda j, y, z: np.zeros_like(y),
            label=f"quadratic({c!r})",
            **kw,
        )

    def __repr__(self):
        return f"Driver({self.label})"


def _running_max_envelope(X):
    """Tightest node-indexed process dominating the running maximum.

    Forward recursion: a node's value is its own sample joined with the
    values at both parents.  Along every path this dominates the
    pathwise running maximum of ``X`` (paths through a node may differ
    in their history, so a node-indexed majorant cannot do better) and
    it is nondecreasing along every path.
    """
    levels = [X.level(0).copy()]
    for i in range(X.lattice.steps):
        prev = levels[i]
        nxt = np.asarray(X.level(i + 1), dtype=float).copy()
        nxt[: i + 1] = np.maximum(nxt[: i + 1], prev)
        nxt[1:] = np.maximum(nxt[1:], prev)
        levels.append(nxt)
    return AdaptedProcess(X.lattice, levels)


def _probe_monotone(phi, samples):
    xs = np.unique(np.asarray(samples, dtype=float))
    if xs.size < 2:
        return
    vals = np.asarray(phi(xs), dtype=float)
    drops = np.where(np.diff(vals) < 0.0)[0]
    if drops.size:
        k = int(drops[0])
        raise NonMonotonePhi(
            f"scaling function decreases between {xs[k]!r} and {xs[k + 1]!r}"
        )


def dominate_growth(phi, eta_tilde, C_tilde, eta_hat, L, U, A=None):
    """Rescale raw growth data by the running size of the obstacles.

    The scale process is twice the running maximum (node envelope) of
    the positive part of ``U`` plus the negative part of ``L``; the raw
    bounds are multiplied by ``phi`` of that scale.  ``phi`` must be
    nondecreasing (probed, not proved).
    """
    lattice = L.lattice
    size = AdaptedProcess(
        lattice,
        2.0 * (np.maximum(U.values, 0.0) + np.maximum(-L.values, 0.0)),
    )
    D = _running_max_envelope(size)
    probe_pts = D.values[np.isfinite(D.values)]
    # realized sizes may all coincide; spread the probe over [0, max]
    if probe_pts.size:
        probe_pts = np.concatenate(
            [probe_pts, np.linspace(0.0, float(probe_pts.max()), 17)]
        )
    _probe_monotone(phi, probe_pts)

    eta_tilde = _as_adapted(lattice, eta_tilde)
    C_tilde = _as_adapted(lattice, C_tilde)
    eta_hat = _as_adapted(lattice, eta_hat)

    def scaled(proc):
        return AdaptedProcess(
            lattice, np.asarray(phi(D.values), dtype=float) * proc.values
        )

    return GrowthBounds(
        scaled(eta_tilde), scaled(C_tilde), scaled(eta_hat), A=A
    )


def build_dominated_driver(bounds, spec, orientation=1):
    """Generator of the one-sided penalized equations, without the penalty.

    Drift rate ``eta + 4*C*gamma**2 + (m/2)*(z - gamma)**2`` with ``m``
    one plus eight times the running maximum (node envelope) of ``|C|``,
    plus the per-step increments of both bounded-variation parts of the
    witness and the clock term ``beta * dA``.  Only the squared-slope
    part is ``f``; the constant rate ``eta + 4*C*gamma**2`` depends on
    the node alone, so it enters ``source`` times ``dt`` with the
    increments, and ``f_rest`` is zero.  ``orientation=+1`` gives
    the downward-pushing equation solved below the upper obstacle;
    ``orientation=-1`` flips every sign for the mirror equation.  The
    squared-slope part is declared exact (see the module docstring), so
    the one-sided solves stay monotone at any step size.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    lattice = bounds.lattice
    if spec.lattice.grid != lattice.grid:
        raise ValueError("bounds and witness decomposition on different grids")
    env = _running_max_envelope(
        AdaptedProcess(lattice, np.abs(bounds.C.values))
    )
    # m >= 8*sup|C| makes (m/2)(z-g)^2 + 4*C*g^2 dominate C*z^2 pointwise
    m = AdaptedProcess(lattice, 1.0 + 8.0 * env.values)
    sgn = float(orientation)
    dt = lattice.dt

    def f(j, y, z):
        return sgn * 0.5 * m.level(j) * (z - spec.gamma.atom(j)) ** 2

    def f_rest(j, y, z):
        return np.zeros_like(y)

    def quad(level):
        return sgn * 0.5 * m.level(level), spec.gamma.atom(level)

    def source(level):
        g = spec.gamma.atom(level)
        dv = spec.vplus.atom(level) + spec.vminus.atom(level)
        rate = bounds.eta.level(level) + 4.0 * bounds.C.level(level) * g * g
        return sgn * (
            dv + bounds.beta.level(level) * bounds.A.atom(level) + rate * dt
        )

    return Driver(
        f=f,
        g=None,
        bounds=bounds,
        quad=quad,
        f_rest=f_rest,
        source=source,
        label=f"dominated(orientation={orientation:+d})",
    )
