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
- ``slope``: the exact slope in ``y`` of the stepped rate (``f``, or
  ``f_rest`` under ``quad``), a number or an array like the columns of
  :meth:`Driver.linear`, for the implicit step's closed form;
- ``source``: a per-node increment independent of the unknown and of
  ``z`` (bounded variation and clock terms of the penalized equations,
  and any rate that depends on the node alone, times ``dt``);
- ``penalty``: a per-node increment, nonincreasing in the unknown, for
  constraint penalties.  A penalty may also declare its two affine
  pieces, for the closed form: a ``pieces(j)`` method giving, per node,
  the kink ``k``, weight ``w`` and side of ``side w (side (k - y))^+``.
  The penalized equations pass such a record: the predictable
  obstacles (the kinks), their clock masses, the weights and the side.

Per step from level ``j``, the drift is
``f(j, y, z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``.

Growth data consists of node-indexed processes bounding the generator
(slope-quadratic bound for ``f``, flat bound for ``g``) plus the clock.
:func:`dominate_growth` rescales raw bounds by a nondecreasing function
of the obstacles' running size (growth of any order in the unknown).
The bounds feed the dominating generator of the penalized equations,
whose drift beats every generator within them after recentering the
slope; :mod:`rbsdelab.penalize` builds it with its penalty.
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
    "GrowthBounds",
    "SemimartingaleSpec",
    "Driver",
    "dominate_growth",
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


def _as_adapted(lattice, x, name):
    """``x`` as a process on ``lattice``: a number becomes the constant
    process, and a process on another grid is rejected by ``name``."""
    if not isinstance(x, AdaptedProcess):
        return AdaptedProcess.constant(lattice, float(x))
    if x.lattice.grid != lattice.grid:
        raise ValueError(f"{name} lives on a different grid")
    return x


class GrowthBounds:
    """Node-indexed domination data for a generator.

    ``eta + C * z**2`` bounds ``|f|`` (with the first argument clamped
    between the node obstacles), ``beta`` bounds ``|g|``, and ``A`` is
    the clock ``g`` integrates against.  Every piece lives on the grid
    of ``eta``; a process on another grid is rejected by name.
    """

    __slots__ = ("lattice", "eta", "C", "beta", "A")

    def __init__(self, eta, C, beta, A=None):
        lattice = eta.lattice
        self.lattice = lattice
        self.eta = eta
        self.C = _as_adapted(lattice, C, "C")
        self.beta = _as_adapted(lattice, beta, "beta")
        if A is not None and A.lattice.grid != lattice.grid:
            # on another grid a clock slot stands for another time
            raise ValueError("A lives on a different grid")
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


def _one_step(x, down, up, sqrt_dt):
    """``(vplus, vminus, gamma)`` of the steps from the values ``x`` to
    their ``down`` and ``up`` children, split as
    :meth:`SemimartingaleSpec.from_levels` states."""
    drift = 0.5 * (down + up) - x
    return (
        np.maximum(-drift, 0.0),
        np.maximum(drift, 0.0),
        (up - down) / (2.0 * sqrt_dt),
    )


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
        vplus, vminus, gamma = _one_step(
            x[k], x[child], x[child + 1], lattice.sqrt_dt
        )
        return cls(
            float(x[0]),
            IncreasingProcess(lattice, vplus),
            IncreasingProcess(lattice, vminus),
            PredictableProcess(lattice, gamma),
        )

    @property
    def lattice(self):
        return self.gamma.lattice

    def reconstruct(self):
        """Forward-build the process ``s0 - vplus + vminus + slope part``.

        Raises :class:`InconsistentSemimartingale` when a node is
        reachable with two different values (the data does not live on
        the recombining lattice).
        """
        out = np.empty(level_offset(self.lattice.steps + 1))
        out[0] = self.s0
        self._forward(out, 0)
        return AdaptedProcess(self.lattice, out)

    def retarget(self, xi):
        """The decomposition with its last step aimed at the terminal
        values ``xi``, split as :meth:`from_levels` splits a step, and
        the process it rebuilds, which hits ``xi`` up to rounding.
        Levels ``0..N-1`` stay this decomposition's own.
        """
        lat = self.lattice
        steps = lat.steps
        S = self.reconstruct()
        prev = S.level(steps - 1)
        xi = np.asarray(xi, dtype=float)
        last = level_offset(steps - 1)
        vplus, vminus, gamma = (
            np.concatenate([proc.values[:last], slot])
            for proc, slot in zip(
                (self.vplus, self.vminus, self.gamma),
                _one_step(prev, xi[:-1], xi[1:], lat.sqrt_dt),
            )
        )
        spec = SemimartingaleSpec(
            self.s0,
            IncreasingProcess(lat, vplus),
            IncreasingProcess(lat, vminus),
            PredictableProcess(lat, gamma),
        )
        out = np.empty(level_offset(steps + 1))
        out[: level_offset(steps)] = S.values[: level_offset(steps)]
        spec._forward(out, steps - 1)
        return spec, AdaptedProcess(lat, out)

    def _forward(self, out, first):
        """Write levels ``first + 1..N`` of the forward build into the
        packed ``out``, which holds level ``first``, with the
        recombination check of :meth:`reconstruct`.  The steps' drifts
        and slope increments are formed once, for every level."""
        start = level_offset(first)
        drift = self.vminus.values[start:] - self.vplus.values[start:]
        g = self.gamma.values[start:] * self.lattice.sqrt_dt
        k = 0  # level i's first slot in drift and g
        for i in range(first, self.lattice.steps):
            end = start + i + 1
            at = slice(k, k + i + 1)
            nxt = out[end : end + i + 2]
            up = out[start:end] + drift[at]
            np.subtract(up, g[at], out=nxt[: i + 1])
            up += g[at]
            nxt[i + 1] = up[i]
            if i:
                gap = nxt[1 : i + 1] - up[:i]
                np.abs(gap, out=gap)
                top = gap.max()
                # the gap is relative to a scale of at least 1, so one
                # within the tolerance passes without the scale
                tol = _RECOMBINE_TOL
                if top > tol and top > tol * max(1.0, np.abs(nxt).max()):
                    node = int(np.argmax(gap)) + 1
                    raise InconsistentSemimartingale(i + 1, node, top)
            start, k = end, k + i + 1

    def __repr__(self):
        return (
            f"SemimartingaleSpec(s0={self.s0!r}, "
            f"steps={self.lattice.steps})"
        )


@dataclass(frozen=True)
class Driver:
    """Generator of the backward equation.

    ``f(j, y, z)`` must accept a level index and equal-shape arrays of
    shape ``batch + (nodes,)`` and return a broadcastable array, working
    elementwise; same for ``g(j, y_left, y)``.  :func:`solve_rbsde`
    passes ``(nodes,)``; :func:`reduce_and_solve` and the penalized
    ladder add leading batch axes (``(1, 2, nodes)`` for one reduction).
    Per step from level ``j`` the drift is
    ``f(j, y, z) dt + g(j, y, y) dA + source(j) + penalty(j, y)``, with
    the clock ``A`` of ``bounds``, so ``g`` needs ``bounds``.
    ``bounds`` is one :class:`GrowthBounds` or ``None``, for every row
    of a batch; anything else raises ``ValueError``.  The
    optional structural fields are described in the module docstring;
    when ``quad`` is given, ``f_rest`` must hold the remainder so that
    ``f == f_rest + q * (z - center)**2`` at every node.  A declared
    ``slope`` must be exact, or the roots are silently wrong.
    """

    f: object
    g: object = None
    bounds: object = None
    quad: object = None
    f_rest: object = None
    slope: object = None
    source: object = None
    penalty: object = None
    label: str = "custom"

    def __post_init__(self):
        if not (self.bounds is None or isinstance(self.bounds, GrowthBounds)):
            kind = type(self.bounds).__name__
            raise ValueError(f"bounds must be one GrowthBounds or None, not a {kind}")
        if self.g is not None and self.bounds is None:
            raise ValueError(
                "a driver with a clock rate g needs bounds: the clock A "
                "that g integrates against lives on the growth bounds"
            )
        if self.quad is not None and self.f_rest is None:
            raise ValueError(
                "a driver with an exact squared-slope part must also "
                "supply f_rest (the remainder of f)"
            )

    @classmethod
    def zero(cls, **kw):
        return cls(f=lambda j, y, z: np.zeros_like(y), slope=0.0, label="zero", **kw)

    @classmethod
    def constant(cls, value, **kw):
        value = float(value)
        return cls(
            f=lambda j, y, z: np.full_like(y, value),
            slope=0.0,
            label=f"constant({value!r})",
            **kw,
        )

    @classmethod
    def linear(cls, a, b, c, **kw):
        """Rate ``a*y + b*z + c``.  A coefficient is a number, or an
        array that broadcasts against the levels of a batched solve,
        such as a ``(B, 1, 1)`` column with one value per instance."""
        a, b, c = (
            float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
            for v in (a, b, c)
        )
        label = (
            f"linear({a!r},{b!r},{c!r})"
            if all(isinstance(v, float) for v in (a, b, c))
            else "linear(batched)"
        )
        return cls(f=lambda j, y, z: a * y + b * z + c, slope=a, label=label, **kw)

    @classmethod
    def quadratic(cls, c, **kw):
        """Rate ``c * z**2``, stepped exactly via its exponential average."""
        c = float(c)
        return cls(
            f=lambda j, y, z: c * z * z,
            quad=lambda level: (c, 0.0),
            f_rest=lambda j, y, z: np.zeros_like(y),
            slope=0.0,
            label=f"quadratic({c!r})",
            **kw,
        )

    def __repr__(self):
        return f"Driver({self.label})"


def _running_max(values, steps):
    """Tightest node-indexed process dominating the running maximum, of
    packed values over ``steps + 1`` levels, any leading axes a batch;
    returns a new array.

    Forward recursion: a node's value is its own sample joined with the
    values at both parents.  Along every path this dominates the
    pathwise running maximum (paths through a node may differ in their
    history, so a node-indexed majorant cannot do better) and it is
    nondecreasing along every path.
    """
    out = np.array(values, dtype=float)
    for i in range(steps):
        prev = out[..., level_offset(i) : level_offset(i + 1)]
        nxt = out[..., level_offset(i + 1) : level_offset(i + 2)]
        np.maximum(nxt[..., : i + 1], prev, out=nxt[..., : i + 1])
        np.maximum(nxt[..., 1:], prev, out=nxt[..., 1:])
    return out


def _probe_monotone(phi, samples):
    xs = np.unique(np.asarray(samples, dtype=float))
    if xs.size < 2:
        return
    vals = np.asarray(phi(xs), dtype=float)
    drops = np.where(np.diff(vals) < 0.0)[0]
    if drops.size:
        k = int(drops[0])
        raise ValueError(
            f"scaling function decreases between {xs[k]!r} and {xs[k + 1]!r}"
        )


def dominate_growth(phi, eta_tilde, C_tilde, eta_hat, L, U, A=None):
    """Rescale raw growth data by the running size of the obstacles.

    The scale process is twice the running maximum (node envelope) of
    the positive part of ``U`` plus the negative part of ``L``; the raw
    bounds are multiplied by ``phi`` of that scale, evaluated once.
    ``phi`` must be nondecreasing (probed, not proved): a decrease found
    between two probe points raises ``ValueError``.
    """
    lattice = L.lattice
    if U.lattice.grid != lattice.grid:
        raise ValueError("U lives on a different grid")
    size = 2.0 * (np.maximum(U.values, 0.0) + np.maximum(-L.values, 0.0))
    D = _running_max(size, lattice.steps)
    probe_pts = D[np.isfinite(D)]
    # realized sizes may all coincide; spread the probe over [0, max]
    if probe_pts.size:
        probe_pts = np.concatenate(
            [probe_pts, np.linspace(0.0, float(probe_pts.max()), 17)]
        )
    _probe_monotone(phi, probe_pts)

    eta_tilde = _as_adapted(lattice, eta_tilde, "eta_tilde")
    C_tilde = _as_adapted(lattice, C_tilde, "C_tilde")
    eta_hat = _as_adapted(lattice, eta_hat, "eta_hat")

    scale = np.asarray(phi(D), dtype=float)
    raw = (eta_tilde, C_tilde, eta_hat)
    return GrowthBounds(*(AdaptedProcess(lattice, scale * p.values) for p in raw), A=A)

