"""Seeded inputs and independent reference values for the benchmark.

Everything here is built from the benchmark's own seed with numpy
only; the ``rbsdelab`` containers are filled, never asked to generate.
The references (two backward recursions, an envelope rescan and a
per-path budget) are written out again here on purpose: they must
share no code with the solver they check.
"""

import json
import math

import numpy as np

# tolerances of the reference checks
DYNKIN_TOL = 1e-12  # zero generator vs min/max recursion, as criterion 4
QUAD_TOL = 1e-10  # squared-slope generator vs closed form, criterion 5
PUT_TOL = 1e-10  # envelope vs early-exercise recursion, criterion 3
REDUCE_TOL = 1e-6  # reduction vs direct solve at the root, criterion 7
# per-path budget on sampled paths, relative to 1 + max |Y|
BUDGET_REL_TOL = 1e-11
BUDGET_PATHS = 256
CLI_TOL = 1e-12  # CLI solution columns vs the recursions below


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _walk(steps, horizon, i):
    return (2.0 * np.arange(i + 1) - i) * math.sqrt(horizon / steps)


def _band(rng, steps, horizon, atoms):
    """A smooth curve on the lattice with a band and entry constraints.

    Returns the curve levels, the node obstacles (terminal level equal
    to the curve) and ``atoms`` floor and cap constraints hugging the
    curve from inside the band, each with its clock mass.
    """
    times = np.linspace(0.0, horizon, steps + 1)
    a, b, c = rng.uniform(-0.6, 0.6, 3)
    freq = rng.uniform(0.5, 2.5)
    curve = [
        a * np.sin(freq * _walk(steps, horizon, i)) + b * _walk(steps, horizon, i)
        + c * times[i]
        for i in range(steps + 1)
    ]
    margin = rng.uniform(0.2, 0.6)
    low = [lv - margin for lv in curve[:-1]] + [curve[-1]]
    high = [lv + margin for lv in curve[:-1]] + [curve[-1]]
    floors = {}
    caps = {}
    for k in rng.choice(np.arange(1, steps + 1), size=atoms, replace=False):
        k = int(k)
        floors[k] = (curve[k - 1] - rng.uniform(0.0, 0.05, k), rng.uniform(0.5, 2.0))
    for k in rng.choice(np.arange(1, steps + 1), size=atoms, replace=False):
        k = int(k)
        caps[k] = (curve[k - 1] + rng.uniform(0.0, 0.05, k), rng.uniform(0.5, 2.0))
    return curve, low, high, floors, caps


def merged_band(low, high, floors, caps, scale=1.0):
    """Per-level merged obstacle interval of a band, levels 0..N-1."""
    lo = [scale * lv.copy() for lv in low[:-1]]
    hi = [scale * lv.copy() for lv in high[:-1]]
    for k, (vals, _) in floors.items():
        lo[k - 1] = np.maximum(lo[k - 1], scale * vals)
    for k, (vals, _) in caps.items():
        hi[k - 1] = np.minimum(hi[k - 1], scale * vals)
    return lo, hi


class DeepInputs:
    """Every input of the ``deep_solve`` cases, on one lattice."""

    def __init__(self, rb, seed, steps):
        rng = _rng(seed, 1)
        horizon = 1.0
        lat = rb.Lattice(rb.TimeGrid(horizon, steps))
        self.lattice = lat
        self.steps = steps
        curve, low, high, floors, caps = _band(rng, steps, horizon, atoms=3)
        self.xi = curve[-1]
        self.merged = merged_band(low, high, floors, caps)

        # the curve is the witness: its martingale slope and the two
        # signed parts of its one-step drift
        gamma, vplus, vminus = [], [], []
        for i in range(steps):
            up, down = curve[i + 1][1:], curve[i + 1][:-1]
            gamma.append((up - down) / (2.0 * lat.sqrt_dt))
            drift = 0.5 * (up + down) - curve[i]
            vminus.append(np.maximum(drift, 0.0))
            vplus.append(np.maximum(-drift, 0.0))
        witness = rb.SemimartingaleSpec(
            float(curve[0][0]),
            rb.IncreasingProcess(lat, vplus),
            rb.IncreasingProcess(lat, vminus),
            rb.PredictableProcess(lat, gamma),
        )
        band = (low, high, floors, caps)
        self.band = _barriers(rb, lat, band, 1.0, witness)
        self.band_1e6 = _barriers(rb, lat, band, 1e6, None)
        self.merged_1e6 = merged_band(*band, scale=1e6)

        a, b = rng.uniform(-0.5, 0.5, 2)
        c = rng.uniform(-0.3, 0.3)
        # |a y + b z + c| <= eta + C z^2 for |y| <= ymax: the reduction
        # is only valid under bounds that dominate on the obstacle range
        C = rng.uniform(0.2, 0.8)
        ymax = 1.0 + max(float(np.max(np.abs(lv))) for lv in curve)
        eta = abs(a) * ymax + abs(c) + b * b / (4.0 * C) + 0.1
        bounds = rb.GrowthBounds.constants(lat, eta=eta, C=C)
        self.linear = rb.Driver.linear(a, b, c, bounds=bounds)
        self.zero = rb.Driver.zero()
        self.quadratic = rb.Driver.quadratic(rng.uniform(0.1, 1.0))

        self.quad_c = float(rng.uniform(0.1, 2.0))
        w_end = _walk(steps, horizon, steps)
        self.xi_free = np.tanh(rng.uniform(0.5, 2.0) * w_end) + rng.uniform(-0.5, 0.5)
        self.free = rb.BarrierSet.build(lat, self.xi_free)
        self.quadratic_free = rb.Driver.quadratic(self.quad_c)

        sigma = rng.uniform(0.2, 0.5)
        strike = rng.uniform(0.8, 1.3)
        self.put = [
            np.maximum(strike - np.exp(sigma * _walk(steps, horizon, i)), 0.0)
            for i in range(steps + 1)
        ]
        self.put_instance = rb.SnellInstance(
            rb.AdaptedProcess(lat, self.put), None, None, self.put[-1]
        )
        self.budget_paths = _rng(seed, 2).integers(
            0, 2, size=(BUDGET_PATHS, steps), dtype=np.int8
        )


def _barriers(rb, lat, band, scale, witness):
    """The band as a :class:`BarrierSet`, every value multiplied by ``scale``."""
    low, high, floors, caps = band
    steps = lat.steps

    def slots(atoms, fill):
        out = [np.full(i + 1, fill) for i in range(steps)]
        for k, (vals, _) in atoms.items():
            out[k - 1] = scale * vals
        return out

    return rb.BarrierSet.build(
        lat,
        scale * high[-1],
        L=rb.AdaptedProcess(lat, [scale * lv for lv in low]),
        U=rb.AdaptedProcess(lat, [scale * lv for lv in high]),
        l=rb.PredictableProcess(lat, slots(floors, -np.inf)),
        u=rb.PredictableProcess(lat, slots(caps, np.inf)),
        delta=rb.IncreasingProcess.from_time_atoms(
            lat, {k: m for k, (_, m) in floors.items()}
        ),
        alpha=rb.IncreasingProcess.from_time_atoms(
            lat, {k: m for k, (_, m) in caps.items()}
        ),
        witness=witness,
    )


# ------------------------------------------------------------- references


def minmax_recursion(xi, low, high):
    """Zero-generator value: clamp the one-step average into [low, high]."""
    y = np.asarray(xi, dtype=float)
    levels = [y]
    for j in range(len(low) - 1, -1, -1):
        y = np.minimum(np.maximum(0.5 * (y[:-1] + y[1:]), low[j]), high[j])
        levels.append(y)
    return levels[::-1]


def exercise_recursion(payoff):
    """Early-exercise value of ``payoff``: the larger of stop and continue."""
    y = payoff[-1]
    levels = [y]
    for i in range(len(payoff) - 2, -1, -1):
        y = np.maximum(0.5 * (y[:-1] + y[1:]), payoff[i])
        levels.append(y)
    return levels[::-1]


def envelope_rescan(times, g, weights, n):
    """Envelope ``max{g(s) - n (t - s) : s <= t atom}`` recomputed per time."""
    out = np.full(times.size, -np.inf)
    atoms = np.flatnonzero(weights > 0.0)
    for k in range(times.size):
        past = atoms[atoms <= k]
        if past.size:
            if math.isinf(n):
                out[k] = g[k] if weights[k] > 0.0 else -np.inf
            else:
                out[k] = np.max(g[past] - n * (times[k] - times[past]))
    return out


def max_level_gap(Y, levels):
    return max(
        float(np.max(np.abs(Y.level(i) - levels[i]))) for i in range(len(levels))
    )


def outside_band(Y, merged):
    """Largest violation of the merged obstacle interval before the end."""
    lo, hi = merged
    return max(
        max(float(np.max(lo[i] - Y.level(i))), float(np.max(Y.level(i) - hi[i])))
        for i in range(len(lo))
    )


def sampled_budget_defect(sol, paths, sqrt_dt):
    """Per-path telescoping defect on the given 0/1 paths, relative.

    Along a path, ``Y_N - Y_0`` must equal the sum of
    ``Z db - drift - dK+ + dK-``; returns the largest absolute defect
    divided by ``1 + max |Y|`` over the path's nodes.
    """
    steps = paths.shape[1]
    node = np.zeros(paths.shape[0], dtype=np.int64)
    acc = np.full(paths.shape[0], sol.Y.level(0)[0])
    scale = np.abs(acc)
    for j in range(steps):
        up = paths[:, j]
        acc = acc + (
            sol.Z.atom(j)[node] * np.where(up == 1, sqrt_dt, -sqrt_dt)
            - sol.drift.atom(j)[node]
            - sol.Kplus.atom(j)[node]
            + sol.Kminus.atom(j)[node]
        )
        node = node + up
        scale = np.maximum(scale, np.abs(sol.Y.level(j + 1)[node]))
    defect = np.abs(sol.Y.level(steps)[node] - acc)
    return float(np.max(defect / (1.0 + scale)))


# ---------------------------------------------------------- CLI scenario


class TableScenario:
    """A deep scenario given as explicit per-node tables, plus its answers."""

    def __init__(self, seed, steps):
        rng = _rng(seed, 3)
        horizon = 1.0
        curve, low, high, floors, caps = _band(rng, steps, horizon, atoms=4)
        # the envelope command needs constant floors per time
        floors = {k: (np.full(k, float(np.min(v))), m) for k, (v, m) in floors.items()}
        caps = {k: (np.full(k, float(np.max(v))), m) for k, (v, m) in caps.items()}
        self.steps = steps
        self.times = np.linspace(0.0, horizon, steps + 1)
        self.xi = curve[-1]
        self.low, self.high = merged_band(low, high, floors, caps)
        # what the snell command enforces: the lower side only
        self.floor_low, _ = merged_band(low, high, floors, {})
        self.g = np.full(steps + 1, -np.inf)
        self.weights = np.zeros(steps + 1)
        for k, (vals, mass) in floors.items():
            self.g[k] = vals[0]
            self.weights[k] = mass
        self.doc = {
            "schema": 1,
            "seed": int(seed),
            "grid": {"T": horizon, "steps": steps},
            "barriers": {
                "L": {"kind": "table", "levels": [lv.tolist() for lv in low]},
                "U": {"kind": "table", "levels": [lv.tolist() for lv in high]},
                "l": [{"time": k, "value": float(v[0])} for k, (v, _) in sorted(floors.items())],
                "u": [{"time": k, "value": float(v[0])} for k, (v, _) in sorted(caps.items())],
            },
            "measures": {
                "delta": [{"time": k, "mass": float(m)} for k, (_, m) in sorted(floors.items())],
                "alpha": [{"time": k, "mass": float(m)} for k, (_, m) in sorted(caps.items())],
            },
            "terminal": {"kind": "table", "values": curve[-1].tolist()},
        }

    def text(self):
        return json.dumps(self.doc)

    def expected_solve(self):
        return minmax_recursion(self.xi, self.low, self.high)

    def expected_snell(self):
        inf = [np.full(i + 1, np.inf) for i in range(self.steps)]
        return minmax_recursion(self.xi, self.floor_low, inf)
