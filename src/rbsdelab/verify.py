"""Randomized verification suites against the independent oracles.

Every suite draws reproducible random instances, runs the production
route and the matching oracle route, and returns a plain report dict
with the case count, the failure count, the worst observed error and
the tolerance it was held to.  Each solving suite records its backward
solves in the :class:`CertificateLog` it is given; :func:`run_all`
shares one log across the whole run, so the certificate report covers
every solve rather than a private batch.

Each suite's signature defaults are the package's acceptance gate.
The tolerances are fixed module constants, which no caller overrides;
:func:`run_all` forwards only the sizes it is given, so the command
line can run cheaper or deeper sweeps of the same checks.
"""

import zlib

import numpy as np

from .barriers import (
    BarrierSet,
    check_left_constraint,
    envelope_profile,
    envelope_star_profile,
)
from .drivers import Driver, GrowthBounds, SemimartingaleSpec
from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    _walk_and_times,
    all_paths,
    level_offset,
    path_nodes,
)
from .oracle import (
    NoValue,
    envelope_brute_force,
    exhaustive_dynkin_value,
    exhaustive_stopping_value,
    quadratic_closed_form,
)
from .penalize import (
    _ORDER_TOL,
    _REDUCTION_TOL,
    DEFAULT_SCHEDULE,
    ReductionDisagreement,
    SandwichViolation,
    _check_reduction,
    _families,
    _reduce_pass,
    _schedule,
)
from .snell import SnellInstance, snell_envelope
from .solver import (
    _COMPARISON_TOL,
    _backward,
    _stacked_sets,
    budget_defect,
    comparison_check,
    solve_rbsde,
)

__all__ = [
    "CertificateLog",
    "random_witness_instance",
    "verify_envelope",
    "verify_constraint_equivalence",
    "verify_snell",
    "verify_dynkin",
    "verify_quadratic",
    "verify_sandwich",
    "verify_reduction",
    "certificate_report",
    "verify_comparison",
    "verify_budget",
    "run_all",
]

# sizes and tolerances of the gate that no caller varies
_ENVELOPE_POINTS = 200
_ENVELOPE_ULPS = 4.0
_STOPPING_TOL = 1e-12
_STRIKE_TOL = 1e-10  # the strike recursion of criterion 3
_GAME_TOL = 1e-12
_CLOSED_FORM_TOL = 1e-10
_CERTIFICATE_TOL = 1e-12
_BUDGET_TOL = 1e-10
_ENVELOPE_WINDOW = 250  # profiles drawn before one is checked
_ENVELOPE_BLOCK = 2 ** 18  # rows x padded points squared checked at once
_EQUIVALENCE_CHUNK = 2 ** 14  # row x path x level entries checked at once
_ORACLE_MAX_DEPTH = 4  # the exhaustive oracles enumerate every path
_PUT_DEPTHS = range(3, 13)
_QUAD_DEPTHS = range(4, 11)
_QUAD_CURVATURES = (0.1, 0.5, 2.0)
_BUDGET_CASES = 18
_BUDGET_DEPTH = 12


class CertificateLog:
    """Running maxima of the reflection certificates across solves."""

    __slots__ = ("flat_off_plus", "flat_off_minus", "singularity_defect", "solves")

    def __init__(self):
        self.flat_off_plus = 0.0
        self.flat_off_minus = 0.0
        self.singularity_defect = 0.0
        self.solves = 0

    def add(self, sol):
        r = sol.residuals
        self.flat_off_plus = max(self.flat_off_plus, r.flat_off_plus)
        self.flat_off_minus = max(self.flat_off_minus, r.flat_off_minus)
        self.singularity_defect = max(
            self.singularity_defect, r.singularity_defect
        )
        self.solves += 1
        return sol

    def worst(self):
        return max(
            self.flat_off_plus, self.flat_off_minus, self.singularity_defect
        )


class _Tally:
    """Cases, failures and the worst error of one check held to ``tol``."""

    __slots__ = ("tol", "cases", "failures", "worst")

    def __init__(self, tol):
        self.tol = tol
        self.cases = 0
        self.failures = 0
        self.worst = 0.0

    def add(self, err, ok=None):
        """One case: it fails when ``err`` exceeds the tolerance or,
        if ``ok`` is given, when ``ok`` is false."""
        self.cases += 1
        self.worst = max(self.worst, err)
        if not (err <= self.tol if ok is None else ok):
            self.failures += 1


def _rng(seed, salt):
    return np.random.default_rng((int(seed), zlib.crc32(salt.encode())))


def _report(criterion, name, *tallies, **extra):
    failures = sum(t.failures for t in tallies)
    max_err = float(max(t.worst for t in tallies))
    tol = float(max(t.tol for t in tallies))
    return {
        "criterion": criterion,
        "name": name,
        "cases": sum(t.cases for t in tallies),
        "failures": failures,
        "max_err": max_err,
        "tol": tol,
        "passed": failures == 0 and max_err <= tol,
        **extra,
    }


# ---------------------------------------------------------------- instances


def _random_profile(rng, max_points):
    n_pts = int(rng.integers(2, max_points + 1))
    times = np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.01, 1.0, n_pts - 1))]
    )
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    g = rng.normal(0.0, scale, n_pts)
    g[rng.random(n_pts) < 0.05] = -np.inf
    w = np.where(rng.random(n_pts) < 0.45, rng.exponential(1.0, n_pts), 0.0)
    weight = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-2.0, 4.0)
    return times, g, w, weight


def _random_lattice(rng, max_depth, min_depth=1):
    steps = int(rng.integers(min_depth, max_depth + 1))
    horizon = float(rng.uniform(0.5, 2.0))
    return Lattice(TimeGrid(horizon, steps))


def random_witness_instance(rng, steps, tight=True):
    """Obstacle set built around an explicit node-indexed candidate.

    The candidate is a smooth function of time and the walk, decomposed
    into its martingale slope and signed drift parts; obstacles are
    placed around it with random margins, and the predictable obstacles
    are pinned to it (``tight``) or padded off it.  Returns the growth
    bounds and the obstacle set, which carries its lattice and the
    candidate's decomposition as its witness.
    """
    lat = Lattice(TimeGrid(float(rng.uniform(0.5, 1.5)), steps))
    a, b, c = rng.uniform(-0.6, 0.6, 3)
    freq = rng.uniform(0.5, 2.5)
    w, t = _walk_and_times(lat)
    S = a * np.sin(freq * w) + b * w + c * t
    spec = SemimartingaleSpec.from_levels(lat, S)
    margin = rng.uniform(0.2, 0.6)
    pad = 0.0 if tight else margin + 0.2
    k_low = int(rng.integers(1, steps + 1))
    k_high = int(rng.integers(1, steps + 1))
    delta = IncreasingProcess.from_time_atoms(
        lat, {k_low: float(rng.uniform(0.5, 2.0))}
    )
    low = (
        S[level_offset(k_low - 1) : level_offset(k_low)]
        - pad
        - rng.uniform(0.0, 0.05, k_low)
    )
    alpha = IncreasingProcess.from_time_atoms(
        lat, {k_high: float(rng.uniform(0.5, 2.0))}
    )
    high = (
        S[level_offset(k_high - 1) : level_offset(k_high)]
        + pad
        + rng.uniform(0.0, 0.05, k_high)
    )
    # the node obstacles take the candidate's terminal values from build
    bars = BarrierSet.build(
        lat,
        S[level_offset(steps) :],
        L=AdaptedProcess(lat, S - margin),
        U=AdaptedProcess(lat, S + margin),
        l=PredictableProcess.from_time_values(lat, {k_low: low}),
        u=PredictableProcess.from_time_values(lat, {k_high: high}, fill=np.inf),
        delta=delta,
        alpha=alpha,
        witness=spec,
    )
    bounds = GrowthBounds.constants(
        lat, eta=float(rng.uniform(0.1, 0.5)), C=float(rng.uniform(0.1, 0.8))
    )
    return bounds, bars


def _random_band(rng, lat, gap_low, gap_high):
    """Feasible node obstacles around a random smooth curve; the gaps
    are packed over levels 0..N-1."""
    a, b = rng.uniform(-0.8, 0.8, 2)
    w, t = _walk_and_times(lat)
    S = a * np.sin(2.0 * w) + b * t
    n = level_offset(lat.steps)
    xi = S[n:]
    return BarrierSet.build(
        lat,
        xi,
        L=AdaptedProcess(lat, np.concatenate([S[:n] - gap_low, xi])),
        U=AdaptedProcess(lat, np.concatenate([S[:n] + gap_high, xi])),
    )


# ------------------------------------------------------------------ suites


def _max_ulp(a, b, real):
    """Worst distance in units of spacing over the ``real`` points of
    each row; inf for a row with a mismatch involving an infinity."""
    same = a == b
    finite = np.isfinite(a) & np.isfinite(b)
    with np.errstate(invalid="ignore"):
        ulp = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    worst = np.where(same | ~finite | ~real, 0.0, ulp).max(axis=-1, initial=0.0)
    return np.where(np.any(~same & ~finite & real, axis=-1), np.inf, worst)


def _length_blocks(profiles):
    """Indices of ``profiles`` in blocks of similar length: sorted by
    length, each block as many as ``_ENVELOPE_BLOCK`` allows when padded
    to its longest."""
    lengths = np.array([times.size for times, *_ in profiles])
    order = np.argsort(lengths, kind="stable")
    blocks, start = [], 0
    for end, k in enumerate(order):
        if end > start and (end + 1 - start) * lengths[k] ** 2 > _ENVELOPE_BLOCK:
            blocks.append(order[start:end])
            start = end
    return blocks + [order[start:]]


def _padded(profiles):
    """Profiles as rows of their longest one's length: each row padded
    at the end with later non-atoms (a unit apart, ``g = -inf``, no
    mass), which cannot change the envelope at a real point.  Returns
    the rows of times, ``g`` and masses, the penalty weights, and the
    mask of real points."""
    lengths = np.array([times.size for times, *_ in profiles])
    k = np.arange(lengths.max())
    real = k < lengths[:, None]
    times, w = np.zeros(real.shape), np.zeros(real.shape)
    g = np.full(real.shape, -np.inf)
    for rows, part in zip((times, g, w), zip(*profiles)):
        rows[real] = np.concatenate(part)
    last = times[np.arange(len(profiles)), lengths - 1]
    times[~real] = (last[:, None] + (k + 1 - lengths[:, None]))[~real]
    return times, g, w, np.array([p[3] for p in profiles]), real


def verify_envelope(cases=1000, seed=7):
    """Criterion 1: the one-scan envelope against the quadratic rescan.
    Profiles are drawn in windows; each window is sorted by length and
    checked block by block as padded rows, and the errors are tallied
    in the order drawn."""
    rng = _rng(seed, "envelope")
    tally = _Tally(_ENVELOPE_ULPS)
    for lo in range(0, cases, _ENVELOPE_WINDOW):
        window = [
            _random_profile(rng, _ENVELOPE_POINTS)
            for _ in range(min(_ENVELOPE_WINDOW, cases - lo))
        ]
        err = np.empty(len(window))
        for block in _length_blocks(window):
            times, g, w, n, real = _padded([window[k] for k in block])
            prof = envelope_profile(times, g, w, n)
            values, left = envelope_brute_force(times, g, w, n)
            err[block] = np.maximum(
                _max_ulp(prof.values, values, real),
                _max_ulp(prof.left_limit_values, left, real),
            )
        for e in err.tolist():
            tally.add(e)
    return _report(1, "envelope scan vs quadratic rescan", tally)


def verify_constraint_equivalence(cases=1000, max_depth=8, seed=7):
    """Criterion 2: the node-wise left-limit test, the per-path atom
    enumeration, and the pointwise hard-envelope test must all agree,
    in both directions, on every instance.  Every instance is drawn
    first; the instances of one depth are then checked as rows, a
    chunk at a time, and tallied in the order drawn."""
    rng = _rng(seed, "equivalence")
    drawn = []
    for _ in range(cases):
        lat = _random_lattice(rng, max_depth)
        steps = lat.steps
        n = level_offset(steps)
        Y = AdaptedProcess(lat, rng.normal(0.0, 1.0, level_offset(steps + 1)))
        g = PredictableProcess(lat, Y.values[:n] + rng.normal(0.0, 0.3, n))
        rho = IncreasingProcess(
            lat,
            [
                np.where(
                    rng.random(i + 1) < 0.5,
                    rng.exponential(1.0, i + 1),
                    0.0,
                )
                for i in range(steps)
            ],
        )
        drawn.append((Y, g, rho))

    agree = np.empty(cases, dtype=bool)
    for depth in sorted({Y.lattice.steps for Y, _, _ in drawn}):
        rows = [k for k, (Y, *_) in enumerate(drawn) if Y.lattice.steps == depth]
        # the packed entries every path visits before the horizon
        nodes = path_nodes(all_paths(depth))[:, :depth]
        flat = level_offset(np.arange(depth)) + nodes
        size = max(1, _EQUIVALENCE_CHUNK // flat.size)
        for lo in range(0, len(rows), size):
            chunk = rows[lo : lo + size]
            Ys, gs, rhos = zip(*(drawn[k] for k in chunk))
            nodewise = check_left_constraint(Ys, gs, rhos)

            g_paths, w_paths, left_limits = (
                np.stack([p.values for p in part])[:, flat]
                for part in (gs, rhos, Ys)
            )
            # atoms of the clock along every path, tested directly
            on = w_paths > 0.0
            per_path = ~np.any((g_paths > left_limits) & on, axis=(1, 2))
            # the same constraint through the hard envelope of every
            # path, tested at every time (it is -inf off the support)
            head = np.zeros(g_paths.shape[:-1] + (1,))
            star = envelope_star_profile(
                np.stack([Y.lattice.times for Y in Ys])[:, None],
                np.concatenate([head - np.inf, g_paths], axis=-1),
                np.concatenate([head, w_paths], axis=-1),
            )
            pointwise = ~np.any(star.values[..., 1:] > left_limits, axis=(1, 2))
            agree[chunk] = (nodewise == per_path) & (per_path == pointwise)
    tally = _Tally(0.0)
    for ok in agree.tolist():
        tally.add(0.0 if ok else 1.0)
    return _report(2, "left-limit constraint equivalence", tally)


def verify_snell(cases=100, max_depth=4, seed=7, *, log):
    """Criterion 3: envelope root value vs exhaustive stopping, and the
    early-exercise recursion on strike payoffs."""
    rng = _rng(seed, "snell")
    stopping = _Tally(_STOPPING_TOL)
    for _ in range(cases):
        lat = _random_lattice(rng, min(max_depth, _ORACLE_MAX_DEPTH))
        steps = lat.steps
        L = AdaptedProcess(lat, rng.uniform(-1.0, 1.0, level_offset(steps + 1)))
        xi = rng.uniform(-1.0, 1.0, steps + 1)
        top = max(float(np.max(L.values)), float(np.max(xi)))
        witness = SemimartingaleSpec(
            top,
            IncreasingProcess.zero(lat),
            IncreasingProcess.zero(lat),
            PredictableProcess.constant(lat, 0.0),
        )
        inst = SnellInstance(L, None, None, xi, witness=witness)
        sol = log.add(snell_envelope(inst))
        stopping.add(abs(sol.value() - exhaustive_stopping_value(L, xi)))

    recursion = _Tally(_STRIKE_TOL)
    for steps in _PUT_DEPTHS:
        lat = Lattice(TimeGrid(1.0, steps))
        strike = float(rng.uniform(0.8, 1.3))
        walk, _ = _walk_and_times(lat)
        L = AdaptedProcess(lat, np.maximum(strike - np.exp(walk), 0.0))
        sol = log.add(snell_envelope(SnellInstance(L, None, None, L.terminal())))
        v = L.terminal()
        for i in range(steps - 1, -1, -1):
            v = np.maximum(0.5 * (v[:-1] + v[1:]), L.level(i))
        recursion.add(abs(sol.value() - float(v[0])))
    return _report(
        3,
        "envelope vs exhaustive stopping and strike recursion",
        stopping,
        recursion,
        stopping_max_err=stopping.worst,
        recursion_max_err=recursion.worst,
    )


def verify_dynkin(cases=100, max_depth=4, seed=7, *, log):
    """Criterion 4: the driverless double-obstacle solve against the
    enumerated two-player game.  A game without a value is a failure,
    its error the gap between the two one-sided optima, and is not
    solved.  Every game is drawn and enumerated first; the games of one
    depth with a value are then solved in one backward pass, and all
    are checked in the order drawn."""
    rng = _rng(seed, "dynkin")
    tally = _Tally(_GAME_TOL)
    games = []
    for _ in range(cases):
        lat = _random_lattice(rng, min(max_depth, _ORACLE_MAX_DEPTH))
        steps = lat.steps
        lo = rng.uniform(-1.0, 1.0, level_offset(steps + 1))
        gaps = [
            np.where(
                rng.random(i + 1) < 0.25,
                0.0,
                rng.uniform(0.0, 0.8, i + 1),
            )
            for i in range(steps + 1)
        ]
        xi = rng.uniform(-1.0, 1.0, steps + 1)
        L = AdaptedProcess(lat, lo)
        U = AdaptedProcess(lat, lo + np.concatenate(gaps))
        try:
            reference = exhaustive_dynkin_value(L, U, xi)
        except NoValue as exc:
            games.append((None, abs(exc.maxmin - exc.minmax)))
            continue
        games.append((BarrierSet.build(lat, xi, L=L, U=U), reference))

    sols = [None] * len(games)
    valued = [k for k, (bars, _) in enumerate(games) if bars is not None]
    for depth in sorted({games[k][0].lattice.steps for k in valued}):
        rows = [k for k in valued if games[k][0].lattice.steps == depth]
        lats, xi, low, high = _stacked_sets([games[k][0] for k in rows])
        out = _backward(lats, Driver.zero(), xi, low, high, (len(rows),))
        for k, sol in zip(rows, out):
            sols[k] = sol

    for (_, reference), sol in zip(games, sols):
        if sol is None:
            # the reference is the gap of a game without a value
            tally.add(reference, ok=False)
        else:
            tally.add(abs(log.add(sol).value() - reference))
    return _report(4, "two-player stopping game identification", tally)


def verify_quadratic(seed=7, *, log):
    """Criterion 5: squared-slope drivers against the exponential
    closed form."""
    rng = _rng(seed, "quadratic")
    tally = _Tally(_CLOSED_FORM_TOL)
    for steps in _QUAD_DEPTHS:
        lat = Lattice(TimeGrid(1.0, steps))
        a = float(rng.uniform(0.5, 2.0))
        xi = np.tanh(a * lat.brownian(steps)) + float(rng.uniform(-0.5, 0.5))
        bars = BarrierSet.build(lat, xi)
        for c in _QUAD_CURVATURES:
            sol = log.add(solve_rbsde(lat, Driver.quadratic(c), bars))
            tally.add(abs(sol.value() - quadratic_closed_form(c, xi)))
    return _report(5, "squared-slope driver closed form", tally)


def verify_sandwich(
    cases=100, max_depth=6, seed=7, schedule=DEFAULT_SCHEDULE, *, log
):
    """Criterion 6: the full penalized ordering ladder over the weight
    schedule, on random witness-first instances of depth 3 at least.
    Every instance is drawn first; the instances of one depth are then
    solved in one backward pass, and each ladder is checked and logged
    before the next depth is solved."""
    rng = _rng(seed, "sandwich")
    tally = _Tally(0.0)
    solved = 0
    drawn = []
    for _ in range(cases):
        steps = int(rng.integers(3, max(max_depth, 3) + 1))
        tight = bool(rng.random() < 0.5)
        drawn.append(random_witness_instance(rng, steps, tight=tight))
    for depth in sorted({bars.lattice.steps for _, bars in drawn}):
        group = [inst for inst in drawn if inst[1].lattice.steps == depth]
        for fam, rungs in _families(group, schedule):
            try:
                fam._grow(*rungs)
            except SandwichViolation:
                tally.add(1.0)
                continue
            tally.add(0.0)
            solved += len(fam.n_schedule)
            for s in fam.lower_solutions + fam.upper_solutions:
                log.add(s)
    return _report(
        6,
        "penalized family ordering ladder",
        tally,
        ladder_tol=_ORDER_TOL,
        weights_solved=solved,
    )


def verify_reduction(cases=50, max_depth=8, seed=7, *, log):
    """Criterion 7: the squeeze-and-reduce route against the direct
    merged-obstacle solve, at the root, at depth ``max_depth``.  Every
    instance is drawn first, then all are solved together: one pass for
    the squeeze and one for the reduced and the direct problems.  The
    report's ``max_process_gap`` is the largest gap between the two
    routes at any node, over ``Y``, ``Z`` and both reflections of every
    instance; the check itself stays at the root."""
    rng = _rng(seed, "reduction")
    tally = _Tally(_REDUCTION_TOL)
    sets, bounds, coefs = [], [], []
    for _ in range(cases):
        _, bars = random_witness_instance(rng, max_depth)
        lat = bars.lattice
        a = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(-0.3, 0.3))
        # the squeeze is only valid under bounds that really dominate
        # the generator: |a y + b z + c| <= eta + C z^2 over the
        # obstacle range of y
        ymax = 1.0 + float(np.max(np.abs(bars.witness.reconstruct().values)))
        C = float(rng.uniform(0.2, 0.8))
        eta = abs(a) * ymax + abs(c) + b * b / (4.0 * C) + 0.1
        sets.append(bars)
        bounds.append(GrowthBounds.constants(lat, eta=eta, C=C))
        coefs.append((a, b, c))
    solved = []
    if sets:
        # (B, 1, 1) coefficient columns; the squeeze takes each
        # instance's own growth bounds
        drv = Driver.linear(*np.array(coefs).T[..., None, None])
        solved = _reduce_pass(drv, sets, bounds)
    gap = 0.0
    for bars, (sol, direct) in zip(sets, solved):
        for name in ("Y", "Z", "Kplus", "Kminus"):
            diff = getattr(sol, name).values - getattr(direct, name).values
            gap = max(gap, float(np.max(np.abs(diff))))
        try:
            _check_reduction(sol, direct, bars, _REDUCTION_TOL)
        except ReductionDisagreement as exc:
            # a failed case, reported by how far the reduced solve missed
            tally.add(exc.gap, ok=False)
            continue
        log.add(sol)
        log.add(direct)
        tally.add(abs(sol.value() - direct.value()))
    name = "predictable-obstacle reduction agreement"
    return _report(7, name, tally, max_process_gap=gap)


def certificate_report(log):
    """Criterion 8: reflection certificates over every recorded solve."""
    tally = _Tally(_CERTIFICATE_TOL)
    tally.add(log.worst())
    tally.cases = log.solves
    return _report(
        8,
        "reflection and singularity certificates",
        tally,
        flat_off_plus=log.flat_off_plus,
        flat_off_minus=log.flat_off_minus,
        singularity_defect=log.singularity_defect,
    )


def verify_comparison(cases=200, max_depth=6, seed=7, *, log):
    """Criterion 9: ordering of solutions and of upper reflection
    increments on constructed dominating/dominated pairs of depth 3 at
    least.  Every pair is drawn first; the pairs of one depth are then
    solved in one backward pass, row 0 of each the dominating problem
    and row 1 the dominated one, and checked in the order drawn."""
    rng = _rng(seed, "comparison")
    tally = _Tally(_COMPARISON_TOL)
    pairs = []
    for _ in range(cases):
        lat = _random_lattice(rng, max(max_depth, 3), min_depth=3)
        n = level_offset(lat.steps)
        gap_high = rng.uniform(0.05, 0.6, n)
        gap_low_big = rng.uniform(0.05, 0.6, n)
        drop = float(rng.uniform(0.0, 0.3))
        bars_big = _random_band(rng, lat, gap_low_big, gap_high)
        lo_small = bars_big.L.values[:n] - rng.uniform(0.0, 0.3, n)
        bars_small = BarrierSet.build(
            lat,
            bars_big.xi,
            L=AdaptedProcess(lat, np.concatenate([lo_small, bars_big.xi])),
            U=bars_big.U,
        )
        a = float(rng.uniform(-0.9, 0.9))
        b = float(rng.uniform(-0.9, 0.9))
        c = float(rng.uniform(-0.8, 0.8))
        drivers = Driver.linear(a, b, c), Driver.linear(a, b, c - drop)
        pairs.append((lat, (bars_big, bars_small), drivers, (a, b, c, c - drop)))

    sols = [None] * len(pairs)
    for depth in sorted({pair[0].steps for pair in pairs}):
        rows = [k for k, pair in enumerate(pairs) if pair[0].steps == depth]
        lats, sets, _, coefs = zip(*(pairs[k] for k in rows))
        # (B, 1, 1) columns, the constant rate (B, 2, 1): one per problem
        a, b, c, c_small = np.array(coefs).T[..., None, None]
        drv = Driver.linear(a, b, np.concatenate([c, c_small], axis=1))
        _, *packed = _stacked_sets([bars for pair in sets for bars in pair])
        batch = (len(rows), 2)
        xi, low, high = (part.reshape(batch + (-1,)) for part in packed)
        out = _backward(lats, drv, xi, low, high, batch)
        for k, big, small in zip(rows, out[0::2], out[1::2]):
            sols[k] = big, small

    for (_, sets, drivers, _), pair in zip(pairs, sols):
        for sol in pair:
            log.add(sol)
        report = comparison_check(*pair, *drivers, *sets)
        tally.add(
            max(report.max_order_violation, report.max_kminus_violation),
            ok=report.passed,
        )
    return _report(
        9, "comparison ordering and upper-reflection inequality", tally
    )


def verify_budget(seed=7, *, log):
    """Criterion 10: the per-path telescoping identity at depth 12 on a
    mixed batch of solves."""
    rng = _rng(seed, "budget")
    tally = _Tally(_BUDGET_TOL)
    lat = Lattice(TimeGrid(1.0, _BUDGET_DEPTH))
    n = level_offset(_BUDGET_DEPTH)
    for k in range(_BUDGET_CASES):
        kind = k % 3
        if kind == 0:
            drv = Driver.zero()
        elif kind == 1:
            drv = Driver.linear(
                float(rng.uniform(-0.6, 0.6)),
                float(rng.uniform(-0.6, 0.6)),
                float(rng.uniform(-0.5, 0.5)),
            )
        else:
            drv = Driver.quadratic(float(rng.uniform(0.1, 1.5)))
        if k % 2 == 0:
            xi = np.sin(2.0 * lat.brownian(_BUDGET_DEPTH))
            bars = BarrierSet.build(lat, xi)
        else:
            gaps_low = rng.uniform(0.1, 0.7, n)
            gaps_high = rng.uniform(0.1, 0.7, n)
            bars = _random_band(rng, lat, gaps_low, gaps_high)
        sol = log.add(solve_rbsde(lat, drv, bars))
        tally.add(budget_defect(sol))
    return _report(10, "per-path telescoping budget", tally)


def run_all(seed=7, cases=None, max_depth=None, schedule_max=None):
    """Run every suite at its full acceptance scale unless resized.

    Returns ``(reports, log)`` with the reports in criterion order.
    ``cases`` rescales every randomized suite; ``max_depth`` caps the
    random depths where a suite draws them (the suites state their own
    depth rules); ``schedule_max`` drops the penalization weights above
    it.  The tolerances are the module's fixed constants: no argument
    loosens the gate.
    """

    def given(**sizes):
        return {k: v for k, v in sizes.items() if v is not None}

    sized = given(cases=cases, max_depth=max_depth)
    for name, value in sized.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    schedule = _schedule(DEFAULT_SCHEDULE, schedule_max)
    log = CertificateLog()
    reports = [
        verify_envelope(seed=seed, **given(cases=cases)),
        verify_constraint_equivalence(seed=seed, **sized),
        verify_snell(seed=seed, log=log, **sized),
        verify_dynkin(seed=seed, log=log, **sized),
        verify_quadratic(seed=seed, log=log),
        verify_sandwich(seed=seed, log=log, schedule=schedule, **sized),
        verify_reduction(seed=seed, log=log, **sized),
        verify_comparison(seed=seed, log=log, **sized),
        verify_budget(seed=seed, log=log),
    ]
    reports.insert(7, certificate_report(log))
    return reports, log
