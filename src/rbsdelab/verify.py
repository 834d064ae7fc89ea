"""Randomized verification suites against the independent oracles.

Every suite draws reproducible random instances, runs the production
route and the matching oracle route, and returns a plain report dict
with the case count, the failure count, the worst observed error and
the tolerance it was held to.  Each solving suite records its backward
solves in the :class:`CertificateLog` it is given; :func:`run_all`
shares one log across the whole run, so the certificate report covers
every solve rather than a private batch.

Each suite's signature defaults are the package's acceptance gate.
:func:`run_all` forwards only the overrides it is given, so the command
line can run cheaper or deeper sweeps of the same checks.
"""

import math
import warnings
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
    all_paths,
    entry_levels,
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
    DEFAULT_SCHEDULE,
    ReductionDisagreement,
    SandwichViolation,
    _check_reduction,
    _families,
    _reduce_pass,
)
from .snell import SnellInstance, snell_envelope
from .solver import (
    _backward,
    _stacked_bands,
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


def _walk_and_times(lat):
    """Walk value and time of every node of levels 0..N, packed."""
    count = lat.steps + 1
    walk = np.concatenate([lat.brownian(i) for i in range(count)])
    return walk, lat.times[entry_levels(count)]


def random_witness_instance(rng, steps, tight=True):
    """Obstacle set built around an explicit node-indexed candidate.

    The candidate is a smooth function of time and the walk, decomposed
    into its martingale slope and signed drift parts; obstacles are
    placed around it with random margins, and the predictable obstacles
    are pinned to it (``tight``) or padded off it.
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
    return lat, bounds, spec, bars


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


def _max_ulp(a, b):
    """Worst elementwise distance in units of spacing; inf on a
    mismatch involving an infinity."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same = a == b
    finite = np.isfinite(a) & np.isfinite(b)
    if np.any(~same & ~finite):
        return math.inf
    with np.errstate(invalid="ignore"):
        ulp = np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.where(same | ~finite, 0.0, ulp), initial=0.0))


def verify_envelope(cases=1000, seed=7):
    """Criterion 1: the one-scan envelope against the quadratic rescan."""
    rng = _rng(seed, "envelope")
    tally = _Tally(_ENVELOPE_ULPS)
    for _ in range(cases):
        times, g, w, n = _random_profile(rng, _ENVELOPE_POINTS)
        prof = envelope_profile(times, g, w, n)
        values, left = envelope_brute_force(times, g, w, n)
        tally.add(
            max(
                _max_ulp(prof.values, values),
                _max_ulp(prof.left_limit_values, left),
            )
        )
    return _report(1, "envelope scan vs quadratic rescan", tally)


def verify_constraint_equivalence(cases=1000, max_depth=8, seed=7):
    """Criterion 2: the node-wise left-limit test, the per-path atom
    enumeration, and the pointwise hard-envelope test must all agree,
    in both directions, on every instance."""
    rng = _rng(seed, "equivalence")
    tally = _Tally(0.0)
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
        nodewise = check_left_constraint(Y, g, rho)

        # the packed entries every path visits before the horizon
        nodes = path_nodes(all_paths(steps))[:, :steps]
        flat = level_offset(np.arange(steps)) + nodes
        g_paths = g.values[flat]
        w_paths = rho.values[flat]
        left_limits = Y.values[flat]
        # atoms of the clock along every path, tested directly
        on = w_paths > 0.0
        per_path = not np.any(g_paths[on] > left_limits[on])
        # the same constraint through the hard envelope of every path,
        # tested at every time (it is -inf off the support)
        head = np.zeros((len(nodes), 1))
        star = envelope_star_profile(
            lat.times,
            np.concatenate([head - np.inf, g_paths], axis=1),
            np.concatenate([head, w_paths], axis=1),
        )
        pointwise = not np.any(star.values[:, 1:] > left_limits)
        tally.add(0.0 if nodewise == per_path == pointwise else 1.0)
    return _report(2, "left-limit constraint equivalence", tally)


def verify_snell(
    cases=100, max_depth=4, seed=7, tol=1e-12, put_tol=1e-10, *, log
):
    """Criterion 3: envelope root value vs exhaustive stopping, and the
    early-exercise recursion on strike payoffs."""
    rng = _rng(seed, "snell")
    stopping = _Tally(tol)
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

    recursion = _Tally(put_tol)
    for steps in _PUT_DEPTHS:
        lat = Lattice(TimeGrid(1.0, steps))
        strike = float(rng.uniform(0.8, 1.3))
        walk, _ = _walk_and_times(lat)
        L = AdaptedProcess(lat, np.maximum(strike - np.exp(walk), 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = snell_envelope(SnellInstance(L, None, None, L.terminal()))
        log.add(sol)
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


def verify_dynkin(cases=100, max_depth=4, seed=7, tol=1e-12, *, log):
    """Criterion 4: the driverless double-obstacle solve against the
    enumerated two-player game.  A game without a value is a failure,
    its error the gap between the two one-sided optima."""
    rng = _rng(seed, "dynkin")
    tally = _Tally(tol)
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
            tally.add(abs(exc.maxmin - exc.minmax), ok=False)
            continue
        bars = BarrierSet.build(lat, xi, L=L, U=U)
        sol = log.add(solve_rbsde(lat, Driver.zero(), bars))
        tally.add(abs(sol.value() - reference))
    return _report(4, "two-player stopping game identification", tally)


def verify_quadratic(seed=7, tol=1e-10, *, log):
    """Criterion 5: squared-slope drivers against the exponential
    closed form."""
    rng = _rng(seed, "quadratic")
    tally = _Tally(tol)
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
    for depth in sorted({inst[0].steps for inst in drawn}):
        group = [inst for inst in drawn if inst[0].steps == depth]
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


def verify_reduction(cases=50, max_depth=8, seed=7, tol=1e-6, *, log):
    """Criterion 7: the squeeze-and-reduce route against the direct
    merged-obstacle solve, at the root, at depth ``max_depth``.  Every
    instance is drawn first, then all are solved together: one pass for
    the squeeze and one for the reduced and the direct problems."""
    rng = _rng(seed, "reduction")
    tally = _Tally(tol)
    lats, sets, bounds, coefs = [], [], [], []
    for _ in range(cases):
        lat, _, spec, bars = random_witness_instance(rng, max_depth)
        a = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(-0.3, 0.3))
        # the squeeze is only valid under bounds that really dominate
        # the generator: |a y + b z + c| <= eta + C z^2 over the
        # obstacle range of y
        ymax = 1.0 + float(np.max(np.abs(spec.reconstruct().values)))
        C = float(rng.uniform(0.2, 0.8))
        eta = abs(a) * ymax + abs(c) + b * b / (4.0 * C) + 0.1
        lats.append(lat)
        sets.append(bars)
        bounds.append(GrowthBounds.constants(lat, eta=eta, C=C))
        coefs.append((a, b, c))
    solved = []
    if sets:
        # (B, 1, 1) coefficient columns, one growth bound per row
        drv = Driver.linear(*np.array(coefs).T[..., None, None], bounds=bounds)
        solved = _reduce_pass(lats, drv, sets)
    for bars, (sol, direct) in zip(sets, solved):
        try:
            _check_reduction(sol, direct, bars, tol)
        except ReductionDisagreement as exc:
            # a failed case, reported by how far the reduced solve missed
            tally.add(exc.gap, ok=False)
            continue
        log.add(sol)
        log.add(direct)
        tally.add(abs(sol.value() - direct.value()))
    return _report(7, "predictable-obstacle reduction agreement", tally)


def certificate_report(log, tol=1e-12):
    """Criterion 8: reflection certificates over every recorded solve."""
    tally = _Tally(tol)
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


def verify_comparison(cases=200, max_depth=6, seed=7, tol=1e-9, *, log):
    """Criterion 9: ordering of solutions and of upper reflection
    increments on constructed dominating/dominated pairs of depth 3 at
    least.  Every pair is drawn first; the pairs of one depth are then
    solved in one backward pass, row 0 of each the dominating problem
    and row 1 the dominated one, and checked in the order drawn."""
    rng = _rng(seed, "comparison")
    tally = _Tally(tol)
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
        bands = _stacked_bands([bars for pair in sets for bars in pair])
        low, high = (band.reshape(len(rows), 2, -1) for band in bands)
        xi = np.stack([big.xi for big, _ in sets])[:, None]
        out = _backward(lats, drv, xi, low, high, (len(rows), 2))
        for k, big, small in zip(rows, out[0::2], out[1::2]):
            sols[k] = big, small

    for (_, sets, drivers, _), pair in zip(pairs, sols):
        for sol in pair:
            log.add(sol)
        report = comparison_check(*pair, *drivers, *sets, tol=tol)
        tally.add(
            max(report.max_order_violation, report.max_kminus_violation),
            ok=report.passed,
        )
    return _report(
        9, "comparison ordering and upper-reflection inequality", tally
    )


def verify_budget(seed=7, tol=1e-10, *, log):
    """Criterion 10: the per-path telescoping identity at depth 12 on a
    mixed batch of solves."""
    rng = _rng(seed, "budget")
    tally = _Tally(tol)
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


def run_all(seed=7, cases=None, max_depth=None, tol=None, schedule_max=None):
    """Run every suite at its full acceptance scale unless overridden.

    Returns ``(reports, log)`` with the reports in criterion order.
    ``cases`` rescales every randomized suite; ``max_depth`` caps the
    random depths where a suite draws them (the suites state their own
    depth rules); ``tol`` overrides every comparison tolerance, the
    strike recursion's and the certificates' included (the ulp,
    equivalence and ladder suites keep their own); ``schedule_max``
    truncates the penalization weight schedule.
    """

    def given(**overrides):
        return {k: v for k, v in overrides.items() if v is not None}

    sized = given(cases=cases, max_depth=max_depth)
    for name, value in sized.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    tols = given(tol=tol)
    schedule = DEFAULT_SCHEDULE
    if schedule_max is not None:
        schedule = tuple(n for n in DEFAULT_SCHEDULE if n <= schedule_max)
        if len(schedule) < 2:
            raise ValueError("schedule_max leaves fewer than two weights")
    log = CertificateLog()
    reports = [
        verify_envelope(seed=seed, **given(cases=cases)),
        verify_constraint_equivalence(seed=seed, **sized),
        verify_snell(seed=seed, log=log, **sized, **given(tol=tol, put_tol=tol)),
        verify_dynkin(seed=seed, log=log, **sized, **tols),
        verify_quadratic(seed=seed, log=log, **tols),
        verify_sandwich(seed=seed, log=log, schedule=schedule, **sized),
        verify_reduction(seed=seed, log=log, **sized, **tols),
        verify_comparison(seed=seed, log=log, **sized, **tols),
        verify_budget(seed=seed, log=log, **tols),
    ]
    reports.insert(7, certificate_report(log, **tols))
    return reports, log
