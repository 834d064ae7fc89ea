"""Randomized verification suites against the independent oracles.

Every suite draws reproducible random instances, runs the production
route and the matching oracle route, and returns a plain report dict
with the case count, the failure count, the worst observed error and
the tolerance it was held to.  A shared :class:`CertificateLog`
collects the reflection certificates of every backward solve performed
anywhere in the run, so the certificate report genuinely covers the
whole suite rather than a private batch.

The default case counts and tolerances are the package's acceptance
gate; the knobs exist so the command line can run cheaper or deeper
sweeps of the same checks.
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
    DEFAULT_SCHEDULE,
    ReductionDisagreement,
    SandwichViolation,
    build_family,
    reduce_and_solve,
)
from .snell import SnellInstance, snell_envelope
from .solver import budget_defect, comparison_check, solve_rbsde

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
_PUT_DEPTHS = range(3, 13)
_QUAD_DEPTHS = range(4, 11)
_QUAD_CURVATURES = (0.1, 0.5, 2.0)
_LADDER_TOL = 1e-9
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


def _rng(seed, salt):
    return np.random.default_rng((int(seed), zlib.crc32(salt.encode())))


def _report(criterion, name, cases, failures, max_err, tol, **extra):
    out = {
        "criterion": criterion,
        "name": name,
        "cases": cases,
        "failures": failures,
        "max_err": float(max_err),
        "tol": float(tol),
        "passed": failures == 0 and float(max_err) <= float(tol),
    }
    out.update(extra)
    return out


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


def random_witness_instance(rng, steps, tight=True, two_sided=True):
    """Obstacle set built around an explicit node-indexed candidate.

    The candidate is a smooth function of time and the walk, decomposed
    into its martingale slope and signed drift parts; obstacles are
    placed around it with random margins, and the predictable obstacles
    are pinned to it (``tight``) or padded off it.
    """
    lat = Lattice(TimeGrid(float(rng.uniform(0.5, 1.5)), steps))
    a, b, c = rng.uniform(-0.6, 0.6, 3)
    freq = rng.uniform(0.5, 2.5)

    def shape(t, w):
        return a * np.sin(freq * w) + b * w + c * t

    levels = [shape(lat.times[i], lat.brownian(i)) for i in range(steps + 1)]
    spec = SemimartingaleSpec.from_levels(lat, levels)
    xi = np.asarray(levels[steps], dtype=float)
    margin = rng.uniform(0.2, 0.6)
    L = AdaptedProcess(
        lat, [levels[i] - margin for i in range(steps)] + [xi]
    )
    U = AdaptedProcess(
        lat, [levels[i] + margin for i in range(steps)] + [xi]
    )
    pad = 0.0 if tight else margin + 0.2
    k_low = int(rng.integers(1, steps + 1))
    k_high = int(rng.integers(1, steps + 1))
    delta = IncreasingProcess.from_time_atoms(
        lat, {k_low: float(rng.uniform(0.5, 2.0))}
    )
    l_slots = [np.full(i + 1, -np.inf) for i in range(steps)]
    l_slots[k_low - 1] = levels[k_low - 1] - pad - rng.uniform(0.0, 0.05, k_low)
    kwargs = {}
    if two_sided:
        alpha = IncreasingProcess.from_time_atoms(
            lat, {k_high: float(rng.uniform(0.5, 2.0))}
        )
        u_slots = [np.full(i + 1, np.inf) for i in range(steps)]
        u_slots[k_high - 1] = (
            levels[k_high - 1] + pad + rng.uniform(0.0, 0.05, k_high)
        )
        kwargs = {"u": PredictableProcess(lat, u_slots), "alpha": alpha}
    bars = BarrierSet.build(
        lat,
        xi,
        L=L,
        U=U,
        l=PredictableProcess(lat, l_slots),
        delta=delta,
        witness=spec,
        **kwargs,
    )
    bounds = GrowthBounds.constants(
        lat, eta=float(rng.uniform(0.1, 0.5)), C=float(rng.uniform(0.1, 0.8))
    )
    return lat, bounds, spec, bars


def _random_band(rng, lat, gap_low, gap_high):
    """Feasible node obstacles around a random smooth curve."""
    a, b = rng.uniform(-0.8, 0.8, 2)

    def shape(t, w):
        return a * np.sin(2.0 * w) + b * t

    xi = shape(lat.times[-1], lat.brownian(lat.steps))
    lo = [
        shape(lat.times[i], lat.brownian(i)) - gap_low[i]
        for i in range(lat.steps)
    ] + [xi]
    hi = [
        shape(lat.times[i], lat.brownian(i)) + gap_high[i]
        for i in range(lat.steps)
    ] + [xi]
    return BarrierSet.build(
        lat, xi, L=AdaptedProcess(lat, lo), U=AdaptedProcess(lat, hi)
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
    tol = _ENVELOPE_ULPS
    failures = 0
    worst = 0.0
    for _ in range(cases):
        times, g, w, n = _random_profile(rng, _ENVELOPE_POINTS)
        prof = envelope_profile(times, g, w, n)
        values, left = envelope_brute_force(times, g, w, n)
        gap = max(
            _max_ulp(prof.values, values),
            _max_ulp(prof.left_limit_values, left),
        )
        worst = max(worst, gap)
        if not gap <= tol:
            failures += 1
    return _report(
        1, "envelope scan vs quadratic rescan", cases, failures, worst, tol
    )


def verify_constraint_equivalence(cases=1000, max_depth=8, seed=7):
    """Criterion 2: the node-wise left-limit test, the per-path atom
    enumeration, and the pointwise hard-envelope test must all agree,
    in both directions, on every instance."""
    rng = _rng(seed, "equivalence")
    failures = 0
    for _ in range(cases):
        lat = _random_lattice(rng, max_depth)
        steps = lat.steps
        Y = AdaptedProcess(
            lat, [rng.normal(0.0, 1.0, i + 1) for i in range(steps + 1)]
        )
        g = PredictableProcess(
            lat,
            [
                Y.level(i) + rng.normal(0.0, 0.3, i + 1)
                for i in range(steps)
            ],
        )
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
        star = envelope_star_profile(
            lat.times,
            np.pad(g_paths, ((0, 0), (1, 0)), constant_values=-np.inf),
            np.pad(w_paths, ((0, 0), (1, 0))),
        )
        pointwise = not np.any(star.values[:, 1:] > left_limits)
        if not (nodewise == per_path == pointwise):
            failures += 1
    return _report(
        2,
        "left-limit constraint equivalence",
        cases,
        failures,
        0.0 if failures == 0 else 1.0,
        0.0,
    )


def verify_snell(cases=100, max_depth=4, seed=7, tol=1e-12, put_tol=1e-10, log=None):
    """Criterion 3: envelope root value vs exhaustive stopping, and the
    early-exercise recursion on strike payoffs."""
    rng = _rng(seed, "snell")
    failures = 0
    worst = 0.0
    for _ in range(cases):
        lat = _random_lattice(rng, max_depth)
        steps = lat.steps
        levels = [rng.uniform(-1.0, 1.0, i + 1) for i in range(steps + 1)]
        L = AdaptedProcess(lat, levels)
        xi = rng.uniform(-1.0, 1.0, steps + 1)
        top = max(float(np.max(L.values)), float(np.max(xi)))
        witness = SemimartingaleSpec(
            top,
            IncreasingProcess.zero(lat),
            IncreasingProcess.zero(lat),
            PredictableProcess.constant(lat, 0.0),
        )
        inst = SnellInstance(L, None, None, xi, witness=witness)
        sol = snell_envelope(inst)
        if log is not None:
            log.add(sol)
        gap = abs(sol.value() - exhaustive_stopping_value(L, xi))
        worst = max(worst, gap)
        if not gap <= tol:
            failures += 1

    put_cases = 0
    put_worst = 0.0
    for steps in _PUT_DEPTHS:
        lat = Lattice(TimeGrid(1.0, steps))
        strike = float(rng.uniform(0.8, 1.3))

        def payoff(i):
            return np.maximum(strike - np.exp(lat.brownian(i)), 0.0)

        L = AdaptedProcess(lat, [payoff(i) for i in range(steps + 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = snell_envelope(SnellInstance(L, None, None, payoff(steps)))
        if log is not None:
            log.add(sol)
        v = payoff(steps)
        for i in range(steps - 1, -1, -1):
            v = np.maximum(0.5 * (v[:-1] + v[1:]), payoff(i))
        gap = abs(sol.value() - float(v[0]))
        put_worst = max(put_worst, gap)
        put_cases += 1
        if not gap <= put_tol:
            failures += 1
    return _report(
        3,
        "envelope vs exhaustive stopping and strike recursion",
        cases + put_cases,
        failures,
        max(worst, put_worst),
        max(tol, put_tol),
        stopping_max_err=worst,
        recursion_max_err=put_worst,
    )


def verify_dynkin(cases=100, max_depth=4, seed=7, tol=1e-12, log=None):
    """Criterion 4: the driverless double-obstacle solve against the
    enumerated two-player game.  A game without a value is a failure,
    its error the gap between the two one-sided optima."""
    rng = _rng(seed, "dynkin")
    max_depth = min(int(max_depth), 4)
    failures = 0
    worst = 0.0
    for _ in range(cases):
        lat = _random_lattice(rng, max_depth)
        steps = lat.steps
        lo = [rng.uniform(-1.0, 1.0, i + 1) for i in range(steps + 1)]
        gaps = [
            np.where(
                rng.random(i + 1) < 0.25,
                0.0,
                rng.uniform(0.0, 0.8, i + 1),
            )
            for i in range(steps + 1)
        ]
        hi = [lo[i] + gaps[i] for i in range(steps + 1)]
        xi = rng.uniform(-1.0, 1.0, steps + 1)
        L = AdaptedProcess(lat, lo)
        U = AdaptedProcess(lat, hi)
        try:
            reference = exhaustive_dynkin_value(L, U, xi)
        except NoValue as exc:
            failures += 1
            worst = max(worst, abs(exc.maxmin - exc.minmax))
            continue
        bars = BarrierSet.build(lat, xi, L=L, U=U)
        sol = solve_rbsde(lat, Driver.zero(), bars)
        if log is not None:
            log.add(sol)
        gap = abs(sol.value() - reference)
        worst = max(worst, gap)
        if not gap <= tol:
            failures += 1
    return _report(
        4,
        "two-player stopping game identification",
        cases,
        failures,
        worst,
        tol,
    )


def verify_quadratic(seed=7, tol=1e-10, log=None):
    """Criterion 5: squared-slope drivers against the exponential
    closed form."""
    rng = _rng(seed, "quadratic")
    failures = 0
    worst = 0.0
    cases = 0
    for steps in _QUAD_DEPTHS:
        lat = Lattice(TimeGrid(1.0, steps))
        a = float(rng.uniform(0.5, 2.0))
        xi = np.tanh(a * lat.brownian(steps)) + float(rng.uniform(-0.5, 0.5))
        bars = BarrierSet.build(lat, xi)
        for c in _QUAD_CURVATURES:
            sol = solve_rbsde(lat, Driver.quadratic(c), bars)
            if log is not None:
                log.add(sol)
            gap = abs(sol.value() - quadratic_closed_form(c, xi))
            worst = max(worst, gap)
            cases += 1
            if not gap <= tol:
                failures += 1
    return _report(
        5, "squared-slope driver closed form", cases, failures, worst, tol
    )


def verify_sandwich(cases=100, max_depth=6, seed=7, schedule=DEFAULT_SCHEDULE, log=None):
    """Criterion 6: the full penalized ordering ladder over the weight
    schedule, on random witness-first instances."""
    rng = _rng(seed, "sandwich")
    tol = _LADDER_TOL
    failures = 0
    solved = 0
    for _ in range(cases):
        steps = int(rng.integers(3, max_depth + 1))
        lat, bounds, spec, bars = random_witness_instance(
            rng, steps, tight=bool(rng.random() < 0.5)
        )
        try:
            fam = build_family(
                lat, bounds, spec, bars, schedule=schedule, sandwich_tol=tol
            )
        except SandwichViolation:
            failures += 1
            continue
        solved += len(fam.n_schedule)
        if log is not None:
            for s in fam.lower_solutions + fam.upper_solutions:
                log.add(s)
    return _report(
        6,
        "penalized family ordering ladder",
        cases,
        failures,
        0.0 if failures == 0 else 1.0,
        0.0,
        ladder_tol=tol,
        weights_solved=solved,
    )


def verify_reduction(cases=50, depth=8, seed=7, tol=1e-6, log=None):
    """Criterion 7: the squeeze-and-reduce route against the direct
    merged-obstacle solve, at the root."""
    rng = _rng(seed, "reduction")
    failures = 0
    worst = 0.0
    for _ in range(cases):
        lat, _, spec, bars = random_witness_instance(rng, depth)
        a = float(rng.uniform(-0.5, 0.5))
        b = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(-0.3, 0.3))
        # the squeeze is only valid under bounds that really dominate
        # the generator: |a y + b z + c| <= eta + C z^2 over the
        # obstacle range of y
        ymax = 1.0 + float(np.max(np.abs(spec.reconstruct().values)))
        C = float(rng.uniform(0.2, 0.8))
        eta = abs(a) * ymax + abs(c) + b * b / (4.0 * C) + 0.1
        bounds = GrowthBounds.constants(lat, eta=eta, C=C)
        drv = Driver.linear(a, b, c, bounds=bounds)
        try:
            sol = reduce_and_solve(lat, drv, bars, agreement_tol=tol)
        except ReductionDisagreement:
            failures += 1
            continue
        direct = solve_rbsde(lat, drv, bars)
        if log is not None:
            log.add(sol)
            log.add(direct)
        gap = abs(sol.value() - direct.value())
        worst = max(worst, gap)
        if not gap <= tol:
            failures += 1
    return _report(
        7,
        "predictable-obstacle reduction agreement",
        cases,
        failures,
        worst,
        tol,
    )


def certificate_report(log, tol=1e-12):
    """Criterion 8: reflection certificates over every recorded solve."""
    return _report(
        8,
        "reflection and singularity certificates",
        log.solves,
        0 if log.worst() <= tol else 1,
        log.worst(),
        tol,
        flat_off_plus=log.flat_off_plus,
        flat_off_minus=log.flat_off_minus,
        singularity_defect=log.singularity_defect,
    )


def verify_comparison(cases=200, max_depth=6, seed=7, tol=1e-9, log=None):
    """Criterion 9: ordering of solutions and of upper reflection
    increments on constructed dominating/dominated pairs."""
    rng = _rng(seed, "comparison")
    failures = 0
    worst = 0.0
    for _ in range(cases):
        lat = _random_lattice(rng, max_depth, min_depth=3)
        gap_high = [rng.uniform(0.05, 0.6, i + 1) for i in range(lat.steps)]
        gap_low_big = [rng.uniform(0.05, 0.6, i + 1) for i in range(lat.steps)]
        drop = float(rng.uniform(0.0, 0.3))
        bars_big = _random_band(rng, lat, gap_low_big, gap_high)
        lo_small = [
            bars_big.L.level(i) - rng.uniform(0.0, 0.3, i + 1)
            for i in range(lat.steps)
        ] + [bars_big.xi]
        bars_small = BarrierSet.build(
            lat,
            bars_big.xi,
            L=AdaptedProcess(lat, lo_small),
            U=bars_big.U,
        )
        a = float(rng.uniform(-0.9, 0.9))
        b = float(rng.uniform(-0.9, 0.9))
        c = float(rng.uniform(-0.8, 0.8))
        drv_big = Driver.linear(a, b, c)
        drv_small = Driver.linear(a, b, c - drop)
        sol_big = solve_rbsde(lat, drv_big, bars_big)
        sol_small = solve_rbsde(lat, drv_small, bars_small)
        if log is not None:
            log.add(sol_big)
            log.add(sol_small)
        report = comparison_check(
            sol_big, sol_small, drv_big, drv_small, bars_big, bars_small, tol=tol
        )
        worst = max(
            worst, report.max_order_violation, report.max_kminus_violation
        )
        if not report.passed:
            failures += 1
    return _report(
        9,
        "comparison ordering and upper-reflection inequality",
        cases,
        failures,
        worst,
        tol,
    )


def verify_budget(seed=7, tol=1e-10, log=None):
    """Criterion 10: the per-path telescoping identity at depth 12 on a
    mixed batch of solves."""
    rng = _rng(seed, "budget")
    failures = 0
    worst = 0.0
    cases, depth = _BUDGET_CASES, _BUDGET_DEPTH
    lat = Lattice(TimeGrid(1.0, depth))
    for k in range(cases):
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
            xi = np.sin(2.0 * lat.brownian(depth))
            bars = BarrierSet.build(lat, xi)
        else:
            gaps_low = [rng.uniform(0.1, 0.7, i + 1) for i in range(depth)]
            gaps_high = [rng.uniform(0.1, 0.7, i + 1) for i in range(depth)]
            bars = _random_band(rng, lat, gaps_low, gaps_high)
        sol = solve_rbsde(lat, drv, bars)
        if log is not None:
            log.add(sol)
        gap = budget_defect(sol)
        worst = max(worst, gap)
        if not gap <= tol:
            failures += 1
    return _report(
        10, "per-path telescoping budget", cases, failures, worst, tol
    )


def run_all(seed=7, cases=None, max_depth=None, tol=None, schedule_max=None):
    """Run every suite at its full acceptance scale unless overridden.

    Returns ``(reports, log)`` with the reports in criterion order.
    ``cases`` rescales every randomized suite; ``max_depth`` caps the
    random depths where a suite draws them (the penalized ladder, c6,
    and the comparison suite, c9, still draw depth 3 at least); ``tol``
    overrides every comparison tolerance, the strike recursion's and
    the certificates' included (the ulp, equivalence and ladder suites
    keep their own); ``schedule_max`` truncates the penalization weight
    schedule.
    """
    log = CertificateLog()

    def pick(default, override):
        return default if override is None else override

    schedule = DEFAULT_SCHEDULE
    if schedule_max is not None:
        schedule = tuple(n for n in DEFAULT_SCHEDULE if n <= schedule_max)
        if len(schedule) < 2:
            raise ValueError("schedule_max leaves fewer than two weights")
    reports = [
        verify_envelope(cases=pick(1000, cases), seed=seed),
        verify_constraint_equivalence(
            cases=pick(1000, cases), max_depth=pick(8, max_depth), seed=seed
        ),
        verify_snell(
            cases=pick(100, cases),
            max_depth=min(pick(4, max_depth), 4),
            seed=seed,
            tol=pick(1e-12, tol),
            put_tol=pick(1e-10, tol),
            log=log,
        ),
        verify_dynkin(
            cases=pick(100, cases),
            max_depth=pick(4, max_depth),
            seed=seed,
            tol=pick(1e-12, tol),
            log=log,
        ),
        verify_quadratic(seed=seed, tol=pick(1e-10, tol), log=log),
        verify_sandwich(
            cases=pick(100, cases),
            max_depth=max(pick(6, max_depth), 3),
            seed=seed,
            schedule=schedule,
            log=log,
        ),
        verify_reduction(
            cases=pick(50, cases),
            depth=pick(8, max_depth),
            seed=seed,
            tol=pick(1e-6, tol),
            log=log,
        ),
        verify_comparison(
            cases=pick(200, cases),
            max_depth=max(pick(6, max_depth), 3),
            seed=seed,
            tol=pick(1e-9, tol),
            log=log,
        ),
        verify_budget(seed=seed, tol=pick(1e-10, tol), log=log),
    ]
    reports.insert(7, certificate_report(log, tol=pick(1e-12, tol)))
    return reports, log
