"""Command line front end: scenario files in, CSV artifacts out.

A scenario is a single JSON document with a versioned ``schema`` field;
unknown keys anywhere in it are errors.  Each invocation runs one
subcommand against one scenario and writes its artifacts plus a run
manifest (config hash, package versions, timings) into the output
directory.  All randomness flows through the explicit seed, and floats
are serialized via ``repr``, so identical config and seed produce
byte-identical CSV files.

Exit codes: 0 success, 1 configuration error, 2 infeasible obstacles,
3 numerical failure (divergence, non-finite generator, a broken
penalized ordering, a reduction that disagrees with the direct solve, or
a failed verification suite).
"""

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .barriers import (
    BarrierSet,
    InfeasibleBarriers,
    envelope_profile,
    envelope_star_profile,
)
from .drivers import (
    Driver,
    GrowthBounds,
    InconsistentSemimartingale,
    SemimartingaleSpec,
)
from .lattice import (
    AdaptedProcess,
    IncreasingProcess,
    Lattice,
    PredictableProcess,
    TimeGrid,
    _varying_level,
    _walk_and_times,
    entry_levels,
    level_offset,
)
from .penalize import (
    DEFAULT_SCHEDULE,
    ReductionDisagreement,
    SandwichViolation,
    _schedule,
    build_family,
    reduce_and_solve,
)
from .snell import HypothesisAViolated, SnellInstance, snell_envelope
from .solver import (
    ImplicitStepDivergence,
    NonFiniteDriver,
    solve_rbsde,
)
from .verify import run_all

__all__ = ["ConfigError", "main", "entry"]

_SCHEMA = 1
_ENVELOPE_WEIGHTS = (1.0, 4.0, 16.0, 64.0, 256.0)
# artifact file names by ``outputs`` key
_OUTPUTS = {
    "solution": "solution.csv",
    "convergence": "penalization.csv",
    "envelope": "envelope.csv",
    "report": "verify.csv",
}
_MANIFEST = "manifest.json"
_BLOCK = 8192  # rows of solution.csv formatted and written at a time

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """The scenario document cannot be used as given."""


# ------------------------------------------------------------- config walk


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} under {path or 'the top level'} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )


def _number(cfg, key, path, default=None, required=False, integer=False):
    """``cfg[key]`` as a float, or as an int when ``integer``."""
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}.{key} is required")
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{path}.{key} must be {kind}")
    return v if integer else float(v)


def load_config(path):
    """Read and schema-check one scenario document."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _check_keys(
        cfg,
        {
            "schema",
            "seed",
            "grid",
            "driver",
            "bounds",
            "barriers",
            "measures",
            "witness",
            "terminal",
            "penalization",
            "outputs",
        },
        "",
    )
    schema = _number(cfg, "schema", "config", required=True, integer=True)
    if schema != _SCHEMA:
        raise ConfigError(
            f"unsupported schema {schema!r} (this build reads {_SCHEMA})"
        )
    _number(cfg, "seed", "config", integer=True)
    return cfg, text.encode()


def _output_names(cfg):
    """Artifact file names: the defaults, renamed by ``outputs``.  Each
    must be a bare file name, so that every artifact lands in ``--out``,
    and the names must differ from each other and from the manifest's."""
    out = cfg.get("outputs", {})
    _check_keys(out, set(_OUTPUTS), "outputs")
    for key, name in out.items():
        bare = isinstance(name, str) and Path(name).name == name
        if not bare or name in ("", ".."):
            raise ConfigError(
                f"outputs.{key} must be a bare file name, got {name!r}"
            )
    names = {**_OUTPUTS, **out}
    owner = {_MANIFEST: "the manifest"}
    for key, name in names.items():
        if name in owner:
            raise ConfigError(
                f"outputs.{key} names {name!r}, as does {owner[name]}"
            )
        owner[name] = f"outputs.{key}"
    return names


# -------------------------------------------------------------- evaluators


def _build_lattice(cfg):
    grid = cfg.get("grid")
    if grid is None:
        raise ConfigError("grid is required")
    _check_keys(grid, {"T", "steps"}, "grid")
    horizon = _number(grid, "T", "grid", required=True)
    steps = _number(grid, "steps", "grid", required=True, integer=True)
    try:
        return Lattice(TimeGrid(horizon, steps))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


# the keys each obstacle generator kind takes besides ``kind``
_KIND_KEYS = {
    "constant": {"value"},
    "table": {"levels"},
    "payoff": {"form", "strike"},
    "shape": {"sin", "freq", "linear", "time", "offset"},
}


def _shape_levels(node, lat, path):
    """Evaluate one obstacle generator to a packed array over levels 0..N."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be an object")
    kind = node.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(
            f"{path}.kind must be one of constant, table, payoff, shape"
        )
    _check_keys(node, {"kind"} | _KIND_KEYS[kind], path)
    count = lat.steps + 1
    if kind == "constant":
        v = _number(node, "value", path, required=True)
        return np.full(level_offset(count), v)
    if kind == "table":
        levels = node.get("levels")
        if levels is None:
            raise ConfigError(f"{path}.levels is required for a table")
        if not isinstance(levels, list):
            raise ConfigError(f"{path}.levels must be a list of rows")
        if len(levels) != count:
            raise ConfigError(
                f"{path}.levels needs {count} rows, got {len(levels)}"
            )
        out = []
        for i, row in enumerate(levels):
            arr = np.asarray(row, dtype=float)
            if arr.shape != (i + 1,):
                raise ConfigError(
                    f"{path}.levels[{i}] needs {i + 1} entries"
                )
            out.append(arr)
        return np.concatenate(out)
    walk, t = _walk_and_times(lat)
    if kind == "payoff":
        form = node.get("form")
        strike = _number(node, "strike", path, required=True)
        if form == "put":
            return np.maximum(strike - np.exp(walk), 0.0)
        if form == "call":
            return np.maximum(np.exp(walk) - strike, 0.0)
        raise ConfigError(f"{path}.form must be 'put' or 'call'")
    a = _number(node, "sin", path, default=0.0)
    w = _number(node, "freq", path, default=1.0)
    b = _number(node, "linear", path, default=0.0)
    c = _number(node, "time", path, default=0.0)
    d = _number(node, "offset", path, default=0.0)
    return a * np.sin(w * walk) + b * walk + c * t + d


def _terminal_values(cfg, lat, witness_levels):
    node = cfg.get("terminal")
    last = level_offset(lat.steps)
    if node is None:
        if witness_levels is not None:
            return witness_levels[last:]
        raise ConfigError("terminal is required when no witness is given")
    if isinstance(node, dict) and node.get("kind") == "table" and "values" in node:
        _check_keys(node, {"kind", "values"}, "terminal")
        arr = np.asarray(node["values"], dtype=float)
        if arr.shape != (lat.steps + 1,):
            raise ConfigError(
                f"terminal.values needs {lat.steps + 1} entries"
            )
        return arr
    return _shape_levels(node, lat, "terminal")[last:]


def _time_indexed(entries, lat, path, keys, read, make):
    """Process ``make(lat, {k: read(entry, where)})`` from a list of
    ``{"time": k, ...}`` entries with distinct times, each taking
    ``keys`` besides ``time``; ``make`` checks the range and values."""
    if entries is None:
        return None
    if not isinstance(entries, list):
        raise ConfigError(f"{path} must be a list of atoms")
    pairs = {}
    for idx, entry in enumerate(entries):
        where = f"{path}[{idx}]"
        _check_keys(entry, {"time"} | keys, where)
        k = _number(entry, "time", where, required=True, integer=True)
        if k in pairs:
            raise ConfigError(f"{where} repeats time {k}")
        pairs[k] = read(entry, where)
    try:
        return make(lat, pairs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _clock(entries, lat, path):
    if entries == "lebesgue":
        return IncreasingProcess.lebesgue(lat)

    def read(entry, where):
        return _number(entry, "mass", where, required=True)

    make = IncreasingProcess.from_time_atoms
    return _time_indexed(entries, lat, path, {"mass"}, read, make)


def _entry_constraint(entries, lat, path, fill):
    def read(entry, where):
        if "values" not in entry:
            return _number(entry, "value", where, required=True)
        if "value" in entry:
            raise ConfigError(f"{where} gives both value and values")
        return entry["values"]

    def make(lat, pairs):
        return PredictableProcess.from_time_values(lat, pairs, fill)

    return _time_indexed(entries, lat, path, {"value", "values"}, read, make)


# the driver catalog: constructor and its params as (key, default), a
# param without a default being required
_DRIVERS = {
    "zero": (Driver.zero, ()),
    "constant": (Driver.constant, (("value", None),)),
    "linear": (Driver.linear, (("a", 0.0), ("b", 0.0), ("c", 0.0))),
    "quadratic": (Driver.quadratic, (("c", None),)),
}


def _build_driver(cfg, bounds):
    node = cfg.get("driver")
    if node is None:
        return Driver.zero(bounds=bounds)
    _check_keys(node, {"name", "params"}, "driver")
    name = node.get("name")
    if not isinstance(name, str) or name not in _DRIVERS:
        raise ConfigError(
            f"driver.name {name!r} not in the catalog ({', '.join(_DRIVERS)})"
        )
    make, spec = _DRIVERS[name]
    params = node.get("params", {})
    _check_keys(params, {key for key, _ in spec}, "driver.params")
    args = [
        _number(params, key, "driver.params", default=d, required=d is None)
        for key, d in spec
    ]
    try:
        return make(*args, bounds=bounds)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"driver: {exc}") from exc


def _build_bounds(cfg, lat, A):
    node = cfg.get("bounds")
    if node is None:
        return None
    _check_keys(node, {"eta", "C", "beta"}, "bounds")
    try:
        return GrowthBounds.constants(
            lat,
            eta=_number(node, "eta", "bounds", required=True),
            C=_number(node, "C", "bounds", required=True),
            beta=_number(node, "beta", "bounds", default=0.0),
            A=A,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bounds: {exc}") from exc


def _build_witness(cfg, lat):
    node = cfg.get("witness")
    if node is None:
        return None, None
    levels = _shape_levels(node, lat, "witness")
    spec = SemimartingaleSpec.from_levels(lat, levels)
    try:
        spec.reconstruct()
    except InconsistentSemimartingale as exc:
        raise ConfigError(f"witness: {exc}") from exc
    return spec, levels


class ScenarioConfig:
    """Parsed scenario: lattice, generator (``driver.bounds`` its growth
    bounds), obstacle set (``barriers.witness`` its witness) and knobs."""

    __slots__ = (
        "lattice",
        "driver",
        "barriers",
        "schedule",
        "outputs",
    )

    def __init__(self, cfg):
        lat = _build_lattice(cfg)
        measures = cfg.get("measures", {})
        _check_keys(measures, {"delta", "alpha", "A"}, "measures")
        delta = _clock(measures.get("delta"), lat, "measures.delta")
        alpha = _clock(measures.get("alpha"), lat, "measures.alpha")
        A = _clock(measures.get("A"), lat, "measures.A")
        bounds = _build_bounds(cfg, lat, A)
        witness, w_levels = _build_witness(cfg, lat)
        xi = _terminal_values(cfg, lat, w_levels)

        bar_cfg = cfg.get("barriers", {})
        _check_keys(bar_cfg, {"L", "U", "l", "u"}, "barriers")

        def adapted(key):
            node = bar_cfg.get(key)
            if node is None:
                return None
            return AdaptedProcess(
                lat, _shape_levels(node, lat, f"barriers.{key}")
            )

        low = _entry_constraint(bar_cfg.get("l"), lat, "barriers.l", -np.inf)
        high = _entry_constraint(bar_cfg.get("u"), lat, "barriers.u", np.inf)
        try:
            self.barriers = BarrierSet.build(
                lat,
                xi,
                L=adapted("L"),
                U=adapted("U"),
                l=low,
                u=high,
                delta=delta,
                alpha=alpha,
                witness=witness,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"barriers: {exc}") from exc
        self.lattice = lat
        self.driver = _build_driver(cfg, bounds)

        pen = cfg.get("penalization", {})
        _check_keys(pen, {"schedule"}, "penalization")
        schedule = pen.get("schedule")
        try:
            self.schedule = _schedule(
                DEFAULT_SCHEDULE if schedule is None else schedule
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"penalization.schedule: {exc}") from exc
        self.outputs = _output_names(cfg)


# ----------------------------------------------------------------- writers


def _reprs(values):
    """Each value's ``repr`` as a float, which reads back bit for bit."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_rows(path, header, blocks):
    """Comma-separated lines, written one block of rows at a time; no
    field needs quoting, since each is a number, a blank or a fixed
    name.  Makes the output directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rows in blocks:
            fh.write("".join(",".join(row) + "\n" for row in rows))


def write_solution_csv(path, sol, bars):
    """One row per node in packed order; step-attributed columns blank
    at the horizon.  The rows are formatted one block at a time."""
    lat = sol.lattice
    levels = entry_levels(lat.steps + 1)
    nodes = np.arange(levels.size) - level_offset(levels)
    times = np.array(_reprs(lat.times), dtype=object)
    procs = (sol.Y, sol.Z, sol.Kplus, sol.Kminus, bars.low, bars.high)

    def blocks():
        # zip stops with the node columns, so the blanks only fill the
        # step columns, which end before the horizon
        for a in range(0, levels.size, _BLOCK):
            at = slice(a, a + _BLOCK)
            yield zip(
                map(str, levels[at].tolist()),
                map(str, nodes[at].tolist()),
                times[levels[at]].tolist(),
                *(_reprs(p.values[at]) + [""] * _BLOCK for p in procs),
            )

    _write_rows(
        path,
        ["level", "node", "t", "Y", "Z", "dKplus", "dKminus", "L_eff", "U_eff"],
        blocks(),
    )


def write_convergence_csv(path, family):
    gaps = [("", "")] + [(repr(lo), repr(hi)) for _, lo, hi in family.gaps()]
    rows = []
    for n, (lo, hi), low, high in zip(
        family.n_schedule, gaps, family.lower_solutions, family.upper_solutions
    ):
        rows.append(["lower", str(n), lo, repr(low.value())])
        rows.append(["upper", str(n), hi, repr(high.value())])
    _write_rows(path, ["side", "n", "sup_gap", "y0"], [rows])


def write_envelope_csv(path, times, g, weights):
    cols = [
        list(map(str, range(times.size))),
        _reprs(times),
        _reprs(g),
        _reprs(weights),
        *(
            _reprs(envelope_profile(times, g, weights, n).values)
            for n in _ENVELOPE_WEIGHTS
        ),
        _reprs(envelope_star_profile(times, g, weights).values),
    ]
    header = (
        ["k", "t", "g", "mass"]
        + [f"env_{n:g}" for n in _ENVELOPE_WEIGHTS]
        + ["env_star"]
    )
    _write_rows(path, header, [zip(*cols)])


def write_verify_csv(path, reports):
    rows = [
        [
            str(r["criterion"]),
            r["name"],
            str(r["cases"]),
            str(r["failures"]),
            *_reprs([r["max_err"], r["tol"]]),
            "pass" if r["passed"] else "fail",
        ]
        for r in reports
    ]
    _write_rows(
        path,
        ["criterion", "name", "cases", "failures", "max_err", "tol", "status"],
        [rows],
    )


class _Laps:
    """Wall time of one run by phase: ``lap(phase)`` adds the time since
    the previous lap, or since the start, to ``phase``."""

    def __init__(self):
        self.started = self.last = time.perf_counter()
        self.phases = dict(parse_s=0.0, build_s=0.0, run_s=0.0, write_s=0.0)

    def lap(self, phase):
        now = time.perf_counter()
        self.phases[phase] += now - self.last
        self.last = now

    def write(self, writer, *args):
        """``writer(*args)`` timed as writing, after a lap of running."""
        self.lap("run_s")
        writer(*args)
        self.lap("write_s")


def write_manifest(outdir, config_bytes, subcommand, artifacts, laps):
    manifest = {
        "schema": _SCHEMA,
        "subcommand": subcommand,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest()
        if config_bytes is not None
        else None,
        "artifacts": sorted(artifacts),
        "versions": {
            "rbsdelab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "timings": {
            "total_s": round(time.perf_counter() - laps.started, 6),
            **{k: round(v, 6) for k, v in laps.phases.items()},
        },
    }
    path = Path(outdir) / _MANIFEST
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------- subcommands


def run_solve(scn, outdir, laps):
    sol = solve_rbsde(scn.lattice, scn.driver, scn.barriers)
    path = outdir / scn.outputs["solution"]
    laps.write(write_solution_csv, path, sol, scn.barriers)
    print(f"solve: Y0 = {sol.value()!r} -> {path}")
    return [path.name]


def run_penalize(scn, outdir, laps, schedule_max=None):
    schedule = _schedule(scn.schedule, schedule_max)
    family = build_family(scn.driver.bounds, scn.barriers, schedule=schedule)
    conv_path = outdir / scn.outputs["convergence"]
    laps.write(write_convergence_csv, conv_path, family)
    sol = reduce_and_solve(scn.lattice, scn.driver, scn.barriers)
    sol_path = outdir / scn.outputs["solution"]
    laps.write(write_solution_csv, sol_path, sol, scn.barriers)
    print(
        f"penalize: {len(schedule)} weights, reduced Y0 = {sol.value()!r} "
        f"-> {conv_path}, {sol_path}"
    )
    return [conv_path.name, sol_path.name]


def run_snell(scn, outdir, laps):
    bars = scn.barriers
    inst = SnellInstance(bars.L, bars.l, bars.delta, bars.xi, witness=bars.witness)
    sol = snell_envelope(inst)
    path = outdir / scn.outputs["solution"]
    laps.write(write_solution_csv, path, sol, inst.barriers)
    print(f"snell: Y0 = {sol.value()!r} -> {path}")
    return [path.name]


def run_envelope(scn, outdir, laps):
    lat = scn.lattice
    try:
        weights = scn.barriers.delta.weights_by_time()
    except ValueError as exc:
        raise ConfigError(f"envelope tables need a time-indexed clock: {exc}")
    l = scn.barriers.l.values
    i = _varying_level(l, lat.steps)
    if i is not None:
        raise ConfigError(
            "envelope tables need a time-indexed lower predictable "
            f"obstacle (values vary across nodes at time index {i + 1})"
        )
    g = np.full(lat.steps + 1, -np.inf)
    g[1:] = l[level_offset(np.arange(lat.steps))]
    path = outdir / scn.outputs["envelope"]
    laps.write(write_envelope_csv, path, lat.times, g, weights)
    print(f"envelope: {lat.steps + 1} grid times -> {path}")
    return [path.name]


def run_verify(args, report_name, outdir, laps):
    seed = {} if args.seed is None else {"seed": args.seed}
    reports, log = run_all(
        **seed,
        cases=args.cases,
        max_depth=args.depth,
        schedule_max=args.schedule_max,
    )
    path = outdir / report_name
    laps.write(write_verify_csv, path, reports)
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        print(
            f"[{status}] criterion {r['criterion']}: {r['name']} "
            f"({r['cases']} cases, {r['failures']} failures, "
            f"max err {r['max_err']:.3e}, tol {r['tol']:g})"
        )
    print(f"verify: {log.solves} solves audited -> {path}")
    if not all(r["passed"] for r in reports):
        raise _VerificationFailed()
    return [path.name]


class _VerificationFailed(Exception):
    pass


# ------------------------------------------------------------------ driver


def _parser():
    parser = argparse.ArgumentParser(
        prog="rbsdelab",
        description="Obstacle-constrained backward solves on a binomial "
        "lattice: scenarios in, CSV artifacts out.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("solve", "penalize", "snell", "envelope", "verify"):
        p = sub.add_parser(name)
        p.add_argument(
            "--config", required=name != "verify", help="scenario JSON"
        )
        p.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--depth", type=int, default=None)
            p.add_argument("--cases", type=int, default=None)
        if name in ("penalize", "verify"):
            p.add_argument("--schedule-max", type=int, default=None)
    return parser


def main(argv=None):
    """Run one subcommand; returns the process exit code."""
    laps = _Laps()
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that is a config error here
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        outdir = Path(args.out)
        config_bytes = None
        if args.subcommand == "verify":
            cfg = {}
            if args.config is not None:
                cfg, config_bytes = load_config(args.config)
            if args.seed is None:
                args.seed = cfg.get("seed")
            laps.lap("parse_s")
            report = _output_names(cfg)["report"]
            artifacts = run_verify(args, report, outdir, laps)
        else:
            cfg, config_bytes = load_config(args.config)
            laps.lap("parse_s")
            scn = ScenarioConfig(cfg)
            laps.lap("build_s")
            if args.subcommand == "solve":
                artifacts = run_solve(scn, outdir, laps)
            elif args.subcommand == "penalize":
                artifacts = run_penalize(
                    scn, outdir, laps, schedule_max=args.schedule_max
                )
            elif args.subcommand == "snell":
                artifacts = run_snell(scn, outdir, laps)
            else:
                artifacts = run_envelope(scn, outdir, laps)
        manifest = write_manifest(
            outdir, config_bytes, args.subcommand, artifacts, laps
        )
        print(f"manifest -> {manifest}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleBarriers as exc:
        print(f"infeasible obstacles: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _VerificationFailed:
        print("verification failed", file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        ImplicitStepDivergence,
        NonFiniteDriver,
        SandwichViolation,
        HypothesisAViolated,
        InconsistentSemimartingale,
        ReductionDisagreement,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
