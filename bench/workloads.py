"""The three benchmark workloads: ``deep_solve``, ``gate`` and ``cli_cold``.

Each workload function takes the imported ``rbsdelab`` package and a
:class:`Run` (seed, seconds, size, output directory) and returns an
:class:`Outcome`: attempted and failed operations, the metrics, and
notes for the result record.  With ``trace`` off the metrics are the
end-to-end ones; with it on, the per-layer ones from a traced run.

Every workload runs its minimum number of rounds of fixed work, then
more while at least half of the next round fits in ``seconds``, and
reports medians over rounds.  See ``bench/README.md`` for what each
metric means on each workload.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import inputs
from spans import SpanTable, Tracer, layer_metrics

DEEP_CASES = (
    "zero",
    "linear",
    "quadratic",
    "quadratic_free",
    "linear_1e6",
    "snell_put",
    "reduce",
)
# one round is one pass over DEEP_CASES; a run makes at least two, so
# its figures average over two stretches of machine load
DEEP_MIN_PASSES = 2
# cases whose generator takes an implicit step, reported per level
EVAL_CASES = ("zero", "linear", "quadratic", "quadratic_free", "linear_1e6", "reduce")
# counts that must repeat exactly between two traced runs of one seed
REPEAT_COUNTS = (
    "drivers.gen_evals",
    "barriers.merge_calls",
    "lattice.process_inits",
    "solver.solves",
    "verify.solves",
)
DEMO_SCENARIOS = ("american_put", "two_sided_band", "witness_squeeze")
# (subcommand, scenario): every pairing the demo scenarios support,
# plus the generated deep table scenario
CLI_CALLS = (
    ("solve", "american_put"),
    ("snell", "american_put"),
    ("envelope", "american_put"),
    ("solve", "two_sided_band"),
    ("snell", "two_sided_band"),
    ("envelope", "two_sided_band"),
    ("solve", "witness_squeeze"),
    ("penalize", "witness_squeeze"),
    ("envelope", "witness_squeeze"),
    ("solve", "table"),
    ("snell", "table"),
    ("envelope", "table"),
)
# one round is one pass over CLI_CALLS; a run makes at least three, so
# every command's output is compared with a repeat, the tail is a
# percentile with ten samples beyond it, and with --seconds 30 every run
# has the same 36 samples (a varying count moves the tail's percentile)
CLI_MIN_PASSES = 3
CLI_TIMEOUT_S = 60
SETUP_REPS = 3
# control slices timed before the first round and after every round;
# deep_solve times one before each case instead, and gate several
# around its single long round, so that every run has a dozen or more
GATE_CONTROL_SLICES = 6
# median seconds of one control slice of each kind on the machine the
# bounds were set on (2-CPU Xeon virtual machine, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1)
CONTROL_REF_S = {"compute": 0.45, "cold": 1.2}


class Run:
    """Settings of one benchmark run."""

    def __init__(self, root, seed, seconds, smoke):
        self.root = Path(root)
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.smoke = bool(smoke)
        self.deep_steps = 40 if smoke else 1000
        self.table_steps = 30 if smoke else 300
        self.out = self.root / ".bench_out"
        self.out.mkdir(exist_ok=True)


class Control:
    """Fixed work that does not touch ``rbsdelab``, timed between rounds.

    The host this benchmark was tuned on drifts in speed by a third over
    minutes, while the rounds of one run agree within a few percent.
    A slice does what the workload spends its time on.  A ``compute``
    slice (``deep_solve``, ``gate``) runs a per-level numpy recursion,
    pure Python dictionary work, and a fresh interpreter importing
    numpy.  A ``cold`` slice (``cli_cold``) starts fresh interpreters
    that import numpy and ``scipy.special``, as the CLI does.  Reported
    times are multiplied by the kind's ``CONTROL_REF_S`` over the median
    slice of the run, which takes the drift out; raw times stay in the
    notes.
    """

    def __init__(self, kind, smoke):
        self.kind = kind
        rng = np.random.default_rng(0)  # the same work in every run
        n = 100 if smoke else 800
        self.xi = rng.normal(size=n + 1)
        self.low = [rng.normal(size=i + 1) - 1.0 for i in range(n)]
        self.high = [v + 2.0 for v in self.low]
        self.loops = 20000 if smoke else 400000
        self.samples = []

    def _spawn(self, code):
        subprocess.run(
            [sys.executable, "-c", code],
            stdout=subprocess.DEVNULL,
            timeout=120,
            check=True,
        )

    def sample(self):
        t0 = time.perf_counter()
        if self.kind == "cold":
            for _ in range(2):
                self._spawn("import numpy, scipy.special")
        else:
            for _ in range(20):
                inputs.minmax_recursion(self.xi, self.low, self.high)
            counts = {}
            for i in range(self.loops):
                counts[i % 1000] = counts.get(i % 1000, 0) + i
            self._spawn("import numpy")
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        return CONTROL_REF_S[self.kind] / statistics.median(self.samples)


class Outcome:
    """Operations attempted and failed, and the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # messages; one failed operation may add several
        self.metrics = {}
        self.notes = {}
        self.spans = None  # columns of the first traced run, saved at the end

    def record(self, label, errors):
        self.attempted += 1
        self.failed += bool(errors)
        self.failures.extend(f"{label}: {e}" for e in errors)

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


# ------------------------------------------------------------------ helpers


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def cold_import_s(root, module):
    """Seconds a fresh interpreter spends importing ``module``."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cli_import_s(run):
    """Median cold import of the CLI module, timed from this process."""
    return statistics.median(
        cold_import_s(run.root, "rbsdelab.cli") for _ in range(SETUP_REPS)
    )


def latency_stats(samples):
    """Median, and the highest percentile with ten samples beyond it.

    With fewer than 21 samples no percentile at or above the median has
    ten beyond it, so the tail is the maximum (reported as p100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return statistics.median(xs), tail, pct, n


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def put_times(out, control, setup, wall, latencies):
    """The end-to-end times, at the control's reference speed; the
    measured seconds and the control go to the notes."""
    p50, tail, pct, n = latency_stats(latencies)
    k = control.scale()
    raw = {
        "setup_s": setup,
        "wall_s": wall,
        "latency_p50_s": p50,
        "latency_tail_s": tail,
    }
    for name, value in raw.items():
        out.put(name, k * value, "s")
    out.notes["measured"] = raw
    out.notes["control_s"] = control.samples
    out.notes["latency_tail"] = {"percentile": round(pct, 2), "samples": n}


def put_rates(out, nodes, solves, wall):
    """Throughput of one round, kept in the notes: for fixed work it is
    ``wall_s`` inverted, so it is not a second end-to-end metric."""
    out.notes["nodes_per_s"] = nodes / wall
    out.notes["solves_per_s"] = solves / wall


def rounds_until(seconds, one_round, control, min_rounds=1, slices=1):
    """Call ``one_round`` ``min_rounds`` times, then again while at least
    half of the next round (as long as the last) fits in ``seconds``.

    ``slices`` control slices are timed before the first round and
    after every round.
    """
    start = time.perf_counter()
    results = []
    for _ in range(slices):
        control.sample()
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        last = time.perf_counter() - t0
        for _ in range(slices):
            control.sample()
        if (
            len(results) >= min_rounds
            and time.perf_counter() - start + last / 2.0 > seconds
        ):
            return results


def trace_twice(rb, out, one_round, put):
    """Two traced rounds of the same work, every layer wrapped.

    ``put(target, tracer, result)`` stores a round's per-layer metrics:
    the first round's go to ``out``.  The two rounds' exact-repeat
    counts must agree, else ``out`` records a failure.
    """
    counts = []
    for target in (out, Outcome()):
        tracer = Tracer()
        tracer.install(rb)
        try:
            result = one_round(tracer)
        finally:
            tracer.uninstall()
        put(target, tracer, result)
        counts.append({name: target.metrics[name][0] for name in REPEAT_COUNTS})
    first, second = counts
    out.record("repeat", [
        f"{name} {first[name]!r} != {second[name]!r}"
        for name in REPEAT_COUNTS
        if first[name] != second[name]
    ])


def put_layers(out, tracer, untraced_wall, traced_wall, verify_solves=0):
    """Per-layer metrics from a traced run, zero for names not reached."""
    frame = tracer.frame()
    if out.spans is None:
        out.spans = frame
    table = SpanTable(frame)
    for name, (value, unit) in layer_metrics(table, tracer.nodes_built).items():
        out.put(name, value, unit)
    for case in DEEP_CASES:
        out.put(f"solver.solve_s.{case}", 0.0, "s")
    for case in EVAL_CASES:
        out.put(f"drivers.evals_per_level.{case}", 0.0, "count")
    for name in ("solver.quad_err", "snell.recursion_err", "penalize.reduction_gap",
                 "solver.budget_defect_sampled"):
        out.put(name, 0.0, "err")
    out.put("verify.solves", verify_solves, "count")
    out.put("cli.import_s", 0.0, "s")
    out.put("cli.csv_bytes", 0.0, "bytes")
    out.put("trace.overhead_s", traced_wall - untraced_wall, "s")
    out.put("trace.spans", len(tracer.start), "count")
    return table


def put_fail_ratio(out):
    out.put("fail_ratio", out.failed / max(out.attempted, 1), "ratio")


# --------------------------------------------------------------- deep_solve


def _deep_cases(rb, inp):
    lat = inp.lattice
    return {
        "zero": lambda: rb.solve_rbsde(lat, inp.zero, inp.band),
        "linear": lambda: rb.solve_rbsde(lat, inp.linear, inp.band),
        "quadratic": lambda: rb.solve_rbsde(lat, inp.quadratic, inp.band),
        "quadratic_free": lambda: rb.solve_rbsde(lat, inp.quadratic_free, inp.free),
        "linear_1e6": lambda: rb.solve_rbsde(lat, inp.linear, inp.band_1e6),
        "snell_put": lambda: rb.snell_envelope(inp.put_instance),
        "reduce": lambda: rb.reduce_and_solve(
            lat, inp.linear, inp.band, agreement_tol=inputs.REDUCE_TOL
        ),
    }


def _check_deep(rb, name, sol, inp, acc):
    """Reference checks of one case; fills ``acc`` with the accuracy figures."""
    errors = []

    def hold(what, err, tol):
        if not err <= tol:
            errors.append(f"{what} {err!r} > {tol!r}")
        return err

    budget = inputs.sampled_budget_defect(sol, inp.budget_paths, inp.lattice.sqrt_dt)
    acc["solver.budget_defect_sampled"] = max(
        acc.get("solver.budget_defect_sampled", 0.0),
        hold("budget defect", budget, inputs.BUDGET_REL_TOL),
    )
    if name in ("zero", "linear", "quadratic", "reduce"):
        hold("band violation", inputs.outside_band(sol.Y, inp.merged), 0.0)
    if name == "linear_1e6":
        hold("band violation", inputs.outside_band(sol.Y, inp.merged_1e6), 0.0)
    if name == "zero":
        ref = inputs.minmax_recursion(inp.xi, *inp.merged)
        hold("min/max recursion gap", inputs.max_level_gap(sol.Y, ref), inputs.DYNKIN_TOL)
    if name == "quadratic_free":
        exact = rb.quadratic_closed_form(inp.quad_c, inp.xi_free)
        acc["solver.quad_err"] = hold(
            "closed form gap", abs(sol.value() - exact), inputs.QUAD_TOL
        )
    if name == "snell_put":
        ref = inputs.exercise_recursion(inp.put)
        acc["snell.recursion_err"] = hold(
            "exercise recursion gap", inputs.max_level_gap(sol.Y, ref), inputs.PUT_TOL
        )
    if name == "linear":
        acc["linear_y0"] = sol.value()
    if name == "reduce":
        if "linear_y0" not in acc:
            errors.append("no direct solve to compare with")
        else:
            acc["penalize.reduction_gap"] = hold(
                "direct solve gap",
                abs(sol.value() - acc["linear_y0"]),
                inputs.REDUCE_TOL,
            )
    return errors


def _deep_pass(rb, inp, out, tracer=None, control=None):
    """Every case once, each after a control slice when ``control`` is
    given; returns the seconds each case took and the accuracy."""
    times = {}
    acc = {}
    for name, solve in _deep_cases(rb, inp).items():
        if control is not None:
            control.sample()
        if tracer is not None:
            tracer.begin_op(name)
        t0 = time.perf_counter()
        try:
            with warnings.catch_warnings():
                # the put instance has no martingale witness on purpose
                warnings.simplefilter("ignore")
                sol = solve()
        except Exception as exc:  # a failed case is counted, the run goes on
            times[name] = time.perf_counter() - t0
            out.record(name, [repr(exc)])
            continue
        times[name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.begin_op("check")
        out.record(name, _check_deep(rb, name, sol, inp, acc))
        del sol
    return times, acc


def deep_solve(rb, run, trace):
    out = Outcome()
    steps = run.deep_steps
    setups = []
    inp = None
    for _ in range(SETUP_REPS):
        imp = cold_import_s(run.root, "rbsdelab")
        t0 = time.perf_counter()
        inp = inputs.DeepInputs(rb, run.seed, steps)
        setups.append(imp + time.perf_counter() - t0)
    out.notes["steps"] = steps
    if not trace:
        control = Control("compute", run.smoke)
        passes = rounds_until(
            run.seconds,
            lambda: _deep_pass(rb, inp, out, control=control)[0],
            control,
            DEEP_MIN_PASSES,
            slices=0,
        )
        pass_s = [sum(p.values()) for p in passes]
        wall = statistics.median(pass_s)
        nodes = len(DEEP_CASES) * steps * (steps + 1) / 2.0
        put_times(out, control, statistics.median(setups), wall, pass_s)
        put_rates(out, nodes, len(DEEP_CASES), wall)
        out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
        out.notes["rounds"] = len(passes)
        out.notes["case_s"] = {
            c: statistics.median(p[c] for p in passes) for c in DEEP_CASES
        }
        return out

    untraced = sum(_deep_pass(rb, inp, out)[0].values())
    trace_twice(
        rb,
        out,
        lambda tracer: _deep_pass(rb, inp, out, tracer),
        lambda target, tracer, result: _put_deep_layers(
            target, tracer, *result, untraced, steps
        ),
    )
    out.put("cli.import_s", cli_import_s(run), "s")
    put_fail_ratio(out)
    return out


def _put_deep_layers(out, tracer, times, acc, untraced_wall, steps):
    table = put_layers(out, tracer, untraced_wall, sum(times.values()))
    ops = table.ops
    top = table.parent < 0
    for case in DEEP_CASES:
        if case in ops:
            op = ops.index(case)
            out.put(
                f"solver.solve_s.{case}",
                float(table.dur[top & (table.op == op)].sum()),
                "s",
            )
    for case in EVAL_CASES:
        if case in ops:
            evals = table.count(("drivers.gen",), op=ops.index(case))
            out.put(f"drivers.evals_per_level.{case}", evals / steps, "count")
    for name in ("solver.quad_err", "snell.recursion_err", "penalize.reduction_gap",
                 "solver.budget_defect_sampled"):
        if name in acc:
            out.put(name, acc[name], "err")


# --------------------------------------------------------------------- gate


def _gate_once(rb, run, out, tracer):
    """One full ``run_all``; returns its seconds and its audited solve count."""
    kwargs = {}
    if run.smoke:
        kwargs = {"cases": 2, "max_depth": 3, "schedule_max": 4}
    tracer.begin_op("run_all")
    t0 = time.perf_counter()
    try:
        reports, log = rb.run_all(seed=run.seed, **kwargs)
    except Exception as exc:  # counted as one failed suite run
        out.record("run_all", [repr(exc)])
        return time.perf_counter() - t0, 0
    wall = time.perf_counter() - t0
    for r in reports:
        errors = [] if r["passed"] else [
            f"{r['failures']} failures, max err {r['max_err']!r} > tol {r['tol']!r}"
        ]
        out.record(f"c{r['criterion']}", errors)
    return wall, log.solves


def gate(rb, run, trace):
    out = Outcome()
    setups = [cold_import_s(run.root, "rbsdelab") for _ in range(SETUP_REPS)]
    if not trace:
        def one():
            # only the audited solves are wrapped, to count their nodes
            tracer = Tracer()
            tracer.install(rb, only=("verify.CertificateLog.add",))
            try:
                wall, solves = _gate_once(rb, run, out, tracer)
            finally:
                tracer.uninstall()
            return wall, solves, tracer.nodes_solved

        control = Control("compute", run.smoke)
        rounds = rounds_until(
            run.seconds, one, control, slices=GATE_CONTROL_SLICES
        )
        wall = statistics.median(r[0] for r in rounds)
        put_times(out, control, statistics.median(setups), wall, [r[0] for r in rounds])
        put_rates(
            out,
            statistics.median(r[2] for r in rounds),
            statistics.median(r[1] for r in rounds),
            wall,
        )
        out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
        out.notes["rounds"] = len(rounds)
        out.notes["verify_solves"] = rounds[0][1]
        return out

    untraced, _ = _gate_once(rb, run, out, Tracer())
    trace_twice(
        rb,
        out,
        lambda tracer: _gate_once(rb, run, out, tracer),
        lambda target, tracer, result: put_layers(
            target, tracer, untraced, result[0], verify_solves=result[1]
        ),
    )
    out.put("cli.import_s", cli_import_s(run), "s")
    put_fail_ratio(out)
    return out


# ----------------------------------------------------------------- cli_cold


class Stage:
    """Scenario files for the CLI, written under the run's output directory."""

    def __init__(self, run):
        self.dir = run.out / f"cli-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir()
        demos = run.root / "demos" / "scenarios"
        self.paths = {}
        for name in DEMO_SCENARIOS:
            self.paths[name] = self.dir / f"{name}.json"
            self.paths[name].write_bytes((demos / f"{name}.json").read_bytes())
        self.table = inputs.TableScenario(run.seed, run.table_steps)
        self.paths["table"] = self.dir / "table.json"
        self.paths["table"].write_text(self.table.text())
        self.steps = {
            name: json.loads(self.paths[name].read_text())["grid"]["steps"]
            for name in DEMO_SCENARIOS
        }
        self.steps["table"] = run.table_steps
        self.first = {}

    def outdir(self, cmd, scn):
        return self.dir / f"out-{scn}-{cmd}"

    def clear(self, cmd, scn):
        d = self.outdir(cmd, scn)
        if d.exists():
            shutil.rmtree(d)

    def argv(self, cmd, scn):
        return [cmd, "--config", str(self.paths[scn]), "--out", str(self.outdir(cmd, scn))]

    def check(self, cmd, scn, code):
        """Exit code, byte-identity with the first output, table references."""
        if code is None:
            return [f"no exit within {CLI_TIMEOUT_S} s"]
        if code != 0:
            return [f"exit code {code}"]
        outputs = {
            p.name: p.read_bytes() for p in sorted(self.outdir(cmd, scn).glob("*.csv"))
        }
        if not outputs:
            return ["no CSV written"]
        key = (cmd, scn)
        if key not in self.first:
            self.first[key] = outputs
            if scn == "table":
                try:
                    return self._check_table(cmd, outputs)
                except (KeyError, ValueError, IndexError) as exc:
                    return [f"unreadable output: {exc!r}"]
            return []
        if outputs != self.first[key]:
            return ["CSV differs from the first output of this command"]
        return []

    def _check_table(self, cmd, outputs):
        tab = self.table
        if cmd == "envelope":
            cols = _csv_columns(outputs["envelope.csv"])
            gap = 0.0
            for col in cols:
                if col.startswith("env_"):
                    n = np.inf if col == "env_star" else float(col[4:])
                    ref = inputs.envelope_rescan(tab.times, tab.g, tab.weights, n)
                    gap = max(gap, _gap(cols[col], ref))
        else:
            ref = tab.expected_solve() if cmd == "solve" else tab.expected_snell()
            cols = _csv_columns(outputs["solution.csv"])
            gap = _gap(cols["Y"], np.concatenate(ref))
        return [] if gap <= inputs.CLI_TOL else [f"reference gap {gap!r}"]

    def csv_bytes(self):
        return sum(len(b) for out in self.first.values() for b in out.values())

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _csv_columns(data):
    """Numeric columns of a CSV file; blank fields read as NaN."""
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        h: np.array([float(r[k]) if r[k] else np.nan for r in rows])
        for k, h in enumerate(header)
    }


def _gap(got, want):
    if got.shape != want.shape:
        return np.inf
    same = got == want  # equal infinities count as no gap
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(got - want))
    return float(np.max(diff, initial=0.0))


def _solving(cmd):
    return cmd in ("solve", "snell", "penalize")


def _cold_round(run, stage, out):
    """Each CLI call once as a fresh process; returns the seconds of each."""
    env = child_env(run.root)
    times = []
    for cmd, scn in CLI_CALLS:
        stage.clear(cmd, scn)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rbsdelab.cli"] + stage.argv(cmd, scn),
            cwd=run.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        times.append(time.perf_counter() - t0)
        out.record(f"{cmd}:{scn}", stage.check(cmd, scn, code))
    return times


def _warm_round(rb_cli, stage, out, tracer=None):
    """Each CLI call once through ``main`` in this process."""
    total = 0.0
    for cmd, scn in CLI_CALLS:
        stage.clear(cmd, scn)
        if tracer is not None:
            tracer.begin_op(f"{cmd}:{scn}")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = rb_cli.main(stage.argv(cmd, scn))
        total += time.perf_counter() - t0
        out.record(f"{cmd}:{scn}", stage.check(cmd, scn, code))
    return total


def cli_cold(rb, run, trace):
    out = Outcome()
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        stage = Stage(run)
        setups.append(time.perf_counter() - t0)
    try:
        if not trace:
            control = Control("cold", run.smoke)
            rounds = rounds_until(
                run.seconds,
                lambda: _cold_round(run, stage, out),
                control,
                CLI_MIN_PASSES,
            )
            walls = [sum(r) for r in rounds]
            wall = statistics.median(walls)
            nodes = sum(
                stage.steps[scn] * (stage.steps[scn] + 1) / 2.0
                for cmd, scn in CLI_CALLS
                if _solving(cmd)
            )
            solving = sum(1 for cmd, _ in CLI_CALLS if _solving(cmd))
            put_times(
                out,
                control,
                statistics.median(setups),
                wall,
                [t for r in rounds for t in r],
            )
            put_rates(out, nodes, solving, wall)
            # the largest of the waited-for children: the CLI processes
            out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
            out.notes["rounds"] = len(rounds)
            return out

        untraced = _warm_round(rb.cli, stage, out)
        trace_twice(
            rb,
            out,
            lambda tracer: _warm_round(rb.cli, stage, out, tracer),
            lambda target, tracer, wall: put_layers(target, tracer, untraced, wall),
        )
        out.put("cli.import_s", cli_import_s(run), "s")
        out.put("cli.csv_bytes", stage.csv_bytes(), "bytes")
        put_fail_ratio(out)
        return out
    finally:
        stage.remove()


WORKLOADS = {"deep_solve": deep_solve, "gate": gate, "cli_cold": cli_cold}
