"""Benchmark of rbsdelab: one command, three workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload deep_solve --seed 1 --seconds 20 --trace 0

``--workload`` is ``deep_solve``, ``gate`` or ``cli_cold``.  With
``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` a traced run reports the per-layer metrics instead.
``--smoke`` runs the same workloads at a tiny size (used by
``bench/test_bench.py``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the environment record.  The same
result, with the environment and notes, is written to
``.bench_out/result-<workload>-<seed>-<trace>.json``.

The package is imported from ``src/`` of the checkout this script sits
in; without it the script exits with status 2 and prints no result.
"""

import argparse
import os
import sys
from pathlib import Path

# single-threaded numerics for this process and every child it starts;
# set before numpy is imported anywhere
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("deep_solve", "gate", "cli_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return p


def _git_commit(root):
    """Commit of the checkout read from ``.git``, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment():
    import platform

    import numpy
    import scipy

    return {
        "commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "rbsdelab" / "__init__.py").is_file():
        print(f"no rbsdelab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import json

    import rbsdelab
    import rbsdelab.cli  # noqa: F401  (traced with the other modules)

    if Path(rbsdelab.__file__).resolve().parent != SRC / "rbsdelab":
        print(f"rbsdelab imported from {rbsdelab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    run = workloads.Run(ROOT, args.seed, args.seconds, args.smoke)
    out = workloads.WORKLOADS[args.workload](rbsdelab, run, bool(args.trace))
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }
    env = environment()
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, smoke=args.smoke, environment=env,
                  notes=out.notes, failures=out.failures)
    stem = f"{args.workload}-{args.seed}-{args.trace}"
    (run.out / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if out.spans is not None:
        import numpy as np

        np.savez_compressed(run.out / f"spans-{stem}.npz", **out.spans)
    tail = out.notes.get("latency_tail")
    for name, (value, unit) in out.metrics.items():
        beside = ""
        if name == "latency_tail_s" and tail:
            beside = f"  (p{tail['percentile']:g} of {tail['samples']} samples)"
        print(f"{name:40s} {value:.6g} {unit}{beside}")
    for failure in out.failures:
        print(f"FAILED {failure}")
    print("notes: " + json.dumps(out.notes))
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
