"""Smoke tests of the benchmark: every workload, traced and untraced.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
Each run uses ``--smoke``, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from spans import SpanTable, Tracer  # noqa: E402
from workloads import latency_stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in expected]
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in got.values())
    elif workload == "deep_solve":
        linear = got["drivers.evals_per_level.linear"]["value"]
        assert got["drivers.evals_per_level.linear_1e6"]["value"] >= 3 * linear


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "gate", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    inner = tracer.wrap("solver.leaf", leaf)

    def outer():
        time.sleep(0.01)
        inner()
        inner()

    tracer.begin_op("op")
    tracer.wrap("solver.outer", outer)()
    table = SpanTable(tracer.frame())
    total = table.total(("solver.outer",))
    leaves = table.total(("solver.leaf",))
    assert table.count(("solver.leaf",)) == 2 and leaves >= 0.04
    outer = table.name == table.names.index("solver.outer")
    assert abs(table.self_time[outer].sum() - (total - leaves)) < 1e-9
    assert abs(table.layer_self("solver") - total) < 1e-9


def test_tail_has_ten_samples_beyond_it():
    p50, tail, pct, n = latency_stats(list(range(30)))
    assert (p50, tail, n) == (14.5, 19, 30)
    assert sum(1 for x in range(30) if x > tail) == 10
    assert latency_stats([3.0, 1.0, 2.0])[1:3] == (3.0, 100.0)
