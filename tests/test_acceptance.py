"""Acceptance gate: every verification suite at full scale.

Each criterion below runs through :mod:`rbsdelab.verify` at its stated
case count, depth, and tolerance, and emits one pass/fail line (shown
in the terminal summary and echoed on failure).  The randomized
instances are seeded, so the whole gate is reproducible; it completes
well inside a five-minute budget.
"""

import inspect
import time

import pytest

import conftest
from rbsdelab.verify import run_all

_SEED = 7


@pytest.fixture(scope="module")
def acceptance():
    started = time.perf_counter()
    reports, log = run_all(seed=_SEED)
    elapsed = time.perf_counter() - started
    by_criterion = {r["criterion"]: r for r in reports}
    conftest.ACCEPTANCE_LINES.clear()
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        line = (
            f"[{status}] criterion {r['criterion']}: {r['name']} | "
            f"cases {r['cases']} | failures {r['failures']} | "
            f"max err {r['max_err']:.3e} | tol {r['tol']:g}"
        )
        conftest.ACCEPTANCE_LINES.append(line)
    conftest.ACCEPTANCE_LINES.append(
        f"all suites: {log.solves} solves audited in {elapsed:.1f}s "
        f"(budget 300s)"
    )
    return by_criterion, log, elapsed


def _check(acceptance, k):
    by_criterion, _, _ = acceptance
    r = by_criterion[k]
    status = "PASS" if r["passed"] else "FAIL"
    detail = (
        f"[{status}] criterion {k}: {r['name']} | cases {r['cases']} | "
        f"failures {r['failures']} | max err {r['max_err']:.3e} | "
        f"tol {r['tol']:g}"
    )
    print(detail)
    assert r["passed"], detail
    return r


def test_criterion_1_envelope_matches_brute_force(acceptance):
    r = _check(acceptance, 1)
    assert r["cases"] == 1000


def test_criterion_2_left_limit_constraint_equivalence(acceptance):
    r = _check(acceptance, 2)
    assert r["cases"] == 1000


def test_criterion_3_envelope_vs_exhaustive_stopping(acceptance):
    r = _check(acceptance, 3)
    # 100 random stopping instances plus the strike-recursion ladder
    assert r["cases"] >= 100


def test_criterion_4_game_identification(acceptance):
    r = _check(acceptance, 4)
    # a draw whose enumerated game has no value counts as a failure
    assert r["cases"] == 100


def test_criterion_5_squared_slope_closed_form(acceptance):
    r = _check(acceptance, 5)
    assert r["cases"] == 21  # depths 4-10 x three curvatures


def test_criterion_6_penalized_ordering_ladder(acceptance):
    r = _check(acceptance, 6)
    assert r["cases"] == 100


def test_criterion_7_reduction_agreement(acceptance):
    r = _check(acceptance, 7)
    assert r["cases"] == 50


def test_criterion_8_reflection_certificates_on_every_solve(acceptance):
    r = _check(acceptance, 8)
    _, log, _ = acceptance
    assert r["cases"] == log.solves
    assert log.solves > 1000


def test_criterion_9_comparison_ordering(acceptance):
    r = _check(acceptance, 9)
    assert r["cases"] == 200


def test_criterion_10_per_path_budget(acceptance):
    r = _check(acceptance, 10)
    assert r["cases"] == 18


def test_suite_fits_time_budget(acceptance):
    _, _, elapsed = acceptance
    assert elapsed < 300.0


def test_no_argument_sets_a_tolerance():
    # the gate's tolerances are constants of rbsdelab.verify; a run can
    # be resized, never loosened
    from rbsdelab import verify

    assert list(inspect.signature(run_all).parameters) == [
        "seed", "cases", "max_depth", "schedule_max",
    ]
    suites = [
        getattr(verify, name)
        for name in verify.__all__
        if name.startswith("verify_") or name == "certificate_report"
    ]
    assert len(suites) == 10
    for suite in suites:
        params = inspect.signature(suite).parameters
        assert not [p for p in params if p.endswith("tol")], suite.__name__
