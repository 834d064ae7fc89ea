"""End-to-end checks of the command line front end: scenario parsing,
exit codes, CSV artifacts, manifest contents, and byte determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbsdelab
from rbsdelab.barriers import envelope_profile, envelope_star_profile
from rbsdelab.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _BLOCK,
    ScenarioConfig,
    _parser,
    main,
)
from rbsdelab.lattice import entry_levels, level_offset
from rbsdelab.snell import SnellInstance, snell_envelope
from rbsdelab.solver import solve_rbsde


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_scenario(**overrides):
    doc = {
        "schema": 1,
        "seed": 5,
        "grid": {"T": 1.0, "steps": 5},
        "driver": {"name": "linear", "params": {"a": 0.3, "b": 0.2, "c": 0.1}},
        "barriers": {
            "L": {"kind": "constant", "value": -2.0},
            "U": {"kind": "constant", "value": 2.0},
            "l": [{"time": 3, "value": -1.5}],
            "u": [{"time": 4, "value": 1.5}],
        },
        "measures": {
            "delta": [{"time": 3, "mass": 1.0}],
            "alpha": [{"time": 4, "mass": 0.5}],
        },
        "terminal": {"kind": "shape", "sin": 0.4, "offset": 0.2},
    }
    doc.update(overrides)
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ----------------------------------------------------------------- solve


def test_solve_writes_solution_and_manifest(tmp_path):
    cfg = write_config(tmp_path, base_scenario())
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "solution.csv")
    assert header == [
        "level", "node", "t", "Y", "Z", "dKplus", "dKminus", "L_eff", "U_eff",
    ]
    # one row per node of a depth-5 tree
    assert len(rows) == sum(i + 1 for i in range(6))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert manifest["artifacts"] == ["solution.csv"]
    assert manifest["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()
    ).hexdigest()
    assert manifest["versions"]["rbsdelab"]
    assert manifest["timings"]["total_s"] >= 0.0


@pytest.mark.parametrize("subcommand", ["solve", "snell", "envelope", "verify"])
def test_manifest_times_each_phase(tmp_path, subcommand):
    doc = witness_scenario() if subcommand == "envelope" else base_scenario()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    argv = [subcommand, "--config", str(cfg), "--out", str(out)]
    if subcommand == "verify":
        argv += ["--cases", "1", "--depth", "2", "--schedule-max", "4"]
    assert main(argv) == EXIT_OK
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    phases = ("parse_s", "build_s", "run_s", "write_s")
    assert set(timings) == {"total_s", *phases}
    assert all(timings[k] >= 0.0 for k in timings)
    assert sum(timings[k] for k in phases) <= timings["total_s"]


def test_solve_output_is_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, base_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "solution.csv").read_bytes() == (
        out2 / "solution.csv"
    ).read_bytes()


def test_solve_zero_driver_constant_terminal_round_trip(tmp_path):
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 4},
        "driver": {"name": "zero", "params": {}},
        "terminal": {"kind": "constant", "value": 0.75},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "solution.csv")
    y_col = header.index("Y")
    z_col = header.index("Z")
    for row in rows:
        assert float(row[y_col]) == 0.75
        if row[z_col]:
            assert float(row[z_col]) == 0.0


def test_terminal_blank_step_columns(tmp_path):
    cfg = write_config(tmp_path, base_scenario())
    out = tmp_path / "run"
    main(["solve", "--config", str(cfg), "--out", str(out)])
    header, rows = read_csv(out / "solution.csv")
    for row in rows:
        is_terminal = row[0] == "5"
        for col in ("Z", "dKplus", "dKminus"):
            assert (row[header.index(col)] == "") == is_terminal


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(frobnicate=True),
        lambda d: d.update(schema=2),
        lambda d: d.pop("grid"),
        lambda d: d["grid"].update(steps=2.5),
        lambda d: d.update(driver={"name": "cubic", "params": {}}),
        lambda d: d["barriers"]["l"].append({"time": 99, "value": 0.0}),
        lambda d: d["measures"]["delta"].append({"time": 3, "mass": 1.0}),
        lambda d: d.update(penalization={"schedule": [4, 2, 1]}),
        lambda d: d.update(terminal={"kind": "payoff", "form": "straddle",
                                     "strike": 1.0}),
        lambda d: d.update(terminal={"kind": ["shape"]}),
        lambda d: d["barriers"]["l"].append({"time": 3, "value": -1.0}),
        lambda d: d["barriers"]["u"].append({"time": 4, "value": 1.0}),
        lambda d: d["barriers"]["l"][0].update(values=[-1.5, -1.4, -1.3]),
        lambda d: d.pop("terminal"),
        lambda d: d.update(terminal={"kind": "table", "values": [0.0, 1.0]}),
        # the penalty weights' rule holds for every subcommand
        lambda d: d.update(penalization={"schedule": [4]}),
        lambda d: d.update(penalization={"schedule": [0, 1.5, 3]}),
    ],
)
def test_bad_configs_exit_1(tmp_path, mangle, capsys):
    doc = base_scenario()
    mangle(doc)
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    # nothing was written, so there is no output directory
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "entry, says",
    [
        ({"time": 3, "value": -1.0}, "barriers.l[1] repeats time 3"),
        ({"time": 2, "value": -1.0, "values": [-1.0, -0.9]},
         "barriers.l[1] gives both value and values"),
    ],
    ids=["repeated-time", "value-and-values"],
)
def test_time_indexed_lists_reject_ambiguity(tmp_path, capsys, entry, says):
    doc = base_scenario()
    doc["barriers"]["l"].append(entry)
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert says in capsys.readouterr().err


_TABLE_LEVELS = [[0.1 * j for j in range(i + 1)] for i in range(6)]


@pytest.mark.parametrize(
    "place, node, key",
    [
        ("terminal", {"kind": "constant", "value": 1.0, "strike": 5.0},
         "strike"),
        ("L", {"kind": "table", "levels": _TABLE_LEVELS, "sin": 3.0}, "sin"),
        ("L", {"kind": "payoff", "form": "put", "strike": 1.0,
               "levels": _TABLE_LEVELS}, "levels"),
        ("U", {"kind": "shape", "offset": 2.0, "value": 2.0}, "value"),
        ("terminal", {"kind": "shape", "sin": 0.4, "values": [0.0] * 6},
         "values"),
        ("penalization", {"schedule": [0, 1, 2], "tol": 1e-6}, "tol"),
    ],
    ids=["constant", "table", "payoff", "shape", "shape-values",
         "penalization"],
)
def test_keys_of_another_kind_exit_1(tmp_path, capsys, place, node, key):
    doc = base_scenario()
    if place in ("L", "U"):
        doc["barriers"][place] = node
    else:
        doc[place] = node
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert f"unknown key {key!r}" in capsys.readouterr().err


def _with_table(place, table):
    """The base scenario with ``table`` as the terminal, the witness or
    the lower obstacle ``L``, by ``place``."""
    if place == "witness":
        return witness_scenario() | {"witness": table}
    doc = base_scenario()
    if place == "L":
        doc["barriers"]["L"] = table
    else:
        doc[place] = table
    return doc


@pytest.mark.parametrize(
    "place, table, says",
    [
        ("terminal", {"kind": "table", "values": {"a": 1}},
         "terminal.values must hold numbers: "),
        ("terminal", {"kind": "table", "values": [0.0, "x", 0.0, 0.0, 0.0, 0.0]},
         "terminal.values must hold numbers: "),
        ("witness", {"kind": "table", "levels": [{"a": 1}] * 6},
         "witness.levels[0] must hold numbers: "),
        ("witness", {"kind": "table", "levels": _TABLE_LEVELS[:3]
                     + [[0.0, 0.1, "x", 0.3]] + _TABLE_LEVELS[4:]},
         "witness.levels[3] must hold numbers: "),
        ("L", {"kind": "table", "levels": _TABLE_LEVELS[:1] + [[0.0, [1.0]]]
               + _TABLE_LEVELS[2:]},
         "barriers.L.levels[1] must hold numbers: "),
        ("L", {"kind": "table"}, "barriers.L.levels is required for a table"),
        ("L", {"kind": "table", "levels": {"0": [0.0]}},
         "barriers.L.levels must be a list of rows"),
        ("terminal", {"kind": "table", "levels": _TABLE_LEVELS[:5]},
         "terminal.levels needs 6 rows, got 5"),
        ("witness", {"kind": "table", "levels": _TABLE_LEVELS[:2] + [[0.0, 0.1]]
                     + _TABLE_LEVELS[3:]},
         "witness.levels[2] needs 3 entries"),
    ],
    ids=["values-object", "values-string", "rows-objects", "row-string",
         "row-ragged", "no-levels", "levels-not-a-list", "row-count",
         "row-length"],
)
def test_tables_that_do_not_read_exit_1_naming_the_row(
    tmp_path, capsys, place, table, says
):
    # every table error is the CLI's config error line, never a traceback,
    # and names the path and row it found it in
    cfg = write_config(tmp_path, _with_table(place, table))
    command = "penalize" if place == "witness" else "solve"
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {says}"), err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_missing_terminal_without_witness_exits_1(tmp_path, capsys):
    doc = base_scenario()
    doc.pop("terminal")
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "terminal" in capsys.readouterr().err


def test_bad_flags_exit_1(capsys):
    assert main(["solve", "--no-such-flag"]) == EXIT_CONFIG
    capsys.readouterr()


# the flags each subcommand acts on; every other use is rejected
_ACTING_FLAGS = {
    "solve": (),
    "penalize": ("--schedule-max",),
    "snell": (),
    "envelope": (),
    "verify": ("--seed", "--depth", "--cases", "--schedule-max"),
}


@pytest.mark.parametrize("subcommand", sorted(_ACTING_FLAGS))
def test_flags_only_where_they_act(tmp_path, subcommand, capsys):
    cfg = write_config(tmp_path, base_scenario())
    head = [subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")]
    # no subcommand takes --tol: the gate's tolerances are fixed
    for flag in ("--seed", "--depth", "--cases", "--tol", "--schedule-max"):
        if flag in _ACTING_FLAGS[subcommand]:
            _parser().parse_args(head + [flag, "3"])
        else:
            assert main(head + [flag, "3"]) == EXIT_CONFIG
            assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_import_does_not_load_scipy():
    paths = [str(Path(rbsdelab.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    probe = "import sys, rbsdelab.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_crossed_obstacles_exit_2(tmp_path, capsys):
    doc = base_scenario()
    doc["barriers"] = {
        "L": {"kind": "constant", "value": 1.0},
        "U": {"kind": "constant", "value": -1.0},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "(level 0, node 0)" in err


def test_divergent_implicit_step_exits_3(tmp_path, capsys):
    # dt = 0.5 and a = 2.0 make the implicit linear step degenerate:
    # the fixed-point equation has no root, which must surface as a
    # numerical failure, not a crash.
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 2},
        "driver": {"name": "linear", "params": {"a": 2.0, "c": 1.0}},
        "terminal": {"kind": "constant", "value": 0.0},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_drift_summing_past_the_largest_float_exits_3(tmp_path, capsys):
    # finite terminal value and drift whose sum overflows in the
    # implicit step: a numerical failure at its node
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 1},
        "driver": {"name": "constant", "params": {"value": 1.7e308}},
        "terminal": {"kind": "table", "values": [1e308, 0.0]},
    }
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "non-finite drift value at (level 0, node 0)" in capsys.readouterr().err


def test_slope_past_one_over_dt_exits_3(tmp_path, capsys):
    # a = 6 at dt = 0.2 leaves 1 - a dt negative: the step has no root,
    # which is named before the first step, as a numerical failure
    doc = base_scenario(
        driver={"name": "linear", "params": {"a": 6.0, "b": 0.2, "c": 0.1}}
    )
    cfg = write_config(tmp_path, doc)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "1 - slope*dt is" in err
    assert "not positive, in row 0 at (level 4, node 0)" in err


def test_drifting_witness_fails_snell_audit_with_exit_3(tmp_path, capsys):
    doc = base_scenario()
    doc["witness"] = {"kind": "shape", "linear": 0.3, "time": 0.5}
    doc["bounds"] = {"eta": 1.0, "C": 0.5}
    cfg = write_config(tmp_path, doc)
    code = main(["snell", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "martingale" in capsys.readouterr().err


# -------------------------------------------------------------- penalize


def witness_scenario():
    return {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 5},
        "driver": {"name": "linear", "params": {"a": 0.2, "b": 0.1, "c": 0.05}},
        "bounds": {"eta": 1.5, "C": 0.5},
        "witness": {
            "kind": "shape",
            "sin": 0.3,
            "freq": 1.5,
            "linear": 0.2,
            "time": -0.1,
            "offset": 0.2,
        },
        "barriers": {
            "L": {"kind": "shape", "sin": 0.3, "freq": 1.5, "linear": 0.2,
                  "time": -0.1, "offset": -0.2},
            "U": {"kind": "shape", "sin": 0.3, "freq": 1.5, "linear": 0.2,
                  "time": -0.1, "offset": 0.6},
            "l": [{"time": 2, "value": -0.6}],
            "u": [{"time": 4, "value": 1.2}],
        },
        "measures": {
            "delta": [{"time": 2, "mass": 1.0}],
            "alpha": [{"time": 4, "mass": 1.0}],
        },
        "penalization": {"schedule": [0, 1, 2, 4, 8, 16]},
    }


def test_penalize_writes_both_tables(tmp_path):
    cfg = write_config(tmp_path, witness_scenario())
    out = tmp_path / "run"
    code = main(["penalize", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "penalization.csv")
    assert header == ["side", "n", "sup_gap", "y0"]
    sides = {row[0] for row in rows}
    assert sides == {"lower", "upper"}
    # one lower and one upper row per schedule weight
    assert len(rows) == 2 * 6
    assert (out / "solution.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == ["penalization.csv", "solution.csv"]


def test_reduction_disagreement_exits_3(tmp_path, capsys):
    # zero growth bounds cannot dominate a constant drift of 1, so the
    # reduced solve disagrees with the direct one
    doc = witness_scenario()
    doc["driver"] = {"name": "constant", "params": {"value": 1.0}}
    doc["bounds"] = {"eta": 0.0, "C": 0.0}
    cfg = write_config(tmp_path, doc)
    code = main(["penalize", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "reduction disagrees" in capsys.readouterr().err


def test_penalize_without_witness_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, base_scenario())
    code = main(["penalize", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "witness" in capsys.readouterr().err


def test_penalize_schedule_max_truncates(tmp_path):
    cfg = write_config(tmp_path, witness_scenario())
    out = tmp_path / "run"
    code = main([
        "penalize", "--config", str(cfg), "--out", str(out),
        "--schedule-max", "4",
    ])
    assert code == EXIT_OK
    _, rows = read_csv(out / "penalization.csv")
    assert max(int(row[1]) for row in rows) == 4


# ----------------------------------------------------------------- snell


def test_snell_put_scenario(tmp_path):
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 6},
        "barriers": {
            "L": {"kind": "payoff", "form": "put", "strike": 1.1},
            "l": [{"time": 3, "value": 0.6}],
        },
        "measures": {"delta": [{"time": 3, "mass": 1.0}]},
        "terminal": {"kind": "payoff", "form": "put", "strike": 1.1},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["snell", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "solution.csv")
    y_col, l_col = header.index("Y"), header.index("L_eff")
    for row in rows:
        assert float(row[y_col]) >= float(row[l_col]) - 1e-12


def test_snell_shows_numeric_warnings(tmp_path, capsys):
    # obstacles near the largest float overflow the expectation: the
    # run fails as a numerical failure naming the node, and the
    # warnings show
    big = 1.7e308
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 4},
        "barriers": {"L": {"kind": "constant", "value": big}},
        "terminal": {"kind": "table", "values": [big] * 5},
    }
    cfg = write_config(tmp_path, doc)
    with pytest.warns(RuntimeWarning) as seen:
        code = main(["snell", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    messages = [str(w.message) for w in seen]
    assert any("overflow" in m for m in messages)
    assert any("invalid value" in m for m in messages)
    assert "non-finite drift value at (level 3, node 0)" in capsys.readouterr().err


def test_terminal_values_table_reads_as_the_last_levels_row(tmp_path):
    # {"kind": "table", "values": [...]} gives the terminal level alone;
    # a levels table reads only its last row
    xi = [0.1 * j - 0.2 for j in range(6)]
    by_values = base_scenario(terminal={"kind": "table", "values": xi})
    by_levels = base_scenario(
        terminal={
            "kind": "table",
            "levels": [[9.0] * (i + 1) for i in range(5)] + [xi],
        }
    )
    csvs = []
    for name, doc in (("values", by_values), ("levels", by_levels)):
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        csvs.append((out / "solution.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert np.array_equal(ScenarioConfig(by_values).barriers.xi, xi)


def test_lebesgue_clock_and_call_payoff(tmp_path):
    doc = {
        "schema": 1,
        "grid": {"T": 1.0, "steps": 5},
        "barriers": {
            "L": {"kind": "payoff", "form": "call", "strike": 0.9},
            "l": [{"time": 2, "value": 0.4}],
        },
        "measures": {"delta": "lebesgue"},
        "terminal": {"kind": "payoff", "form": "call", "strike": 0.9},
    }
    scn = ScenarioConfig(doc)
    lat, bars = scn.lattice, scn.barriers
    walk = np.concatenate([lat.brownian(i) for i in range(lat.steps + 1)])
    assert np.array_equal(bars.L.values, np.maximum(np.exp(walk) - 0.9, 0.0))
    assert np.all(bars.delta.values == lat.dt)
    # the clock charges every time, so the floor at t_2 joins level 1
    assert np.array_equal(
        bars.low.level(1), np.maximum(bars.L.level(1), 0.4)
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["snell", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    cols = _columns(out / "solution.csv")
    assert np.array_equal(_bits(_floats(cols["L_eff"])), _bits(bars.low.values))


# -------------------------------------------------------------- envelope


def test_envelope_table(tmp_path):
    cfg = write_config(tmp_path, witness_scenario())
    out = tmp_path / "run"
    code = main(["envelope", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "envelope.csv")
    assert header[:4] == ["k", "t", "g", "mass"]
    assert header[-1] == "env_star"
    assert len(rows) == 6
    # the atom at time index 2 carries the obstacle value through
    # every transform; off-atom times collapse to -inf in the limit
    atom = rows[2]
    assert float(atom[header.index("env_1")]) == -0.6
    assert float(atom[header.index("env_star")]) == -0.6
    off = rows[4]
    assert math.isinf(float(off[header.index("env_star")]))
    # stronger relaxation rates never raise the transform
    n_cols = [header.index(f"env_{n}") for n in (1, 4, 16, 64, 256)]
    for row in rows:
        vals = [float(row[c]) for c in n_cols]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_envelope_needs_time_indexed_clock(tmp_path, capsys):
    doc = witness_scenario()
    # per-node obstacle values break the time-indexed table layout
    doc["barriers"]["l"] = [{"time": 2, "values": [-0.6, -0.5]}]
    cfg = write_config(tmp_path, doc)
    code = main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "time-indexed" in err
    assert "at time index 2)" in err


# ---------------------------------------------------------------- verify


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "verify", "--out", str(out), "--cases", "2", "--depth", "3",
        "--schedule-max", "8", "--seed", "3",
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    for k in range(1, 11):
        assert f"criterion {k}:" in printed
    header, rows = read_csv(out / "verify.csv")
    assert header == [
        "criterion", "name", "cases", "failures", "max_err", "tol", "status",
    ]
    assert [row[0] for row in rows] == [str(k) for k in range(1, 11)]
    assert all(row[-1] == "pass" for row in rows)


def test_verify_at_depth_two_passes(tmp_path, capsys):
    # the suites that need three steps draw at least depth 3
    out = tmp_path / "run"
    code = main([
        "verify", "--out", str(out), "--cases", "2", "--depth", "2",
        "--schedule-max", "8", "--seed", "3",
    ])
    assert code == EXIT_OK, capsys.readouterr().err
    _, rows = read_csv(out / "verify.csv")
    assert [row[-1] for row in rows] == ["pass"] * 10


@pytest.mark.parametrize(
    "sizes, says",
    [
        (["--cases", "-3", "--depth", "3"], "cases must be at least 1, got -3"),
        (["--cases", "0", "--depth", "3"], "cases must be at least 1, got 0"),
        (["--cases", "2", "--depth", "0"], "max_depth must be at least 1, got 0"),
        (["--cases", "2", "--depth", "-2"],
         "max_depth must be at least 1, got -2"),
    ],
    ids=["cases-negative", "cases-zero", "depth-zero", "depth-negative"],
)
def test_verify_rejects_sizes_below_one(tmp_path, capsys, sizes, says):
    out = tmp_path / "run"
    code = main(["verify", "--out", str(out), "--schedule-max", "8", *sizes])
    assert code == EXIT_CONFIG
    assert f"config error: {says}" in capsys.readouterr().err
    assert not out.exists()


def test_failed_gate_exits_3(tmp_path, capsys, monkeypatch):
    # a tolerance no error can meet fails criterion 5 alone: the run
    # still writes every row, marks the failure and exits 3
    from rbsdelab import verify

    monkeypatch.setattr(verify, "_CLOSED_FORM_TOL", -1.0)
    out = tmp_path / "run"
    code = main([
        "verify", "--out", str(out), "--cases", "2", "--depth", "3",
        "--schedule-max", "8", "--seed", "3",
    ])
    assert code == EXIT_NUMERICAL
    printed = capsys.readouterr()
    assert "[FAIL] criterion 5:" in printed.out
    assert printed.out.count("[FAIL]") == 1
    assert "verification failed" in printed.err
    _, rows = read_csv(out / "verify.csv")
    assert [row[-1] for row in rows] == ["pass"] * 4 + ["fail"] + ["pass"] * 5


def test_verify_reads_seed_from_config(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema": 1, "seed": 9, "outputs": {"report": "checks.csv"}},
    )
    out = tmp_path / "run"
    code = main([
        "verify", "--config", str(cfg), "--out", str(out),
        "--cases", "2", "--depth", "3", "--schedule-max", "8",
    ])
    assert code == EXIT_OK
    assert (out / "checks.csv").exists()


# ----------------------------------------------------------- output names


def test_output_filename_override(tmp_path):
    doc = base_scenario()
    doc["outputs"] = {"solution": "run42.csv"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "run42.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["run42.csv"]


@pytest.mark.parametrize("name", ["../x.csv", "../esc.csv", "sub/x.csv",
                                  "..", ".", "", 5])
@pytest.mark.parametrize("subcommand, key", [("solve", "solution"),
                                             ("verify", "report")])
def test_output_names_must_be_bare_file_names(
    tmp_path, capsys, subcommand, key, name
):
    doc = base_scenario()
    doc["outputs"] = {key: name}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run" / "out"
    code = main([
        subcommand, "--config", str(cfg), "--out", str(out),
    ] + (["--cases", "2", "--depth", "3", "--schedule-max", "8"]
         if subcommand == "verify" else []))
    assert code == EXIT_CONFIG
    assert f"outputs.{key} must be a bare file name" in capsys.readouterr().err
    # nothing is written, not even the output directory
    assert set(tmp_path.rglob("*")) == {cfg}


@pytest.mark.parametrize(
    "subcommand, outputs, says",
    [
        ("solve", {"solution": "manifest.json"},
         "outputs.solution names 'manifest.json', as does the manifest"),
        ("verify", {"report": "manifest.json"},
         "outputs.report names 'manifest.json', as does the manifest"),
        ("penalize", {"solution": "same.csv", "convergence": "same.csv"},
         "outputs.convergence names 'same.csv', as does outputs.solution"),
        ("solve", {"solution": "verify.csv"},
         "outputs.report names 'verify.csv', as does outputs.solution"),
    ],
    ids=["solution-manifest", "report-manifest", "two-outputs", "a-default"],
)
def test_output_names_must_not_collide(tmp_path, capsys, subcommand, outputs,
                                       says):
    doc = witness_scenario()
    doc["outputs"] = outputs
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert says in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------- writer columns


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _columns(path):
    header, rows = read_csv(path)
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _floats(column):
    return np.array([float(x) for x in column])


def test_solution_csv_reads_back_bitwise(tmp_path):
    # infinite obstacle entries and an entry constraint on both sides
    table = [[-np.inf if j % 3 == 0 else 0.1 * j - 1.0 for j in range(i + 1)]
             for i in range(6)]
    doc = base_scenario()
    doc["barriers"]["L"] = {"kind": "table", "levels": table}
    doc["barriers"]["U"] = {"kind": "table",
                            "levels": [[2.0 - v for v in row] for row in table]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    scn = ScenarioConfig(doc)
    lat, bars = scn.lattice, scn.barriers
    sol = solve_rbsde(lat, scn.driver, bars)
    assert np.isinf(bars.low.values).any() and np.isinf(bars.high.values).any()

    cols = _columns(out / "solution.csv")
    levels = entry_levels(lat.steps + 1)
    assert [int(x) for x in cols["level"]] == levels.tolist()
    nodes = np.arange(levels.size) - level_offset(levels)
    assert [int(x) for x in cols["node"]] == nodes.tolist()
    for name, want in [
        ("t", lat.times[levels]),
        ("Y", sol.Y.values),
        ("L_eff", bars.low.values),
        ("U_eff", bars.high.values),
    ]:
        assert np.array_equal(_bits(_floats(cols[name])), _bits(want)), name
    inner = level_offset(lat.steps)
    for name, proc in [("Z", sol.Z), ("dKplus", sol.Kplus),
                       ("dKminus", sol.Kminus)]:
        assert cols[name][inner:] == [""] * (lat.steps + 1)
        got = _floats(cols[name][:inner])
        assert np.array_equal(_bits(got), _bits(proc.values)), name


def one_string_solution_csv(sol, bars):
    """The solution table formatted whole, as one string: the reference
    that the block writer must match byte for byte."""
    lat = sol.lattice
    levels = entry_levels(lat.steps + 1)
    nodes = np.arange(levels.size) - level_offset(levels)
    blank = [""] * (lat.steps + 1)

    def reprs(values):
        return [repr(x) for x in np.asarray(values, dtype=float).tolist()]

    cols = [
        [str(i) for i in levels.tolist()],
        [str(j) for j in nodes.tolist()],
        reprs(lat.times[levels]),
        reprs(sol.Y.values),
        *(reprs(p.values) + blank for p in (sol.Z, sol.Kplus, sol.Kminus)),
        reprs(bars.low.values),
        reprs(bars.high.values),
    ]
    header = ["level", "node", "t", "Y", "Z", "dKplus", "dKminus", "L_eff",
              "U_eff"]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cols)])


@pytest.mark.parametrize("subcommand", ["solve", "snell"])
def test_block_writer_is_byte_identical_to_one_string(tmp_path, subcommand):
    # the terminal rows, whose step columns are blank, straddle the end
    # of the first block, and the table is longer than one block
    steps = 127
    assert level_offset(steps) < _BLOCK < level_offset(steps + 1)
    doc = base_scenario(grid={"T": 1.0, "steps": steps})
    if subcommand == "snell":
        doc["barriers"] = {
            "L": {"kind": "payoff", "form": "put", "strike": 1.1},
            "l": [{"time": 3, "value": 0.6}],
        }
        doc["measures"] = {"delta": [{"time": 3, "mass": 1.0}]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
    scn = ScenarioConfig(doc)
    bars = scn.barriers
    if subcommand == "solve":
        sol = solve_rbsde(scn.lattice, scn.driver, bars)
    else:
        inst = SnellInstance(bars.L, bars.l, bars.delta, bars.xi)
        bars = inst.barriers
        sol = snell_envelope(inst)
    want = one_string_solution_csv(sol, bars)
    assert want.count("\n") > _BLOCK + 1
    assert (out / "solution.csv").read_bytes() == want.encode()


def test_envelope_csv_reads_back_bitwise(tmp_path):
    doc = witness_scenario()
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    scn = ScenarioConfig(doc)
    times = scn.lattice.times
    # the scenario's lower entry constraint: -0.6 at time index 2
    g = np.full(times.size, -np.inf)
    g[2] = -0.6
    weights = scn.barriers.delta.weights_by_time()

    cols = _columns(out / "envelope.csv")
    assert [int(x) for x in cols["k"]] == list(range(times.size))
    want = {"t": times, "g": g, "mass": weights,
            "env_star": envelope_star_profile(times, g, weights).values}
    for n in (1, 4, 16, 64, 256):
        want[f"env_{n}"] = envelope_profile(times, g, weights, n).values
    assert set(cols) == {"k"} | set(want)
    for name, values in want.items():
        got = _bits(_floats(cols[name]))
        assert np.array_equal(got, _bits(values)), name
