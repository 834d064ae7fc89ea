"""The documented examples run: every demo script, the README's
Quick start block and the demos' CLI scenario commands, each in a
fresh interpreter.  The README's command line usage lists the flags
the parser accepts."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rbsdelab
from rbsdelab.cli import _parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    paths = [str(Path(rbsdelab.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable] + args,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _quick_start_block():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Quick start\n", 1)[1]
    match = re.search(r"```python\n(.*?)\n```", section, re.DOTALL)
    return match.group(1)


def _cli_scenario_commands():
    """Argument lists of the ``rbsdelab`` lines in demos/README.md's
    "CLI scenarios" block."""
    text = (ROOT / "demos" / "README.md").read_text()
    section = text.split("\n## CLI scenarios\n", 1)[1]
    block = re.search(r"```sh\n(.*?)\n```", section, re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()]


def _readme_usage_flags():
    """Flags of each subcommand in README.md's "Command line" usage
    block: a line starting ``rbsdelab <subcommand>`` and the lines
    continuing it, comments left out."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)\n```", section, re.DOTALL).group(1)
    flags, current = {}, None
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["rbsdelab"]:
            current = flags.setdefault(words[1], set())
        if current is not None:
            current.update(re.findall(r"--[a-z][a-z-]*", " ".join(words)))
    return flags


def test_readme_usage_lists_the_parser_flags():
    # a flag the parser dropped, or one it gained, shows up here first
    (sub,) = [
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        name: {
            flag
            for action in p._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, p in sub.choices.items()
    }
    assert _readme_usage_flags() == accepted


def test_demo_scripts_are_found():
    # an empty glob would parametrize the demo test away silently
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    out = _run([str(script)], tmp_path)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs(tmp_path):
    block = _quick_start_block()
    assert "solve_rbsde" in block
    out = _run(["-c", block], tmp_path)
    assert out.returncode == 0, out.stderr


def test_demo_cli_scenarios_run(tmp_path):
    # verify runs the full acceptance gate, which test_acceptance.py covers
    commands = [c for c in _cli_scenario_commands() if c[0] != "verify"]
    assert len(commands) == 4
    for args in commands:
        out = args.index("--out") + 1
        args[out] = str(tmp_path / args[out])
        done = _run(["-m", "rbsdelab.cli"] + args, ROOT)
        assert done.returncode == 0, (args, done.stderr)
        assert (Path(args[out]) / "manifest.json").exists()
