"""The documented examples run: every demo script and the README's
Quick start block, each in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbsdelab

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
