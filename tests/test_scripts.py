"""The demo scripts under scripts/ run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidreps

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["census_demo.py"],
    ["witness_tour.py"],
    ["degeneracy_scan.py", "--points", "40"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    src = str(Path(braidreps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_replay_of_the_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "replay.py"), "--calls", "20",
         "--base-dir", str(SCRIPTS.parent)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "same bytes: 20\n" in proc.stdout
