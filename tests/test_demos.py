"""Each narrative demo runs to completion from a checkout, as the README
says: `PYTHONPATH=src python3 demos/<name>.py`, no install needed.  The
shell demo calls an installed `fvectors`; a shim on PATH stands in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_cli_demo_runs(tmp_path):
    shim = tmp_path / "fvectors"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m fvectors.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_demo.sh")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
