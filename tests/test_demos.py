"""The scripts in ``demos/`` run to the end, in a fresh directory, without a RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / script)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
