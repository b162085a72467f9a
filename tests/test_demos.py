"""The documented public surface works: the scripts in ``demos/`` and README's
library example run to the end, in a fresh directory, without a
RuntimeWarning, and every exported name resolves."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lifshitz_plates

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(script, tmp_path):
    _run([str(ROOT / "demos" / script)], tmp_path)


def test_readme_library_example_runs(tmp_path):
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = _run(["-c", example], tmp_path)
    assert proc.stdout.strip().startswith("[")


def test_every_exported_name_resolves():
    missing = [name for name in lifshitz_plates.__all__ if not hasattr(lifshitz_plates, name)]
    assert missing == []
