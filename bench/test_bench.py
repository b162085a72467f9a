"""Tests of the benchmark itself, on the short mode of each workload.

    python3 -m pytest bench -q

``--seconds 1`` still runs one whole round (two for ``cli``) and every check
on the outputs.  About two minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("materials.eps_calls", "materials.eps_points", "stack.reflection_calls",
          "stack.reflection_points", "quad.block_calls", "quad.terms", "quad.budget_exhausted",
          "engine.pressure_calls", "engine.terms_per_point",
          "engine.t0_integrand_calls_per_point", "fit.objective_evals_per_fit")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-3000:]
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_every_check(workload):
    result = result_of(run(workload, seed=7, trace=0))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # the fit from the infeasible start is the one operation of a round that fails
    expected_failed = result["attempted"] // 5 if workload == "fit" else 0
    assert result["failed"] == expected_failed
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0.0


@pytest.mark.parametrize("workload", ["sweep-300k", "sweep-t0"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(run(workload, seed, trace=1)) for seed in (3, 4))
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["quad.terms"]["value"] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sweep-300k", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
