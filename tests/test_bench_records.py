"""Benchmark records: every ``BENCH_*.json`` at the root of the repository
holds paired ``bench/run.py`` results of a parent commit and a change, in
the workloads and end-to-end metrics that ``BENCHMARK.json`` declares.

A record maps ``workloads`` to a list of pairs; each pair holds the run's
``seed``, which side ran ``first``, and the ``parent`` and ``change`` values
of the end-to-end metrics by name."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_benchmark_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_only_declared_workloads_and_metrics(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    record = json.loads(path.read_text())
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for name, pairs in record["workloads"].items():
        assert pairs, f"{name}: no pairs"
        for pair in pairs:
            assert isinstance(pair["seed"], int) and pair["first"] in ("parent", "change")
            for side in ("parent", "change"):
                values = pair[side]
                assert values and set(values) <= metrics, f"{name}/{side}: {sorted(values)}"
                assert all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in values.values()), f"{name}/{side}: {values}"
            assert set(pair["parent"]) == set(pair["change"])
