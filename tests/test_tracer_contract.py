"""The benchmark tracer wraps program names by attribute; each must exist, and
the arguments it reads by position must sit where it reads them."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from lifshitz_plates import engine

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer.saved) == len(spans.WRAPPED)
        for (module, attr, _, _), original in zip(spans.WRAPPED, originals):
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (module, attr, _, _), original in zip(spans.WRAPPED, originals):
        assert getattr(module, attr) is original, attr


@pytest.mark.parametrize("name, positions", [
    ("_pol_integrals", {3: "rule"}),
    ("_pol_integrals_zero", {2: "rule"}),
    ("_block_terms_scaled", {2: "ls", 4: "quad_rel_tol", 5: "scale_hint"}),
    ("pressure", {2: "settings"}),
    ("pressure_zero_temperature", {2: "settings"}),
])
def test_traced_arguments_keep_their_positions(name, positions):
    params = list(inspect.signature(getattr(engine, name)).parameters)
    assert {i: params[i] for i in positions} == positions
