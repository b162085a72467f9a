"""The benchmark tracer wraps program names by attribute; each must exist."""

import importlib.util
from pathlib import Path

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
