"""The benchmark's tracer wraps library functions by name; those names must resolve."""

import importlib
import types
from pathlib import Path

from pdabisim import GameContext

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    # executed from source, so nothing is written next to the benchmark
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_traced_library_name_resolves():
    spans = load_spans()
    for (module, name, _) in spans.SPANS + spans.COUNTERS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    assert callable(GameContext.bisim)


def test_reported_metrics_are_metrics():
    spans = load_spans()
    assert set(spans.REPORTED) <= {name for (name, _, _) in spans.METRICS}
