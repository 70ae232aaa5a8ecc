"""Names the benchmark reads from the library: the tracer's functions, the harness's caches."""

import importlib
import types
from pathlib import Path

from pdabisim import GameContext

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    # executed from source, so nothing is written next to the benchmark
    path = BENCH / (name + ".py")
    module = types.ModuleType("bench_" + name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_library_name_resolves():
    spans = load_bench("spans")
    for (module, name, _) in spans.SPANS + spans.COUNTERS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    assert callable(GameContext.bisim)


def test_reported_metrics_are_metrics():
    spans = load_bench("spans")
    assert set(spans.REPORTED) <= {name for (name, _, _) in spans.METRICS}


def test_every_reported_cache_is_a_library_lru_cache():
    # the harness reads hits and misses off these caches; one that is gone
    # would leave its reported metrics at zero
    spans = load_bench("spans")
    module_of = {name: module for (module, name) in load_bench("harness").CACHES}
    names = {metric.split(".")[1] for metric in spans.REPORTED if metric.startswith("cache.")}
    assert names
    for name in names:
        cache = getattr(importlib.import_module(module_of[name]), name, None)
        assert callable(getattr(cache, "cache_info", None)), (module_of[name], name)
        assert callable(getattr(cache, "cache_clear", None)), (module_of[name], name)
