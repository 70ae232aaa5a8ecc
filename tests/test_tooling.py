"""Names the benchmark reads from the library, and the layers each workload op reaches."""

import importlib
import random
import sys
import types
from pathlib import Path

import pdabisim as lib
from pdabisim import GameContext

import oracles

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


def _workload_ops():
    """One small case of each benchmark workload's op: (name, call)."""
    workloads = load_bench("workloads")
    pda = oracles.random_pda(random.Random(2003), 3, 3, 8)
    eq_case = next(
        c for c in workloads.eqlevel_cases(lib, oracles)
        if c.args[1].stack.is_finite and c.args[2].stack.is_finite
    )
    (inflated, start, lts) = workloads.inflated_pda(lib, random.Random(3), 4)
    return [
        ("regcheck", lambda: lib.decide_regularity(pda, workloads._first_config(lib, pda))),
        ("eqlevel", lambda: workloads.run_case(lib, eq_case)),
        ("reach", lambda: lib.bisim_pda_vs_finite(inflated, start, lts, "s0")),
    ]


def test_each_workload_reaches_the_reported_layers():
    # the traced benchmark prints the reported metrics only where a workload
    # reaches their layer; a case of each op must reach every one of them
    (spans, harness) = (load_bench("spans"), load_bench("harness"))
    for (name, call) in _workload_ops():
        caches = harness.existing_caches(sys.modules)
        harness.go_cold(caches)
        tracer = spans.Tracer(dict(sys.modules))
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        harness.go_cold(caches, tracer.record_cache)
        metrics = tracer.metrics(0.0)
        for metric in spans.REPORTED:
            value = metrics[metric]["value"]
            # None where the layer was never reached; a cache reached by a
            # small case may have only missed
            assert value is not None, (name, metric)
            assert value or metric.startswith("cache."), (name, metric)
