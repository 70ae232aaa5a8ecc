"""Per-layer spans and counters, recorded around the library's public entry points.

Each traced name is replaced by a wrapper in every ``pdabisim`` module that
imported it, so calls between layers are seen as well as calls from the
benchmark.  A span's self time is its duration minus the time of the spans
it caused.  Hot functions get a call counter instead of a span.  Spans are
aggregated in memory per name; nothing is written while a case runs.
"""

import functools
import time
from collections import Counter, defaultdict

# (module, function, metric prefix) wrapped in a timed span
SPANS = (
    ("pdabisim.reachability", "poststar", "reachability.poststar"),
    ("pdabisim.reachability", "reachable_truncations", "reachability.reachable_truncations"),
    ("pdabisim.transformers", "compute_transformers", "transformers.compute_transformers"),
    ("pdabisim.transformers", "apply_set_transformer", "transformers.apply_set_transformer"),
    ("pdabisim.lts", "eqlevel", "lts.eqlevel"),
    ("pdabisim.lts", "bounded_bisim", "lts.bounded_bisim"),
    ("pdabisim.lts", "region", "lts.region"),
    ("pdabisim.lts", "quotient_finite", "lts.quotient_finite"),
    ("pdabisim.equivalence", "eqlevel_configs", "equivalence.eqlevel_configs"),
    ("pdabisim.equivalence", "certify_bisimilar", "equivalence.certify_bisimilar"),
    ("pdabisim.equivalence", "limit_level_bound", "equivalence.limit_level_bound"),
    ("pdabisim.equivalence", "bisim_pda_vs_finite", "equivalence.bisim_pda_vs_finite"),
    ("pdabisim.regularity", "pump_bound", "regularity.pump_bound"),
    ("pdabisim.regularity", "verify_witness", "regularity.verify_witness"),
    ("pdabisim.pda", "normalize_rules", "pda.normalize_rules"),
    ("pdabisim.certs", "check_document", "certs.check_document"),
)

# (module, function, metric prefix) that only count calls
COUNTERS = (
    ("pdabisim.reachability", "saturation_edges", "reachability.saturation_edges"),
    ("pdabisim.equivalence", "absorb_dead_tail", "equivalence.absorb_dead_tail"),
    ("pdabisim.pda", "step", "pda.step"),
)

CERT_KINDS = ("finite-level", "bisimulation", "regular", "witness")
CACHE_NAMES = (
    "_rule_index", "cached_normalized", "cached_transformers", "cached_poststar",
    "cached_truncations",
)
ROUTES = ("equal", "finite_graph", "closure", "finite", "none")


def _layer(layer, *fields):
    """(name, unit, layer) of the metrics ``<layer>.<field>``."""
    return [("%s.%s" % (layer, f), unit, layer) for (f, unit) in fields]


def _metrics():
    """(name, unit, layer) of every per-layer metric, in print order.

    ``layer`` is the call count that shows whether a workload reached the
    code behind the metric; where it is 0 the metric is n/a, not 0.
    """
    calls, self_s = ("calls", "count"), ("self_s", "s")
    out = _layer("reachability.poststar", calls, self_s, ("edges", "count"))
    out += _layer("reachability.saturation_edges", calls)
    out += _layer("reachability.reachable_truncations", calls, self_s, ("results", "count"),
                  ("budget_errors", "count"))
    out += _layer("transformers.compute_transformers", calls, self_s, ("triples", "count"))
    out += _layer("transformers.apply_set_transformer", calls, self_s)
    out += [("lts.game.bisim_calls", "count", "lts.game.bisim")]
    out += _layer("lts.eqlevel", calls, self_s)
    out += _layer("lts.bounded_bisim", calls, self_s)
    out += _layer("lts.region", calls, self_s, ("states", "count"), ("budget_errors", "count"))
    out += _layer("lts.quotient_finite", self_s)
    out += _layer("equivalence.eqlevel_configs", calls, self_s)
    out += _layer("equivalence.certify_bisimilar", calls, self_s,
                  *[(r, "count") for r in ROUTES], ("useful_share", "share"))
    out += _layer("equivalence.limit_level_bound", calls, self_s, ("exact_share", "share"))
    out += _layer("equivalence.absorb_dead_tail", calls)
    out += _layer("equivalence.bisim_pda_vs_finite", self_s)
    out += _layer("regularity.pump_bound", calls, self_s)
    out += _layer("regularity.verify_witness", calls, self_s)
    out += [("regularity.%s" % f, unit, "regularity.verdicts")
            for (f, unit) in (("path_nodes", "count"), ("candidates", "count"),
                              ("positive_levels", "count"), ("witness_yield", "share"))]
    out += _layer("pda.normalize_rules", self_s)
    out += _layer("pda.step", calls)
    out += [("certs.check_document.self_s.%s" % k, "s", "certs.check_document.%s" % k)
            for k in CERT_KINDS]
    for name in CACHE_NAMES:
        out += [("cache.%s.hits" % name, "count", "cache." + name),
                ("cache.%s.misses" % name, "count", "cache." + name)]
    out += [("trace.overhead_s", "s", None)]
    return out


METRICS = _metrics()

# The per-layer metrics of the JSON result: those every workload reaches,
# so none reads n/a or a structural 0.  The table prints all of METRICS.
REPORTED = (
    "lts.game.bisim_calls",
    "lts.eqlevel.calls",
    "lts.eqlevel.self_s",
    "pda.step.calls",
    "cache._rule_index.hits",
    "cache._rule_index.misses",
)


def _share(num, den):
    return num / den if den else None


class Tracer:
    """Installs wrappers into the loaded library and aggregates what they see."""

    def __init__(self, modules):
        self.modules = modules
        self.lib_modules = [m for (n, m) in modules.items()
                            if n == "pdabisim" or n.startswith("pdabisim.")]
        self.budget_error = modules["pdabisim.errors"].BudgetError
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.cache = Counter()
        self.stack = []
        self._undo = []

    # -- installing -------------------------------------------------------

    def _replace(self, original, wrapper):
        for module in self.lib_modules:
            for (name, value) in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))

    def _span(self, prefix, fn):
        tracer = self
        on_result = getattr(self, "_after_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = prefix
            if prefix == "certs.check_document":
                name = "%s.%s" % (prefix, args[0].get("kind"))
            frame = [0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.budget_error as exc:
                tracer.counts[prefix + ".budget_errors"] += 1
                if prefix == "lts.region" and exc.partial is not None:
                    tracer.counts["lts.region.states"] += len(exc.partial)
                raise
            finally:
                spent = time.perf_counter() - start
                tracer.stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += spent - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += spent
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, prefix, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for (module, fn_name, prefix) in SPANS:
            original = getattr(self.modules[module], fn_name)
            self._replace(original, self._span(prefix, original))
        for (module, fn_name, prefix) in COUNTERS:
            original = getattr(self.modules[module], fn_name)
            self._replace(original, self._counter(prefix, original))
        game = self.modules["pdabisim.lts"].GameContext
        original = game.bisim
        game.bisim = self._counter("lts.game.bisim", original)
        self._undo.append((game, "bisim", original))

    def uninstall(self):
        for (owner, name, original) in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # -- result-derived counts -------------------------------------------

    def _after_poststar(self, aut):
        self.counts["reachability.poststar.edges"] += len(aut.edges)

    def _after_reachable_truncations(self, found):
        self.counts["reachability.reachable_truncations.results"] += len(found)

    def _after_compute_transformers(self, table):
        self.counts["transformers.compute_transformers.triples"] += len(table.triples)

    def _after_region(self, states):
        self.counts["lts.region.states"] += len(states)

    def _after_limit_level_bound(self, result):
        (bound, _) = result
        self.counts["equivalence.limit_level_bound.exact"] += int(bound.exact)

    def _after_certify_bisimilar(self, result):
        if result is None:
            route = "none"
        elif result.is_finite:
            route = "finite"
        else:
            route = result.certificate.kind.replace("-", "_")
        self.counts["equivalence.certify_bisimilar." + route] += 1

    def record_cache(self, name, info):
        self.cache["cache.%s.hits" % name] += info.hits
        self.cache["cache.%s.misses" % name] += info.misses
        self.calls["cache." + name] += info.hits + info.misses

    def record_verdict(self, verdict):
        stats = dict(verdict.stats)
        self.calls["regularity.verdicts"] += 1
        self.counts["regularity.path_nodes"] += stats.get("path-nodes", 0)
        self.counts["regularity.candidates"] += stats.get("negative-candidates", 0)
        self.counts["regularity.positive_levels"] += stats.get("positive-levels", 0)
        if verdict.winner == "negative":
            self.counts["regularity.verified_witnesses"] += 1

    # -- report ---------------------------------------------------------------

    def metrics(self, overhead_s):
        """name -> {"value", "unit"} of every per-layer metric; value None where n/a."""
        values = {}
        for (prefix, calls) in self.calls.items():
            values[prefix + ".calls"] = calls
        values["lts.game.bisim_calls"] = self.calls["lts.game.bisim"]
        for (name, spent) in self.self_s.items():
            if name.startswith("certs.check_document."):
                kind = name[len("certs.check_document."):]
                values["certs.check_document.self_s." + kind] = spent
            else:
                values[name + ".self_s"] = spent
        values.update(self.counts)
        values.update(self.cache)
        certify = "equivalence.certify_bisimilar"
        useful = sum(self.counts[certify + "." + r] for r in ROUTES if r != "none")
        values[certify + ".useful_share"] = _share(useful, self.calls[certify])
        limit = "equivalence.limit_level_bound"
        values[limit + ".exact_share"] = _share(self.counts[limit + ".exact"], self.calls[limit])
        values["regularity.witness_yield"] = _share(
            self.counts["regularity.verified_witnesses"], self.counts["regularity.candidates"]
        )
        values["trace.overhead_s"] = overhead_s
        out = {}
        for (name, unit, layer) in METRICS:
            reached = layer is None or self.calls[layer] > 0
            out[name] = {"value": values.get(name, 0) if reached else None, "unit": unit}
        return out
