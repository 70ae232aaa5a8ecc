"""Benchmark of the pdabisim library: seeded workloads, golden answers, a wall cap per case.

    python3 bench/run.py --workload regcheck --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all                  # every workload, each in a fresh interpreter
    python3 bench/run.py --workload reach --record-golden

One process and one thread drive the library.  Every case runs cold: the
library's caches are emptied and garbage collected, untimed, before each
timed call.  A case that hits the wall cap counts at exactly the cap and as
undecided.  Passes over the corpus run until the next one would end after
``--seconds``; a case capped in the first pass counts at the cap in later
passes without running again, and only the first pass checks certificates.
Each case counts at its median pass.  Every time is wall time scaled to a
fixed host speed, measured next to each call (see ``harness.Speed``).
Set-up is the time from the start of this script to the first timed case.  With
``--trace 1`` one untraced pass is followed by a traced one, which gives
the per-layer numbers and the tracing overhead.

The last line of standard output is one JSON object.  The exit code is 1
when any answer is wrong, any certificate is rejected or any case raised,
and 2 when the library cannot be loaded.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here, imports included

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import harness
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the operation whose per-case times give a workload's tail
TAIL_OP = {"regcheck": "regcheck", "eqlevel": "eqlevel", "reach": "bisim_finite"}

# The JSON result holds these.  tail_s and certcheck_s are printed in the
# table only: they rest on a few short calls, and on a shared VM their
# run-to-run spread reached 0.4 of their median, wider than any bound a
# gate may use.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("scaled_s", "s"),
    ("decided", "share"),
)


class LibraryMissing(Exception):
    pass


@dataclass
class Context:
    workload: str
    modules: dict
    cases: list
    golden: dict
    errors: list = field(default_factory=list)

    @property
    def lib(self):
        return self.modules["pdabisim"]

    @property
    def oracles(self):
        return self.modules["oracles"]

    def decided_at_baseline(self, case):
        golden = self.golden.get(case.key)
        return golden is not None and not golden.get("capped")


def golden_path(workload):
    return GOLDEN_DIR / ("%s.json" % workload)


def set_up(workload, seed):
    """Import the library, generate the corpus, load the golden answers."""
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        importlib.import_module("pdabisim")
        importlib.import_module("oracles")
    except ImportError as exc:
        raise LibraryMissing("cannot load the library from %s: %s" % (ROOT, exc))
    modules = {n: m for (n, m) in sys.modules.items()
               if n in ("pdabisim", "oracles") or n.startswith("pdabisim.")}
    lib = modules["pdabisim"]
    cases = workloads.build_corpus(workload, lib, modules["oracles"], seed)
    ctx = Context(workload, modules, cases, {})
    path = golden_path(workload)
    if path.exists():
        recorded = json.loads(path.read_text())
        ctx.golden = recorded["cases"]
        by_key = sorted(cases, key=lambda c: c.key)
        if recorded["corpus"] != workloads.corpus_hash(lib, by_key):
            ctx.errors.append("the golden file was recorded on another corpus")
        # cases capped at baseline run last, so the memory high-water mark
        # taken before them covers the decided cases only
        ctx.cases.sort(key=lambda c: not ctx.decided_at_baseline(c))
    return ctx


def judge(golden, got):
    """Error text when a finished case disagrees with its golden entry, else None.

    A case capped at baseline may now finish with any answer; its
    certificates are checked separately.
    """
    if golden is None:
        return "no golden answer"
    if golden.get("capped"):
        return None
    if got != golden["answer"]:
        return "answer %s, golden %s" % (json.dumps(got, sort_keys=True),
                                         json.dumps(golden["answer"], sort_keys=True))
    return None


@dataclass
class Pass:
    times: dict  # case key -> seconds, capped cases at the cap
    decided: int
    cases: int
    certcheck_s: float
    certs_capped: list
    errors: list
    records: dict
    peak_rss_mb: float

    @property
    def scaled_s(self):
        return sum(self.times.values())


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_cold(caches, on_clear, fn):
    harness.go_cold(caches, on_clear)
    return harness.capped(fn)


def check_certificates(ctx, caches, on_clear, case, answer):
    """(seconds, errors, capped kinds): re-check each certificate cold, after a text round trip.

    A check that hits the cap counts at the cap.  It is an error only for a
    case capped at baseline, which is accepted only if its certificates
    re-check.
    """
    certs = ctx.lib.certs
    spent = 0.0
    errors = []
    capped_kinds = []
    for doc in workloads.certificates(ctx.lib, case, answer):
        doc = certs.loads(certs.dumps(doc))
        (result, seconds, was_capped) = timed_cold(
            caches, on_clear, lambda: certs.check_document(doc))
        spent += seconds
        if was_capped and ctx.decided_at_baseline(case):
            capped_kinds.append(doc["kind"])
        elif was_capped:
            errors.append("the %s certificate hit the cap" % doc["kind"])
        elif not result.ok:
            errors.append("the %s certificate is rejected: %s" % (doc["kind"], result.detail))
    return (spent, errors, capped_kinds)


def run_pass(ctx, tracer=None, record=False, capped_before=None, certify=True):
    """One pass over the corpus.

    ``capped_before`` is None in a first pass.  Otherwise it holds the cases
    capped in the first pass, which count at the cap without running, and
    the untimed oracle checks are skipped, since the first pass made them.
    ``certify`` re-checks the certificates of the answers.
    """
    caches = harness.existing_caches(ctx.modules)
    on_clear = tracer.record_cache if tracer is not None else None
    times = {}
    decided = 0
    certcheck_s = 0.0
    certs_capped = []
    errors = []
    records = {}
    peak_rss_mb = None
    harness.go_cold(caches)  # so the tracer sees no counts left by an earlier pass
    for case in ctx.cases:
        golden = ctx.golden.get(case.key)
        gated = ctx.decided_at_baseline(case)
        if tracer is not None:
            tracer.stack.clear()  # a cap firing inside a wrapper may leave a frame behind
        if peak_rss_mb is None and golden is not None and not gated:
            peak_rss_mb = max_rss_mb()
        if capped_before is not None and case.key in capped_before:
            seconds = harness.CAP_S
            records[case.key] = {"capped": True, "seconds": seconds}
        else:
            (answer, seconds, was_capped, problems) = run_case(
                ctx, caches, on_clear, case, tracer, checks=capped_before is None)
            if was_capped:
                records[case.key] = {"capped": True, "seconds": harness.CAP_S}
            elif answer is not None:
                try:
                    got = workloads.summary(case, answer)
                    records[case.key] = {"answer": got, "seconds": round(seconds, 4)}
                    decided += int(workloads.decided(case, answer))
                    verdict = None if record else judge(golden, got)
                    if verdict is not None:
                        problems.append(verdict)
                    if certify:
                        (spent, cert_problems, capped_kinds) = check_certificates(
                            ctx, caches, on_clear, case, answer)
                        problems += cert_problems
                        certs_capped += ["%s %s" % (case.key, k) for k in capped_kinds]
                        if gated:
                            certcheck_s += spent
                except Exception as exc:
                    problems.append("checking raised %s: %s" % (type(exc).__name__, exc))
            errors += ["%s %s: %s" % (case.op, case.key, p) for p in problems]
        times[case.key] = seconds
    if tracer is not None:
        harness.go_cold(caches, on_clear)  # the counts of the last call
    if peak_rss_mb is None:
        peak_rss_mb = max_rss_mb()
    return Pass(times, decided, len(ctx.cases), certcheck_s, certs_capped,
                errors, records, peak_rss_mb)


def run_case(ctx, caches, on_clear, case, tracer, checks):
    """(answer, seconds, capped, problems) of one cold, capped call of the case.

    ``answer`` is None when the call raised or hit the cap.  ``checks`` adds
    the untimed independent checks of the answer.
    """
    start = time.perf_counter()
    try:
        (answer, seconds, was_capped) = timed_cold(
            caches, on_clear, lambda: workloads.run_case(ctx.lib, case))
    except Exception as exc:
        seconds = min(time.perf_counter() - start, harness.CAP_S)
        return (None, seconds, False, ["raised %s: %s" % (type(exc).__name__, exc)])
    if was_capped:
        return (None, seconds, True, [])
    problems = []
    try:
        if tracer is not None and case.op == "regcheck":
            tracer.record_verdict(answer)
        if checks:
            problems += workloads.independent_checks(ctx.oracles, case, answer)
    except Exception as exc:
        problems.append("checking raised %s: %s" % (type(exc).__name__, exc))
    return (answer, seconds, False, problems)


def run_metrics(ctx, passes):
    """End-to-end figures of a run.

    Each case counts at its median pass.  The times are already scaled to
    the host's speed; the median sets aside the calls whose speed sample
    missed a short stall or burst of the host.  ``decided`` comes from the
    first pass, the only one in which every case runs.
    """
    median = {key: statistics.median(p.times[key] for p in passes) for key in passes[0].times}
    by_op = defaultdict(list)
    for case in ctx.cases:
        by_op[case.op].append(median[case.key])
    (tail_s, percentile, n) = harness.tail(by_op[TAIL_OP[ctx.workload]])
    out = {
        "scaled_s": sum(median[c.key] for c in ctx.cases if ctx.decided_at_baseline(c)),
        "decided": passes[0].decided / passes[0].cases,
        "tail_s": tail_s,
        "tail_percentile": percentile,
        "tail_cases": n,
    }
    for (op, times) in by_op.items():
        out[op + ".scaled_s"] = sum(times)
    return out


def print_table(workload, e2e, passes, errors):
    """Every end-to-end metric under its per-operation name; n/a where not run."""
    lines = ["workload %s: %d untraced pass(es), cap %.1f s per case"
             % (workload, len(passes), harness.CAP_S)]

    def row(name, value, unit):
        text = "n/a" if value is None else ("%.6g" % value)
        lines.append("  %-22s %12s %s" % (name, text, unit))

    tail_unit = "s (p%.1f of %d cases)" % (e2e["tail_percentile"], e2e["tail_cases"])
    row("setup_s", e2e["setup_s"], "s (script start to the first timed case)")
    row("setup_wall_s", e2e["setup_wall_s"], "s (the same, not scaled)")
    row("host_slowdown", e2e["host_slowdown"], "x (median over the run; 1 = reference speed)")
    row("peak_rss_mb", e2e["peak_rss_mb"], "MB (cases decided at baseline)")
    row("peak_rss_all_mb", e2e["peak_rss_all_mb"], "MB (whole run)")
    row("errors", len(errors), "count")
    row("scaled_s", e2e["scaled_s"], "s (cases decided at baseline; gated)")
    for op in ("regcheck", "eqlevel"):
        here = op + ".scaled_s" in e2e
        row(op + ".scaled_s", e2e[op + ".scaled_s"] if here else None, "s (sum of min(t, cap))")
        row(op + ".decided", e2e["decided"] if here else None, "share")
        row(op + ".tail_s", e2e["tail_s"] if here else None, tail_unit if here else "s")
    row("certcheck.scaled_s", e2e["certcheck_s"], "s (cases decided at baseline)")
    for op in ("poststar", "bisim_finite", "quotient"):
        row(op + ".scaled_s", e2e.get(op + ".scaled_s"), "s")
    here = "bisim_finite.scaled_s" in e2e
    row("bisim_finite.tail_s", e2e["tail_s"] if here else None, tail_unit if here else "s")
    capped = sorted(k for (k, r) in passes[0].records.items() if r.get("capped"))
    lines.append("  capped in the first pass: %s" % (", ".join(capped) or "none"))
    certs_capped = sorted(passes[0].certs_capped)
    lines.append("  certificate checks at the cap: %s" % (", ".join(certs_capped) or "none"))
    for err in errors:
        lines.append("  error: " + err)
    print("\n".join(lines))


def record_golden(ctx):
    p = run_pass(ctx, record=True)
    if p.errors:
        print("\n".join(p.errors), file=sys.stderr)
        return 1
    by_key = sorted(ctx.cases, key=lambda c: c.key)
    doc = {"corpus": workloads.corpus_hash(ctx.lib, by_key),
           "cap_s": harness.CAP_S,
           "cases": {k: p.records[k] for k in sorted(p.records)}}
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(ctx.workload).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("recorded %d golden answers in %s" % (len(p.records), golden_path(ctx.workload)))
    return 0


def run_workload(args):
    harness.install_cap()
    ctx = set_up(args.workload, args.seed)
    # the corpus and the library stay alive all run: keep them out of every
    # collection, as a command-line run has no such objects to scan
    gc.collect()
    gc.freeze()
    errors = list(ctx.errors)
    print("corpus %s: %d cases, sha256 %s" % (
        args.workload, len(ctx.cases), workloads.corpus_hash(ctx.lib, ctx.cases)))
    if args.record_golden:
        return record_golden(ctx)

    # A case capped in the first pass counts at the cap in later passes
    # without running again, and later passes re-time the cases only: the
    # answers, which they compare with the golden ones, have been checked.
    # So they cost only the cases that finish, and more of them fit.
    start = time.perf_counter()
    setup_wall_s = start - STARTED
    setup_s = setup_wall_s / harness.SPEED.measure()
    passes = [run_pass(ctx)]
    capped = frozenset(k for (k, r) in passes[0].records.items() if r.get("capped"))
    estimate = time.perf_counter() - start - len(capped) * harness.CAP_S
    while not args.trace and time.perf_counter() - start + estimate <= args.seconds:
        began = time.perf_counter()
        passes.append(run_pass(ctx, capped_before=capped, certify=False))
        estimate = time.perf_counter() - began
    for p in passes:
        errors += p.errors
    e2e = run_metrics(ctx, passes)
    e2e["setup_s"] = setup_s
    e2e["setup_wall_s"] = setup_wall_s
    e2e["host_slowdown"] = statistics.median(harness.SPEED.history)
    e2e["certcheck_s"] = passes[0].certcheck_s

    per_layer = None
    attempted = sum(p.cases for p in passes)
    if args.trace:
        # stalls count at the cap on both sides, so the overhead is that of
        # the cases that finish
        tracer = spans.Tracer(ctx.modules)
        tracer.install()
        try:
            traced = run_pass(ctx, tracer=tracer, capped_before=capped)
        finally:
            tracer.uninstall()
        attempted += traced.cases
        errors += traced.errors
        overhead_s = (traced.scaled_s + traced.certcheck_s) - (passes[0].scaled_s + passes[0].certcheck_s)
        per_layer = tracer.metrics(overhead_s)

    e2e["peak_rss_mb"] = passes[0].peak_rss_mb
    e2e["peak_rss_all_mb"] = max_rss_mb()
    print_table(args.workload, e2e, passes, errors)
    if per_layer is not None:
        print("per-layer (traced pass; n/a where the workload never reached the layer):")
        for (name, m) in per_layer.items():
            value = "n/a" if m["value"] is None else "%14.6g" % m["value"]
            print("  %-50s %14s %s" % (name, value, m["unit"]))
        metrics = {name: per_layer[name] for name in spans.REPORTED
                   if per_layer[name]["value"] is not None}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for (name, unit) in END_TO_END}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 1 if errors else 0


def run_all(args):
    """Each workload in a fresh interpreter, one after the other."""
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record the golden answers of the workload's corpus")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        return run_workload(args)
    except LibraryMissing as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
