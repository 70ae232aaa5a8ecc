"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py
"""

import copy
import time

import harness
import run


def _only(ctx, *keys):
    ctx.cases = [c for c in ctx.cases if c.key in keys]
    assert len(ctx.cases) == len(keys)
    return ctx


def test_same_seed_gives_the_same_corpus():
    hashes = {}
    for seed in (7, 7, 8):
        ctx = run.set_up("eqlevel", seed)
        hashes.setdefault(seed, set()).add(run.workloads.corpus_hash(ctx.lib, ctx.cases))
    assert len(hashes[7]) == 1
    assert hashes[7] != hashes[8]


def test_golden_files_match_their_corpora():
    for workload in run.workloads.WORKLOADS:
        ctx = run.set_up(workload, 1)
        assert ctx.errors == []
        assert sorted(ctx.golden) == sorted(c.key for c in ctx.cases)


def test_flipped_golden_verdict_is_an_error():
    harness.install_cap()
    ctx = _only(run.set_up("regcheck", 1), "seed-2003")
    assert run.run_pass(ctx).errors == []
    ctx.golden = copy.deepcopy(ctx.golden)
    ctx.golden["seed-2003"]["answer"]["kind"] = "nonregular"
    errors = run.run_pass(ctx).errors
    assert len(errors) == 1 and "golden" in errors[0]


def test_cap_fires_on_a_stall_and_not_on_the_slowest_finisher():
    harness.install_cap()
    ctx = _only(run.set_up("regcheck", 1), "seed-2010", "seed-2034")
    result = run.run_pass(ctx)
    assert result.errors == []
    assert result.records["seed-2010"] == {"capped": True, "seconds": harness.CAP_S}
    assert result.records["seed-2034"]["answer"] == {"kind": "nonregular", "exactness": "certified"}
    assert result.decided == 1
    assert result.times["seed-2010"] == harness.CAP_S


def test_a_capped_certificate_check_is_an_error_only_for_a_case_capped_at_baseline(monkeypatch):
    harness.install_cap()
    ctx = _only(run.set_up("regcheck", 1), "seed-2003")
    real = run.timed_cold
    calls = []

    def cap_the_check(caches, on_clear, fn):
        calls.append(fn)
        if len(calls) % 2:
            return real(caches, on_clear, fn)
        return (None, harness.CAP_S, True)

    monkeypatch.setattr(run, "timed_cold", cap_the_check)
    result = run.run_pass(ctx)
    assert result.errors == []
    assert result.certs_capped == ["seed-2003 regular"]
    assert result.certcheck_s == harness.CAP_S
    ctx.golden = {"seed-2003": {"capped": True, "seconds": harness.CAP_S}}
    errors = run.run_pass(ctx).errors
    assert len(errors) == 1 and "hit the cap" in errors[0]


def test_times_are_scaled_by_the_host_speed(monkeypatch):
    harness.install_cap()
    monkeypatch.setattr(harness.SPEED, "current", lambda: 2.0)
    (result, seconds, was_capped) = harness.capped(lambda: time.sleep(0.06) or 7)
    assert result == 7 and not was_capped
    assert 0.03 <= seconds < 0.06


def test_tail_takes_the_percentile_with_ten_cases_beyond_it():
    assert harness.tail(list(range(40))) == (29, 75.0, 40)
    assert harness.tail([3, 1, 2]) == (2, 50.0, 3)
