"""Loop candidates, pump bounds, witnesses and the combined verdict."""

import contextlib
import dataclasses
import gc
import hashlib
import random
import signal
import time
import weakref

import pytest

from pdabisim import (
    AnalysisConfig,
    Config,
    GameContext,
    InputError,
    LoopCandidate,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    StairSearch,
    Witness,
    bisim_pda_vs_finite,
    decide_regularity,
    pump_bound,
    verify_witness,
)
from pdabisim import certs, equivalence, regularity
from pdabisim.reachability import reach_automaton, reachable_key_cuts
from pdabisim.regularity import NormedEvidence, PositiveSearch, pumped_config
from pdabisim.transformers import compute_transformers

from oracles import naive_truncations, random_pda


def fin(control, *symbols):
    return Config(control, StackWord.finite(symbols))


def first_candidate(pda, start, budget=500):
    for candidate in StairSearch(PdaOracle(pda, AnalysisConfig(path_budget=budget)), start):
        return candidate
    raise AssertionError("no loop candidate found")


def test_counter_loop_candidate(counter, counter_start):
    got = first_candidate(counter, counter_start)
    assert (got.control, got.symbol, got.period) == ("p", "A", ("A",))
    assert got.tail == StackWord.finite(("X",))
    assert got.stamped
    assert [r.format() for r in got.w_rules] == ["p X a -> p A X"]
    assert [r.format() for r in got.v_rules] == ["p A a -> p A A"]


def test_twocycle_loop_candidate(twocycle, twocycle_start):
    got = first_candidate(twocycle, twocycle_start)
    assert (got.control, got.symbol) == ("q", "A")
    assert got.period == ("A", "A")
    assert got.stamped


def test_stamped_candidates_sort_first(counter, counter_start):
    search = StairSearch(PdaOracle(counter, AnalysisConfig(path_budget=400)), counter_start)
    seen = [c.stamped for c in search]
    assert seen
    assert seen[0]


def test_counter_pump_bound(counter, counter_start):
    candidate = first_candidate(counter, counter_start)
    pump = pump_bound(PdaOracle(counter), candidate)
    assert pump.preperiod == 0
    assert pump.cycle_length == 1
    assert pump.limit_controls == ("p",)
    assert pump.levels.value == 0
    assert pump.levels.exact
    assert pump.bound == 1 + 0 + 0 + 1


def test_pumped_config_stacks_copies():
    def loop(tail):
        return LoopCandidate("p", "A", ("A",), tail, (), (), False)

    got = pumped_config(loop(StackWord.finite(("X",))), 3)
    assert got == fin("p", "A", "A", "A", "A", "X")
    limit = pumped_config(loop(StackWord.repeating((), ("A",))), 2)
    assert limit == Config("p", StackWord.repeating((), ("A",)))


def test_counter_witness_verifies(counter, counter_start):
    candidate = first_candidate(counter, counter_start)
    witness = Witness(counter_start, candidate, pump_bound(PdaOracle(counter), candidate))
    assert witness.c_fin == fin("p", "A", "A", "A", "X")
    assert witness.c_inf == Config("p", StackWord.repeating((), ("A",)))
    check = verify_witness(PdaOracle(counter), witness)
    assert check.verdict == "verified"
    assert check.certified
    assert check.bound == 2
    assert (check.base.kind, check.base.value) == ("finite", 3)
    ctx = GameContext(PdaOracle(counter), PdaOracle(counter))
    levels = [ctx.level(pumped_config(candidate, m), witness.c_inf, 64) for m in (2, 3, 4)]
    assert [r.value for r in levels] == [3, 4, 5]


def test_witness_exhausts_under_tiny_cutoff(counter, counter_start):
    candidate = first_candidate(counter, counter_start)
    oracle = PdaOracle(counter, AnalysisConfig(cutoff=2, omega_budget=0))
    witness = Witness(counter_start, candidate, pump_bound(oracle, candidate))
    check = verify_witness(oracle, witness)
    assert check.verdict == "exhausted"
    assert not check.certified


def test_a_witness_verifies_only_under_the_budgets_of_its_pump_bound(counter, counter_start):
    candidate = first_candidate(counter, counter_start)
    witness = Witness(counter_start, candidate, pump_bound(PdaOracle(counter), candidate))
    assert witness.pump.config == AnalysisConfig()
    with pytest.raises(InputError, match="pump bound"):
        verify_witness(PdaOracle(counter, AnalysisConfig(cutoff=2)), witness)


def test_witness_on_regular_process_is_refuted(growing, growing_start):
    candidate = first_candidate(growing, growing_start)
    witness = Witness(growing_start, candidate, pump_bound(PdaOracle(growing), candidate))
    check = verify_witness(PdaOracle(growing), witness)
    assert check.verdict == "refuted"


def test_witness_with_broken_replay_is_malformed(counter, counter_start):
    candidate = first_candidate(counter, counter_start)
    pump = pump_bound(PdaOracle(counter), candidate)
    bodies = (
        (Rule("p", "A", "b", "p", ()),),
        (Rule("p", "A", "a", "p", ("A", "A", "A")),),
    )
    for body in bodies:
        loop = dataclasses.replace(candidate, v_rules=body)
        with pytest.raises(InputError, match="the loop body"):
            verify_witness(PdaOracle(counter), Witness(counter_start, loop, pump))
    flat = dataclasses.replace(candidate, period=())
    with pytest.raises(InputError, match="period is empty"):
        verify_witness(PdaOracle(counter), Witness(counter_start, flat, pump))
    elsewhere = Witness(fin("p", "A", "X"), candidate, pump)
    with pytest.raises(InputError, match="the access path"):
        verify_witness(PdaOracle(counter), elsewhere)


def test_positive_search_settles_growing(growing, growing_start):
    search = PositiveSearch(PdaOracle(growing), growing_start)
    comparison = search.attempt()
    assert comparison is not None
    assert comparison.equivalent
    assert search.level == 1
    assert len(comparison.lts.states) == 1


def test_positive_search_enumerates_each_depth_once(monkeypatch, counter, counter_start):
    built = []
    depths = []
    build = regularity.reach_automaton
    enumerate_depth = regularity.reachable_key_cuts

    def counting_build(pda, start):
        built.append(start)
        return build(pda, start)

    def counting_depth(aut, floors, k):
        depths.append(k)
        return enumerate_depth(aut, floors, k)

    monkeypatch.setattr(regularity, "reach_automaton", counting_build)
    monkeypatch.setattr(regularity, "reachable_key_cuts", counting_depth)
    search = PositiveSearch(PdaOracle(counter), counter_start)
    for _ in range(4):
        assert search.attempt() is None
    assert built == [counter_start]
    assert depths == [1, 2, 3, 4, 5]


def test_probe_classes_expand_to_the_truncation_classes():
    rng = random.Random(47)
    (shared, split) = (0, 0)
    for _ in range(40):
        pda = random_pda(rng, 3, 3, 8)
        start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
        search = PositiveSearch(PdaOracle(pda), start)
        oracle = search.oracle
        aut = reach_automaton(pda, start)
        for depth in (1, 2, 3):
            truncations = sorted(naive_truncations(aut, depth))
            reference = []
            for t in truncations:
                for members in reference:
                    if search.ctx.bisim(t, members[0], depth):
                        members.append(t)
                        break
                else:
                    reference.append([t])
            cuts = reachable_key_cuts(aut, oracle.floors, depth)
            classes = search._partition(cuts, depth)
            class_of = {
                oracle.game_key(probe, depth): i
                for (i, members) in enumerate(classes)
                for probe in members
            }
            expanded = [[] for _ in classes]
            for t in truncations:
                expanded[class_of[oracle.game_key(t, depth)]].append(t)
            assert expanded == reference
            shared += len(truncations) - len(cuts)
            split += len(classes) > 1
    assert shared > 0 and split > 0


def test_regular_verdict_frees_its_automaton():
    # nothing process-wide keeps the post* automaton once the verdict goes
    pda = random_pda(random.Random(2003), 3, 3, 8)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    verdict = decide_regularity(pda, start)
    assert verdict.kind == "regular"
    automaton = weakref.ref(verdict.certificate.automaton)
    del verdict
    gc.collect()
    assert automaton() is None


def test_decide_counter_is_nonregular(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    assert verdict.kind == "nonregular"
    assert verdict.exactness == "certified"
    assert verdict.winner == "negative"
    evidence = verdict.certificate
    assert evidence.check.verdict == "verified"
    assert evidence.witness.loop.period == ("A",)
    stats = dict(verdict.stats)
    assert stats["negative-candidates"] >= 1
    assert set(stats) == {
        "negative-budget-hit",
        "negative-candidates",
        "negative-exhausted",
        "path-nodes",
        "positive-levels",
    }


def test_decide_twocycle_is_nonregular(twocycle, twocycle_start):
    verdict = decide_regularity(twocycle, twocycle_start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    evidence = verdict.certificate
    loop = evidence.witness.loop
    assert (loop.control, loop.symbol, loop.period) == ("q", "A", ("A", "A"))
    assert evidence.check.bound == 2
    assert evidence.check.base.value == 5


def test_decide_growing_is_regular(growing, growing_start):
    verdict = decide_regularity(growing, growing_start)
    assert (verdict.kind, verdict.exactness) == ("regular", "certified")
    assert verdict.winner == "positive"
    comparison = verdict.certificate
    assert comparison.equivalent
    assert len(comparison.lts.states) == 1
    again = bisim_pda_vs_finite(
        growing, growing_start, comparison.lts, comparison.finite_state
    )
    assert again.equivalent
    # the first positive level answers before any pump candidate is tried
    assert dict(verdict.stats)["negative-candidates"] == 0


def test_decide_deadlock_is_regular(deadlock, deadlock_start):
    verdict = decide_regularity(deadlock, deadlock_start)
    assert (verdict.kind, verdict.exactness) == ("regular", "certified")
    assert verdict.stats == (
        ("negative-candidates", 0),
        ("path-nodes", 0),
        ("positive-levels", 0),
    )
    comparison = verdict.certificate
    assert comparison.equivalent
    assert comparison.finite_state == "halt"


def test_decide_reports_unknown_when_budgets_run_dry(growing, growing_start):
    verdict = decide_regularity(
        growing,
        growing_start,
        AnalysisConfig(truncation_max=0, path_budget=300, candidate_budget=10),
    )
    assert verdict.kind == "unknown"
    assert verdict.certificate is None
    stats = dict(verdict.stats)
    assert stats["negative-candidates"] >= 1


@pytest.mark.parametrize("seed", [2034, 2008])
def test_regularity_games_share_positions_across_stack_tails(monkeypatch, seed):
    # the limit-level games compare many configurations that differ only
    # below what the game depth can expose; with the pop-horizon key they
    # share positions (at the whole-configuration key these two seeds
    # solved 98,596 and 32,504)
    solved = []
    covered = GameContext._covered

    def counting(self, s, t, k):
        solved.append(k)
        return covered(self, s, t, k)

    monkeypatch.setattr(GameContext, "_covered", counting)
    pda = random_pda(random.Random(seed), 3, 3, 8)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    # both seeds are fully normed, which decide_regularity settles by the
    # norm without a game, so the pump route is played here directly
    oracle = PdaOracle(pda)
    for candidate in StairSearch(oracle, start):
        witness = Witness(start, candidate, pump_bound(oracle, candidate))
        check = verify_witness(oracle, witness)
        if check.verdict == "verified":
            break
    assert check.certified
    assert len(solved) < 2000


@pytest.mark.parametrize("seed", [2010, 2012, 2017, 2080, 2117, 2181])
def test_normed_stalls_decide_by_the_norm(seed):
    # one-control processes whose pump games used to run for many seconds
    pda = random_pda(random.Random(seed), 3, 3, 8)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    began = time.monotonic()
    verdict = decide_regularity(pda, start)
    assert time.monotonic() - began < 1.0
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    assert isinstance(verdict.certificate, NormedEvidence)
    doc = certs.loads(certs.dumps(certs.verdict_document(pda, start, verdict)))
    assert doc["kind"] == "normed-witness"
    got = certs.check_document(doc)
    assert got.ok, got.detail


def test_normed_route_needs_a_finite_start():
    # a periodic stack never empties, so there the race decides
    pda = Pda(
        controls=frozenset(["p"]),
        stack_alphabet=frozenset(["X"]),
        actions=frozenset(["a", "b"]),
        rules=(Rule("p", "X", "a", "p", ("X", "X")), Rule("p", "X", "b", "p", ())),
    )
    finite = decide_regularity(pda, fin("p", "X"))
    assert (finite.kind, finite.exactness) == ("nonregular", "certified")
    assert isinstance(finite.certificate, NormedEvidence)
    periodic = decide_regularity(pda, Config("p", StackWord.repeating((), ("X",))))
    assert (periodic.kind, periodic.exactness) == ("regular", "certified")


def test_normed_route_keeps_to_the_path_budget():
    # emptying sequences longer than the path budget send the process to the race
    pda = random_pda(random.Random(2010), 3, 3, 8)

    def emptying(budget):
        return regularity.emptying_sequences(PdaOracle(pda, AnalysisConfig(path_budget=budget)))

    total = sum(len(rules) for (_, rules) in emptying(10 ** 6))
    assert emptying(total) is not None
    assert emptying(total - 1) is None


def test_one_transformer_table_per_analysis_and_none_kept_after_it(monkeypatch):
    # the analysis' PdaOracle owns the table: each decide_regularity call
    # builds one and drops it with its oracle, and checking the witness
    # document builds one more for the checker's own oracle
    built = []

    def counting(pda):
        table = compute_transformers(pda)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr("pdabisim.pda.compute_transformers", counting)
    pda = random_pda(random.Random(5088), 4, 4, 12)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    assert len(built) == 1
    gc.collect()
    assert built[0]() is None
    again = decide_regularity(pda, start)
    assert (again.kind, again.exactness) == ("nonregular", "certified")
    assert len(built) == 2
    doc = certs.loads(certs.dumps(certs.verdict_document(pda, start, verdict)))
    assert doc["kind"] == "witness"
    got = certs.check_document(doc)
    assert got.ok, got.detail
    assert len(built) == 3


def test_a_regular_verdict_builds_one_automaton(monkeypatch):
    # the comparison reads its truncations off the positive search's automaton
    built = []
    original = regularity.reach_automaton

    def counting(pda, start):
        built.append(start)
        return original(pda, start)

    monkeypatch.setattr(regularity, "reach_automaton", counting)
    monkeypatch.setattr(equivalence, "reach_automaton", counting)
    pda = random_pda(random.Random(2004), 3, 3, 8)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("regular", "certified")
    assert len(built) == 1


@contextlib.contextmanager
def alarm(seconds):
    """Fail with TimeoutError, instead of stalling, once ``seconds`` have passed."""

    def ring(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_race_asks_the_positive_side_first():
    # the normed counter from a periodic start is regular: no stack empties,
    # and every configuration moves by both a and b, like a one-state loop;
    # its first positive level answers, where 25 refuted pump candidates
    # once took seconds
    pda = Pda(
        controls=frozenset(["p"]),
        stack_alphabet=frozenset(["X", "A"]),
        actions=frozenset(["a", "b"]),
        rules=(
            Rule("p", "X", "a", "p", ("A", "X")),
            Rule("p", "X", "b", "p", ()),
            Rule("p", "A", "a", "p", ("A", "A")),
            Rule("p", "A", "b", "p", ()),
        ),
    )
    start = Config("p", StackWord.repeating(("X",), ("A",)))
    with alarm(10):
        verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness, verdict.winner) == (
        "regular", "certified", "positive"
    )
    stats = dict(verdict.stats)
    assert (stats["negative-candidates"], stats["positive-levels"]) == (0, 1)


def test_the_pump_argument_builds_no_strategy(monkeypatch):
    # limit_level_bound and verify_witness read eq-levels only; building
    # their strategies once took 86,663 distinct strategy nodes on this seed
    built = []
    original = GameContext._distinguish

    def counting(self, s, t, k):
        built.append(k)
        return original(self, s, t, k)

    monkeypatch.setattr(GameContext, "_distinguish", counting)
    pda = random_pda(random.Random(5192), 4, 4, 12)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    assert built == []
    text = certs.dumps(certs.verdict_document(pda, start, verdict))
    # the document of the strategy-building pump argument, byte for byte
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "29b8b66531cf412b46f79d7e5643efc8371ad4dbc4a3b05ca2eb002e4b553820"
    )
    got = certs.check_document(certs.loads(text))
    assert got.ok, got.detail


@pytest.mark.parametrize(
    "seed,shape,digest",
    [
        (5088, (4, 4, 12), "f94d8783cb186ed7058c373399d397b6fe18d921dfebc9f5b3167c6d3395eeb2"),
        (6076, (6, 3, 20), "3ebb001b08f7afe0325859cfb39e55e1e9157092d201e2395148e9026ab5bcf3"),
    ],
)
def test_witness_documents_of_the_plain_ladder_order_are_pinned(seed, shape, digest):
    # verify_witness runs the eq-level ladder at levels 9-15 on these seeds;
    # the digests are those of the plain order (equality, climb to the
    # cutoff, certify_bisimilar), which the cheapest-first order keeps
    pda = random_pda(random.Random(seed), *shape)
    start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness, verdict.winner) == (
        "nonregular", "certified", "negative"
    )
    doc = certs.verdict_document(pda, start, verdict)
    assert doc["kind"] == "witness"
    assert hashlib.sha256(certs.dumps(doc).encode()).hexdigest() == digest


def seed_start(seed, shape):
    pda = random_pda(random.Random(seed), *shape)
    return (pda, fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0]))


def test_a_family_rising_at_every_other_copy_is_certified():
    # 7126: an exact level bound and a finite base level are the whole proof
    # (verify_witness); the levels past the bound rise by 2 every second copy,
    # so no three consecutive samples rise strictly, and none is needed
    (pda, start) = seed_start(7126, (8, 3, 30))
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    (witness, check) = (verdict.certificate.witness, verdict.certificate.check)
    assert (witness.pump.bound, witness.pump.cycle_length, check.base.value) == (4, 1, 5)
    assert witness.pump.levels.exact
    ctx = GameContext(PdaOracle(pda), PdaOracle(pda))
    levels = [
        ctx.level(pumped_config(witness.loop, 4 + j), witness.c_inf, 64).value for j in range(9)
    ]
    assert levels == [5, 7, 7, 9, 9, 11, 11, 13, 13]


def test_a_family_rising_past_the_cutoff_is_certified():
    # 7163: the level at bound + 2 copies is 65, past the default cutoff 64;
    # the verdict plays only the base level, 57 at the bound 14
    (pda, start) = seed_start(7163, (8, 3, 30))
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    (witness, check) = (verdict.certificate.witness, verdict.certificate.check)
    assert (witness.pump.bound, check.base.value) == (14, 57)
    ctx = GameContext(PdaOracle(pda), PdaOracle(pda))
    third = ctx.level(pumped_config(witness.loop, 16), witness.c_inf, 64)
    assert (third.kind, third.value) == ("at_least", 64)


def test_an_inexact_level_bound_stays_modulo_cutoff():
    (pda, start) = seed_start(7034, (8, 3, 30))
    verdict = decide_regularity(pda, start)
    assert (verdict.kind, verdict.exactness) == ("nonregular", "modulo-cutoff")
    check = verdict.certificate.check
    assert check.verdict == "verified" and not check.certified
    assert not verdict.certificate.witness.pump.levels.exact
    got = certs.check_document(certs.verdict_document(pda, start, verdict))
    assert (got.ok, got.exactness) == (True, "modulo-cutoff")
