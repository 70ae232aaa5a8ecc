"""Eq-levels between configurations and the finite-system decision."""

import gc
import random
import weakref
from collections import Counter

import pytest

from pdabisim import (
    BisimCertificate,
    BudgetError,
    Config,
    FiniteLts,
    FiniteLtsOracle,
    GameContext,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    bisim_pda_vs_finite,
    bounded_bisim,
    certify_bisimilar,
    check_coverage,
    eqlevel,
    eqlevel_configs,
    certs,
    limit_level_bound,
    step,
)
from pdabisim import equivalence
from pdabisim.equivalence import absorb_dead_tail
from pdabisim.reachability import completion, reach_automaton
from pdabisim.regularity import StairSearch
from pdabisim.transformers import compute_transformers

from oracles import (
    OracleBudget,
    exact_reachable,
    game_eqlevel,
    naive_truncations,
    pda_moves,
    random_lts,
    random_pda,
    random_stack,
)


def fin(control, *symbols):
    return Config(control, StackWord.finite(symbols))


def test_counter_levels_track_the_count(counter):
    got = eqlevel_configs(counter, fin("p", "X"), fin("p", "A", "X"), cutoff=16)
    assert (got.kind, got.value) == ("finite", 0)
    got = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    assert (got.kind, got.value) == ("finite", 1)
    assert got.certificate.depth() == 2
    got = eqlevel_configs(
        counter, fin("p", "A", "A", "X"), fin("p", "A", "A", "A", "X"), cutoff=16
    )
    assert (got.kind, got.value) == ("finite", 2)


def test_identical_limits_are_bisimilar(counter):
    left = Config("p", StackWord.repeating((), ("A",)))
    right = Config("p", StackWord.repeating(("A",), ("A",)))
    got = eqlevel_configs(counter, left, right, cutoff=8)
    assert got.is_omega


def test_at_least_when_cutoff_is_too_small(counter):
    got = eqlevel_configs(
        counter,
        fin("p", "A", "A", "A", "X"),
        fin("p", "A", "A", "A", "A", "X"),
        cutoff=2,
        omega_budget=0,
    )
    assert got.kind == "at_least"
    assert got.value == 2


def test_growing_stacks_certify_bisimilar(growing):
    got = certify_bisimilar(PdaOracle(growing), fin("p", "X"), fin("p", "X", "X"))
    assert got is not None
    assert got.is_omega
    assert check_coverage(PdaOracle(growing), got.certificate)


def test_absorbed_equal_pairs_are_settled_before_any_round(growing):
    # a climb to this cutoff would exhaust the recursive game solver
    left = fin("p", "X")
    right = fin("p", "X", "X")
    got = eqlevel_configs(growing, left, right, cutoff=5000)
    assert got == certify_bisimilar(PdaOracle(growing), left, right)
    assert (got.kind, got.certificate.kind) == ("omega", "equal")


def test_bisimilar_pairs_that_absorb_apart_still_climb_and_certify(growing):
    twin = Pda(
        controls=frozenset(["p", "q"]),
        stack_alphabet=growing.stack_alphabet,
        actions=growing.actions,
        rules=growing.rules
        + tuple(Rule("q", r.symbol, r.action, "q", r.push) for r in growing.rules),
    )
    got = eqlevel_configs(twin, fin("p", "X"), fin("q", "X"), cutoff=8)
    assert (got.kind, got.certificate.kind) == ("omega", "finite-graph")
    assert check_coverage(PdaOracle(twin), got.certificate)


def test_separated_pairs_keep_the_bare_climb_strategy(counter):
    left = fin("p", "A", "X")
    right = fin("p", "A", "A", "X")
    oracle = PdaOracle(counter)
    got = eqlevel_configs(counter, left, right, cutoff=16)
    assert got == eqlevel(oracle, left, oracle, right, 16)
    assert got.kind == "finite"


def test_tampered_certificate_fails_coverage(counter):
    # a relation claiming the counter at one and at two agree: the uncovered
    # pop moves must be noticed by the independent coverage check
    cert = BisimCertificate(
        kind="closure",
        root=(fin("p", "A", "X"), fin("p", "A", "A", "X")),
        pairs=((fin("p", "A", "X"), fin("p", "A", "A", "X")),),
    )
    assert not check_coverage(PdaOracle(counter), cert)
    missing_root = BisimCertificate(
        kind="closure",
        root=(fin("p", "X"), fin("p", "A", "X")),
        pairs=(),
    )
    assert not check_coverage(PdaOracle(counter), missing_root)


def test_absorb_cuts_dead_material(counter, growing):
    assert absorb_dead_tail(PdaOracle(counter).table, fin("p", "X", "A", "A")) == fin("p", "X")
    assert absorb_dead_tail(PdaOracle(growing).table, fin("p", "X", "X", "X")) == fin("p", "X")
    assert absorb_dead_tail(PdaOracle(counter).table, fin("p", "A", "A", "X")) == fin(
        "p", "A", "A", "X"
    )


def test_absorb_preserves_behavior(counter, growing):
    rng = random.Random(60)
    for pda in (counter, growing):
        oracle = PdaOracle(pda)
        ctx = GameContext(oracle, oracle)
        symbols = sorted(pda.stack_alphabet)
        for _ in range(25):
            stack = random_stack(rng, symbols, max_len=5)
            config = fin("p", *stack)
            cut = absorb_dead_tail(oracle.table, config)
            assert bounded_bisim(oracle, config, oracle, cut, 6, ctx=ctx)


def test_limit_level_bound_on_counter(counter):
    (bound, iteration) = limit_level_bound(PdaOracle(counter), "p", "A", ("A",))
    assert bound.value == 0
    assert bound.exact
    assert bound.pairs == 1
    assert iteration.preperiod == 0
    assert iteration.cycle_length == 1


def limit_case():
    """A 4/4/12 process, its start, and a loop whose limit region holds 122 states."""
    pda = random_pda(random.Random(5075), 4, 4, 12)
    start = Config(sorted(pda.controls)[0], StackWord.finite((sorted(pda.stack_alphabet)[0],)))
    candidate = next(iter(StairSearch(PdaOracle(pda), start)))
    return (pda, start, (candidate.control, candidate.symbol, candidate.period))


def test_one_oracle_steps_each_configuration_once_per_view(monkeypatch):
    # the oracle and its absorbing view memoize their successor lists for
    # the whole analysis: a second game context, or a second level bound
    # on the same limit, steps nothing again
    (pda, start, limit) = limit_case()
    stepped = Counter()
    original = step

    def counting(pda, config):
        stepped[config] += 1
        return original(pda, config)

    monkeypatch.setattr("pdabisim.pda.step", counting)
    oracle = PdaOracle(pda)
    other = step(pda, start)[0][1]
    first = GameContext(oracle, oracle).level(start, other, 8)
    games = sum(stepped.values())
    assert games > 1 and set(stepped.values()) == {1}
    assert GameContext(oracle, oracle).level(start, other, 8) == first
    assert sum(stepped.values()) == games == oracle.expanded
    bound = limit_level_bound(oracle, *limit)
    total = sum(stepped.values())
    assert total - games == oracle.absorbing.expanded > 100
    assert limit_level_bound(oracle, *limit) == bound
    assert sum(stepped.values()) == total
    assert max(stepped.values()) <= 2


def test_an_oracle_has_one_absorbing_view_sharing_its_derived_data(counter):
    oracle = PdaOracle(counter)
    view = oracle.absorbing
    assert view is oracle.absorbing
    assert view.absorbed is oracle.absorbed
    assert view.table is oracle.table
    assert view.floors is oracle.floors


def test_an_analysis_oracle_is_freed_by_reference_counting_alone():
    # no oracle holds a game context and no view holds its oracle, so
    # neither needs the cycle collector
    (pda, start, limit) = limit_case()
    gc.disable()
    try:
        oracle = PdaOracle(pda)
        eqlevel(oracle, start, oracle, step(pda, start)[0][1], 8)
        limit_level_bound(oracle, *limit)
        refs = (weakref.ref(oracle), weakref.ref(oracle.absorbing))
        del oracle
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def count_automata(monkeypatch):
    built = []
    original = equivalence.reach_automaton

    def counting(pda, start):
        built.append(start)
        return original(pda, start)

    monkeypatch.setattr(equivalence, "reach_automaton", counting)
    return built


def test_growing_matches_one_state_loop(growing, monkeypatch):
    built = count_automata(monkeypatch)
    loop = FiniteLts(
        frozenset(["v"]),
        frozenset(["a", "b"]),
        frozenset([("v", "a", "v"), ("v", "b", "v")]),
    )
    got = bisim_pda_vs_finite(growing, fin("p", "X"), loop, "v")
    assert got.equivalent
    assert got.level == 1
    assert got.root.kind == "at_least"
    assert got.matches
    assert not got.unmatched
    assert built == [fin("p", "X")] and got.automaton is not None
    doc = certs.comparison_document(growing, got)
    assert certs.check_document(certs.loads(certs.dumps(doc))).ok


def test_counter_rejected_at_the_root(counter, monkeypatch):
    built = count_automata(monkeypatch)
    loop = FiniteLts(
        frozenset(["v"]),
        frozenset(["a", "b"]),
        frozenset([("v", "a", "v"), ("v", "b", "v")]),
    )
    got = bisim_pda_vs_finite(counter, fin("p", "X"), loop, "v")
    assert not got.equivalent
    assert (got.root.kind, got.root.value) == ("finite", 0)
    assert got.counterexample == fin("p", "X")
    assert got.matches == ()
    # refuted at the root: no truncation is needed, so no automaton is built
    assert built == [] and got.automaton is None
    doc = certs.comparison_root_document(counter, got)
    assert certs.check_document(certs.loads(certs.dumps(doc))).ok


def test_counter_rejected_by_truncation_sweep(counter):
    # this two-state system agrees with the counter for three full rounds,
    # so the refutation has to come from an unmatched truncation
    survivor = FiniteLts(
        frozenset(["t0", "t1"]),
        frozenset(["a", "b"]),
        frozenset([("t0", "a", "t1"), ("t1", "a", "t1"), ("t1", "b", "t0")]),
    )
    oracle = PdaOracle(counter)
    assert bounded_bisim(oracle, fin("p", "X"), FiniteLtsOracle(survivor), "t0", 3)
    got = bisim_pda_vs_finite(counter, fin("p", "X"), survivor, "t0")
    assert not got.equivalent
    assert got.root.kind == "at_least"
    assert fin("p", "A", "A") in got.unmatched
    assert got.counterexample == fin("p", "A", "A", "X")


def test_two_dead_configurations_skip_the_climb():
    pda = Pda(
        frozenset("pq"), frozenset("X"), frozenset("a"), (Rule("p", "X", "a", "q", ()),)
    )
    (left, right) = (fin("q"), fin("p"))
    oracle = PdaOracle(pda)
    ctx = GameContext(oracle, oracle)
    got = eqlevel(oracle, left, oracle, right, 64, ctx=ctx)
    assert (got.kind, got.value) == ("at_least", 64)
    assert ctx._memo == {}
    # the certification ladder still runs and proves the pair bisimilar
    got = eqlevel_configs(pda, left, right, cutoff=64)
    assert got.is_omega
    assert got.certificate.kind == "finite-graph"
    doc = certs.eq_level_document(pda, left, right, got)
    assert certs.check_document(certs.loads(certs.dumps(doc))).ok


def plain_comparison(pda, config, lts, state):
    """(matches, unmatched, counterexample), one game per (truncation, state)."""
    level = len(lts.states)
    (left, right) = (PdaOracle(pda), FiniteLtsOracle(lts))
    ctx = GameContext(left, right)
    if not bounded_bisim(left, config, right, state, level, ctx=ctx):
        return ((), (), config)
    aut = reach_automaton(pda, config)
    matches = []
    unmatched = []
    for trunc in sorted(naive_truncations(aut, level)):
        partners = tuple(
            g
            for g in sorted(lts.states)
            if bounded_bisim(left, trunc, right, g, level, ctx=ctx)
        )
        if partners:
            matches.append((trunc, partners))
        else:
            unmatched.append(trunc)
    witness = completion(aut, unmatched[0], level) if unmatched else None
    return (tuple(matches), tuple(unmatched), witness)


def inflated(rng, states):
    """A random finite system and a pda bisimilar to it by construction.

    Every rule follows one finite transition and pushes a non-empty word,
    so (s, w) has the moves of state s whatever the stack w is.
    """
    names = ["s%d" % i for i in range(states)]
    trans = frozenset(
        (s, a, t) for s in names for a in "ab" for t in names if rng.random() < 0.5
    )
    lts = FiniteLts(frozenset(names), frozenset("ab"), trans)
    rules = tuple(
        Rule(s, x, a, t, tuple(rng.choice("ABC") for _ in range(rng.randint(1, 3))))
        for (s, a, t) in sorted(trans)
        for x in "ABC"
    )
    pda = Pda(frozenset(names), frozenset("ABC"), frozenset("ab"), rules)
    return (pda, fin("s0", "A"), lts)


def reachable_graph(rng, pda, start, tamper):
    """The configuration graph of ``start`` as a finite system, or None.

    None unless 2 to 8 configurations are reachable.  With ``tamper``, a
    copy of one transition gets a random target.  Truncations sharing a top
    symbol often differ below it here, so their partners differ too.
    """
    (reached, complete) = exact_reachable(pda, start.control, start.stack.prefix, 6, 40)
    if not complete or not 2 <= len(reached) <= 8:
        return None
    names = {c: "n%d" % i for (i, c) in enumerate(sorted(reached))}
    trans = {(names[c], a, names[d]) for c in reached for (a, d) in pda_moves(pda, *c)}
    if tamper and trans:
        (s, a, _) = rng.choice(sorted(trans))
        trans.add((s, a, rng.choice(sorted(names.values()))))
    lts = FiniteLts(frozenset(names.values()), frozenset(pda.actions), frozenset(trans))
    return (lts, names[(start.control, start.stack.prefix)])


def test_grouped_comparison_equals_one_game_per_pair():
    rng = random.Random(63)
    cases = []
    for _ in range(30):
        pda = random_pda(rng)
        start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
        lts = random_lts(rng, max_states=3, max_actions=2, density=0.5)
        cases.append((pda, start, lts, sorted(lts.states)[0]))
    while len(cases) < 110:
        pda = random_pda(rng)
        start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
        graph = reachable_graph(rng, pda, start, len(cases) % 2)
        if graph is not None:
            cases.append((pda, start) + graph)
    for states in (3, 4, 4, 5):
        (pda, start, lts) = inflated(rng, states)
        cases.append((pda, start, lts, "s0"))
        # the same pda against its finite system from another state
        cases.append((pda, start, lts, "s%d" % (states - 1)))
    seen = set()
    for (pda, start, lts, state) in cases:
        got = bisim_pda_vs_finite(pda, start, lts, state)
        (matches, unmatched, counterexample) = plain_comparison(pda, start, lts, state)
        # one entry per game key, holding the partners of every truncation with that key
        oracle = PdaOracle(pda)
        of_key = {}
        for (trunc, partners) in matches:
            (_, control, kept) = oracle.game_key(trunc, got.level)
            assert of_key.setdefault(fin(control, *kept), partners) == partners
        assert dict(got.matches) == of_key
        assert [t for (t, _) in got.matches] == sorted(of_key)
        assert (got.unmatched, got.counterexample) == (unmatched, counterexample)
        assert got.equivalent == (not unmatched and got.root.kind == "at_least")
        seen.add((got.equivalent, got.root.kind))
    assert seen == {(True, "at_least"), (False, "at_least"), (False, "finite")}


def test_large_finite_systems_hit_the_guardrail(counter):
    states = frozenset("s%d" % i for i in range(13))
    big = FiniteLts(states, frozenset(["a", "b"]), frozenset())
    with pytest.raises(BudgetError):
        bisim_pda_vs_finite(counter, fin("p", "X"), big, "s0")


def test_levels_agree_with_game_unfolding_oracle():
    rng = random.Random(61)
    done = 0
    while done < 10:
        pda = random_pda(rng)
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        memo = {}
        try:
            for _ in range(8):
                c = (rng.choice(controls), random_stack(rng, symbols, max_len=3))
                d = (rng.choice(controls), random_stack(rng, symbols, max_len=3))
                got = eqlevel_configs(
                    pda,
                    fin(c[0], *c[1]),
                    fin(d[0], *d[1]),
                    cutoff=6,
                    omega_budget=64,
                )
                want = game_eqlevel(pda, c, d, 6, memo, limit=150000)
                if got.is_finite:
                    assert want == ("finite", got.value)
                else:
                    assert want == ("at_least", 6)
        except OracleBudget:
            continue
        done += 1


def test_visible_pop_property():
    rng = random.Random(62)
    for _ in range(10):
        pda = random_pda(rng)
        oracle = PdaOracle(pda)
        ctx = GameContext(oracle, oracle)
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        for _ in range(20):
            q = rng.choice(controls)
            visible = random_stack(rng, symbols, max_len=4)
            below1 = random_stack(rng, symbols, max_len=3)
            below2 = random_stack(rng, symbols, max_len=3)
            left = fin(q, *(visible + below1))
            right = fin(q, *(visible + below2))
            assert bounded_bisim(oracle, left, oracle, right, len(visible), ctx=ctx)


def test_twin_climb_to_a_deep_cutoff_runs_on_memo_hits(monkeypatch):
    # X is never popped, so every twin configuration has a one-symbol key
    # and each level of the climb is a memo hit one level down, instead of
    # a recursion as deep as the level; the absorbed regions are finite, so
    # the finite-graph route certifies the pair after the climb to the probe
    # depth 8, and no deeper game is played
    twin = Pda(
        controls=frozenset(["p", "q"]),
        stack_alphabet=frozenset(["X"]),
        actions=frozenset(["a", "b"]),
        rules=tuple(
            Rule(c, "X", a, c, push)
            for c in ("p", "q")
            for (a, push) in (("a", ("X", "X")), ("b", ("X",)))
        ),
    )
    contexts = []

    class Recorded(GameContext):
        def __init__(self, left, right):
            super().__init__(left, right)
            contexts.append(self)

    monkeypatch.setattr(equivalence, "GameContext", Recorded)
    got = eqlevel_configs(twin, fin("p", "X"), fin("q", "X"), cutoff=500)
    assert (got.kind, got.certificate.kind) == ("omega", "finite-graph")
    assert check_coverage(PdaOracle(twin), got.certificate)
    assert len(contexts) == 1
    assert max(k for (k, _, _) in contexts[0]._memo) == 8


def random_config(rng, controls, symbols):
    prefix = random_stack(rng, symbols, max_len=3)
    if rng.random() < 0.3:
        period = random_stack(rng, symbols, max_len=2, min_len=1)
        return Config(rng.choice(controls), StackWord.repeating(prefix, period))
    return Config(rng.choice(controls), StackWord.finite(prefix))


def test_level_only_climb_equals_the_strategy_climb():
    # GameContext.level is the climb that eqlevel attaches a strategy to;
    # the pump argument reads it alone, so it must give the same level, and
    # that level must be the last round the pair survives
    rng = random.Random(63)
    (finite, periodic) = (0, 0)
    for _ in range(30):
        pda = random_pda(rng)
        oracle = PdaOracle(pda)
        ctx = GameContext(oracle, oracle)
        (controls, symbols) = (sorted(pda.controls), sorted(pda.stack_alphabet))
        for _ in range(8):
            left = random_config(rng, controls, symbols)
            right = random_config(rng, controls, symbols)
            got = ctx.level(left, right, 12)
            want = eqlevel(oracle, left, oracle, right, 12)
            assert (got.kind, got.value) == (want.kind, want.value)
            assert got.certificate is None
            if got.is_finite:
                finite += 1
                periodic += bool(left.stack.period or right.stack.period)
                assert bounded_bisim(oracle, left, oracle, right, got.value)
                assert not bounded_bisim(oracle, left, oracle, right, got.value + 1)
                assert want.certificate.depth() == got.value + 1
                # the separating round is found at the cutoff, not past it
                assert ctx.level(left, right, got.value + 1) == got
                if got.value:
                    assert ctx.level(left, right, got.value).kind == "at_least"
            else:
                assert bounded_bisim(oracle, left, oracle, right, 12)
    assert finite >= 100 and periodic >= 50, (finite, periodic)


def plain_ladder(pda, left, right, cutoff):
    """The certification ladder in its plain order, from public functions.

    Equality after absorption, then the climb to ``cutoff``, then
    ``certify_bisimilar`` at the default budget.
    """
    oracle = PdaOracle(pda)
    if absorb_dead_tail(oracle.table, left) == absorb_dead_tail(oracle.table, right):
        return certify_bisimilar(oracle, left, right)
    ctx = GameContext(oracle, oracle)
    bounded = eqlevel(oracle, left, oracle, right, cutoff, ctx=ctx)
    if bounded.is_finite:
        return bounded
    certified = certify_bisimilar(oracle, left, right, probe_depth=min(8, cutoff), ctx=ctx)
    return bounded if certified is None else certified


@pytest.mark.parametrize("cutoff", [3, 64])
def test_cheapest_first_ladder_matches_the_plain_order(cutoff):
    # every step of eqlevel_configs only moves evidence earlier, so answers
    # and certificate bytes are those of the plain order.  Seed 64's pairs
    # give every answer kind but closure, which random_pda(3, 3, 8) pairs
    # hardly reach; many other seeds hold a pair whose raw climb to 64
    # runs for seconds to minutes in either order (the unbounded game engine)
    rng = random.Random(64)
    kinds = set()
    for _ in range(50):
        pda = random_pda(rng, 3, 3, 8)
        (controls, symbols) = (sorted(pda.controls), sorted(pda.stack_alphabet))
        for _ in range(4):
            left = random_config(rng, controls, symbols)
            right = random_config(rng, controls, symbols)
            got = eqlevel_configs(pda, left, right, cutoff=cutoff)
            want = plain_ladder(pda, left, right, cutoff)
            assert (got.kind, got.value) == (want.kind, want.value)
            if got.kind != "at_least":
                doc = certs.dumps(certs.eq_level_document(pda, left, right, got))
                assert doc == certs.dumps(certs.eq_level_document(pda, left, right, want))
            kinds.add(got.certificate.kind if got.is_omega else got.kind)
    assert kinds >= {"finite", "equal", "finite-graph"}, kinds
    assert ("at_least" in kinds) == (cutoff == 3), kinds


def test_a_pair_separated_in_round_one_builds_no_transformer_table(counter, monkeypatch):
    built = []

    def counting(pda):
        built.append(pda)
        return compute_transformers(pda)

    # the call's PdaOracle builds the table, through its module's name
    monkeypatch.setattr("pdabisim.pda.compute_transformers", counting)
    got = eqlevel_configs(counter, fin("p", "X"), fin("p", "A", "X"))
    assert (got.kind, got.value) == ("finite", 0)
    assert built == []
    # the next rung reads the table
    got = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"))
    assert (got.kind, got.value) == ("finite", 1)
    assert built == [counter]


def floor_walk(floors, config, depth):
    """The pop-horizon cut of ``PdaOracle.game_key``, walked symbol by symbol."""
    kept = []
    cost = 0
    for sym in config.stack.expand(depth):
        if cost >= depth:
            break
        kept.append(sym)
        if sym not in floors:
            break
        cost += floors[sym]
    return tuple(kept)


def test_round_one_keys_read_no_floor():
    rng = random.Random(65)
    for _ in range(30):
        pda = random_pda(rng)
        floors = PdaOracle(pda).floors
        oracle = PdaOracle(pda)
        (controls, symbols) = (sorted(pda.controls), sorted(pda.stack_alphabet))
        for _ in range(10):
            config = random_config(rng, controls, symbols)
            for depth in (0, 1, 2, 5):
                key = oracle.game_key(config, depth)
                assert key == (id(pda), config.control, floor_walk(floors, config, depth))
                assert ("floors" in vars(oracle)) == (depth > 1)
            del oracle.floors
