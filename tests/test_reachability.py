"""Saturation-based reachability: membership, truncations, completions."""

import random

import pytest

from pdabisim import (
    BudgetError,
    Config,
    InputError,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    certs,
    normalize_rules,
    poststar,
    reachable_truncations,
    completion,
)
from pdabisim.reachability import (
    TRUNCATION_DEPTH_LIMIT,
    ConfigAutomaton,
    initial_skeleton,
    reach_automaton,
    reachable_key_cuts,
    saturation_edges,
)

from oracles import (
    automaton_accepts,
    bounded_reachable,
    closure_violations,
    dense_pda,
    exact_reachable,
    naive_truncations,
    prefix_reachable,
    prefix_unreachable,
    random_pda,
)


def fin(control, *symbols):
    return Config(control, StackWord.finite(symbols))


def test_counter_membership(counter, counter_start):
    aut = poststar(counter, counter_start)
    assert automaton_accepts(aut, "p", ("X",))
    assert automaton_accepts(aut, "p", ("A", "X"))
    assert automaton_accepts(aut, "p", ("A", "A", "A", "A", "X"))
    assert not automaton_accepts(aut, "p", ())
    assert not automaton_accepts(aut, "p", ("A",))
    assert not automaton_accepts(aut, "p", ("X", "A"))
    assert not automaton_accepts(aut, "p", ("X", "X"))


def test_unknown_control_is_simply_unreachable(counter, counter_start):
    aut = poststar(counter, counter_start)
    assert not automaton_accepts(aut, "zz", ("X",))


def test_counter_truncations(counter, counter_start):
    aut = poststar(counter, counter_start)
    assert reachable_truncations(aut, 0) == {fin("p")}
    assert reachable_truncations(aut, 2) == {
        fin("p", "X"),
        fin("p", "A", "X"),
        fin("p", "A", "A"),
    }


def test_truncation_depth_guardrail(counter, counter_start):
    aut = poststar(counter, counter_start)
    with pytest.raises(InputError):
        reachable_truncations(aut, -1)
    with pytest.raises(BudgetError):
        reachable_truncations(aut, TRUNCATION_DEPTH_LIMIT + 1)


def test_completion_realizes_truncations(counter, counter_start):
    aut = poststar(counter, counter_start)
    for depth in (1, 2, 3):
        for trunc in reachable_truncations(aut, depth):
            got = completion(aut, trunc, depth=depth)
            assert got is not None
            assert fin(got.control, *got.stack.expand(depth)) == trunc
            assert automaton_accepts(aut, got.control, got.stack.prefix)


def test_completion_of_unreachable_prefix_is_none(counter, counter_start):
    aut = poststar(counter, counter_start)
    assert completion(aut, fin("p", "X", "A")) is None


def test_completion_rejects_a_periodic_configuration(counter, counter_start):
    aut = poststar(counter, counter_start)
    with pytest.raises(InputError, match="periodic"):
        completion(aut, Config("p", StackWord.repeating((), ("A",))), depth=2)


def test_growing_membership(growing, growing_start):
    aut = poststar(growing, growing_start)
    for n in range(1, 6):
        assert automaton_accepts(aut, "p", ("X",) * n)
    assert not automaton_accepts(aut, "p", ())


def test_skeleton_is_before_saturation(counter):
    (entries, edges, finals, live) = initial_skeleton(
        counter.controls, Config("p", StackWord.finite(("A", "X")))
    )
    assert dict(entries)["p"] == "c:p"
    assert len(finals) == 1
    assert live == ()
    labels = sorted(label for (_, label, _) in edges)
    assert labels == ["A", "X"]


def test_saturation_is_idempotent(counter, counter_start):
    aut = reach_automaton(counter, counter_start)
    entries = dict(aut.entries)
    fresh = saturation_edges(counter, entries, set(aut.edges))
    assert fresh == set()


def test_membership_agrees_with_bounded_search():
    rng = random.Random(40)
    for _ in range(15):
        pda = random_pda(rng)
        control = sorted(pda.controls)[0]
        bottom = sorted(pda.stack_alphabet)[0]
        start = fin(control, bottom)
        aut = reach_automaton(pda, start)
        explored = bounded_reachable(pda, control, (bottom,), 6, 10)
        for (q, stack) in sorted(explored):
            assert automaton_accepts(aut, q, stack)
        abstract = prefix_reachable(pda, control, (bottom,), 4)
        for _ in range(40):
            q = rng.choice(sorted(pda.controls))
            stack = tuple(
                rng.choice(sorted(pda.stack_alphabet))
                for _ in range(rng.randint(0, 5))
            )
            if prefix_unreachable(abstract, q, stack, 4):
                assert not automaton_accepts(aut, q, stack)


def test_truncations_match_bounded_search():
    rng = random.Random(41)
    for _ in range(10):
        pda = random_pda(rng)
        control = sorted(pda.controls)[0]
        bottom = sorted(pda.stack_alphabet)[0]
        aut = reach_automaton(pda, fin(control, bottom))
        got = reachable_truncations(aut, 2)
        explored = bounded_reachable(pda, control, (bottom,), 8, 10)
        seen = {fin(q, *stack[:2]) for (q, stack) in explored}
        assert seen <= got
        for trunc in got:
            assert completion(aut, trunc, depth=2) is not None


def test_depth_zero_keeps_controls_reached_with_an_empty_stack():
    pda = Pda(
        controls=frozenset(["p", "q"]),
        stack_alphabet=frozenset(["A"]),
        actions=frozenset(["a"]),
        rules=(Rule("p", "A", "a", "q", ()),),
    )
    aut = reach_automaton(pda, fin("p", "A"))
    assert reachable_truncations(aut, 0) == {
        fin("p"),
        fin("q"),
    }


def test_truncations_equal_the_exact_reachable_set():
    checked = 0
    composite_edges = 0
    for seed in range(400):
        pda = random_pda(random.Random(seed), 3, 3, 8)
        control = sorted(pda.controls)[0]
        bottom = sorted(pda.stack_alphabet)[0]
        (reached, complete) = exact_reachable(pda, control, (bottom,), 12, 200)
        if not complete:
            continue
        checked += 1
        aut = reach_automaton(pda, fin(control, bottom))
        composite = {sym for (sym, _) in aut.expansions}
        composite_edges += sum(label in composite for (_, label, _) in aut.edges)
        for k in range(5):
            want = {fin(q, *stack[:k]) for (q, stack) in reached}
            assert reachable_truncations(aut, k) == want, (seed, k)
    assert checked > 100
    assert composite_edges > 0


def test_truncations_equal_the_forward_walk():
    rng = random.Random(44)
    for i in range(90):
        pda = random_pda(rng, 4, 4, 12)
        aut = reach_automaton(pda, random_start(rng, pda, ("finite", "empty", "periodic")[i % 3]))
        for k in range(6):
            assert reachable_truncations(aut, k) == naive_truncations(aut, k), (i, k)
    # a pda drawn like the reach benchmark's ladder, with many silent edges
    pda = dense_pda(random.Random(19), 8, 60)
    first = min(pda.rules)
    aut = reach_automaton(pda, fin(first.control, first.symbol))
    assert sum(label == "" for (_, label, _) in aut.edges) > 100
    for k in range(6):
        assert reachable_truncations(aut, k) == naive_truncations(aut, k), k


def test_key_cuts_are_the_keys_of_the_truncations():
    rng = random.Random(45)
    (keys, truncations, composite_edges) = (0, 0, 0)
    for i in range(90):
        pda = random_pda(rng, 4, 4, 12)
        aut = reach_automaton(pda, random_start(rng, pda, ("finite", "periodic")[i % 2]))
        composite = {sym for (sym, _) in aut.expansions}
        composite_edges += sum(label in composite for (_, label, _) in aut.edges)
        oracle = PdaOracle(pda)
        for k in range(6):
            found = naive_truncations(aut, k)
            want = {oracle.game_key(t, k)[1:] for t in found}
            assert reachable_key_cuts(aut, oracle.floors, k) == want, (i, k)
            (keys, truncations) = (keys + len(want), truncations + len(found))
    assert composite_edges > 0
    assert keys < truncations
    with pytest.raises(BudgetError):
        reachable_key_cuts(aut, oracle.floors, TRUNCATION_DEPTH_LIMIT + 1)


def test_an_empty_expansion_reads_as_silent():
    # only a hand-made automaton, such as one read from a certificate
    # document, has a symbol standing for no word; on a cycle it must not
    # send the enumeration round forever
    aut = ConfigAutomaton.from_edges(
        [("c:p", "A", "m"), ("m", "Z", "m"), ("m", "Z", "acc"), ("m", "A", "acc")],
        entries=(("p", "c:p"),),
        finals=frozenset(["acc"]),
        expansions=(("Z", ()),),
        alphabet=frozenset(["A", "Z"]),
        original_alphabet=frozenset(["A"]),
    )
    for k in range(4):
        assert reachable_truncations(aut, k) == naive_truncations(aut, k), k
    assert reachable_truncations(aut, 3) == {
        fin("p", "A"),
        fin("p", "A", "A"),
    }


def naive_fixpoint(pda, start):
    (entries, edges, _, _) = initial_skeleton(pda.controls, start)
    edges = set(edges)
    while True:
        fresh = saturation_edges(pda, entries, frozenset(edges))
        if not fresh:
            return edges
        edges |= fresh


def random_start(rng, pda, kind):
    symbols = sorted(pda.stack_alphabet)
    word = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
    if kind == "finite":
        stack = StackWord.finite(word)
    elif kind == "empty":
        stack = StackWord.finite(())
    else:
        period = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        stack = StackWord.repeating(word[:1], period)
    return Config(rng.choice(sorted(pda.controls)), stack)


def shared_silent_targets(aut):
    """States that the entries of two or more controls reach by one silent edge."""
    entry_states = {s for (_, s) in aut.entries}
    sources = {}
    for (src, label, dst) in aut.edges:
        if label == "" and src in entry_states:
            sources.setdefault(dst, set()).add(src)
    return {dst for (dst, srcs) in sources.items() if len(srcs) > 1}


def test_worklist_saturation_matches_the_naive_fixpoint():
    rng = random.Random(42)
    for i in range(300):
        (norm, mapping) = normalize_rules(random_pda(rng))
        start = random_start(rng, norm, ("finite", "empty", "periodic")[i % 3])
        aut = poststar(norm, start, mapping)
        assert aut.edges == naive_fixpoint(norm, start)
        assert closure_violations(norm, aut) == []
    # dense draws: many controls reach one state silently, so a popped edge
    # fires the rules of a whole control set at once
    merged = 0
    widest = 0
    for (i, (controls, rules)) in enumerate(((8, 60), (9, 70), (10, 80))):
        (norm, mapping) = normalize_rules(dense_pda(random.Random(43 + i), controls, rules))
        start = random_start(rng, norm, ("finite", "empty", "periodic")[i])
        aut = poststar(norm, start, mapping)
        assert aut.edges == naive_fixpoint(norm, start), (controls, rules)
        merged += len(shared_silent_targets(aut))
        widest = max(widest, len(aut.states()))
    assert merged > 0
    # the destination masks span more than one machine word
    assert widest > 64


def test_saturation_around_a_periodic_cycle_of_pops():
    # the pops p0 -A-> p1 -B-> p0 walk both controls round the live cycle
    # g0 -A-> g1 -B-> g0 and the pushed loop at r1, so both reach g1 and r1
    # by silent edges, and a popped silent key carries several destinations
    # at once: a kernel firing only one of them misses c:p0 . r1
    rules = (
        Rule("p0", "A", "a", "p1", ()),
        Rule("p0", "A", "b", "p0", ("A", "B")),
        Rule("p1", "B", "b", "p0", ()),
    )
    pda = Pda(frozenset(["p0", "p1"]), frozenset("AB"), frozenset("ab"), rules)
    start = Config("p0", StackWord.repeating((), ("A", "B")))
    aut = poststar(pda, start)
    assert aut.edges == naive_fixpoint(pda, start)
    assert ("c:p0", "", "r1") in aut.edges
    assert closure_violations(pda, aut) == []
    assert shared_silent_targets(aut) == {"g1", "r1"}


def test_cached_lookups_leave_equality_and_hash_alone(twocycle, twocycle_start):
    aut = poststar(twocycle, twocycle_start)
    assert completion(aut, fin("q", "A", "X")) is not None
    assert reachable_truncations(aut, 2)
    assert aut.entry("p") == "c:p" and aut.flatten("A") == ("A",)
    again = certs.automaton_from(certs.automaton_doc(aut))
    assert again == aut
    assert hash(again) == hash(aut)


def test_groups_are_canonical_and_round_trip_through_the_document():
    shared = 0
    for seed in range(200):
        rng = random.Random(seed)
        pda = random_pda(rng, 3, 3, 8)
        for kind in ("finite", "periodic"):
            aut = reach_automaton(pda, random_start(rng, pda, kind))
            keys = [(src, label) for (src, label, _) in aut.groups]
            assert keys == sorted(set(keys)), (seed, kind)
            sets = [dsts for (_, _, dsts) in aut.groups]
            assert all(isinstance(d, frozenset) and d for d in sets), (seed, kind)
            # equal destination sets are one object
            assert len({id(d) for d in sets}) == len(set(sets)), (seed, kind)
            shared += len(sets) - len(set(sets))
            assert aut.edges == {(s, l, d) for (s, l, dsts) in aut.groups for d in dsts}
            assert certs.automaton_from(certs.automaton_doc(aut)) == aut, (seed, kind)
    assert shared > 0


def test_truncations_from_a_long_start_equal_the_forward_walk():
    # a 1,600-symbol start puts a chain of 1,600 states behind the entry
    for seed in range(6):
        rng = random.Random(seed)
        pda = random_pda(rng, 3, 3, 8)
        symbols = sorted(pda.stack_alphabet)
        word = tuple(rng.choice(symbols) for _ in range(1600))
        aut = reach_automaton(pda, fin(sorted(pda.controls)[0], *word))
        assert len(aut.states()) > 1600
        for k in range(5):
            assert reachable_truncations(aut, k) == naive_truncations(aut, k), (seed, k)
