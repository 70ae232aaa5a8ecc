"""Finite systems, bounded games, eq-levels and the quotient construction."""

import random
from collections.abc import Mapping

import pytest

from pdabisim import (
    BudgetError,
    EqLevelResult,
    FiniteLts,
    FiniteLtsOracle,
    GameContext,
    InputError,
    bounded_bisim,
    eqlevel,
    quotient_finite,
    region,
)
from pdabisim.lts import refine_blocks

from oracles import lts_successors, random_lts, tree_bisim, tree_eqlevel


def make_lts(states, actions, triples):
    return FiniteLts(frozenset(states), frozenset(actions), frozenset(triples))


def test_unrolled_loop_is_bisimilar_to_tight_loop():
    two = make_lts(["u0", "u1"], ["a"], [("u0", "a", "u1"), ("u1", "a", "u0")])
    one = make_lts(["v"], ["a"], [("v", "a", "v")])
    left = FiniteLtsOracle(two)
    right = FiniteLtsOracle(one)
    ctx = GameContext(left, right)
    for k in range(0, 12):
        assert bounded_bisim(left, "u0", right, "v", k, ctx=ctx)


def test_chain_states_separate_at_their_depth():
    chain = make_lts(
        ["t0", "t1", "t2"],
        ["a"],
        [("t0", "a", "t1"), ("t1", "a", "t2")],
    )
    o = FiniteLtsOracle(chain)
    ctx = GameContext(o, o)
    got = eqlevel(o, "t0", o, "t2", 10, ctx=ctx)
    assert got.kind == "finite"
    assert got.value == 0
    assert got.certificate.depth() == 1
    got = eqlevel(o, "t0", o, "t1", 10, ctx=ctx)
    assert got.kind == "finite"
    assert got.value == 1
    assert got.certificate.depth() == 2


def test_replies_reaching_one_position_share_its_strategy():
    # s does a.a.b; t's two a-replies t1, t2 both lead to v, which stops, so
    # both branches of the strategy end in the same position (u, v, 1)
    left = make_lts(["s", "s1", "u", "w"], ["a", "b"],
                    [("s", "a", "s1"), ("s1", "a", "u"), ("u", "b", "w")])
    right = make_lts(["t", "t1", "t2", "v"], ["a", "b"],
                     [("t", "a", "t1"), ("t", "a", "t2"), ("t1", "a", "v"), ("t2", "a", "v")])
    got = eqlevel(FiniteLtsOracle(left), "s", FiniteLtsOracle(right), "t", 10)
    assert (got.kind, got.value) == ("finite", 2)
    ((r1, via_t1), (r2, via_t2)) = got.certificate.replies
    assert (r1, r2) == ("t1", "t2")
    assert via_t1.replies[0][1] is via_t2.replies[0][1]


def test_eqlevel_reports_at_least_on_agreement():
    one = make_lts(["v"], ["a"], [("v", "a", "v")])
    o = FiniteLtsOracle(one)
    got = eqlevel(o, "v", o, "v", 7)
    assert got == EqLevelResult.at_least(7)
    with pytest.raises(InputError):
        eqlevel(o, "v", o, "v", 0)


def test_negative_depth_is_rejected():
    one = make_lts(["v"], ["a"], [])
    o = FiniteLtsOracle(one)
    with pytest.raises(InputError):
        bounded_bisim(o, "v", o, "v", -1)


def test_strategy_depth_matches_separation_level():
    rng = random.Random(30)
    for _ in range(40):
        lts = random_lts(rng, max_states=6)
        o = FiniteLtsOracle(lts)
        ctx = GameContext(o, o)
        states = sorted(lts.states)
        s = rng.choice(states)
        t = rng.choice(states)
        got = eqlevel(o, s, o, t, 8, ctx=ctx)
        if got.kind == "finite":
            assert got.certificate.depth() == got.value + 1


def test_region_walks_radius():
    chain = make_lts(
        ["t0", "t1", "t2", "t3"],
        ["a"],
        [("t0", "a", "t1"), ("t1", "a", "t2"), ("t2", "a", "t3")],
    )
    o = FiniteLtsOracle(chain)
    assert region(o, "t0", 0) == {"t0"}
    assert region(o, "t0", 2) == {"t0", "t1", "t2"}
    assert region(o, "t0", 99) == {"t0", "t1", "t2", "t3"}
    with pytest.raises(BudgetError) as blown:
        region(o, "t0", 99, max_states=2)
    assert "t0" in blown.value.partial


def test_region_cap_below_one_admits_not_even_the_start():
    lone = make_lts(["t0"], ["a"], [])
    o = FiniteLtsOracle(lone)
    assert region(o, "t0", 3, max_states=1) == {"t0"}
    for cap in (0, -1):
        with pytest.raises(BudgetError) as blown:
            region(o, "t0", 3, max_states=cap)
        assert blown.value.partial == {"t0"}


def test_bounded_games_agree_with_tree_unfolding_oracle():
    rng = random.Random(31)
    for _ in range(40):
        lts = random_lts(rng, max_states=6)
        succ = lts_successors(lts)
        o = FiniteLtsOracle(lts)
        ctx = GameContext(o, o)
        memo = {}
        states = sorted(lts.states)
        for s in states:
            for t in states:
                for k in range(0, 6):
                    assert ctx.bisim(s, t, k) == tree_bisim(succ, s, t, k, memo)


def test_eqlevel_agrees_with_tree_unfolding_oracle():
    rng = random.Random(32)
    for _ in range(25):
        lts = random_lts(rng, max_states=6)
        succ = lts_successors(lts)
        o = FiniteLtsOracle(lts)
        ctx = GameContext(o, o)
        memo = {}
        states = sorted(lts.states)
        for _ in range(10):
            s = rng.choice(states)
            t = rng.choice(states)
            got = eqlevel(o, s, o, t, 6, ctx=ctx)
            want = tree_eqlevel(succ, s, t, 6, memo)
            if got.kind == "finite":
                assert want == ("finite", got.value)
            else:
                assert want == ("at_least", 6)


def test_quotient_collapses_equivalent_states():
    lts = make_lts(
        ["s0", "s1", "s2", "s3"],
        ["a"],
        [("s0", "a", "s1"), ("s1", "a", "s1"), ("s2", "a", "s1")],
    )
    (quotient, mapping) = quotient_finite(lts)
    assert mapping["s0"] == mapping["s1"] == mapping["s2"]
    assert mapping["s3"] != mapping["s0"]
    assert len(quotient.states) == 2


def test_quotient_keeps_separated_states_apart():
    lts = make_lts(
        ["t0", "t1", "t2"],
        ["a", "b"],
        [("t0", "a", "t1"), ("t1", "b", "t2")],
    )
    (quotient, mapping) = quotient_finite(lts)
    assert len(quotient.states) == 3
    assert len({mapping[s] for s in lts.states}) == 3


def test_quotient_of_empty_system():
    lts = make_lts([], ["a"], [])
    (quotient, mapping) = quotient_finite(lts)
    assert quotient.states == frozenset()
    assert mapping == {}


def doubled(lts):
    """The system next to a primed copy of itself."""
    copy = {s: s + "'" for s in lts.states}
    trans = lts.transitions | {(copy[s], a, copy[t]) for (s, a, t) in lts.transitions}
    return make_lts(lts.states | frozenset(copy.values()), lts.actions, trans)


def quotient_classes_checked(lts):
    """quotient_finite's mapping, checked against full bisimilarity."""
    (_, mapping) = quotient_finite(lts)
    succ = lts_successors(lts)
    cutoff = len(lts.states) + 1
    memo = {}
    for s in lts.states:
        for t in lts.states:
            got = tree_eqlevel(succ, s, t, cutoff, memo)
            assert (mapping[s] == mapping[t]) == (got == ("at_least", cutoff)), (s, t)
    return mapping


def test_quotient_classes_are_full_bisimilarity():
    rng = random.Random(33)
    loops = several_actions = 0
    for _ in range(200):
        base = random_lts(rng)
        loops += any(s == t for (s, _, t) in base.transitions)
        several_actions += len(base.actions) > 1
        quotient_classes_checked(base)
        mapping = quotient_classes_checked(doubled(base))
        for s in base.states:
            assert mapping[s] == mapping[s + "'"], s
    assert loops >= 100
    assert several_actions >= 100


class CountingSuccessors(Mapping):
    """A successor table that counts its lookups."""

    def __init__(self, table):
        self.table = table
        self.lookups = 0

    def __getitem__(self, state):
        self.lookups += 1
        return self.table[state]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_refinement_looks_up_a_chain_a_bounded_number_of_times():
    # each chain state sits at its own distance from the b loop, so the
    # classes split one per round; full rounds would look up n**2 / 2 times
    n = 2000
    chain = ["c%d" % i for i in range(n)]
    table = {}
    for names in (chain, [c + "'" for c in chain]):
        for (i, s) in enumerate(names):
            table[s] = (("a", names[i + 1]),) if i + 1 < n else (("b", s),)
    succ = CountingSuccessors(table)
    block = refine_blocks(sorted(table), succ)
    assert len(set(block.values())) == n
    assert all(block[c] == block[c + "'"] for c in chain)
    assert succ.lookups <= 4 * len(table)
