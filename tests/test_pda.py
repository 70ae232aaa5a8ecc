"""Stack words, configurations, rewriting steps and rule normalization."""

import copy
import pickle
import random

import pytest

from pdabisim import (
    Config,
    GameContext,
    InputError,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    TruncatedConfig,
    canonicalize,
    normalize_rules,
    poststar,
    step,
    validate_config,
)

from pdabisim.equivalence import AbsorbingOracle

from oracles import OracleBudget, game_bisim, pda_moves, random_pda, random_stack


def test_finite_words_are_canonical():
    w = StackWord.finite(("A", "B", "A"))
    assert canonicalize(w) == w
    assert w.is_finite
    assert len(w) == 3
    assert w.head() == "A"
    assert w.tail() == StackWord.finite(("B", "A"))


def test_empty_word_edges():
    w = StackWord.finite()
    assert w.head() is None
    with pytest.raises(InputError):
        w.tail()
    with pytest.raises(InputError):
        StackWord.repeating(("A",), ())


def test_canonical_period_is_primitive():
    w = canonicalize(StackWord((), ("A", "B", "A", "B")))
    assert w == StackWord((), ("A", "B"))


def test_canonical_prefix_absorbs_into_rotation():
    w = canonicalize(StackWord(("X", "A"), ("B", "A", "B", "A")))
    assert w == StackWord(("X",), ("A", "B"))
    again = canonicalize(StackWord(("A",), ("A",)))
    assert again == StackWord((), ("A",))


def test_infinite_word_has_no_length():
    w = StackWord.repeating((), ("A",))
    with pytest.raises(InputError):
        len(w)
    assert w.expand(5) == ("A",) * 5
    assert w.tail() == w
    assert w.push(("B",)) == StackWord(("B",), ("A",))


def test_periodic_configs_pickle_and_copy():
    config = Config("p", StackWord.repeating(("B",), ("A",)))
    assert pickle.loads(pickle.dumps(config)) == config
    assert copy.deepcopy(config) == config


@pytest.mark.parametrize(
    "word", [StackWord.finite(("A", "B")), StackWord.repeating(("A",), ("B",))]
)
def test_words_pickle_copy_and_replace_by_their_fields(word):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(word, protocol))
        assert (again, type(again)) == (word, StackWord), protocol
    assert copy.copy(word) == word and copy.deepcopy(word) == word
    assert word._replace(prefix=("C",)) == StackWord(("C",), word.period)
    assert word._replace(period=("A",)) == StackWord(word.prefix, ("A",))
    assert StackWord._make([word.prefix, word.period]) == word


def test_canonicalize_preserves_denoted_sequence():
    rng = random.Random(20)
    for _ in range(200):
        prefix = random_stack(rng, ["A", "B"], max_len=5)
        period = random_stack(rng, ["A", "B"], max_len=4, min_len=1)
        raw = StackWord(prefix, period)
        canon = canonicalize(raw)
        assert canon.expand(30) == raw.expand(30)
        assert canonicalize(canon) == canon


def test_equal_expansions_share_canonical_form():
    rng = random.Random(21)
    words = []
    for _ in range(150):
        prefix = random_stack(rng, ["A", "B"], max_len=4)
        period = random_stack(rng, ["A", "B"], max_len=3, min_len=1)
        words.append(canonicalize(StackWord(prefix, period)))
    for u in words:
        for v in words:
            if u.expand(40) == v.expand(40):
                assert u == v


def test_step_on_counter(counter):
    start = Config("p", StackWord.finite(("X",)))
    assert step(counter, start) == [("a", Config("p", StackWord.finite(("A", "X"))))]
    mid = Config("p", StackWord.finite(("A", "X")))
    assert step(counter, mid) == [
        ("a", Config("p", StackWord.finite(("A", "A", "X")))),
        ("b", Config("p", StackWord.finite(("X",)))),
    ]
    assert step(counter, Config("p", StackWord.finite())) == []


def test_step_canonicalizes_periodic_results(counter):
    limit = Config("p", StackWord.repeating((), ("A",)))
    succs = dict(step(counter, limit))
    assert succs["a"] == limit
    assert succs["b"] == limit


def test_step_matches_the_rules_on_random_stacks():
    # a periodic stack is compared on an expansion deep enough that two
    # distinct successors differ within it: they push at most 3 symbols
    # onto a tail of at most 3 prefix symbols and a period of at most 3
    depth = 16
    rng = random.Random(25)
    for _ in range(300):
        pda = random_pda(rng, 3, 3, 8)
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        for _ in range(4):
            prefix = random_stack(rng, symbols, max_len=4)
            if rng.random() < 0.5:
                word = StackWord.finite(prefix)
            else:
                word = StackWord.repeating(prefix, random_stack(rng, symbols, 3, 1))
            config = Config(rng.choice(controls), word)
            got = step(pda, config)
            assert got == sorted(
                got, key=lambda m: (m[0], m[1].control, m[1].stack.prefix, m[1].stack.period)
            )
            assert len(set(got)) == len(got)
            for (_, succ) in got:
                assert canonicalize(succ.stack) == succ.stack
            if word.is_finite:
                expected = pda_moves(pda, config.control, word.prefix)
                assert sorted((a, (c.control, c.stack.prefix)) for (a, c) in got) == sorted(expected)
                assert all(c.stack.is_finite for (_, c) in got)
                continue
            seen = [(a, c.control, c.stack.expand(depth - 1)) for (a, c) in got]
            assert len(set(seen)) == len(seen)
            moves = pda_moves(pda, config.control, word.expand(depth))
            assert set(seen) == {(a, q, w[: depth - 1]) for (a, (q, w)) in moves}


def test_truncate_keeps_top_symbols(counter):
    c = Config("p", StackWord.finite(("A", "A", "X")))
    t2 = TruncatedConfig(c.control, c.stack.expand(2))
    assert t2.prefix == ("A", "A")
    assert t2.control == "p"
    t3 = TruncatedConfig(c.control, c.stack.expand(3))
    assert t3.prefix == ("A", "A", "X")
    assert t3.as_config() == c
    limit = Config("p", StackWord.repeating((), ("A",)))
    assert TruncatedConfig(limit.control, limit.stack.expand(4)).prefix == ("A",) * 4


def test_validate_config_rejects_foreign_symbols(counter):
    with pytest.raises(InputError):
        validate_config(counter, Config("r", StackWord.finite(("X",))))
    with pytest.raises(InputError):
        validate_config(counter, Config("p", StackWord.finite(("Z",))))
    validate_config(counter, Config("p", StackWord.repeating(("X",), ("A",))))


def test_validate_config_rejects_a_non_canonical_stack(counter):
    # [A X](X)^w denotes A X X X ..., canonically [A](X)^w; stepping the
    # raw word would put one word under two memo keys
    raw = Config("p", StackWord(("A", "X"), ("X",)))
    with pytest.raises(InputError, match=r"write it as \[A\] \(X\)\^w"):
        validate_config(counter, raw)
    with pytest.raises(InputError):
        poststar(counter, raw)
    validate_config(counter, Config("p", canonicalize(raw.stack)))


def test_pda_rejects_inconsistent_rules():
    with pytest.raises(InputError):
        Pda(
            controls=frozenset(["p"]),
            stack_alphabet=frozenset(["X"]),
            actions=frozenset(["a"]),
            rules=(Rule("p", "X", "a", "q", ()),),
        )
    with pytest.raises(InputError):
        Pda(
            controls=frozenset(["p"]),
            stack_alphabet=frozenset(["X"]),
            actions=frozenset(["a"]),
            rules=(Rule("p", "Y", "a", "p", ()),),
        )


def test_pda_rejects_the_empty_stack_symbol():
    # post* labels its silent edges with "", so such a push would read as
    # silent: p[] would seem reachable and p[''] would not
    with pytest.raises(InputError, match="non-empty"):
        Pda({"p"}, {"", "A"}, {"a"}, (Rule("p", "A", "a", "p", ("",)),))
    with pytest.raises(InputError):
        Pda(frozenset(["p"]), frozenset([""]), frozenset(["a"]), ())


def test_normalize_rules_caps_push_length():
    wide = Pda(
        controls=frozenset(["p", "q"]),
        stack_alphabet=frozenset(["X", "A"]),
        actions=frozenset(["a", "b"]),
        rules=(
            Rule("p", "X", "a", "q", ("A", "A", "A", "X")),
            Rule("q", "A", "b", "p", ()),
        ),
    )
    (flat, mapping) = normalize_rules(wide)
    assert flat.max_push() <= 2
    assert all(len(r.push) <= 2 for r in flat.rules)
    composites = flat.stack_alphabet - wide.stack_alphabet
    assert composites
    for name in composites:
        assert len(dict(mapping.expansions)[name]) >= 2
    start = Config("p", StackWord.finite(("X",)))
    ctx = GameContext(PdaOracle(wide), PdaOracle(flat))
    assert ctx.bisim(start, start, 8)


def test_normalized_systems_stay_equivalent_on_random_input():
    rng = random.Random(22)
    checked = 0
    for attempt in range(30):
        pda = random_pda(rng)
        if pda.max_push() <= 2:
            continue
        (flat, _) = normalize_rules(pda)
        assert flat.max_push() <= 2
        symbols = sorted(pda.stack_alphabet)
        stack = random_stack(rng, symbols, max_len=3, min_len=1)
        config = Config(sorted(pda.controls)[0], StackWord.finite(stack))
        ctx = GameContext(PdaOracle(pda), PdaOracle(flat))
        assert ctx.bisim(config, config, 5)
        checked += 1
    assert checked >= 3


def test_game_key_pairs_are_bisimilar_to_the_key_depth():
    # the key keeps the symbols that k rounds can expose; any stack below
    # them must leave the k-round game unchanged, which the oracle's
    # full-configuration game (no truncation) confirms
    rng = random.Random(23)
    deep = 0
    for _ in range(240):
        pda = random_pda(rng)
        symbols = sorted(pda.stack_alphabet)
        oracle = PdaOracle(pda)
        absorbing = AbsorbingOracle(oracle)
        memo = {}
        for k in range(1, 7):
            control = rng.choice(sorted(pda.controls))
            stack = random_stack(rng, symbols, max_len=8, min_len=1)
            c = Config(control, StackWord.finite(stack))
            key = oracle.game_key(c, k)
            kept = key[2]
            assert len(kept) <= len(c.stack.expand(k))
            assert absorbing.game_key(c, k) == key
            tail = random_stack(rng, symbols, max_len=4)
            if stack[len(kept):] == tail:
                continue
            d = Config(control, StackWord.finite(kept + tail))
            if oracle.game_key(d, k) != key:
                # the walk ran off the bottom of c's stack: the key is all of it
                assert kept == stack
                continue
            try:
                same = game_bisim(pda, (control, stack), (control, kept + tail), k, memo, 20000)
            except OracleBudget:
                memo = {}
                continue
            assert same, (pda.rules, stack, kept + tail, k)
            deep += len(kept) < k
    assert deep >= 300
