"""The emptying relation, set transformers and period iteration."""

import random

import pytest

from pdabisim import (
    InputError,
    apply_set_transformer,
    compute_transformers,
    period_iteration,
)

from oracles import (
    dense_pda,
    emptying_search,
    naive_transformers,
    random_pda,
    random_stack,
)


def test_counter_triples(counter):
    table = compute_transformers(counter)
    assert set(table.triples) == {("p", "A", "p")}
    assert dict(table.shortest).get(("p", "A", "p")) == 1
    assert dict(table.shortest).get(("p", "X", "p")) is None
    assert table.bound == 1


def test_growing_has_no_emptying_runs(growing):
    table = compute_transformers(growing)
    assert set(table.triples) == set()
    assert table.bound == 0
    assert apply_set_transformer(table, frozenset(["p"]), ("X",)) == frozenset()


def test_twocycle_triples(twocycle):
    table = compute_transformers(twocycle)
    assert set(table.triples) == {("p", "A", "q"), ("q", "A", "p")}
    assert dict(table.shortest).get(("p", "A", "q")) == 1
    assert dict(table.shortest).get(("q", "A", "p")) == 1


def test_apply_folds_over_the_word(counter, twocycle):
    table = compute_transformers(counter)
    assert apply_set_transformer(table, frozenset(["p"]), ()) == frozenset(["p"])
    assert apply_set_transformer(table, frozenset(["p"]), ("A", "A")) == frozenset(
        ["p"]
    )
    assert apply_set_transformer(table, frozenset(["p"]), ("X",)) == frozenset()
    assert apply_set_transformer(table, frozenset(["p"]), ("X", "A")) == frozenset()
    two = compute_transformers(twocycle)
    assert apply_set_transformer(two, frozenset(["p"]), ("A",)) == frozenset(["q"])
    assert apply_set_transformer(two, frozenset(["p", "q"]), ("A",)) == frozenset(
        ["p", "q"]
    )


def test_apply_rejects_undeclared_names(counter):
    table = compute_transformers(counter)
    with pytest.raises(InputError):
        apply_set_transformer(table, frozenset(["zz"]), ())
    with pytest.raises(InputError):
        apply_set_transformer(table, frozenset(["p"]), ("Z",))


def test_period_iteration_on_counter(counter):
    table = compute_transformers(counter)
    got = period_iteration(table, "p", "A", ("A",))
    assert got.preperiod == 0
    assert got.cycle_length == 1
    assert got.cycle_set == frozenset(["p"])
    with pytest.raises(InputError):
        period_iteration(table, "p", "A", ())


def test_period_iteration_on_twocycle(twocycle):
    table = compute_transformers(twocycle)
    got = period_iteration(table, "q", "A", ("A", "A"))
    assert got.sets[0] == frozenset(["p"])
    assert got.preperiod == 0
    assert got.cycle_length == 1
    assert got.cycle_set == frozenset(["p"])


def test_triples_match_emptying_search():
    rng = random.Random(50)
    for _ in range(20):
        pda = random_pda(rng)
        table = compute_transformers(pda)
        horizon = 2 * table.bound + 8
        want = {}
        for p in sorted(pda.controls):
            for x in sorted(pda.stack_alphabet):
                for (q, d) in emptying_search(pda, p, x, horizon).items():
                    want[(p, x, q)] = d
        assert set(table.triples) == set(want)
        shortest = dict(table.shortest)
        for (key, d) in sorted(want.items()):
            assert shortest.get(key) == d
        assert table.bound == max(want.values(), default=0)


def test_table_matches_the_round_robin_fixpoint(counter, growing, twocycle):
    # random_pda pushes up to 3 symbols, so chains run past two positions
    rng = random.Random(52)
    pdas = [random_pda(rng) for _ in range(150)]
    pdas += [random_pda(rng, 4, 4, 12) for _ in range(150)]
    pdas += [dense_pda(random.Random(53), 8, 60), dense_pda(random.Random(54), 10, 80)]
    pdas += [counter, growing, twocycle]
    (empty, deepest) = (0, 0)
    for pda in pdas:
        table = compute_transformers(pda)
        assert (table.triples, table.shortest, table.bound) == naive_transformers(pda)
        empty += not table.triples
        deepest = max(deepest, table.bound)
    # some draws, and the growing process, pop nothing
    assert empty >= 2
    assert max(p.max_push() for p in pdas[:300]) == 3
    assert deepest > 2


def test_set_transformer_is_monotone():
    rng = random.Random(51)
    for _ in range(20):
        pda = random_pda(rng)
        table = compute_transformers(pda)
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        for _ in range(10):
            small = frozenset(c for c in controls if rng.random() < 0.5)
            large = small | frozenset(c for c in controls if rng.random() < 0.5)
            word = random_stack(rng, symbols, max_len=4)
            lo = apply_set_transformer(table, small, word)
            hi = apply_set_transformer(table, large, word)
            assert lo <= hi
