"""Certificate documents: emission, independent checking, tamper detection."""

import copy
import hashlib
import random

import pytest

from pdabisim import (
    Config,
    FiniteLts,
    InputError,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    bisim_pda_vs_finite,
    certify_bisimilar,
    decide_regularity,
    eqlevel_configs,
)
from pdabisim import certs
from pdabisim.cli import parse_pda
from pdabisim.regularity import NormedEvidence

from oracles import emptying_search, norm, random_pda


def fin(control, *symbols):
    return Config(control, StackWord.finite(symbols))


def loop_lts():
    return FiniteLts(
        frozenset(["v"]),
        frozenset(["a", "b"]),
        frozenset([("v", "a", "v"), ("v", "b", "v")]),
    )


def test_dumps_is_deterministic():
    doc = {"kind": "x", "format": 1, "b": [2, 1], "a": None}
    one = certs.dumps(doc)
    two = certs.dumps(doc)
    assert one == two
    assert one.endswith("\n")
    assert certs.loads(one) == doc


def test_serializer_round_trips(counter):
    assert certs.pda_from(certs.pda_doc(counter)) == counter
    word = StackWord.repeating(("X",), ("A", "B", "A", "B"))
    assert certs.stack_from(certs.stack_doc(word)) == word
    config = fin("p", "A", "X")
    assert certs.config_from(certs.config_doc(config)) == config
    lts = loop_lts()
    assert certs.lts_from(certs.lts_doc(lts)) == lts


def test_finite_level_document_checks(counter):
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    doc = certs.eq_level_document(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result)
    assert doc["kind"] == "finite-level"
    assert doc["value"] == 1
    got = certs.check_document(doc)
    assert got.ok, got.detail


def test_finite_level_document_rejects_wrong_value(counter):
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    doc = certs.eq_level_document(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result)
    for wrong in (0, 2, 5):
        bad = copy.deepcopy(doc)
        bad["value"] = wrong
        got = certs.check_document(bad)
        assert not got.ok


def test_at_least_results_certify_nothing(counter):
    result = eqlevel_configs(
        counter, fin("p", "A", "A", "X"), fin("p", "A", "A", "A", "X"), cutoff=2, omega_budget=0
    )
    assert result.kind == "at_least"
    with pytest.raises(InputError):
        certs.eq_level_document(
            counter, fin("p", "A", "A", "X"), fin("p", "A", "A", "A", "X"), result
        )


def test_bisimulation_document_checks(growing):
    result = certify_bisimilar(PdaOracle(growing), fin("p", "X"), fin("p", "X", "X"))
    doc = certs.eq_level_document(growing, fin("p", "X"), fin("p", "X", "X"), result)
    assert doc["kind"] == "bisimulation"
    got = certs.check_document(doc)
    assert got.ok, got.detail
    moved = copy.deepcopy(doc)
    moved["right"] = certs.config_doc(fin("p"))
    assert not certs.check_document(moved).ok


def test_bisimulation_document_needs_its_relation():
    # two symbols with identical pop behavior: the configurations are
    # bisimilar but distinct, so dropping the relation must break the check
    pda = Pda(
        controls=frozenset(["p"]),
        stack_alphabet=frozenset(["A", "B"]),
        actions=frozenset(["a"]),
        rules=(Rule("p", "A", "a", "p", ()), Rule("p", "B", "a", "p", ())),
    )
    result = certify_bisimilar(PdaOracle(pda), fin("p", "A"), fin("p", "B"))
    assert result is not None and result.is_omega
    doc = certs.eq_level_document(pda, fin("p", "A"), fin("p", "B"), result)
    assert certs.check_document(doc).ok
    bad = copy.deepcopy(doc)
    bad["pairs"] = []
    assert not certs.check_document(bad).ok


def test_regular_document_checks(growing, growing_start):
    verdict = decide_regularity(growing, growing_start)
    doc = certs.verdict_document(growing, growing_start, verdict)
    assert doc["kind"] == "regular"
    got = certs.check_document(doc)
    assert got.ok, got.detail


def test_regular_document_rejects_wrong_state_set(growing, growing_start):
    verdict = decide_regularity(growing, growing_start)
    doc = certs.verdict_document(growing, growing_start, verdict)
    starved = copy.deepcopy(doc)
    starved["lts"]["transitions"] = [
        t for t in starved["lts"]["transitions"] if t[1] != "b"
    ]
    assert not certs.check_document(starved).ok


def test_regular_document_rejects_unsaturated_automaton(growing, growing_start):
    verdict = decide_regularity(growing, growing_start)
    doc = certs.verdict_document(growing, growing_start, verdict)
    trimmed = copy.deepcopy(doc)
    kept = [e for e in trimmed["automaton"]["edges"] if e[1] != ""][:-1]
    kept += [e for e in trimmed["automaton"]["edges"] if e[1] == ""]
    trimmed["automaton"]["edges"] = kept
    got_error = False
    try:
        ok = certs.check_document(trimmed).ok
    except InputError:
        got_error = True
        ok = False
    assert got_error or not ok


def test_witness_document_checks(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    doc = certs.verdict_document(counter, counter_start, verdict)
    assert doc["kind"] == "witness"
    got = certs.check_document(doc)
    assert got.ok, got.detail


def test_witness_document_rejects_wrong_bound(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    doc = certs.verdict_document(counter, counter_start, verdict)
    for field, wrong in (("bound", 7), ("base_level", 9)):
        bad = copy.deepcopy(doc)
        bad[field] = wrong
        assert not certs.check_document(bad).ok


def test_witness_document_rejects_broken_loop(counter, counter_start):
    verdict = decide_regularity(counter, counter_start)
    doc = certs.verdict_document(counter, counter_start, verdict)
    bad = copy.deepcopy(doc)
    bad["loop_rules"] = []
    with pytest.raises(InputError):
        certs.check_document(bad)


def test_root_refutation_document_checks(counter, counter_start):
    comparison = bisim_pda_vs_finite(counter, counter_start, loop_lts(), "v")
    assert not comparison.equivalent
    doc = certs.comparison_root_document(counter, comparison)
    assert doc["kind"] == "finite-level"
    got = certs.check_document(doc)
    assert got.ok, got.detail
    bad = copy.deepcopy(doc)
    bad["value"] = 3
    assert not certs.check_document(bad).ok


def test_positive_comparison_requires_equivalence(counter, counter_start):
    comparison = bisim_pda_vs_finite(counter, counter_start, loop_lts(), "v")
    with pytest.raises(InputError):
        certs.comparison_document(counter, comparison)


def test_malformed_documents_raise(counter):
    with pytest.raises(InputError):
        certs.check_document({"format": 99, "kind": "witness"})
    with pytest.raises(InputError):
        certs.check_document({"format": 1, "kind": "sonnet"})
    with pytest.raises(InputError):
        certs.check_document({"format": 1, "kind": "finite-level"})
    with pytest.raises(InputError):
        certs.check_document({"format": 1, "kind": "witness", "pda": {"controls": 3}})


def test_words_must_be_lists_of_symbols(counter):
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    doc = certs.eq_level_document(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result)
    assert certs.check_document(doc).ok
    pushed = copy.deepcopy(doc)
    rule = next(r for r in pushed["pda"]["rules"] if r["push"] == ["A", "X"])
    rule["push"] = "AX"
    with pytest.raises(InputError):
        certs.check_document(pushed)
    stacked = copy.deepcopy(doc)
    stacked["left"]["config"]["stack"]["prefix"] = "AX"
    with pytest.raises(InputError):
        certs.check_document(stacked)
    with pytest.raises(InputError):
        certs.stack_from({"prefix": ["A", 7], "period": []})


def test_name_sets_must_be_lists_of_names(counter, growing, growing_start):
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    doc = certs.eq_level_document(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result)
    for (field, spelled) in (("controls", "p"), ("stack", "XA"), ("actions", "ab")):
        bad = copy.deepcopy(doc)
        bad["pda"][field] = spelled
        with pytest.raises(InputError):
            certs.check_document(bad)
    verdict = decide_regularity(growing, growing_start)
    doc = certs.verdict_document(growing, growing_start, verdict)
    assert certs.check_document(doc).ok
    for (part, field) in (
        ("lts", "states"),
        ("lts", "actions"),
        ("automaton", "finals"),
        ("automaton", "alphabet"),
        ("automaton", "original_alphabet"),
    ):
        bad = copy.deepcopy(doc)
        bad[part][field] = "".join(bad[part][field])
        with pytest.raises(InputError):
            certs.check_document(bad)
    with pytest.raises(InputError):
        certs.lts_from({"states": ["v", 1], "actions": ["a"], "transitions": []})


def test_unpackable_strategy_replies_are_input_errors(counter):
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    doc = certs.eq_level_document(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result)
    bad = copy.deepcopy(doc)
    bad["strategy"]["replies"] = [[1]]
    with pytest.raises(InputError):
        certs.check_document(bad)


def _integer_field_documents(counter, counter_start, growing, growing_start):
    """(document, path to one of its integer fields) for every such field."""
    apart = eqlevel_configs(counter, fin("p", "X"), fin("p", "A", "X"), cutoff=16)
    level_zero = certs.eq_level_document(counter, fin("p", "X"), fin("p", "A", "X"), apart)
    assert level_zero["value"] == 0
    result = eqlevel_configs(counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), cutoff=16)
    level_one = certs.eq_level_document(
        counter, fin("p", "A", "X"), fin("p", "A", "A", "X"), result
    )
    regular = certs.verdict_document(
        growing, growing_start, decide_regularity(growing, growing_start)
    )
    assert regular["level"] == 1
    witness = certs.verdict_document(
        counter, counter_start, decide_regularity(counter, counter_start)
    )
    return [
        (level_zero, ("value",)),
        (level_one, ("value",)),
        (level_zero, ("strategy", "side")),
        (level_one, ("strategy", "side")),
        (regular, ("level",)),
        (witness, ("bound",)),
        (witness, ("base_level",)),
        (witness, ("budgets", "pump_omega_budget")),
    ]


@pytest.mark.parametrize("spelled", [True, False, 1.0])
def test_integer_fields_reject_booleans_and_floats(
    counter, counter_start, growing, growing_start, spelled
):
    # JSON true == 1 and false == 0 in Python, so without a type check a
    # boolean passes for a level or a strategy side
    for (doc, path) in _integer_field_documents(counter, counter_start, growing, growing_start):
        assert certs.check_document(doc).ok
        bad = copy.deepcopy(doc)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = spelled
        with pytest.raises(InputError):
            certs.check_document(bad)


def normed_pda():
    """Every control can pop every symbol, and p's A-loop grows the stack."""
    return Pda(
        controls=frozenset(["p", "q"]),
        stack_alphabet=frozenset(["X", "A"]),
        actions=frozenset(["a", "b"]),
        rules=(
            Rule("p", "X", "a", "p", ("A", "X")),
            Rule("p", "X", "b", "p", ()),
            Rule("p", "A", "a", "p", ("A", "A")),
            Rule("p", "A", "b", "q", ()),
            Rule("q", "X", "a", "p", ("A", "A", "X")),
            Rule("q", "X", "b", "q", ()),
            Rule("q", "A", "b", "q", ()),
        ),
    )


def normed_document():
    pda = normed_pda()
    verdict = decide_regularity(pda, fin("p", "X"))
    assert (verdict.kind, verdict.exactness) == ("nonregular", "certified")
    assert isinstance(verdict.certificate, NormedEvidence)
    return certs.verdict_document(pda, fin("p", "X"), verdict)


def test_normed_document_checks():
    doc = normed_document()
    assert doc["kind"] == "normed-witness"
    assert (doc["control"], doc["symbol"], doc["period"]) == ("p", "A", ["A"])
    assert [(e["control"], e["symbol"]) for e in doc["emptying"]] == [
        ("p", "A"), ("p", "X"), ("q", "A"), ("q", "X"),
    ]
    got = certs.check_document(certs.loads(certs.dumps(doc)))
    assert got.ok, got.detail


def _rejects(doc, why):
    got = certs.check_document(doc)
    assert not got.ok
    assert why in got.detail, got.detail


def test_normed_document_rejects_a_wrong_emptying_sequence():
    doc = normed_document()
    entry = next(e for e in doc["emptying"] if (e["control"], e["symbol"]) == ("p", "X"))
    # p X -> p A X -> q X: it replays, but X is still on the stack
    entry["rules"] = [
        certs.rule_doc(Rule("p", "X", "a", "p", ("A", "X"))),
        certs.rule_doc(Rule("p", "A", "b", "q", ())),
    ]
    _rejects(doc, "not at an empty stack")


def test_normed_document_rejects_a_missing_pair():
    doc = normed_document()
    doc["emptying"] = [
        e for e in doc["emptying"] if (e["control"], e["symbol"]) != ("q", "A")
    ]
    _rejects(doc, "no emptying sequence for control q and symbol A")


def test_normed_document_rejects_a_loop_that_reads_below_its_top():
    doc = normed_document()
    # from p [A X] these reach p [A A X], but only by popping A and reading X
    doc["loop_rules"] = [
        certs.rule_doc(Rule("p", "A", "b", "q", ())),
        certs.rule_doc(Rule("q", "X", "a", "p", ("A", "A", "X"))),
    ]
    _rejects(doc, "the loop body")


def test_normed_document_rejects_a_periodic_start():
    doc = normed_document()
    doc["start"]["stack"]["period"] = ["A"]
    _rejects(doc, "periodic")


def test_normed_document_rejects_a_rule_the_process_does_not_have():
    doc = normed_document()
    doc["access_rules"][0]["action"] = "b"
    _rejects(doc, "a rule the process does not have")


def test_normed_evidence_matches_the_brute_force_norm():
    # each emptying sequence is a shortest way to a dead configuration, and
    # the norm climbs with every turn of the loop
    decided = 0
    for seed in range(300):
        pda = random_pda(random.Random(seed), 3, 3, 8)
        start = fin(sorted(pda.controls)[0], sorted(pda.stack_alphabet)[0])
        if not all(
            emptying_search(pda, p, x, 12) for p in pda.controls for x in pda.stack_alphabet
        ):
            continue  # not fully normed, or only by long derivations
        verdict = decide_regularity(pda, start)
        if verdict.kind == "regular":
            continue  # no loop grows the stack
        assert isinstance(verdict.certificate, NormedEvidence), seed
        decided += 1
        ends = {}
        for ((p, x), rules) in verdict.certificate.emptying:
            assert norm(pda, (p, (x,)), len(rules)) == len(rules), (seed, p, x)
            ends[(p, x)] = (len(rules), rules[-1].target)

        def horizon(control, stack):
            # popping the stack symbol by symbol along the sequences
            total = 0
            for x in stack:
                (steps, control) = ends[(control, x)]
                total += steps
            return total

        loop = verdict.certificate.loop
        norms = []
        for m in range(4):
            stack = (loop.symbol,) + loop.period * m + loop.tail.prefix
            got = norm(pda, (loop.control, stack), horizon(loop.control, stack))
            assert got is not None and got >= len(stack), (seed, m)
            norms.append(got)
        assert norms == sorted(set(norms)), (seed, norms)
    assert decided >= 50


# the README's counter, and its normed.pda: the counter plus "p X b -> p ."
README_COUNTER = """\
pda
controls: p
alphabet: a b
stack: X A
init: p X
p X a -> p A X
p A a -> p A A
p A b -> p .
"""
README_NORMED = README_COUNTER.replace("p X a -> p A X\n", "p X a -> p A X\np X b -> p .\n")
# a regular process whose automaton has a composite symbol <B+B>, the
# silent edge c:p0 . acc, and the destination set {r0, r3} shared by the
# groups of c:p0 and r0 reading <B+B>
GROUPED = """\
pda
controls: p0
alphabet: a b
stack: A B
init: p0 A
p0 A a -> p0 .
p0 A b -> p0 B
p0 B a -> p0 B B B
"""


@pytest.mark.parametrize(
    "text,kind,digest",
    [
        (README_COUNTER, "witness",
         "c05adab7f5b305a5ae0eef9d495300418ae63946d37f767c287345bb409e27b8"),
        (README_NORMED, "normed-witness",
         "5a8d89a5f330ea06e7d1050ea1874d98ad666c344d0949fe1801c44054ca5a40"),
        (GROUPED, "regular",
         "1f4cabee5c0cab92a918bcd8bec9182982f012a61ed54f539423f2cec7390ff6"),
    ],
)
def test_document_bytes_are_pinned(text, kind, digest):
    # a change to these bytes is a change of the document format
    assert certs.FORMAT == 1
    (pda, start) = parse_pda(text)
    doc = certs.verdict_document(pda, start, decide_regularity(pda, start))
    assert doc["kind"] == kind
    assert hashlib.sha256(certs.dumps(doc).encode()).hexdigest() == digest


def test_finite_graph_strategy_replays_on_the_raw_sides():
    # the level (70) is past the default cutoff, so the finite-graph route
    # decides the pair, playing on absorbed configurations
    pda = Pda(
        controls=frozenset(["p"]),
        stack_alphabet=frozenset(["A", "X", "Y", "Z"]),
        actions=frozenset(["a", "b", "c"]),
        rules=(
            Rule("p", "A", "a", "p", ()),
            Rule("p", "X", "b", "p", ("X",)),
            Rule("p", "Y", "c", "p", ("Y",)),
        ),
    )
    left = fin("p", *("A",) * 70, "X", "Z")
    right = fin("p", *("A",) * 70, "Y", "Z")
    result = eqlevel_configs(pda, left, right)
    assert (result.kind, result.value) == ("finite", 70)
    doc = certs.eq_level_document(pda, left, right, result)
    got = certs.check_document(certs.loads(certs.dumps(doc)))
    assert got.ok, got.detail
