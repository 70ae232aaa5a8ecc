"""Seeded corpora and the operations each benchmark workload runs.

Every case is generated from fixed corpus seeds, so the golden answers in
``golden/`` cover every case.  The run seed fixes the order in which the
cases run.  Only generated inputs reach the library, through its public
API and at the command line's default budgets.
"""

import hashlib
import json
import random
from dataclasses import dataclass

# The ROADMAP corpus.  Seeds 2010, 2012, 2017 and 2030 stall at the
# default budgets and stay in, so fixing the stall shows as a gain.
REGCHECK_SEEDS = tuple(range(2000, 2040))

EQLEVEL_CORPUS_SEED = 102
EQLEVEL_PROCESSES = 50
EQLEVEL_PAIRS_PER_PROCESS = 4
EQLEVEL_PERIODIC_SHARE = 0.3
EQLEVEL_CUTOFF = 64
EQLEVEL_OMEGA_BUDGET = 512

REACH_CORPUS_SEED = 3
# (controls, rules) with three stack symbols.  20/200 is left out: post*
# takes 248 s there with the sweep-until-stable saturation.
POSTSTAR_LADDER = ((6, 40), (8, 60), (10, 80))
# Small random finite systems each ladder pda is compared against.
LADDER_FINITE_SYSTEMS = (1, 1, 0)
# State counts of the finite systems that get inflated into pdas.
INFLATED_STATES = (4, 4, 5)
INFLATED_DENSITY = 0.5
QUOTIENT_RANDOM_STATES = 300
QUOTIENT_CHAIN_STATES = 400

PUSH_LENGTHS = (0, 0, 1, 1, 2, 2, 3)  # random_pda's push-length distribution


@dataclass
class Case:
    """One generated input: ``op`` names the operation, ``key`` the golden entry."""

    op: str
    key: str
    args: tuple
    expected_classes: int = None  # quotient cases whose class count is known by construction


def _first_config(lib, pda):
    return lib.Config(
        sorted(pda.controls)[0], lib.StackWord.finite((sorted(pda.stack_alphabet)[0],))
    )


def regcheck_cases(lib, oracles):
    out = []
    for seed in REGCHECK_SEEDS:
        pda = oracles.random_pda(random.Random(seed), 3, 3, 8)
        out.append(Case("regcheck", "seed-%d" % seed, (pda, _first_config(lib, pda))))
    return out


def _eq_stack(lib, oracles, rng, symbols):
    prefix = oracles.random_stack(rng, symbols, max_len=3)
    if rng.random() < EQLEVEL_PERIODIC_SHARE:
        period = oracles.random_stack(rng, symbols, max_len=2, min_len=1)
        return lib.StackWord.repeating(prefix, period)
    return lib.StackWord.finite(prefix)


def eqlevel_cases(lib, oracles):
    rng = random.Random(EQLEVEL_CORPUS_SEED)
    out = []
    for i in range(EQLEVEL_PROCESSES):
        pda = oracles.random_pda(rng, 3, 3, 8)
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        for j in range(EQLEVEL_PAIRS_PER_PROCESS):
            left = lib.Config(rng.choice(controls), _eq_stack(lib, oracles, rng, symbols))
            right = lib.Config(rng.choice(controls), _eq_stack(lib, oracles, rng, symbols))
            out.append(Case("eqlevel", "pda-%d-pair-%d" % (i, j), (pda, left, right)))
    return out


def ladder_pda(lib, rng, controls, rules):
    """A pda of exactly the given size, rules drawn as random_pda draws them."""
    names = ["p%d" % i for i in range(controls)]
    symbols = ["A", "B", "C"]
    chosen = set()
    while len(chosen) < rules:
        push = tuple(rng.choice(symbols) for _ in range(rng.choice(PUSH_LENGTHS)))
        chosen.add(
            lib.Rule(rng.choice(names), rng.choice(symbols), rng.choice("ab"),
                     rng.choice(names), push)
        )
    first = min(chosen)
    pda = lib.Pda(frozenset(names), frozenset(symbols), frozenset("ab"), tuple(chosen))
    # start where the smallest rule applies, so the draw always moves
    return pda, lib.Config(first.control, lib.StackWord.finite((first.symbol,)))


def inflated_pda(lib, rng, states):
    """A random finite system and a pda that is bisimilar to it by construction.

    Every rule follows one finite transition, for every top symbol, and
    pushes a non-empty word, so the stack never empties and configuration
    (s, w) has exactly the moves of state s whatever w is.
    """
    names = ["s%d" % i for i in range(states)]
    trans = frozenset(
        (s, a, t) for s in names for a in "ab" for t in names
        if rng.random() < INFLATED_DENSITY
    )
    lts = lib.FiniteLts(frozenset(names), frozenset("ab"), trans)
    symbols = ["A", "B", "C"]
    rules = tuple(
        lib.Rule(s, x, a, t, tuple(rng.choice(symbols) for _ in range(rng.choice(PUSH_LENGTHS[2:]))))
        for (s, a, t) in sorted(trans) for x in symbols
    )
    pda = lib.Pda(frozenset(names), frozenset(symbols), frozenset("ab"), rules)
    return pda, lib.Config("s0", lib.StackWord.finite(("A",))), lts


def two_copies(lib, states, actions, transitions):
    """A finite system next to a renamed copy of itself."""
    copy = {s: s + "'" for s in states}
    trans = set(transitions) | {(copy[s], a, copy[t]) for (s, a, t) in transitions}
    return lib.FiniteLts(frozenset(states) | frozenset(copy.values()), frozenset(actions),
                         frozenset(trans))


def reach_cases(lib, oracles):
    rng = random.Random(REACH_CORPUS_SEED)
    out = []
    for ((controls, rules), finite_count) in zip(POSTSTAR_LADDER, LADDER_FINITE_SYSTEMS):
        (pda, start) = ladder_pda(lib, rng, controls, rules)
        tag = "%d-%d" % (controls, rules)
        out.append(Case("poststar", "ladder-" + tag, (pda, start)))
        for i in range(finite_count):
            lts = oracles.random_lts(rng, max_states=3, max_actions=2)
            out.append(Case("bisim_finite", "ladder-%s-vs-%d" % (tag, i),
                            (pda, start, lts, sorted(lts.states)[0])))
    for (i, states) in enumerate(INFLATED_STATES):
        (pda, start, lts) = inflated_pda(lib, rng, states)
        out.append(Case("bisim_finite", "inflated-%d-%d" % (states, i), (pda, start, lts, "s0")))
    names = ["q%d" % i for i in range(QUOTIENT_RANDOM_STATES)]
    sparse = {(s, a, rng.choice(names)) for s in names for a in "ab" if rng.random() < 0.7}
    out.append(Case("quotient", "random-%d" % QUOTIENT_RANDOM_STATES,
                    (two_copies(lib, names, "ab", sparse),)))
    chain = ["c%d" % i for i in range(QUOTIENT_CHAIN_STATES)]
    links = {(chain[i], "a", chain[i + 1]) for i in range(len(chain) - 1)}
    links.add((chain[-1], "b", chain[-1]))
    # every chain state sits at its own distance from the b loop
    out.append(Case("quotient", "chain-%d" % QUOTIENT_CHAIN_STATES,
                    (two_copies(lib, chain, "ab", links),), expected_classes=len(chain)))
    return out


WORKLOADS = {
    "regcheck": regcheck_cases,
    "eqlevel": eqlevel_cases,
    "reach": reach_cases,
}


def build_corpus(workload, lib, oracles, seed):
    """The workload's cases in the order the run seed gives them."""
    cases = WORKLOADS[workload](lib, oracles)
    random.Random(seed).shuffle(cases)
    return cases


def case_doc(lib, case):
    """Canonical JSON form of a case's inputs (independent of hash order)."""
    certs = lib.certs
    parts = []
    for arg in case.args:
        if isinstance(arg, lib.Pda):
            parts.append(certs.pda_doc(arg))
        elif isinstance(arg, lib.Config):
            parts.append(certs.config_doc(arg))
        elif isinstance(arg, lib.FiniteLts):
            parts.append(certs.lts_doc(arg))
        else:
            parts.append(arg)
    return {"op": case.op, "key": case.key, "args": parts}


def corpus_hash(lib, cases):
    """sha256 over the cases in run order."""
    text = json.dumps([case_doc(lib, c) for c in cases], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# operations: the timed call, its golden summary, its certificates and the
# untimed independent checks


def run_case(lib, case):
    """The timed call."""
    if case.op == "regcheck":
        (pda, start) = case.args
        return lib.decide_regularity(pda, start)
    if case.op == "eqlevel":
        (pda, left, right) = case.args
        return lib.eqlevel_configs(pda, left, right, cutoff=EQLEVEL_CUTOFF,
                                   omega_budget=EQLEVEL_OMEGA_BUDGET)
    if case.op == "poststar":
        (pda, start) = case.args
        (norm, mapping) = lib.normalize_rules(pda)
        return (norm, lib.poststar(norm, start, mapping))
    if case.op == "bisim_finite":
        (pda, start, lts, state) = case.args
        return lib.bisim_pda_vs_finite(pda, start, lts, state)
    if case.op == "quotient":
        return lib.quotient_finite(case.args[0])
    raise ValueError("unknown operation %r" % (case.op,))


def summary(case, answer):
    """What the golden file records for a finished case."""
    if case.op == "regcheck":
        return {"kind": answer.kind, "exactness": answer.exactness}
    if case.op == "eqlevel":
        return {"kind": answer.kind, "value": answer.value}
    if case.op == "poststar":
        return {"edges": len(answer[1].edges)}
    if case.op == "bisim_finite":
        return {"equivalent": answer.equivalent}
    return {"classes": len(answer[0].states)}


def decided(case, answer):
    """Did the case end in a definite answer?"""
    if case.op == "regcheck":
        return answer.kind in ("regular", "nonregular")
    if case.op == "eqlevel":
        return answer.kind in ("finite", "omega")
    return True


def certificates(lib, case, answer):
    """The certificate documents a decided answer yields, as produced by the CLI."""
    certs = lib.certs
    if case.op == "regcheck" and decided(case, answer):
        (pda, start) = case.args
        return [certs.verdict_document(pda, start, answer)]
    if case.op == "eqlevel" and decided(case, answer):
        (pda, left, right) = case.args
        return [certs.eq_level_document(pda, left, right, answer)]
    if case.op == "bisim_finite":
        pda = case.args[0]
        if answer.equivalent:
            return [certs.comparison_document(pda, answer)]
        if answer.root.is_finite and answer.root.certificate is not None:
            return [certs.comparison_root_document(pda, answer)]
    return []


def independent_checks(oracles, case, answer):
    """Untimed checks against tests/oracles.py and the construction; error strings."""
    errors = []
    if case.op == "poststar":
        (norm, aut) = answer
        start = case.args[1]
        if not oracles.automaton_accepts(aut, start.control, start.stack.prefix):
            errors.append("the automaton rejects the start configuration")
        violations = oracles.closure_violations(norm, aut)
        if violations:
            errors.append("the automaton misses %d rule closures" % len(violations))
    if case.op == "quotient":
        (quotient, mapping) = answer
        lts = case.args[0]
        for state in lts.states:
            if not state.endswith("'") and mapping[state] != mapping[state + "'"]:
                errors.append("state %s and its copy fall into different classes" % state)
                break
        if case.expected_classes is not None and len(quotient.states) != case.expected_classes:
            errors.append("%d classes, %d by construction"
                          % (len(quotient.states), case.expected_classes))
    if case.op == "bisim_finite" and case.key.startswith("inflated") and not answer.equivalent:
        errors.append("an inflated system is not equivalent to its finite system")
    return errors
