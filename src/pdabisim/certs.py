"""Certificates as plain JSON documents, and an independent checker.

Every analysis that claims something beyond a bounded search can emit a
self-contained document: the process, the configurations involved, and the
evidence.  ``check_document`` re-verifies a document from its own content,
recomputing successors and games rather than trusting anything the producer
stored.  The five kinds:

* "finite-level": a winning attacker strategy showing two states apart at
  exactly the claimed level;
* "bisimulation": a finite relation whose coverage proves two configurations
  bisimilar;
* "regular": a finite system, a matching level, and a reachability automaton
  whose closure certifies that a configuration is bisimilar to a state;
* "witness": a pumping witness whose replay, level bound and separation
  level show that no finite system is bisimilar to the start configuration,
  certified when the level bound is exact, else modulo the cutoffs;
* "normed-witness": a stack-growing loop from a finite start, plus one
  emptying rule sequence per (control, symbol) pair, certifying the same
  by the norm (the distance to a dead configuration).

The "normed-witness" argument: replaying the sequences shows that every
pair can pop its symbol, so a configuration with a finite stack is dead
exactly when its stack is empty, and its norm is finite and at least its
stack length, since one move pops at most one symbol.  Replaying the
access and loop rules shows that (control, symbol period^m tail) is
reachable for every m, with a non-empty period, so reachable norms are
unbounded.  Bisimilar configurations have equal norms, and the
configurations reachable from a finite system's state take finitely many
norms, so no finite state is bisimilar to the start.  The checker replays
rules only: it runs no game and computes no transformer table.
"""

from __future__ import annotations

import json

from .config import AnalysisConfig
from .errors import BudgetError, InputError
from .lts import FiniteLts, FiniteLtsOracle, GameContext
from .pda import (
    Config,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    canonicalize,
    normalize_rules,
    validate_config,
)
from .reachability import (
    ConfigAutomaton,
    initial_skeleton,
    reachable_truncations,
    saturation_edges,
)
from .equivalence import BisimCertificate, check_coverage
from .regularity import (
    LoopCandidate,
    NormedEvidence,
    Witness,
    _replay,
    pump_bound,
    replay_loop,
    verify_witness,
)

FORMAT = 1


def dumps(doc):
    """Stable text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError("not a JSON document: %s" % (exc,))
    if not isinstance(doc, dict):
        raise InputError("certificate documents are JSON objects")
    return doc


def _integer(doc, key):
    """``doc[key]``, which must be a JSON integer: not a boolean, not a float."""
    value = doc[key]
    if type(value) is not int:
        raise InputError("%s must be an integer, got %r" % (key, value))
    return value


def stack_doc(word):
    return {"prefix": list(word.prefix), "period": list(word.period)}


def _strings(value, what):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError("%s must be a list of strings, got %r" % (what, value))
    return value


def word_from(value):
    """A stack word from its document form: a list of symbol strings."""
    return tuple(_strings(value, "a stack word"))


def names_from(value):
    """An alphabet or state set from its document form: a list of strings."""
    return frozenset(_strings(value, "a set of names"))


def stack_from(doc):
    return canonicalize(StackWord(word_from(doc["prefix"]), word_from(doc["period"])))


def config_doc(config):
    return {"control": config.control, "stack": stack_doc(config.stack)}


def config_from(doc):
    return Config(doc["control"], stack_from(doc["stack"]))


def rule_doc(rule):
    return {
        "control": rule.control,
        "symbol": rule.symbol,
        "action": rule.action,
        "target": rule.target,
        "push": list(rule.push),
    }


def rule_from(doc):
    return Rule(
        doc["control"], doc["symbol"], doc["action"], doc["target"], word_from(doc["push"])
    )


def pda_doc(pda):
    return {
        "controls": sorted(pda.controls),
        "stack": sorted(pda.stack_alphabet),
        "actions": sorted(pda.actions),
        "rules": [rule_doc(r) for r in pda.rules],
    }


def pda_from(doc):
    return Pda(
        controls=names_from(doc["controls"]),
        stack_alphabet=names_from(doc["stack"]),
        actions=names_from(doc["actions"]),
        rules=tuple(rule_from(r) for r in doc["rules"]),
    )


def lts_doc(lts):
    return {
        "states": sorted(lts.states),
        "actions": sorted(lts.actions),
        "transitions": sorted([s, a, t] for (s, a, t) in lts.transitions),
    }


def lts_from(doc):
    return FiniteLts(
        states=names_from(doc["states"]),
        actions=names_from(doc["actions"]),
        transitions=frozenset((s, a, t) for (s, a, t) in doc["transitions"]),
    )


def automaton_doc(aut):
    return {
        "entries": sorted([c, s] for (c, s) in aut.entries),
        "finals": sorted(aut.finals),
        "edges": [[src, label, dst] for (src, label, dsts) in aut.groups for dst in sorted(dsts)],
        "expansions": sorted([sym, list(word)] for (sym, word) in aut.expansions),
        "alphabet": sorted(aut.alphabet),
        "original_alphabet": sorted(aut.original_alphabet),
        "live": sorted([s, list(p)] for (s, p) in aut.live),
    }


def automaton_from(doc):
    return ConfigAutomaton.from_edges(
        doc["edges"],
        entries=tuple(sorted((c, s) for (c, s) in doc["entries"])),
        finals=names_from(doc["finals"]),
        expansions=tuple(sorted((sym, tuple(word)) for (sym, word) in doc["expansions"])),
        alphabet=names_from(doc["alphabet"]),
        original_alphabet=names_from(doc["original_alphabet"]),
        live=tuple(sorted((s, tuple(p)) for (s, p) in doc["live"])),
    )


def _strategy_doc(strategy, enc_left, enc_right):
    mover = enc_left if strategy.side == 0 else enc_right
    other = enc_right if strategy.side == 0 else enc_left
    return {
        "side": strategy.side,
        "action": strategy.action,
        "target": mover(strategy.target),
        "replies": [
            [other(state), _strategy_doc(sub, enc_left, enc_right)]
            for (state, sub) in strategy.replies
        ],
    }


def _replay_strategy(doc, left, right, oracle_left, oracle_right, dec_left, dec_right, depth):
    """Does the strategy win the distinguishing game within ``depth`` rounds?

    Recomputes both sides' successors at every node; the document only
    chooses moves.
    """
    if depth <= 0:
        return False
    side = _integer(doc, "side")
    action = doc["action"]
    if side not in (0, 1):
        raise InputError("strategy side must be 0 or 1, got %r" % (side,))
    sides = [(left, oracle_left, dec_left), (right, oracle_right, dec_right)]
    (mover, oracle_mover, dec_mover) = sides[side]
    (other, oracle_other, dec_other) = sides[1 - side]
    target = dec_mover(doc["target"])
    if (action, target) not in oracle_mover.successors(mover):
        return False
    answers = {t for (a, t) in oracle_other.successors(other) if a == action}
    replies = {dec_other(enc): sub for (enc, sub) in doc["replies"]}
    if set(replies) != answers:
        return False
    for (answer, sub) in replies.items():
        pair = (target, answer) if side == 0 else (answer, target)
        if not _replay_strategy(
            sub, *pair, oracle_left, oracle_right, dec_left, dec_right, depth - 1
        ):
            return False
    return True


def _side_doc(kind, value):
    if kind == "config":
        return {"type": "config", "config": config_doc(value)}
    return {"type": "state", "state": value}


def _side_tools(side, pda_oracle, lts_oracle):
    """(state, oracle, decoder) for one side, from the document's oracles (or None)."""
    if side["type"] == "config":
        if pda_oracle is None:
            raise InputError("a configuration side needs an embedded process")
        config = config_from(side["config"])
        validate_config(pda_oracle.pda, config)
        return (config, pda_oracle, config_from)
    if side["type"] == "state":
        if lts_oracle is None:
            raise InputError("a state side needs an embedded finite system")
        state = side["state"]
        if state not in lts_oracle.lts.states:
            raise InputError("unknown state %r" % (state,))
        return (state, lts_oracle, lambda x: x)
    raise InputError("side type must be 'config' or 'state', got %r" % (side["type"],))


def eq_level_document(pda, left, right, result):
    """Certificate document for a decided eq-level query between configurations."""
    if result.is_finite:
        if result.certificate is None:
            raise InputError("the finite result carries no strategy to certify")
        return {
            "format": FORMAT,
            "kind": "finite-level",
            "pda": pda_doc(pda),
            "left": _side_doc("config", left),
            "right": _side_doc("config", right),
            "value": result.value,
            "strategy": _strategy_doc(result.certificate, config_doc, config_doc),
        }
    if result.is_omega:
        cert = result.certificate
        if not isinstance(cert, BisimCertificate):
            raise InputError("the omega result carries no relation to certify")
        return {
            "format": FORMAT,
            "kind": "bisimulation",
            "pda": pda_doc(pda),
            "left": config_doc(left),
            "right": config_doc(right),
            "basis": cert.kind,
            "pairs": [[config_doc(c), config_doc(d)] for (c, d) in cert.pairs],
        }
    raise InputError("an undecided (at-least) result certifies nothing")


def comparison_document(pda, comparison):
    """Certificate document for a positive configuration-vs-state decision."""
    if not comparison.equivalent:
        raise InputError("only an equivalent comparison yields a certificate")
    return {
        "format": FORMAT,
        "kind": "regular",
        "pda": pda_doc(pda),
        "start": config_doc(comparison.start),
        "lts": lts_doc(comparison.lts),
        "state": comparison.finite_state,
        "level": comparison.level,
        "automaton": automaton_doc(comparison.automaton),
    }


def comparison_root_document(pda, comparison):
    """Certificate document for a comparison refuted at its root pair.

    The strategy separates the configuration from the state within the
    comparison level, which is all a negative verdict needs.
    """
    root = comparison.root
    if not root.is_finite or root.certificate is None:
        raise InputError("the comparison was not refuted by a root strategy")
    return {
        "format": FORMAT,
        "kind": "finite-level",
        "pda": pda_doc(pda),
        "lts": lts_doc(comparison.lts),
        "left": _side_doc("config", comparison.start),
        "right": _side_doc("state", comparison.finite_state),
        "value": root.value,
        "strategy": _strategy_doc(root.certificate, config_doc, lambda s: s),
    }


def _read_document(doc, kind, reader):
    """``reader(doc)`` for a document of this format and kind.

    A document of another format or kind, or one missing a field or holding
    a value of the wrong shape, raises InputError.
    """
    if doc.get("format") != FORMAT:
        raise InputError("unsupported certificate format %r" % (doc.get("format"),))
    if doc.get("kind") != kind:
        raise InputError("expected a %s document, got kind %r" % (kind, doc.get("kind")))
    try:
        return reader(doc)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError("malformed %s document: missing field %r" % (kind, exc.args[0]))
    except (TypeError, AttributeError, ValueError) as exc:
        raise InputError("malformed %s document: %r" % (kind, exc))


def _loop_doc(loop):
    """The six document fields of a stack-growing loop."""
    return {
        "control": loop.control,
        "symbol": loop.symbol,
        "period": list(loop.period),
        "tail": stack_doc(loop.tail),
        "loop_rules": [rule_doc(r) for r in loop.v_rules],
        "access_rules": [rule_doc(r) for r in loop.w_rules],
    }


def _loop_from(doc):
    return LoopCandidate(
        control=doc["control"],
        symbol=doc["symbol"],
        period=word_from(doc["period"]),
        tail=stack_from(doc["tail"]),
        v_rules=tuple(rule_from(r) for r in doc["loop_rules"]),
        w_rules=tuple(rule_from(r) for r in doc["access_rules"]),
        stamped=False,
    )


def _witness_from(doc):
    budgets = doc.get("budgets", {})
    config = AnalysisConfig(
        **{k: v for (k, v) in budgets.items() if k in ("cutoff", "omega_budget", "region_cap")}
    )
    stored = budgets.get("pump_omega_budget", config.pump_omega_budget)
    if type(stored) is not int or stored != config.pump_omega_budget:
        raise InputError(
            "pump_omega_budget %r is not the %d that omega_budget %d gives"
            % (stored, config.pump_omega_budget, config.omega_budget)
        )
    oracle = PdaOracle(pda_from(doc["pda"]), config)
    start = config_from(doc["start"])
    validate_config(oracle.pda, start)
    loop = _loop_from(doc)
    return (oracle, Witness(start, loop, pump_bound(oracle, loop)))


def witness_document(pda, start, evidence):
    """Certificate document for a verified non-regularity witness.

    The budgets the pump bound was computed under are embedded, so the
    checker reproduces the exact same bound computation.
    """
    (witness, check, config) = (evidence.witness, evidence.check, evidence.witness.pump.config)
    if check.verdict != "verified":
        raise InputError("only a verified witness yields a certificate")
    return {
        "format": FORMAT,
        "kind": "witness",
        "pda": pda_doc(pda),
        "start": config_doc(start),
        **_loop_doc(witness.loop),
        "bound": witness.pump.bound,
        "base_level": check.base.value,
        "budgets": {
            "cutoff": config.cutoff,
            "omega_budget": config.omega_budget,
            "pump_omega_budget": config.pump_omega_budget,
            "region_cap": config.region_cap,
        },
    }


def normed_document(pda, start, evidence):
    """Certificate document for a non-regularity verdict decided by the norm."""
    return {
        "format": FORMAT,
        "kind": "normed-witness",
        "pda": pda_doc(pda),
        "start": config_doc(start),
        **_loop_doc(evidence.loop),
        "emptying": [
            {"control": p, "symbol": x, "rules": [rule_doc(r) for r in rules]}
            for ((p, x), rules) in evidence.emptying
        ],
    }


def verdict_document(pda, start, verdict):
    """Certificate document for a definite regularity verdict."""
    if verdict.kind == "regular":
        return comparison_document(pda, verdict.certificate)
    if verdict.kind == "nonregular" and isinstance(verdict.certificate, NormedEvidence):
        return normed_document(pda, start, verdict.certificate)
    if verdict.kind == "nonregular":
        return witness_document(pda, start, verdict.certificate)
    raise InputError("an unknown verdict certifies nothing")


class CheckResult:
    """Outcome of checking one document: ok flag, kind, human detail line.

    ``exactness`` is set for a witness that checks: "certified" on an exact
    level bound, else "modulo-cutoff"; a witness of either kind checks.
    """

    def __init__(self, ok, kind, detail, exactness=None):
        self.ok = ok
        self.kind = kind
        self.detail = detail
        self.exactness = exactness


def _check_finite_level(doc):
    pda_oracle = PdaOracle(pda_from(doc["pda"])) if "pda" in doc else None
    lts_oracle = FiniteLtsOracle(lts_from(doc["lts"])) if "lts" in doc else None
    (left, oracle_l, dec_l) = _side_tools(doc["left"], pda_oracle, lts_oracle)
    (right, oracle_r, dec_r) = _side_tools(doc["right"], pda_oracle, lts_oracle)
    value = _integer(doc, "value")
    if value < 0:
        raise InputError("level must be a non-negative integer, got %r" % (value,))
    won = _replay_strategy(
        doc["strategy"], left, right, oracle_l, oracle_r, dec_l, dec_r, value + 1
    )
    if not won:
        return CheckResult(
            False, "finite-level", "the strategy does not win within %d rounds" % (value + 1,)
        )
    ctx = GameContext(oracle_l, oracle_r)
    if not ctx.bisim(left, right, value):
        return CheckResult(
            False,
            "finite-level",
            "the sides already differ within %d rounds, so the level is lower" % (value,),
        )
    return CheckResult(
        True, "finite-level", "strategy separates the sides at exactly level %d" % (value,)
    )


def _check_bisimulation(doc):
    pda = pda_from(doc["pda"])
    left = config_from(doc["left"])
    right = config_from(doc["right"])
    validate_config(pda, left)
    validate_config(pda, right)
    pairs = tuple(
        (config_from(c), config_from(d)) for (c, d) in doc["pairs"]
    )
    cert = BisimCertificate(kind=doc.get("basis", "closure"), root=(left, right), pairs=pairs)
    if not check_coverage(PdaOracle(pda), cert):
        return CheckResult(
            False, "bisimulation", "the relation does not cover its own successors"
        )
    return CheckResult(
        True,
        "bisimulation",
        "a %d-pair relation covers the pair, so the sides are bisimilar" % (len(pairs),),
    )


def _check_regular(doc):
    pda = pda_from(doc["pda"])
    start = config_from(doc["start"])
    validate_config(pda, start)
    lts = lts_from(doc["lts"])
    state = doc["state"]
    if state not in lts.states:
        raise InputError("unknown state %r" % (state,))
    level = _integer(doc, "level")
    if level != len(lts.states):
        return CheckResult(
            False, "regular", "level %r does not match the %d-state system" % (level, len(lts.states))
        )
    aut = automaton_from(doc["automaton"])
    (norm, _) = normalize_rules(pda)
    (entries, skeleton, finals, live) = initial_skeleton(norm.controls, start)
    if tuple(sorted(aut.entries)) != entries:
        return CheckResult(False, "regular", "the automaton's entry states are not canonical")
    if not skeleton <= aut.edges:
        return CheckResult(False, "regular", "the automaton does not accept the start configuration")
    if frozenset(finals) != aut.finals or tuple(live) != aut.live:
        return CheckResult(False, "regular", "the automaton's acceptance does not match the start")
    fresh = saturation_edges(norm, aut.entries, aut.edges)
    if fresh:
        return CheckResult(
            False, "regular", "the automaton is not closed under the rules (%d edges missing)" % (len(fresh),)
        )
    try:
        truncations = sorted(reachable_truncations(aut, level))
    except BudgetError:
        return CheckResult(False, "regular", "too many reachable truncations to enumerate")
    pda_oracle = PdaOracle(pda)
    fin_oracle = FiniteLtsOracle(lts)
    ctx = GameContext(pda_oracle, fin_oracle)
    root = ctx.level(start, state, level)
    if root.is_finite:
        return CheckResult(
            False, "regular", "the start pair differs at level %d already" % (root.value,)
        )
    for trunc in truncations:
        if not any(ctx.bisim(trunc, g, level) for g in sorted(lts.states)):
            return CheckResult(
                False,
                "regular",
                "reachable truncation %s matches no state at level %d"
                % (trunc.format(), level),
            )
    return CheckResult(
        True,
        "regular",
        "all %d reachable truncations match at level %d, so the configuration is"
        " bisimilar to state %s" % (len(truncations), level, state),
    )


def _recheck_witness(doc):
    (bound, base_level) = (_integer(doc, "bound"), _integer(doc, "base_level"))
    check = verify_witness(*_witness_from(doc))
    mismatch = None
    if check.bound != bound:
        mismatch = "recomputed bound %d does not match the stored %r" % (check.bound, bound)
    elif check.verdict == "verified" and check.base.value != base_level:
        mismatch = "recomputed base level %d does not match the stored %r" % (
            check.base.value,
            base_level,
        )
    return (check, mismatch)


def recheck_witness(doc):
    """Re-verify a witness document and compare what it stores.

    Returns ``(check, mismatch)``: ``check`` is ``verify_witness`` run once
    under the document's own budgets, and ``mismatch`` names the stored
    ``bound``, or for a verified witness the stored ``base_level``, that
    the re-check does not reproduce, or is None.  Malformed documents raise
    InputError.
    """
    return _read_document(doc, "witness", _recheck_witness)


def _check_witness(doc):
    (check, mismatch) = _recheck_witness(doc)
    if mismatch is not None:
        return CheckResult(False, "witness", mismatch)
    if check.verdict != "verified":
        return CheckResult(
            False, "witness", "re-verification was not conclusive: %s" % (check.reason,)
        )
    exactness = "certified" if check.certified else "modulo-cutoff"
    return CheckResult(True, "witness", check.reason, exactness)


def _check_normed(doc):
    pda = pda_from(doc["pda"])
    start = config_from(doc["start"])
    validate_config(pda, start)
    loop = _loop_from(doc)
    emptying = {}
    for entry in doc["emptying"]:
        pair = (entry["control"], entry["symbol"])
        if pair in emptying:
            raise InputError("the emptying of %s %s is given twice" % pair)
        emptying[pair] = tuple(rule_from(r) for r in entry["rules"])

    def failed(detail):
        return CheckResult(False, "normed-witness", detail)

    if start.stack.period:
        return failed("the start stack is periodic, so no configuration has a finite norm")
    try:
        replay_loop(pda, start, loop)
    except InputError as exc:
        return failed(str(exc))
    pairs = [(p, x) for p in sorted(pda.controls) for x in sorted(pda.stack_alphabet)]
    for (p, x) in pairs:
        if (p, x) not in emptying:
            return failed("no emptying sequence for control %s and symbol %s" % (p, x))
        try:
            emptied = _replay(
                pda, Config(p, StackWord.finite((x,))), emptying[(p, x)], "an emptying sequence"
            )
        except InputError as exc:
            return failed(str(exc))
        if emptied.stack.prefix:
            return failed(
                "the emptying sequence of %s %s ends at %s, not at an empty stack"
                % (p, x, emptied.format())
            )
    if len(emptying) != len(pairs):
        return failed("an emptying sequence names a pair the process does not have")
    return CheckResult(
        True,
        "normed-witness",
        "all %d (control, symbol) pairs empty, and the loop grows the stack by %d per"
        " turn, so reachable norms are unbounded" % (len(pairs), len(loop.period)),
    )


def check_document(doc):
    """Re-verify a certificate document from its own content.

    Malformed documents raise InputError; well-formed ones always produce a
    CheckResult, failed checks included.
    """
    checks = {
        "finite-level": _check_finite_level,
        "bisimulation": _check_bisimulation,
        "regular": _check_regular,
        "witness": _check_witness,
        "normed-witness": _check_normed,
    }
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in checks:
        raise InputError("unknown certificate kind %r" % (kind,))
    return _read_document(doc, kind, checks[kind])
