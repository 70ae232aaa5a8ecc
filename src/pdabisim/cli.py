"""Command line front end.

Input formats are line-oriented and diff-friendly: a pda file declares its
control states, action alphabet, stack alphabet, initial configuration and
one rule per line; a finite system file declares states, actions and one
transition per line.  Configurations on the command line use the literal
syntax ``p[X A A]`` for finite stacks and ``p[X](A B)w`` for ultimately
periodic ones.

Exit codes: 0 for a definitive positive answer, 1 for a definitive negative
one, 2 when budgets ran out or the answer is qualified by a cutoff, 3 for
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certs
from .config import AnalysisConfig
from .equivalence import bisim_pda_vs_finite, eqlevel_configs
from .errors import BudgetError, InputError
from .lts import FiniteLts, quotient_finite
from .pda import Config, Pda, Rule, StackWord, canonicalize, validate_config
from .reachability import reach_automaton
from .regularity import NormedEvidence, decide_regularity, verify_witness


def _section(line, name):
    if not line.startswith(name + ":"):
        return None
    return line[len(name) + 1 :].split()


def _first_time(seen, name, lineno):
    """Record a section's line; a section given twice is an input error."""
    if name in seen:
        raise InputError(
            "repeated '%s:' section (first on line %d)" % (name, seen[name]), line=lineno
        )
    seen[name] = lineno


def parse_pda(text):
    """Parse the pda file format; returns (Pda, initial Config).

    ``#`` starts a comment; blank lines are ignored.  Everything must be
    declared before use; repeated sections and duplicate rules are rejected.
    """
    controls = actions = stack = None
    init = None
    sections = {}
    rules = []
    rule_lines = {}
    header = False
    for (lineno, raw) in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header:
            if line != "pda":
                raise InputError("expected the 'pda' header first", line=lineno)
            header = True
            continue
        got = _section(line, "controls")
        if got is not None:
            _first_time(sections, "controls", lineno)
            controls = got
            continue
        got = _section(line, "alphabet")
        if got is not None:
            _first_time(sections, "alphabet", lineno)
            actions = got
            continue
        got = _section(line, "stack")
        if got is not None:
            _first_time(sections, "stack", lineno)
            stack = got
            continue
        got = _section(line, "init")
        if got is not None:
            _first_time(sections, "init", lineno)
            if not got:
                raise InputError("init needs a control state", line=lineno)
            init = got
            continue
        tokens = line.split()
        if len(tokens) < 6 or tokens[3] != "->":
            raise InputError(
                "expected 'control symbol action -> target push...' (use '.' for an"
                " empty push)",
                line=lineno,
            )
        target = tokens[4]
        push = () if tokens[5:] == ["."] else tuple(tokens[5:])
        if "." in push:
            raise InputError("'.' stands alone as the whole push", line=lineno)
        rule = Rule(tokens[0], tokens[1], tokens[2], target, push)
        if rule in rule_lines:
            raise InputError(
                "duplicate rule (first on line %d)" % (rule_lines[rule],), line=lineno
            )
        rule_lines[rule] = lineno
        rules.append((lineno, rule))
    if not header:
        raise InputError("empty input: expected a 'pda' file")
    for (name, got) in (("controls", controls), ("alphabet", actions), ("stack", stack)):
        if got is None:
            raise InputError("missing '%s:' declaration" % (name,))
        if not got:
            raise InputError("'%s:' must declare at least one name" % (name,))
    declared_controls = frozenset(controls)
    declared_actions = frozenset(actions)
    declared_stack = frozenset(stack)
    for (lineno, rule) in rules:
        for (what, value, declared) in (
            ("control", rule.control, declared_controls),
            ("stack symbol", rule.symbol, declared_stack),
            ("action", rule.action, declared_actions),
            ("control", rule.target, declared_controls),
        ):
            if value not in declared:
                raise InputError("undeclared %s %r" % (what, value), line=lineno)
        for sym in rule.push:
            if sym not in declared_stack:
                raise InputError("undeclared stack symbol %r" % (sym,), line=lineno)
    pda = Pda(
        controls=declared_controls,
        stack_alphabet=declared_stack,
        actions=declared_actions,
        rules=tuple(r for (_, r) in rules),
    )
    if init is None:
        raise InputError("missing 'init:' declaration")
    start = Config(init[0], StackWord.finite(tuple(init[1:])))
    try:
        validate_config(pda, start)
    except InputError as exc:
        raise InputError(str(exc), line=sections["init"])
    return (pda, start)


def parse_lts(text):
    """Parse the finite-system file format; repeated sections are rejected."""
    states = actions = None
    sections = {}
    transitions = []
    header = False
    for (lineno, raw) in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header:
            if line != "lts":
                raise InputError("expected the 'lts' header first", line=lineno)
            header = True
            continue
        got = _section(line, "states")
        if got is not None:
            _first_time(sections, "states", lineno)
            states = got
            continue
        got = _section(line, "actions")
        if got is not None:
            _first_time(sections, "actions", lineno)
            actions = got
            continue
        got = _section(line, "trans")
        if got is not None:
            if len(got) != 3:
                raise InputError("expected 'trans: source action target'", line=lineno)
            transitions.append((lineno, tuple(got)))
            continue
        raise InputError("expected a states:/actions:/trans: line", line=lineno)
    if not header:
        raise InputError("empty input: expected an 'lts' file")
    if states is None:
        raise InputError("missing 'states:' declaration")
    if actions is None:
        raise InputError("missing 'actions:' declaration")
    declared_states = frozenset(states)
    declared_actions = frozenset(actions)
    for (lineno, (src, act, dst)) in transitions:
        if src not in declared_states or dst not in declared_states:
            raise InputError("undeclared state in transition", line=lineno)
        if act not in declared_actions:
            raise InputError("undeclared action %r" % (act,), line=lineno)
    return FiniteLts(
        states=declared_states,
        actions=declared_actions,
        transitions=frozenset(t for (_, t) in transitions),
    )


def parse_config_literal(text):
    """Parse ``p[X A]`` or ``p[X](A B)w`` into a Config."""
    s = text.strip()
    i = s.find("[")
    if i <= 0:
        raise InputError(
            "configuration literal must look like control[SYMBOLS], got %r" % (text,)
        )
    control = s[:i]
    j = s.find("]", i)
    if j < 0:
        raise InputError("unterminated '[' in configuration literal %r" % (text,))
    prefix = tuple(s[i + 1 : j].split())
    rest = s[j + 1 :].strip()
    period = ()
    if rest:
        if not (rest.startswith("(") and rest.endswith(")w")):
            raise InputError(
                "periodic tail must look like (SYMBOLS)w, got %r in %r" % (rest, text)
            )
        period = tuple(rest[1:-2].split())
        if not period:
            raise InputError("periodic tail must name at least one symbol in %r" % (text,))
    return Config(control, canonicalize(StackWord(prefix, period)))


def serialize_pda(pda, init=None):
    """The pda file text for a process (round-trips through parse_pda)."""
    lines = ["pda"]
    lines.append("controls: " + " ".join(sorted(pda.controls)))
    lines.append("alphabet: " + " ".join(sorted(pda.actions)))
    lines.append("stack: " + " ".join(sorted(pda.stack_alphabet)))
    if init is not None:
        lines.append("init: %s %s" % (init.control, " ".join(init.stack.prefix)))
    for rule in pda.rules:
        lines.append(rule.format())
    return "\n".join(lines) + "\n"


def serialize_lts(lts):
    """The finite-system file text (round-trips through parse_lts)."""
    lines = ["lts"]
    lines.append("states: " + " ".join(sorted(lts.states)))
    lines.append("actions: " + " ".join(sorted(lts.actions)))
    for (src, act, dst) in sorted(lts.transitions):
        lines.append("trans: %s %s %s" % (src, act, dst))
    return "\n".join(lines) + "\n"


def _read(path):
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc))


def _settings(args):
    """The AnalysisConfig of the budget flags given; the config supplies the rest."""
    given = vars(args)
    return AnalysisConfig(**{name: given[name] for name in _BUDGET_FLAGS if name in given})


def _emit(args, lines, doc, out):
    if args.format == "structured":
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    else:
        out.write("\n".join(lines) + "\n")


def _write_cert(args, doc, lines, report):
    if getattr(args, "cert_out", None) is None:
        return
    if doc is None:
        lines.append("certificate: none")
        report["certificate"] = None
        return
    try:
        with open(args.cert_out, "w") as handle:
            handle.write(certs.dumps(doc))
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (args.cert_out, exc.strerror or exc))
    lines.append("certificate: written to %s" % (args.cert_out,))
    report["certificate"] = args.cert_out


def _eqlevel_doc(result):
    if result.is_finite:
        return {"result": "finite", "level": result.value}
    if result.is_omega:
        basis = getattr(result.certificate, "kind", None)
        return {"result": "omega", "basis": basis}
    return {"result": "at-least", "cutoff": result.value}


def cmd_regcheck(args, out):
    (pda, start) = parse_pda(_read(args.pda))
    settings = _settings(args)
    verdict = decide_regularity(pda, start, settings)
    lines = ["verdict: %s" % (verdict.kind,)]
    report = {
        "command": "regcheck",
        "input": args.pda,
        "start": start.format(),
        "verdict": verdict.kind,
        "exactness": verdict.exactness,
        "winner": verdict.winner,
        "stats": {k: v for (k, v) in verdict.stats},
    }
    if verdict.exactness is not None:
        lines.append("exactness: %s" % (verdict.exactness,))
    if verdict.winner is not None:
        lines.append("winner: %s" % (verdict.winner,))
    if isinstance(verdict.certificate, NormedEvidence):
        loop = verdict.certificate.loop
        emptying = sum(len(rules) for (_, rules) in verdict.certificate.emptying)
        lines.append(
            "route: norm (every control and symbol can pop, and the loop grows the stack)"
        )
        lines.append("loop control: %s" % (loop.control,))
        lines.append("loop top: %s" % (loop.symbol,))
        lines.append("loop period: %s" % (" ".join(loop.period),))
        lines.append("loop tail: %s" % (loop.tail.format(),))
        lines.append("access rules: %s" % ("; ".join(r.format() for r in loop.w_rules),))
        lines.append("loop rules: %s" % ("; ".join(r.format() for r in loop.v_rules),))
        lines.append("emptying rules: %d" % (emptying,))
        report["route"] = "norm"
        report["loop"] = {
            "control": loop.control,
            "top": loop.symbol,
            "period": list(loop.period),
            "tail": loop.tail.format(),
            "access_rules": [r.format() for r in loop.w_rules],
            "loop_rules": [r.format() for r in loop.v_rules],
            "emptying_rules": emptying,
        }
    elif verdict.kind == "nonregular":
        witness = verdict.certificate.witness
        check = verdict.certificate.check
        lines.append("witness control: %s" % (witness.control,))
        lines.append("witness top: %s" % (witness.symbol,))
        lines.append("witness loop: %s" % (" ".join(witness.period),))
        lines.append("witness tail: %s" % (witness.tail.format(),))
        lines.append("bound: %d" % (witness.pump.bound,))
        lines.append("base level: %d" % (check.base.value,))
        levels = " ".join(
            str(r.value) if r.is_finite else "?" for (_, r) in check.corroboration
        )
        lines.append("corroboration: %s" % (levels,))
        report["witness"] = {
            "control": witness.control,
            "top": witness.symbol,
            "loop": list(witness.period),
            "tail": witness.tail.format(),
            "bound": witness.pump.bound,
            "base_level": check.base.value,
            "corroboration": [
                (copies, r.value if r.is_finite else None)
                for (copies, r) in check.corroboration
            ],
        }
    elif verdict.kind == "regular":
        comparison = verdict.certificate
        lines.append("state: %s" % (comparison.finite_state,))
        lines.append("level: %d" % (comparison.level,))
        lines.append("system states: %d" % (len(comparison.lts.states),))
        for (src, act, dst) in sorted(comparison.lts.transitions):
            lines.append("system trans: %s %s %s" % (src, act, dst))
        report["system"] = {
            "state": comparison.finite_state,
            "level": comparison.level,
            "lts": certs.lts_doc(comparison.lts),
        }
    cert_doc = None
    if verdict.kind != "unknown":
        cert_doc = certs.verdict_document(pda, start, verdict, settings)
    for (key, value) in verdict.stats:
        lines.append("stat %s: %s" % (key, value))
    _write_cert(args, cert_doc, lines, report)
    _emit(args, lines, report, out)
    if verdict.kind == "regular":
        return 0
    if verdict.kind == "nonregular" and verdict.exactness == "certified":
        return 1
    return 2


def cmd_eqlevel(args, out):
    (pda, _) = parse_pda(_read(args.pda))
    left = parse_config_literal(args.left)
    right = parse_config_literal(args.right)
    settings = _settings(args)
    result = eqlevel_configs(pda, left, right, settings.cutoff, settings.omega_budget)
    lines = [
        "left: %s" % (left.format(),),
        "right: %s" % (right.format(),),
    ]
    report = {
        "command": "eqlevel",
        "input": args.pda,
        "left": left.format(),
        "right": right.format(),
    }
    report.update(_eqlevel_doc(result))
    if result.is_finite:
        lines.append("result: finite")
        lines.append("level: %d" % (result.value,))
    elif result.is_omega:
        lines.append("result: omega")
        basis = getattr(result.certificate, "kind", None)
        if basis is not None:
            lines.append("basis: %s" % (basis,))
    else:
        lines.append("result: at-least")
        lines.append("cutoff: %d" % (result.value,))
    cert_doc = None
    if result.is_finite or result.is_omega:
        cert_doc = certs.eq_level_document(pda, left, right, result)
    _write_cert(args, cert_doc, lines, report)
    _emit(args, lines, report, out)
    return 0 if (result.is_finite or result.is_omega) else 2


def cmd_bisim_finite(args, out):
    (pda, start) = parse_pda(_read(args.pda))
    lts = parse_lts(_read(args.lts))
    if args.start is not None:
        start = parse_config_literal(args.start)
    comparison = bisim_pda_vs_finite(pda, start, lts, args.state)
    lines = [
        "configuration: %s" % (start.format(),),
        "state: %s" % (args.state,),
        "equivalent: %s" % ("true" if comparison.equivalent else "false",),
        "level: %d" % (comparison.level,),
    ]
    report = {
        "command": "bisim-finite",
        "input": args.pda,
        "system": args.lts,
        "configuration": start.format(),
        "state": args.state,
        "equivalent": comparison.equivalent,
        "level": comparison.level,
        "root": _eqlevel_doc(comparison.root),
    }
    if comparison.root.is_finite:
        lines.append("root level: %d" % (comparison.root.value,))
    if comparison.unmatched:
        probe = comparison.unmatched[0].as_config()
        lines.append("unmatched: %s" % (probe.format(),))
        report["unmatched"] = probe.format()
    if comparison.counterexample is not None and not comparison.equivalent:
        lines.append("counterexample: %s" % (comparison.counterexample.format(),))
        report["counterexample"] = comparison.counterexample.format()
    cert_doc = None
    if comparison.equivalent:
        cert_doc = certs.comparison_document(pda, comparison)
    elif comparison.root.is_finite and comparison.root.certificate is not None:
        cert_doc = certs.comparison_root_document(pda, comparison)
    _write_cert(args, cert_doc, lines, report)
    _emit(args, lines, report, out)
    return 0 if comparison.equivalent else 1


def cmd_quotient(args, out):
    lts = parse_lts(_read(args.lts))
    (quotient, classes) = quotient_finite(lts)
    report = {
        "command": "quotient",
        "input": args.lts,
        "states": len(quotient.states),
        "classes": {state: cls for (state, cls) in sorted(classes.items())},
        "lts": certs.lts_doc(quotient),
    }
    lines = [serialize_lts(quotient).rstrip("\n")]
    for (state, cls) in sorted(classes.items()):
        lines.append("class %s: %s" % (state, cls))
    _emit(args, lines, report, out)
    return 0


def cmd_poststar(args, out):
    (pda, start) = parse_pda(_read(args.pda))
    if args.start is not None:
        start = parse_config_literal(args.start)
        validate_config(pda, start)
    aut = reach_automaton(pda, start)
    report = {
        "command": "poststar",
        "input": args.pda,
        "start": start.format(),
        "automaton": certs.automaton_doc(aut),
    }
    lines = [aut.dump().rstrip("\n")]
    _emit(args, lines, report, out)
    return 0


def cmd_witness_verify(args, out):
    doc = certs.loads(_read(args.cert))
    if doc.get("kind") == "normed-witness":
        raise InputError(
            "a normed-witness document rests on the norm, not on pump games;"
            " check it with certcheck"
        )
    (pda, start, witness, config) = certs.witness_from_document(doc)
    check = verify_witness(pda, witness, config)
    lines = [
        "verdict: %s" % (check.verdict,),
        "bound: %d" % (check.bound,),
        "certified: %s" % ("true" if check.certified else "false",),
        "reason: %s" % (check.reason,),
    ]
    report = {
        "command": "witness-verify",
        "input": args.cert,
        "verdict": check.verdict,
        "bound": check.bound,
        "certified": check.certified,
        "reason": check.reason,
        "corroboration": [
            (copies, r.value if r.is_finite else None) for (copies, r) in check.corroboration
        ],
    }
    _emit(args, lines, report, out)
    if check.verdict == "verified" and check.certified:
        return 0
    if check.verdict == "refuted":
        return 1
    return 2


def cmd_certcheck(args, out):
    doc = certs.loads(_read(args.cert))
    result = certs.check_document(doc)
    lines = [
        "kind: %s" % (result.kind,),
        "ok: %s" % ("true" if result.ok else "false",),
        "detail: %s" % (result.detail,),
    ]
    report = {
        "command": "certcheck",
        "input": args.cert,
        "kind": result.kind,
        "ok": result.ok,
        "detail": result.detail,
    }
    _emit(args, lines, report, out)
    return 0 if result.ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


# the help text of every budget flag, by AnalysisConfig field; the default is the config's
_BUDGET_FLAGS = {
    "cutoff": "eq-level game cutoff",
    "omega_budget": "bisimulation search budget; 0 turns the search off",
    "truncation_max": "deepest truncation level tried; 0 turns the positive search off",
    "path_budget": "loop-path exploration budget, and the emptying rules of a normed witness",
    "candidate_budget": "witness candidates tried",
}


def _add_budgets(parser, *names):
    for name in names:
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=int,
            default=argparse.SUPPRESS,
            help="%s (default %d)" % (_BUDGET_FLAGS[name], getattr(AnalysisConfig, name)),
        )


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("human", "structured"), default="human", help="output mode"
    )
    parser = _Parser(
        prog="pdabisim",
        description="Analyze pushdown processes up to bisimilarity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regcheck", parents=[shared], help="is the process regular?")
    p.add_argument("pda", help="pda file")
    p.add_argument("--cert-out", help="write the certificate document here")
    _add_budgets(p, *_BUDGET_FLAGS)
    p.set_defaults(func=cmd_regcheck)

    p = sub.add_parser(
        "eqlevel", parents=[shared], help="equivalence level of two configurations"
    )
    p.add_argument("pda", help="pda file")
    p.add_argument("left", help="configuration literal, e.g. 'p[A X]'")
    p.add_argument("right", help="configuration literal, e.g. 'p[](A)w'")
    p.add_argument("--cert-out", help="write the certificate document here")
    _add_budgets(p, "cutoff", "omega_budget")
    p.set_defaults(func=cmd_eqlevel)

    p = sub.add_parser(
        "bisim-finite", parents=[shared], help="configuration vs finite-system state"
    )
    p.add_argument("pda", help="pda file")
    p.add_argument("lts", help="finite system file")
    p.add_argument("state", help="state of the finite system")
    p.add_argument("--start", help="configuration literal overriding the file's init")
    p.add_argument("--cert-out", help="write the certificate document here")
    p.set_defaults(func=cmd_bisim_finite)

    p = sub.add_parser("quotient", parents=[shared], help="minimize a finite system")
    p.add_argument("lts", help="finite system file")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser(
        "poststar", parents=[shared], help="reachable-configuration automaton"
    )
    p.add_argument("pda", help="pda file")
    p.add_argument("--start", help="configuration literal overriding the file's init")
    p.set_defaults(func=cmd_poststar)

    p = sub.add_parser(
        "witness-verify", parents=[shared], help="re-verify a witness document"
    )
    p.add_argument("cert", help="witness certificate file")
    p.set_defaults(func=cmd_witness_verify)

    p = sub.add_parser(
        "certcheck", parents=[shared], help="check any certificate document"
    )
    p.add_argument("cert", help="certificate file")
    p.set_defaults(func=cmd_certcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except InputError as exc:
        sys.stderr.write("input error: %s\n" % (exc,))
        return 3
    except BudgetError as exc:
        sys.stderr.write("budget exhausted: %s\n" % (exc,))
        return 2
    except RecursionError:
        # the game solver recurses once per round, so a deep cutoff can
        # outrun the interpreter's stack before any budget runs out
        sys.stderr.write(
            "budget exhausted: the cutoff is too deep for the recursive game"
            " solver; try a smaller cutoff\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
