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


def _read_lines(text, header, noun, once):
    """The lines of a sectioned file as ``(lineno, section, value)``, in file order.

    ``#`` starts a comment and blank lines are skipped; ``header`` must come
    first.  A ``name:`` line whose name is in ``once`` gives that name and the
    names after the colon, and may appear only once.  Any other line gives
    ``None`` and the line itself.
    """
    first = {}
    started = False
    for (lineno, raw) in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not started:
            if line != header:
                raise InputError("expected the '%s' header first" % (header,), line=lineno)
            started = True
            continue
        name = line.split(":", 1)[0]
        if name == line or name not in once:
            yield (lineno, None, line)
            continue
        if name in first:
            raise InputError(
                "repeated '%s:' section (first on line %d)" % (name, first[name]), line=lineno
            )
        first[name] = lineno
        yield (lineno, name, line[len(name) + 1 :].split())
    if not started:
        raise InputError("empty input: expected %s" % (noun,))


def parse_pda(text):
    """Parse the pda file format; returns (Pda, initial Config).

    ``#`` starts a comment; blank lines are ignored.  Rules may come
    before or after the declarations: the names in the rules and in
    ``init:`` are checked against the declarations once the whole file is
    read.  Malformed rules, repeated sections and duplicate rules are
    rejected at the line where they occur, during the scan.
    """
    decl = {}
    init_line = None
    rules = []
    rule_lines = {}
    sections = ("controls", "alphabet", "stack", "init")
    for (lineno, name, got) in _read_lines(text, "pda", "a 'pda' file", sections):
        if name == "init":
            if not got:
                raise InputError("init needs a control state", line=lineno)
            init_line = lineno
        if name is not None:
            decl[name] = got
            continue
        tokens = got.split()
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
    for name in sections[:3]:
        if name not in decl:
            raise InputError("missing '%s:' declaration" % (name,))
        if not decl[name]:
            raise InputError("'%s:' must declare at least one name" % (name,))
    (declared_controls, declared_actions, declared_stack) = (
        frozenset(decl[name]) for name in sections[:3]
    )
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
    if init_line is None:
        raise InputError("missing 'init:' declaration")
    init = decl["init"]
    start = Config(init[0], StackWord.finite(tuple(init[1:])))
    try:
        validate_config(pda, start)
    except InputError as exc:
        raise InputError(str(exc), line=init_line)
    return (pda, start)


def parse_lts(text):
    """Parse the finite-system file format; repeated sections are rejected."""
    decl = {}
    transitions = []
    for (lineno, name, got) in _read_lines(text, "lts", "an 'lts' file", ("states", "actions")):
        if name is not None:
            decl[name] = got
            continue
        if not got.startswith("trans:"):
            raise InputError("expected a states:/actions:/trans: line", line=lineno)
        triple = tuple(got[len("trans:") :].split())
        if len(triple) != 3:
            raise InputError("expected 'trans: source action target'", line=lineno)
        transitions.append((lineno, triple))
    for name in ("states", "actions"):
        if name not in decl:
            raise InputError("missing '%s:' declaration" % (name,))
    declared_states = frozenset(decl["states"])
    declared_actions = frozenset(decl["actions"])
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


def _say(lines, report, *keys):
    """Append ``key: value`` for each key the report holds a value for; booleans read true/false."""
    for key in keys:
        value = report.get(key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append("%s: %s" % (key, value))


def _write_cert(args, make_doc, lines, report):
    """Write ``make_doc()`` to ``--cert-out`` when it is given; None certifies nothing."""
    if args.cert_out is None:
        return
    doc = make_doc()
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
    report = {
        "command": "regcheck",
        "input": args.pda,
        "start": start.format(),
        "verdict": verdict.kind,
        "exactness": verdict.exactness,
        "winner": verdict.winner,
        "stats": {k: v for (k, v) in verdict.stats},
    }
    lines = []
    _say(lines, report, "verdict", "exactness", "winner")
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
        loop = verdict.certificate.witness.loop
        bound = verdict.certificate.witness.pump.bound
        check = verdict.certificate.check
        lines.append("witness control: %s" % (loop.control,))
        lines.append("witness top: %s" % (loop.symbol,))
        lines.append("witness loop: %s" % (" ".join(loop.period),))
        lines.append("witness tail: %s" % (loop.tail.format(),))
        lines.append("bound: %d" % (bound,))
        lines.append("base level: %d" % (check.base.value,))
        levels = " ".join(
            str(r.value) if r.is_finite else "?" for (_, r) in check.corroboration
        )
        lines.append("corroboration: %s" % (levels,))
        report["witness"] = {
            "control": loop.control,
            "top": loop.symbol,
            "loop": list(loop.period),
            "tail": loop.tail.format(),
            "bound": bound,
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
    for (key, value) in verdict.stats:
        lines.append("stat %s: %s" % (key, value))

    def cert_doc():
        if verdict.kind == "unknown":
            return None
        return certs.verdict_document(pda, start, verdict)

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
    report = {
        "command": "eqlevel",
        "input": args.pda,
        "left": left.format(),
        "right": right.format(),
    }
    report.update(_eqlevel_doc(result))
    lines = []
    _say(lines, report, "left", "right", "result", "level", "basis", "cutoff")

    def cert_doc():
        if not (result.is_finite or result.is_omega):
            return None
        return certs.eq_level_document(pda, left, right, result)

    _write_cert(args, cert_doc, lines, report)
    _emit(args, lines, report, out)
    return 0 if (result.is_finite or result.is_omega) else 2


def cmd_bisim_finite(args, out):
    (pda, start) = parse_pda(_read(args.pda))
    lts = parse_lts(_read(args.lts))
    if args.start is not None:
        start = parse_config_literal(args.start)
    comparison = bisim_pda_vs_finite(pda, start, lts, args.state)
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
    if comparison.unmatched:
        report["unmatched"] = comparison.unmatched[0].as_config().format()
    if comparison.counterexample is not None and not comparison.equivalent:
        report["counterexample"] = comparison.counterexample.format()
    lines = []
    _say(lines, report, "configuration", "state", "equivalent", "level")
    if comparison.root.is_finite:
        lines.append("root level: %d" % (comparison.root.value,))
    _say(lines, report, "unmatched", "counterexample")

    def cert_doc():
        if comparison.equivalent:
            return certs.comparison_document(pda, comparison)
        if comparison.root.is_finite and comparison.root.certificate is not None:
            return certs.comparison_root_document(pda, comparison)
        return None

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
    check = verify_witness(*certs.witness_from_document(doc))
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
    lines = []
    _say(lines, report, "verdict", "bound", "certified", "reason")
    _emit(args, lines, report, out)
    if check.verdict == "verified" and check.certified:
        return 0
    if check.verdict == "refuted":
        return 1
    return 2


def cmd_certcheck(args, out):
    doc = certs.loads(_read(args.cert))
    result = certs.check_document(doc)
    report = {
        "command": "certcheck",
        "input": args.cert,
        "kind": result.kind,
        "ok": result.ok,
        "detail": result.detail,
    }
    lines = []
    _say(lines, report, "kind", "ok", "detail")
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
