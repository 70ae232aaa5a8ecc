"""Command line round trips, exit codes and output stability."""

import json
import random
import shlex
from pathlib import Path

import pytest

from pdabisim import Config, InputError, StackWord
from pdabisim import certs
from pdabisim.cli import (
    main,
    parse_config_literal,
    parse_lts,
    parse_pda,
    serialize_lts,
)

from oracles import random_pda


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


COUNTER = """\
# a single counter over one control state
pda
controls: p
alphabet: a b
stack: X A
init: p X
p X a -> p A X
p A a -> p A A
p A b -> p .
"""

GROWING = """\
pda
controls: p
alphabet: a b
stack: X
init: p X
p X a -> p X X
p X b -> p X
"""

# two controls running the same growing loop: bisimilar, but not equal
# after dead-tail absorption, so an eq-level query has to play its rounds
TWIN = """\
pda
controls: p q
alphabet: a b
stack: X
init: p X
p X a -> p X X
p X b -> p X
q X a -> q X X
q X b -> q X
"""

# like TWIN, but the climb pushes Y's, which can be popped, so a deep
# game recurses about half the level deep before it reaches a shared key
DEEP = """\
pda
controls: p q
alphabet: a b
stack: X Y
init: p X
p X a -> p Y X
p Y a -> p Y Y
p Y b -> p .
q X a -> q Y X
q Y a -> q Y Y
q Y b -> q .
"""

# a counter whose every control and symbol can pop: decided by the norm
NORMED = """\
pda
controls: p
alphabet: a b
stack: X A
init: p X
p X a -> p A X
p X b -> p .
p A a -> p A A
p A b -> p .
"""

LOOP = """\
lts
states: f
actions: a b
trans: f a f
trans: f b f
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for (name, text) in (
        ("counter.pda", COUNTER),
        ("growing.pda", GROWING),
        ("twin.pda", TWIN),
        ("deep.pda", DEEP),
        ("normed.pda", NORMED),
        ("loop.lts", LOOP),
    ):
        target = tmp_path / name
        target.write_text(text)
        paths[name] = str(target)
    paths["dir"] = tmp_path
    return paths


def test_pda_file_round_trip():
    (pda, init) = parse_pda(COUNTER)
    assert init == Config("p", StackWord.finite(("X",)))
    assert len(pda.rules) == 3
    again = parse_pda(serialize_pda(pda, init))
    assert again == (pda, init)


def test_lts_file_round_trip():
    lts = parse_lts(LOOP)
    assert lts.states == frozenset(["f"])
    assert parse_lts(serialize_lts(lts)) == lts


def test_pda_parse_errors():
    with pytest.raises(InputError):
        parse_pda("lts\nstates: s\n")
    with pytest.raises(InputError):
        parse_pda("pda\ncontrols: p\nalphabet: a\nstack: X\ninit: p X\np X a -> q .\n")
    with pytest.raises(InputError):
        parse_pda("pda\ncontrols: p\nalphabet: a\nstack: X\np X a -> p .\n")
    duplicated = (
        "pda\ncontrols: p\nalphabet: a\nstack: X\ninit: p X\n"
        "p X a -> p X\np X a -> p X\n"
    )
    with pytest.raises(InputError):
        parse_pda(duplicated)
    with pytest.raises(InputError):
        parse_pda(
            "pda\ncontrols: p\nalphabet: a\nstack: X\ninit: p X\np X a -> p X .\n"
        )


@pytest.mark.parametrize(
    "text,repeated,first,again",
    [
        ("pda\ncontrols: p\nalphabet: a\nstack: X\ninit: p X\ncontrols: q\n", "controls", 2, 6),
        ("pda\ncontrols: p\nalphabet: a\nstack: X\nalphabet: b\ninit: p X\n", "alphabet", 3, 5),
        ("pda\ncontrols: p\nstack: X\nalphabet: a\nstack: Y\ninit: p X\n", "stack", 3, 5),
        ("pda\ncontrols: p\nalphabet: a\nstack: X\ninit: p X\np X a -> p .\ninit: p\n", "init", 5, 7),
    ],
)
def test_repeated_pda_sections_are_input_errors(files, capsys, text, repeated, first, again):
    message = "line %d: repeated '%s:' section (first on line %d)" % (again, repeated, first)
    with pytest.raises(InputError) as got:
        parse_pda(text)
    assert str(got.value) == message
    path = files["dir"] / "repeated.pda"
    path.write_text(text)
    assert main(["regcheck", str(path)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,repeated,first,again",
    [
        ("lts\nstates: a\nactions: x\ntrans: a x a\nstates: b\n", "states", 2, 5),
        ("lts\nactions: x\nstates: a\nactions: y\ntrans: a x a\n", "actions", 2, 4),
    ],
)
def test_repeated_lts_sections_are_input_errors(files, capsys, text, repeated, first, again):
    message = "line %d: repeated '%s:' section (first on line %d)" % (again, repeated, first)
    with pytest.raises(InputError) as got:
        parse_lts(text)
    assert str(got.value) == message
    path = files["dir"] / "repeated.lts"
    path.write_text(text)
    assert main(["quotient", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_config_literal_forms():
    assert parse_config_literal("p[X A]") == Config("p", StackWord.finite(("X", "A")))
    assert parse_config_literal("p[]") == Config("p", StackWord.finite())
    periodic = parse_config_literal("p[X](A B)w")
    assert periodic == Config("p", StackWord.repeating(("X",), ("A", "B")))
    with pytest.raises(InputError):
        parse_config_literal("p[X")
    with pytest.raises(InputError):
        parse_config_literal("p[X]()w")


def test_regcheck_counter_exits_nonregular(files, capsys):
    code = main(["regcheck", files["counter.pda"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: nonregular" in out
    assert "exactness: certified" in out
    assert "bound: 2" in out
    assert "base level: 3" in out


def test_regcheck_growing_exits_regular(files, capsys):
    code = main(["regcheck", files["growing.pda"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: regular" in out
    assert "system states: 1" in out


def test_regcheck_certificate_round_trips(files, capsys):
    cert = str(files["dir"] / "counter.cert.json")
    code = main(["regcheck", files["counter.pda"], "--cert-out", cert])
    assert code == 1
    first = capsys.readouterr().out
    assert "certificate: written to" in first
    assert main(["certcheck", cert]) == 0
    capsys.readouterr()
    assert main(["witness-verify", cert]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_certcheck_rejects_tampering(files, capsys):
    cert = str(files["dir"] / "counter.cert.json")
    main(["regcheck", files["counter.pda"], "--cert-out", cert])
    capsys.readouterr()
    doc = certs.loads(open(cert).read())
    doc["bound"] = 9
    broken = str(files["dir"] / "broken.cert.json")
    open(broken, "w").write(certs.dumps(doc))
    assert main(["certcheck", broken]) == 1
    capsys.readouterr()


def test_eqlevel_exit_codes(files, capsys):
    assert main(["eqlevel", files["counter.pda"], "p[A X]", "p[A A X]"]) == 0
    out = capsys.readouterr().out
    assert "result: finite" in out
    assert "level: 1" in out
    assert (
        main(
            [
                "eqlevel",
                files["counter.pda"],
                "p[A A A X]",
                "p[A A A A X]",
                "--cutoff",
                "2",
                "--omega-budget",
                "1",
            ]
        )
        == 2
    )
    capsys.readouterr()
    assert main(["eqlevel", files["counter.pda"], "p[](A)w", "p[A](A)w"]) == 0
    out = capsys.readouterr().out
    assert "result: omega" in out


def test_eqlevel_certificate(files, capsys):
    cert = str(files["dir"] / "level.cert.json")
    code = main(
        ["eqlevel", files["counter.pda"], "p[A X]", "p[A A X]", "--cert-out", cert]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["certcheck", cert]) == 0
    capsys.readouterr()


def test_bisim_finite_exit_codes(files, capsys):
    assert main(["bisim-finite", files["growing.pda"], files["loop.lts"], "f"]) == 0
    out = capsys.readouterr().out
    assert "equivalent: true" in out
    assert main(["bisim-finite", files["counter.pda"], files["loop.lts"], "f"]) == 1
    out = capsys.readouterr().out
    assert "equivalent: false" in out


# agrees with the counter for three full rounds, so bisim-finite refutes
# the pair by an unmatched truncation and not at the root
SURVIVOR = """\
lts
states: t0 t1
actions: a b
trans: t0 a t1
trans: t1 a t1
trans: t1 b t0
"""


def test_bisim_finite_prints_the_unmatched_truncation(files, capsys):
    survivor = files["dir"] / "survivor.lts"
    survivor.write_text(SURVIVOR)
    args = ["bisim-finite", files["counter.pda"], str(survivor), "t0"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "unmatched: p [A A]\n" in out
    assert "counterexample: p [A A X]\n" in out
    assert "root level" not in out
    assert main(args + ["--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["unmatched"], report["counterexample"]) == ("p [A A]", "p [A A X]")
    assert report["equivalent"] is False


def test_bisim_finite_start_override(files, capsys):
    code = main(
        [
            "bisim-finite",
            files["growing.pda"],
            files["loop.lts"],
            "f",
            "--start",
            "p[X X X]",
        ]
    )
    assert code == 0
    capsys.readouterr()


def test_quotient_output(files, tmp_path, capsys):
    chain = tmp_path / "chain.lts"
    chain.write_text(
        "lts\nstates: s0 s1 s2\nactions: a\ntrans: s0 a s1\ntrans: s1 a s1\ntrans: s2 a s1\n"
    )
    assert main(["quotient", str(chain)]) == 0
    out = capsys.readouterr().out
    assert "class" in out
    assert "states:" in out


def test_poststar_dump(files, capsys):
    assert main(["poststar", files["counter.pda"]]) == 0
    out = capsys.readouterr().out
    assert "entry p" in out


def test_structured_output_is_stable_json(files, capsys):
    runs = []
    for _ in range(2):
        code = main(
            ["eqlevel", files["counter.pda"], "p[A X]", "p[A A X]", "--format", "structured"]
        )
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["command"] == "eqlevel"
    assert doc["result"] == "finite"
    assert doc["level"] == 1


def test_structured_regcheck_parses(files, capsys):
    code = main(["regcheck", files["counter.pda"], "--format", "structured"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "nonregular"
    assert doc["witness"]["bound"] == 2


def test_missing_file_is_an_input_error(files, capsys):
    assert main(["regcheck", str(files["dir"] / "nope.pda")]) == 3
    err = capsys.readouterr().err
    assert "input error" in err


def test_bad_literal_is_an_input_error(files, capsys):
    assert main(["eqlevel", files["counter.pda"], "p[Z]", "p[X]"]) == 3
    capsys.readouterr()


def test_deep_cutoff_is_a_budget_exit_not_a_traceback(files, capsys):
    code = main(["eqlevel", files["deep.pda"], "p[X]", "q[X]", "--cutoff", "2000"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cutoff is too deep" in err


def test_deep_game_at_cutoff_500_fits_the_recursion_limit(files, capsys):
    # two Python frames per round: the climb to 500 recurses about 250
    # rounds deep, well inside the interpreter's default limit of 1000
    code = main(["eqlevel", files["deep.pda"], "p[X]", "q[X]", "--cutoff", "500"])
    assert code == 2
    captured = capsys.readouterr()
    assert "result: at-least" in captured.out
    assert "cutoff: 500" in captured.out
    assert captured.err == ""


def test_twin_climbs_to_a_deep_cutoff(files, capsys):
    code = main(["eqlevel", files["twin.pda"], "p[X]", "q[X]", "--cutoff", "500"])
    assert code == 0
    assert "result: omega" in capsys.readouterr().out


def test_absorbed_equal_pair_needs_no_rounds(files, capsys):
    code = main(["eqlevel", files["growing.pda"], "p[X]", "p[X X]", "--cutoff", "500"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result: omega" in out
    assert "basis: equal" in out


def _write_doc(files, name, doc):
    path = str(files["dir"] / name)
    open(path, "w").write(certs.dumps(doc))
    return path


def test_default_witness_document_carries_the_default_budgets(files, capsys):
    cert = str(files["dir"] / "counter.cert.json")
    assert main(["regcheck", files["counter.pda"], "--cert-out", cert]) == 1
    doc = certs.loads(open(cert).read())
    assert doc["budgets"] == {
        "cutoff": 64,
        "omega_budget": 512,
        "pump_omega_budget": 256,
        "region_cap": 2048,
    }


def test_budget_flags_reach_the_witness_document(files, capsys):
    cert = str(files["dir"] / "counter.cert.json")
    code = main(
        [
            "regcheck", files["counter.pda"], "--cutoff", "32", "--omega-budget", "100",
            "--cert-out", cert,
        ]
    )
    assert code == 1
    doc = certs.loads(open(cert).read())
    assert doc["budgets"] == {
        "cutoff": 32,
        "omega_budget": 100,
        "pump_omega_budget": 64,
        "region_cap": 2048,
    }
    assert main(["certcheck", cert]) == 0


@pytest.mark.parametrize(
    "budgets",
    [{"pump_omega_budget": 300}, {"cutoff": 0}, {"cutoff": True}],
    ids=["pump-omega-mismatch", "zero-cutoff", "bool-cutoff"],
)
def test_witness_documents_with_bad_budgets_are_input_errors(files, capsys, budgets):
    cert = str(files["dir"] / "counter.cert.json")
    main(["regcheck", files["counter.pda"], "--cert-out", cert])
    doc = certs.loads(open(cert).read())
    doc["budgets"].update(budgets)
    bad = _write_doc(files, "bad.cert.json", doc)
    assert main(["certcheck", bad]) == 3
    assert main(["witness-verify", bad]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    ("field", "value", "reason"),
    [
        ("bound", 999, "recomputed bound 2 does not match the stored 999"),
        ("base_level", 7, "recomputed base level 3 does not match the stored 7"),
    ],
    ids=["bound", "base-level"],
)
def test_witness_fields_that_do_not_recompute_are_rejected(files, capsys, field, value, reason):
    cert = str(files["dir"] / "counter.cert.json")
    main(["regcheck", files["counter.pda"], "--cert-out", cert])
    capsys.readouterr()
    doc = certs.loads(open(cert).read())
    doc[field] = value
    bad = _write_doc(files, "bad.cert.json", doc)
    assert main(["certcheck", bad]) == 1
    out = capsys.readouterr().out
    assert "ok: false" in out and reason in out
    assert main(["witness-verify", bad]) == 1
    out = capsys.readouterr().out
    assert "reason: %s\n" % (reason,) in out
    assert "certified: false" in out
    assert main(["witness-verify", bad, "--format", "structured"]) == 1
    assert json.loads(capsys.readouterr().out)["reason"] == reason


@pytest.mark.parametrize("name", ["counter.pda", "growing.pda"])
def test_documents_declaring_the_empty_stack_symbol_exit_3(files, capsys, name):
    # the empty string is post*'s silent label, never a stack symbol
    cert = str(files["dir"] / "empty-symbol.cert.json")
    main(["regcheck", files[name], "--cert-out", cert])
    capsys.readouterr()
    doc = certs.loads(open(cert).read())
    doc["pda"]["stack"].append("")
    doc["pda"]["rules"].append(
        {"control": "p", "symbol": "X", "action": "a", "target": "p", "push": [""]}
    )
    bad = _write_doc(files, "bad.cert.json", doc)
    assert main(["certcheck", bad]) == 3
    assert "non-empty" in capsys.readouterr().err


def test_zero_budgets_turn_searches_off(files, capsys):
    code = main(["regcheck", files["growing.pda"], "--truncation-max", "0"])
    out = capsys.readouterr().out
    assert code != 3
    assert "stat positive-levels: 0" in out
    code = main(["eqlevel", files["twin.pda"], "p[X]", "q[X]", "--omega-budget", "0"])
    assert code == 2
    assert "result: at-least" in capsys.readouterr().out


def test_malformed_witness_documents_exit_3(files, capsys):
    path = _write_doc(files, "malformed.json", {"kind": "witness", "format": 1})
    assert main(["witness-verify", path]) == 3
    assert main(["certcheck", path]) == 3


@pytest.mark.parametrize(
    "doc", [{"format": 1, "kind": []}, {}], ids=["list-kind", "empty"]
)
def test_documents_without_a_kind_name_exit_3(files, capsys, doc):
    path = _write_doc(files, "kindless.json", doc)
    assert main(["certcheck", path]) == 3
    assert main(["witness-verify", path]) == 3
    assert "input error" in capsys.readouterr().err


def test_unknown_format_witness_is_not_verified(files, capsys):
    cert = str(files["dir"] / "counter.cert.json")
    main(["regcheck", files["counter.pda"], "--cert-out", cert])
    doc = certs.loads(open(cert).read())
    doc["format"] = 99
    assert main(["witness-verify", _write_doc(files, "future.json", doc)]) == 3


def test_unwritable_cert_out_is_an_input_error(files, capsys):
    target = str(files["dir"] / "missing-dir" / "x.json")
    assert main(["regcheck", files["counter.pda"], "--cert-out", target]) == 3
    assert "cannot write" in capsys.readouterr().err


USAGE_ERRORS = {
    "non-integer-budget": ["regcheck", "counter.pda", "--cutoff", "abc"],
    "unknown-format": ["regcheck", "counter.pda", "--format", "xml"],
    "missing-subcommand": [],
    "quotient-budget": ["quotient", "loop.lts", "--cutoff", "5"],
    "bisim-finite-budget": ["bisim-finite", "growing.pda", "loop.lts", "f", "--cutoff", "5"],
    "poststar-budget": ["poststar", "counter.pda", "--omega-budget", "5"],
    "certcheck-budget": ["certcheck", "loop.lts", "--cutoff", "5"],
    "witness-verify-budget": ["witness-verify", "loop.lts", "--cutoff", "5"],
    "eqlevel-regcheck-only-budget": [
        "eqlevel", "counter.pda", "p[X]", "p[A X]", "--truncation-max", "2",
    ],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_3(files, capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main([files.get(arg, arg) for arg in argv])
    assert stop.value.code == 3
    assert "usage:" in capsys.readouterr().err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    with pytest.raises(SystemExit) as stop:
        main(["regcheck", "--help"])
    assert stop.value.code == 0
    assert "--candidate-budget" in capsys.readouterr().out


def test_regcheck_reports_a_normed_verdict(files, capsys):
    code = main(["regcheck", files["normed.pda"]])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    out = captured.out
    assert "verdict: nonregular" in out
    assert "exactness: certified" in out
    assert "route: norm" in out
    assert "loop top: A" in out
    assert "loop period: A" in out
    assert "loop rules: p A a -> p A A" in out
    assert main(["regcheck", files["normed.pda"], "--format", "structured"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == "norm"
    assert doc["loop"]["period"] == ["A"]
    assert doc["loop"]["access_rules"] == ["p X a -> p A X"]
    assert "witness" not in doc


def test_regcheck_writes_a_normed_witness_document(files, capsys):
    cert = str(files["dir"] / "normed.cert.json")
    assert main(["regcheck", files["normed.pda"], "--cert-out", cert]) == 1
    assert "certificate: written to" in capsys.readouterr().out
    doc = certs.loads(open(cert).read())
    assert doc["kind"] == "normed-witness"
    assert [(e["control"], e["symbol"]) for e in doc["emptying"]] == [("p", "A"), ("p", "X")]


def test_certcheck_accepts_a_normed_witness_document(files, capsys):
    cert = str(files["dir"] / "normed.cert.json")
    main(["regcheck", files["normed.pda"], "--cert-out", cert])
    capsys.readouterr()
    assert main(["certcheck", cert]) == 0
    out = capsys.readouterr().out
    assert "kind: normed-witness" in out
    assert "ok: true" in out


def test_witness_verify_points_a_normed_witness_to_certcheck(files, capsys):
    cert = str(files["dir"] / "normed.cert.json")
    main(["regcheck", files["normed.pda"], "--cert-out", cert])
    capsys.readouterr()
    assert main(["witness-verify", cert]) == 3
    err = capsys.readouterr().err
    assert "certcheck" in err
    assert "Traceback" not in err



@pytest.mark.parametrize(
    ("seed", "exactness"),
    [(7126, "certified"), (7163, "certified"), (7034, "modulo-cutoff")],
)
def test_certcheck_says_what_a_pump_witness_rests_on(files, capsys, seed, exactness):
    # 8/3/30 seeds: 7126 and 7163 rest on exact level bounds, 7034 on a level
    # bound whose region pairs ran into the cutoff; certcheck accepts all three
    certified = exactness == "certified"
    pda = random_pda(random.Random(seed), 8, 3, 30)
    start = Config(sorted(pda.controls)[0], StackWord.finite((sorted(pda.stack_alphabet)[0],)))
    source = files["dir"] / ("%d.pda" % (seed,))
    source.write_text(serialize_pda(pda, start))
    cert = str(files["dir"] / ("%d.cert.json" % (seed,)))
    assert main(["regcheck", str(source), "--cert-out", cert]) == (1 if certified else 2)
    assert "exactness: %s\n" % (exactness,) in capsys.readouterr().out
    assert main(["certcheck", cert]) == 0
    assert "ok: true\nexactness: %s\n" % (exactness,) in capsys.readouterr().out
    assert main(["certcheck", cert, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["exactness"] == exactness
    assert main(["witness-verify", cert]) == (0 if certified else 2)
    assert "certified: %s\n" % ("true" if certified else "false") in capsys.readouterr().out


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_session():
    """(argv, output lines) of each command in the README's "A short session"."""
    section = README.read_text().split("### A short session", 1)[1].split("\n## ", 1)[0]
    runs = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ pdabisim "):
                runs.append((shlex.split(line[len("$ pdabisim "):]), []))
            elif line:
                runs[-1][1].append(line)
    return runs


def test_readme_session_transcripts_match(files, capsys):
    runs = readme_session()
    assert [argv for (argv, _) in runs] == [
        ["regcheck", "counter.pda", "--cert-out", "counter.cert.json"],
        ["certcheck", "counter.cert.json"],
        ["eqlevel", "counter.pda", "p[A X]", "p[A A X]"],
        ["regcheck", "normed.pda"],
    ]
    files["counter.cert.json"] = str(files["dir"] / "counter.cert.json")
    for (argv, expected) in runs:
        main([files.get(arg, arg) for arg in argv])
        out = capsys.readouterr().out.replace(str(files["dir"]) + "/", "")
        assert out.splitlines() == expected, argv


def readme_library_example():
    """(code, commented output lines) of the README's "Library example"."""
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    return (code, expected)


def test_readme_library_example_prints_its_comments(capsys):
    (code, expected) = readme_library_example()
    assert expected == ["finite 1", "nonregular certified", "32", "True"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
