"""The command line pinned byte for byte: stdout, stderr and exit code per command.

Every subcommand runs in both output modes, with and without ``--cert-out``,
and on malformed pda and finite-system files, some with two faults each so
the fault reported first is pinned too.  The expected outputs live in
``cli_table.json``, with the run's directory written as ``<dir>``.  After a
deliberate output change, re-record them with

    PYTHONPATH=src python tests/test_cli_table.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from test_cli import COUNTER, GROWING, LOOP, NORMED

from pdabisim.cli import main

EXPECTED = Path(__file__).resolve().parent / "cli_table.json"

CHAIN = "lts\nstates: s0 s1 s2\nactions: a\ntrans: s0 a s1\ntrans: s1 a s1\ntrans: s2 a s1\n"

DECLS = "pda\ncontrols: p\nalphabet: a\nstack: X\n"

FILES = {
    "counter.pda": COUNTER,
    "growing.pda": GROWING,
    "normed.pda": NORMED,
    "loop.lts": LOOP,
    "chain.lts": CHAIN,
    "kindless.cert.json": '{"format": 1, "kind": "witness"}\n',
    # malformed pda files
    "header.pda": "lts\nstates: s\n",
    "blank.pda": "# nothing but a comment\n\n",
    "no-stack.pda": "pda\ncontrols: p\nalphabet: a\ninit: p\n",
    "empty-controls.pda": "pda\ncontrols:\nalphabet: a\nstack: X\ninit: p X\n",
    "no-init.pda": DECLS + "p X a -> p .\n",
    "empty-init.pda": DECLS + "init:\n",
    "bad-init.pda": DECLS + "init: p Z\np X a -> p .\n",
    "dot.pda": DECLS + "init: p X\np X a -> p X .\n",
    "duplicate.pda": DECLS + "init: p X\np X a -> p X\np X a -> p X\n",
    "undeclared-push.pda": DECLS + "init: p X\np X a -> p X Y\n",
    "repeated.pda": DECLS + "init: p X\nalphabet: b\n",
    "colonless.pda": DECLS + "init: p X\nstack\n",
    # two faults each: the first one the parser meets is the one reported
    "bad-rule-then-repeat.pda": DECLS + "init: p X\np X a ->\ncontrols: q\n",
    "undeclared-then-repeat.pda": DECLS + "init: p X\np X a -> q X\nstack: Y\n",
    "repeat-then-bad-rule.pda": "pda\ncontrols: p\ncontrols: q\nalphabet: a\nstack: X\np X -> p\n",
    # malformed finite-system files
    "header.lts": "pda\ncontrols: p\n",
    "no-states.lts": "lts\nactions: a\n",
    "no-actions.lts": "lts\nstates: s\n",
    "short-trans.lts": "lts\nstates: s\nactions: a\ntrans: s a\n",
    "stray.lts": "lts\nstates: s\nactions: a\nfoo: s\n",
    "undeclared-state.lts": "lts\nstates: s\nactions: a\ntrans: s a t\n",
    "repeated.lts": "lts\nstates: s\nactions: a\nstates: t\n",
    "undeclared-then-repeat.lts": "lts\nstates: a\nactions: x\ntrans: a y a\nactions: y\n",
    "bad-trans-then-repeat.lts": "lts\nstates: a\ntrans: a x\nstates: b\n",
}

S = ("--format", "structured")

# (id, argv); "@name" is the file of that name in the run's directory.
# Commands run in order, so a certificate is written before it is checked.
TABLE = (
    ("regcheck-counter", ("regcheck", "@counter.pda")),
    ("regcheck-counter-s", ("regcheck", "@counter.pda") + S),
    ("regcheck-counter-cert", ("regcheck", "@counter.pda", "--cert-out", "@counter.cert.json")),
    ("regcheck-counter-cert-s",
     ("regcheck", "@counter.pda", "--cert-out", "@counter-s.cert.json") + S),
    ("regcheck-growing", ("regcheck", "@growing.pda")),
    ("regcheck-growing-cert-s",
     ("regcheck", "@growing.pda", "--cert-out", "@growing.cert.json") + S),
    ("regcheck-normed", ("regcheck", "@normed.pda")),
    ("regcheck-normed-cert", ("regcheck", "@normed.pda", "--cert-out", "@normed.cert.json")),
    ("regcheck-normed-s", ("regcheck", "@normed.pda") + S),
    ("regcheck-unknown-cert",
     ("regcheck", "@growing.pda", "--truncation-max", "0", "--cert-out", "@none.cert.json")),
    ("regcheck-unknown-cert-s",
     ("regcheck", "@growing.pda", "--truncation-max", "0", "--cert-out", "@none.cert.json")
     + S),
    ("eqlevel-finite", ("eqlevel", "@counter.pda", "p[A X]", "p[A A X]")),
    ("eqlevel-finite-cert-s",
     ("eqlevel", "@counter.pda", "p[A X]", "p[A A X]", "--cert-out", "@level.cert.json") + S),
    ("eqlevel-omega-cert",
     ("eqlevel", "@counter.pda", "p[](A)w", "p[A](A)w", "--cert-out", "@omega.cert.json")),
    ("eqlevel-equal-s", ("eqlevel", "@growing.pda", "p[X]", "p[X X]") + S),
    ("eqlevel-at-least-cert",
     ("eqlevel", "@counter.pda", "p[A A A X]", "p[A A A A X]", "--cutoff", "2",
      "--omega-budget", "1", "--cert-out", "@none.cert.json")),
    ("eqlevel-at-least-s",
     ("eqlevel", "@counter.pda", "p[A A A X]", "p[A A A A X]", "--cutoff", "2",
      "--omega-budget", "1") + S),
    ("eqlevel-bad-literal", ("eqlevel", "@counter.pda", "p[Z]", "p[X]")),
    ("bisim-finite-equal", ("bisim-finite", "@growing.pda", "@loop.lts", "f")),
    ("bisim-finite-equal-cert-s",
     ("bisim-finite", "@growing.pda", "@loop.lts", "f", "--cert-out", "@cmp.cert.json") + S),
    ("bisim-finite-apart-cert",
     ("bisim-finite", "@counter.pda", "@loop.lts", "f", "--cert-out", "@root.cert.json")),
    ("bisim-finite-apart-s", ("bisim-finite", "@counter.pda", "@loop.lts", "f") + S),
    ("bisim-finite-start",
     ("bisim-finite", "@growing.pda", "@loop.lts", "f", "--start", "p[X X X]")),
    ("bisim-finite-bad-lts", ("bisim-finite", "@growing.pda", "@repeated.lts", "f")),
    ("quotient", ("quotient", "@chain.lts")),
    ("quotient-s", ("quotient", "@chain.lts") + S),
    ("poststar", ("poststar", "@counter.pda")),
    ("poststar-start-s", ("poststar", "@counter.pda", "--start", "p[A X]") + S),
    ("witness-verify", ("witness-verify", "@counter.cert.json")),
    ("witness-verify-s", ("witness-verify", "@counter.cert.json") + S),
    ("witness-verify-normed", ("witness-verify", "@normed.cert.json")),
    ("certcheck-witness", ("certcheck", "@counter.cert.json")),
    ("certcheck-normed-s", ("certcheck", "@normed.cert.json") + S),
    ("certcheck-regular", ("certcheck", "@growing.cert.json")),
    ("certcheck-level", ("certcheck", "@level.cert.json")),
    ("certcheck-omega-s", ("certcheck", "@omega.cert.json") + S),
    ("certcheck-comparison", ("certcheck", "@cmp.cert.json")),
    ("certcheck-root", ("certcheck", "@root.cert.json")),
    ("certcheck-kindless", ("certcheck", "@kindless.cert.json")),
    ("missing-file", ("regcheck", "@nope.pda")),
) + tuple(
    ("regcheck-" + name, ("regcheck", "@" + name))
    for name in FILES
    if name.endswith(".pda") and name not in ("counter.pda", "growing.pda", "normed.pda")
) + tuple(
    ("quotient-" + name, ("quotient", "@" + name))
    for name in FILES
    if name.endswith(".lts") and name not in ("loop.lts", "chain.lts")
)


def run_table(directory):
    """{id: {code, stdout, stderr}} of every command, plus the written documents' sha256."""
    directory = Path(directory)
    for (name, text) in FILES.items():
        (directory / name).write_text(text)
    results = {}
    for (name, argv) in TABLE:
        argv = [str(directory / a[1:]) if a.startswith("@") else a for a in argv]
        (out, err) = (io.StringIO(), io.StringIO())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results[name] = {
            "code": code,
            "stdout": out.getvalue().replace(str(directory), "<dir>"),
            "stderr": err.getvalue().replace(str(directory), "<dir>"),
        }
    results["certificates"] = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.cert.json"))
        if path.name not in FILES
    }
    return results


def test_the_table_covers_every_subcommand():
    used = {argv[0] for (_, argv) in TABLE}
    assert used == {
        "regcheck", "eqlevel", "bisim-finite", "quotient", "poststar", "witness-verify",
        "certcheck",
    }


def test_cli_outputs_match_the_pinned_table(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    got = run_table(tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        EXPECTED.write_text(json.dumps(run_table(scratch), indent=1, sort_keys=True) + "\n")
