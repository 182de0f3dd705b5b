#!/usr/bin/env python3
"""Run the CLI over the corpus and print everything it writes.

First come ``occob --help`` and ``--help`` of each subcommand.  Then, for
each file of ``corpus/roundtrip``, every command runs once as text and
once with ``--json``: ``check``; ``invariants``, ``sigma``, ``stabilize``
with ``-k 1`` and ``-k 3`` and ``pullback --tau id`` on each cobordism;
``iso``, ``compose`` and ``tensor`` on each ordered pair of cobordisms;
``classify -G 2 -W 2`` on each object; ``swap`` on each ordered pair of
objects.  Then ``check`` runs on each file of ``corpus/malformed``, and
then come a few calls whose arguments the CLI must reject (``ERRORS``).
Last, ``parse`` reads each text of ``RULE_TEXTS``, each written to break
one rule of ``validate``, and the script prints the error it raises and
the ``(rule, where, message)`` of each violation it carries.
After the calls on each ``corpus/roundtrip`` file, the script also prints
the file's ``to_json`` text and that text read back by ``from_json`` and
written by ``serialize``, which covers the JSON front end on source
documents.

Each call goes through ``occob.cli.main`` in the same process, and the
script prints its arguments, exit code, standard output and standard
error.  ``COLUMNS`` is set to 80 first, since argparse wraps its usage
and help text at the terminal width.  The output then depends only on
the corpus and the program, so the
outputs of two versions of occob can be compared with ``diff``.  Only the
help block at the top also depends on the Python version, as argparse
lays out help differently from 3.13 on.  It uses
the standard library only:

    PYTHONPATH=src python scripts/cli_sweep.py > sweep.txt
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

from occob.cli import main
from occob.dsl import from_json, parse, serialize, to_json
from occob.errors import DslError

ROOT = Path(__file__).resolve().parents[1]
REF = "corpus/roundtrip/ref_interfaces.occ"
COMMANDS = [
    "check",
    "compose",
    "tensor",
    "swap",
    "invariants",
    "sigma",
    "pullback",
    "iso",
    "classify",
    "stabilize",
]
ERRORS = [
    ["pullback", REF, "across", "--tau", "(3 9)"],  # outside the domain
    ["pullback", REF, "across", "--tau", f"({'1' * 5000})"],  # too many digits
    ["check", "corpus/roundtrip/a\x00b.occ"],  # unopenable path
    ["classify", REF, "five", "-G", "\u0663", "-W", "0"],  # not an ASCII digit
]


def _text(objects: str, boundary: str, branes: str = "") -> str:
    """A document defining ``objects`` and one cobordism ``x : s -> t`` of
    one component with ``boundary`` lines."""
    lines = "".join(f"    {line};\n" for line in boundary.split("; ") if line)
    return (
        f"{branes}{objects}\ncobordism x : s -> t {{\n  component {{\n"
        f"    genus 0;\n{lines}  }}\n}}\n"
    )


_CIRCLES = "object s = [O];\nobject t = [O];"
_INTERVALS = "object s = [I(*,*), I(*,*)];\nobject t = [];"
# Texts that break one rule of ``validate`` each.  An undeclared brane is
# refused by the parser before validation, so that text raises a syntax error.
RULE_TEXTS = {
    "index-range": _text(_CIRCLES, "in 2; out 1"),
    "duplicate-use": _text(_CIRCLES, "in 1; in 1; out 1"),
    "missing-use": _text(_CIRCLES, "out 1"),
    "alternation": _text(_INTERVALS, "mixed [in 1, in 2, arc, arc]; mixed [arc]"),
    "arc-brane": _text(
        "object s = [I(a,b)];\nobject t = [];", "mixed [in 1, arc a]", "branes a, b;\n"
    ),
    "unknown-brane": _text(_CIRCLES, "in 1; out 1; window z", "branes a, b;\n"),
    "empty-boundary": _text("object s = [];\nobject t = [];", ""),
    # Circles are numbered with the windows after the others, whatever
    # the order of the lines: the bad mixed circle is circle 2.
    "alternation after a window": _text(
        "object s = [I(*,*)];\nobject t = [];", "window; mixed [in 1, arc]; mixed [arc]"
    ),
}


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    print("$ occob", " ".join(argv))
    print(f"exit {code}")
    print(out.getvalue(), end="")
    print("--- stderr")
    print(err.getvalue(), end="")


def json_round_trip(path: Path) -> None:
    """Print ``to_json`` of a file and ``serialize`` of that read back."""
    file = str(path.relative_to(ROOT))
    text = to_json(parse(path.read_text(encoding="utf-8")))
    print("$ to_json", file)
    print(text, end="")
    print("$ serialize from_json to_json", file)
    print(serialize(from_json(text)), end="")


def calls(path: Path):
    """The argument lists run on one ``corpus/roundtrip`` file."""
    doc = parse(path.read_text(encoding="utf-8"))
    cobs, objs = sorted(doc.cobordisms), sorted(doc.objects)
    file = str(path.relative_to(ROOT))
    yield ["check", file]
    for a in cobs:
        yield ["invariants", file, a]
        yield ["sigma", file, a]
        yield ["stabilize", file, a, "-k", "1"]
        yield ["stabilize", file, a, "-k", "3"]
        yield ["pullback", file, a, "--tau", "id"]
        for b in cobs:
            yield ["iso", file, a, b]
            yield ["compose", file, a, b]
            yield ["tensor", file, a, b]
    for n in objs:
        yield ["classify", file, n, "-G", "2", "-W", "2"]
        for m in objs:
            yield ["swap", file, n, m]


def rule_text(rule: str, text: str) -> None:
    """Print the error ``parse`` raises on ``text`` and its violations."""
    print("$ parse", rule)
    try:
        parse(text)
    except DslError as exc:
        print(f"{type(exc).__name__}: {exc}")
        for v in getattr(exc, "violations", ()):
            print((v.rule, v.where, v.message))
    else:
        print("parsed")


def sweep() -> None:
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)  # the file arguments, and so the output, are relative paths
    run(["--help"])
    for command in COMMANDS:
        run([command, "--help"])
    for path in sorted((ROOT / "corpus" / "roundtrip").glob("*.occ")):
        for argv in calls(path):
            run(argv)
            run(argv + ["--json"])
        json_round_trip(path)
    for path in sorted((ROOT / "corpus" / "malformed").glob("*.occ")):
        run(["check", str(path.relative_to(ROOT))])
    for argv in ERRORS:
        run(argv)
    for rule, text in RULE_TEXTS.items():
        rule_text(rule, text)


if __name__ == "__main__":
    sweep()
