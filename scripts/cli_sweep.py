#!/usr/bin/env python3
"""Run the CLI over the corpus and print everything it writes.

For each file of ``corpus/roundtrip``, every command runs once as text and
once with ``--json``: ``check``; ``invariants``, ``sigma``, ``stabilize``
with ``-k 1`` and ``-k 3`` and ``pullback --tau id`` on each cobordism;
``iso``, ``compose`` and ``tensor`` on each ordered pair of cobordisms;
``classify -G 2 -W 2`` on each object; ``swap`` on each ordered pair of
objects.  Then ``check`` runs on each file of ``corpus/malformed``, and
last come a few calls whose arguments the CLI must reject (``ERRORS``).
After the calls on each ``corpus/roundtrip`` file, the script also prints
the file's ``to_json`` text and that text read back by ``from_json`` and
written by ``serialize``, which covers the JSON front end on source
documents.

Each call goes through ``occob.cli.main`` in the same process, and the
script prints its arguments, exit code, standard output and standard
error.  The output depends only on the corpus and the program, so the
outputs of two versions of occob can be compared with ``diff``.  It uses
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

ROOT = Path(__file__).resolve().parents[1]
REF = "corpus/roundtrip/ref_interfaces.occ"
ERRORS = [
    ["pullback", REF, "across", "--tau", "(3 9)"],  # outside the domain
    ["pullback", REF, "across", "--tau", f"({'1' * 5000})"],  # too many digits
    ["check", "corpus/roundtrip/a\x00b.occ"],  # unopenable path
    ["classify", REF, "five", "-G", "\u0663", "-W", "0"],  # not an ASCII digit
]


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


def sweep() -> None:
    os.chdir(ROOT)  # the file arguments, and so the output, are relative paths
    for path in sorted((ROOT / "corpus" / "roundtrip").glob("*.occ")):
        for argv in calls(path):
            run(argv)
            run(argv + ["--json"])
        json_round_trip(path)
    for path in sorted((ROOT / "corpus" / "malformed").glob("*.occ")):
        run(["check", str(path.relative_to(ROOT))])
    for argv in ERRORS:
        run(argv)


if __name__ == "__main__":
    sweep()
