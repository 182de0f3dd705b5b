"""The parser of ``occob.cli`` against the earlier one in ``reference_cli``.

Both must print the same ``--help`` for ``occob`` and for each
subcommand, parse each accepted argument list to the same values (the
handler the new parser stores aside) and reject each refused list with
the same exit status and message.  Comparing with the reference rather
than with fixed text keeps the test valid on every Python whose argparse
words its help and errors differently.

Each list goes through ``_parse_argv``, which ``main`` reads its argv
with: a list that starts with a subcommand is read by that subcommand's
parser alone.  So each outcome must also equal the whole parser's, the
``command`` value included.
"""

from __future__ import annotations

import pytest

from occob.cli import _build_parser, _parse_argv
from reference_cli import reference_parser

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
EMITTING = {"compose", "tensor", "swap", "stabilize"}
BASE = {
    "check": ["check", "f.occ"],
    "compose": ["compose", "f.occ", "x", "y"],
    "tensor": ["tensor", "f.occ", "x", "y"],
    "swap": ["swap", "f.occ", "s", "t"],
    "invariants": ["invariants", "f.occ", "x"],
    "sigma": ["sigma", "f.occ", "x"],
    "pullback": ["pullback", "f.occ", "x", "--tau", "(1 2)"],
    "iso": ["iso", "f.occ", "x", "y"],
    "classify": ["classify", "f.occ", "s", "-G", "2", "-W", "1"],
    "stabilize": ["stabilize", "f.occ", "x"],
}


def _accepted():
    for command, argv in BASE.items():
        extras = [[], ["--json"]]
        if command in EMITTING:
            extras += [["-o", "glued"], ["--json", "--output-name", "glued"]]
        if command == "stabilize":
            extras += [["-k", "3"], ["-k", "0", "--json", "-o", "glued"]]
        if command == "classify":
            extras += [["--csv", "t.csv"], ["--json", "--csv", "t.csv"]]
        for extra in extras:
            yield argv + extra
        yield [command, "--json", *argv[1:]]
    yield ["check", "f.occ", "--js"]  # an abbreviated option
    yield ["check", "--", "f.occ"]
    yield ["compose", "f.occ", "--", "x", "y"]


REJECTED = [
    [],
    ["nope", "f.occ"],
    ["compose", "f.occ", "x"],  # a missing operand
    ["swap", "f.occ"],
    ["classify", "f.occ", "s", "-G", "\u0663", "-W", "0"],  # not an ASCII digit
    ["classify", "f.occ", "s", "-G", "1"],
    ["compose", "f.occ", "x", "y", "-o", "a b"],  # not a usable name
    ["stabilize", "f.occ", "x", "-o", "object"],
    ["stabilize", "f.occ", "x", "-k", "-1"],
    ["pullback", "f.occ", "x"],  # no --tau
    ["sigma", "f.occ", "x", "-o", "glued"],  # -o only on emitting commands
    ["check", "f.occ", "-k", "2"],
    ["check", "f.occ", "extra"],  # a leftover operand
    ["--json", "check", "f.occ"],  # an option before the command
    ["CHECK", "f.occ"],
    ["chec", "f.occ"],
]
HELP = [["--help"], ["--he"], ["check", "f.occ", "-h"]]
HELP += [[c, "--help"] for c in COMMANDS]


def _outcome(parse_args, argv, capsys):
    """Exit status, parsed values, standard output and standard error."""
    try:
        values = vars(parse_args(argv))
    except SystemExit as exc:
        return exc.code, None, *capsys.readouterr()
    values.pop("handler", None)
    return None, values, *capsys.readouterr()


def _read(argv, capsys):
    """The outcome of ``main``'s reading of ``argv``, which must be the
    whole parser's."""
    new = _outcome(_parse_argv, argv, capsys)
    assert new == _outcome(_build_parser().parse_args, argv, capsys)
    return new


def _reference(argv, capsys):
    return _outcome(reference_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_same_help(argv, capsys):
    new = _read(argv, capsys)
    assert new[0] == 0 and new[2]
    assert new == _reference(argv, capsys)


def test_same_top_level_format_help():
    assert _build_parser().format_help() == reference_parser().format_help()


@pytest.mark.parametrize("argv", list(_accepted()), ids=" ".join)
def test_same_values_on_accepted_arguments(argv, capsys):
    new = _read(argv, capsys)
    assert new[0] is None and new[1]["command"] == argv[0]
    assert new == _reference(argv, capsys)


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_same_refusal_on_rejected_arguments(argv, capsys):
    new = _read(argv, capsys)
    assert new[0] == 2 and new[3]
    assert new == _reference(argv, capsys)
