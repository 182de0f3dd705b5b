"""The earlier argument parser of ``occob.cli``, wired by hand.

It added the operands and options of each subcommand one
``add_argument`` call at a time, and picked the commands that take
``-o`` by the last word of the subparser's ``prog``.  ``occob.cli`` now
builds its parser from one ``cmd`` row per subcommand; both must print
the same help, parse every accepted argument list to the same values and
reject the same argument lists with the same message.  This is the
reference it is checked against.  The handlers are left out: the earlier
parser stored one per subcommand as ``func``, and nothing here calls it.
"""

from __future__ import annotations

import argparse

from occob.cli import _count_arg, _name_arg


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occob",
        description="Calculus of open-closed cobordisms with brane labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", metavar="FILE", help="input document")
        return p

    cmd("check", "parse and validate a document")

    p = cmd("compose", "glue B then A and emit the result")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("tensor", "place A beside B and emit the result")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("swap", "emit the symmetry between two objects")
    p.add_argument("n", metavar="N")
    p.add_argument("m", metavar="M")

    p = cmd("invariants", "per-component and total invariants")
    p.add_argument("a", metavar="A")

    p = cmd("sigma", "boundary permutation of a cobordism to one circle")
    p.add_argument("a", metavar="A")

    p = cmd("pullback", "pull a target permutation back along A")
    p.add_argument("a", metavar="A")
    p.add_argument("--tau", required=True, help="cycles on the target intervals")

    p = cmd("iso", "exit 0 iff A and B are isomorphic")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("classify", "enumerate classes over an object")
    p.add_argument("object", metavar="OBJ")
    p.add_argument("-G", type=_count_arg, required=True, help="largest genus (>= 0)")
    p.add_argument("-W", type=_count_arg, required=True, help="most windows per brane")
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")

    p = cmd("stabilize", "compose with the stabilizer k times")
    p.add_argument("a", metavar="A")
    p.add_argument("-k", type=_count_arg, default=1, help="how many times (k >= 0)")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if p.prog.split()[-1] in ("compose", "tensor", "swap", "stabilize"):
            p.add_argument(
                "-o",
                "--output-name",
                dest="name",
                type=_name_arg,
                default="result",
                help="name for the emitted cobordism",
            )
    return parser
