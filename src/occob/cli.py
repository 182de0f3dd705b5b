"""Command line front end.

Exit codes: 0 success, 1 domain failure (invalid data, mismatched
interfaces, a false query), 2 usage or syntax errors.  The ``occob``
command (``run``) also exits 1, with no traceback, when its standard
output is closed before all of it is written.

Each subcommand is one ``cmd`` row in ``_build_parser``: name, handler,
help, operands and options.  ``main`` reads an argv that starts with a
subcommand with that subcommand's own parser, the one the whole parser
would hand the rest to; any other argv (no subcommand first, or arguments
left over) goes through the whole parser, which prints the help and usage
errors.  It then loads FILE, looks the operands up in it and calls the
handler with the arguments, document and values.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from occob import calculus, classify
from occob.dsl import (
    CobordismDef,
    Document,
    _decimal,
    is_name,
    parse,
    parse_cycles,
    serialize,
    to_json,
)
from occob.errors import DslSyntaxError, DslValidationError, OcError
from occob.objects import GeneralObject, Permutation
from occob.surfaces import Cobordism, _summarize, component_summary

__all__ = ["main", "run"]


def _load(path: str) -> Document:
    if "\0" in path:  # open() would raise a ValueError
        raise _Usage(f"cannot read {path}: embedded null byte")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        message = f"not valid UTF-8 at byte offset {exc.start}"
        raise _Usage(f"cannot read {path}: {message}") from exc
    return parse(text)


class _Usage(Exception):
    pass


def _lookup(doc: Document, metavar: str, name: str) -> Cobordism | GeneralObject:
    """The cobordism (operand A or B) or object (N, M or OBJ) named ``name``."""
    if metavar in ("A", "B"):
        if name in doc.cobordisms:
            return doc.cobordisms[name].cobordism
        raise OcError(f"no cobordism named {name!r} in the file")
    if name in doc.objects:
        return doc.objects[name]
    raise OcError(f"no object named {name!r} in the file")


def _emit_doc(args, cob: Cobordism) -> int:
    """Print ``cob`` as a document named by ``-o``, as text or JSON."""
    name = args.name
    doc = Document(branes=cob.source.branes)
    doc.objects[f"{name}_src"] = cob.source
    doc.objects[f"{name}_tgt"] = cob.target
    doc.cobordisms[name] = CobordismDef(f"{name}_src", f"{name}_tgt", cob)
    text = to_json(doc) if args.json else serialize(doc)
    # Both writers end a nonempty document with a line end, which print
    # writes as a write of its own, as in ``_cmd_classify``.
    print(text[:-1])
    return 0


def _fmt_windows(counts: dict[str, int]) -> str:
    return "{" + ", ".join(f"{b}:{n}" for b, n in sorted(counts.items())) + "}"


def _dumps(v, indent: str = "\n") -> str:
    """``v``, made of dicts with ``str`` keys, lists, strings, ints and
    bools, as ``json.dumps(v, indent=2, sort_keys=True)`` writes it: json
    takes its pure-Python encoder whenever ``indent`` is set.  ``indent``
    is the line break and blanks that start ``v``'s own line."""
    if type(v) is dict:
        inner = indent + "  "
        items = [f"{_quote(k)}: {_dumps(v[k], inner)}" for k in sorted(v)]
        brackets = "{}"
    elif type(v) is list:
        inner = indent + "  "
        items = [_dumps(x, inner) for x in v]
        brackets = "[]"
    elif type(v) is str:
        return _quote(v)
    elif type(v) is bool:
        return "true" if v else "false"
    else:
        return int.__repr__(v)
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, doc) -> int:
    print(f"ok: {len(doc.objects)} objects, {len(doc.cobordisms)} cobordisms")
    return 0


def _cmd_compose(args, _doc, second, first) -> int:
    return _emit_doc(args, calculus.compose(second, first))


def _cmd_tensor(args, _doc, a, b) -> int:
    return _emit_doc(args, calculus.tensor(a, b))


def _cmd_swap(args, _doc, n, m) -> int:
    return _emit_doc(args, calculus.swap_cobordism(n, m))


def _cmd_stabilize(args, _doc, cob) -> int:
    # Each step adds a window, so after this many steps the result has more
    # windows than either writer takes, and is refused as after all k steps.
    for _ in range(min(args.k, classify._MAX_KEYED_WINDOWS + 1)):
        cob = calculus.stabilize(cob)
    return _emit_doc(args, cob)


def _cmd_invariants(args, _doc, cob) -> int:
    comps = list(map(component_summary, cob.components))
    summary = _summarize(cob, comps)
    # Both layouts print these numbers: one too long to write in decimal
    # raises the writers' InvalidValueError in either.
    for comp in comps:
        _decimal(comp.euler)
        _decimal(comp.genus)
    _decimal(summary.euler)
    _decimal(summary.genus_total)
    if args.json:
        payload = {
            "format": 1,
            "name": args.a,
            "components": [
                {
                    "genus": comp.genus,
                    "windows": dict(comp.windows),
                    "boundary": dict(comp.boundary_kinds),
                    "euler": comp.euler,
                }
                for comp in summary.components
            ],
            "total": {
                "components": summary.component_count,
                "genus": summary.genus_total,
                "windows": dict(summary.window_vector),
                "euler": summary.euler,
            },
            "c_number": cob.source.c_number,
            "b_subcategory": summary.b_subcategory,
        }
        print(_dumps(payload))
        return 0
    zeros = dict.fromkeys(cob.source.branes, 0)
    lines = [
        f"component {i}: genus={comp.genus} "
        f"windows={_fmt_windows(zeros | dict(comp.windows))} euler={comp.euler}"
        for i, comp in enumerate(comps, 1)
    ]
    lines.append(
        f"total: components={summary.component_count} "
        f"genus={summary.genus_total} "
        f"windows={_fmt_windows(dict(summary.window_vector))} euler={summary.euler}"
    )
    lines.append(f"c={cob.source.c_number}")
    lines.append(f"b={'true' if summary.b_subcategory else 'false'}")
    print("\n".join(lines))
    return 0


def _emit_permutation(args, p: Permutation) -> int:
    if args.json:
        payload = {
            "format": 1,
            "permutation": {
                "cycles": [list(c) for c in p.cycles()],
                "text": p.cycle_string(),
            },
        }
        print(_dumps(payload))
    else:
        print(p.cycle_string())
    return 0


def _cmd_sigma(args, _doc, cob) -> int:
    return _emit_permutation(args, calculus.boundary_permutation(cob))


def _cmd_pullback(args, _doc, cob) -> int:
    tau = Permutation.from_cycles(parse_cycles(args.tau), cob.target.interval_indices)
    return _emit_permutation(args, calculus.pullback(cob, tau))


def _cmd_iso(args, _doc, a, b) -> int:
    same = classify.is_isomorphic(a, b)
    if args.json:
        print(json.dumps({"format": 1, "isomorphic": same}, sort_keys=True))
    else:
        print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def _table(
    header: list[str], g_max: int, vectors: list, consts: tuple, sep: str, end: str
) -> str:
    """The classify table as lines joined by ``end``, cells by ``sep``: the
    ``header``, then for each genus up to ``g_max`` and each window count
    vector, the genus, the counts and ``consts``.  Each vector's cells are
    rendered once, and each genus's rows are joined in one C call."""
    cells = [sep.join(map(str, v)) for v in vectors]
    tail = sep + sep.join(consts)
    lines = [sep.join(header)]
    for g in range(g_max + 1):
        lines.append(f"{g}{sep}" + f"{tail}{end}{g}{sep}".join(cells) + tail)
    return end.join(lines)


def _cmd_classify(args, _doc, obj) -> int:
    c, in_b, vectors = classify._grid(obj, args.G, args.W)
    branes = sorted(obj.branes)
    header = ["g"] + [f"w_{b}" for b in branes] + ["c", "b_flag"]
    consts = (str(c), "true" if in_b else "false")
    # print writes the last line end as a write of its own: a long write
    # that a closed pipe cuts short returns without an error, and only the
    # write after it raises, so that ``run`` exits 1.
    if args.csv:
        if "\0" in args.csv:  # open() would raise a ValueError
            raise _Usage(f"cannot write {args.csv}: embedded null byte")
        # A brane label is a word or "*", so no CSV cell needs quoting.
        table = _table(header, args.G, vectors, consts, ",", "\r\n")
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                print(table, end="\r\n", file=fh)
        except OSError as exc:
            raise _Usage(f"cannot write {args.csv}: {exc.strerror}") from exc
    if args.json:
        windows = [dict(zip(branes, v)) for v in vectors]
        rows = [
            {"g": g, "w": w, "c": c, "b_flag": in_b}
            for g in range(args.G + 1)
            for w in windows
        ]
        print(_dumps({"format": 1, "branes": branes, "rows": rows}))
    else:
        print(_table(header, args.G, vectors, consts, " ", "\n"))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _count_arg(value: str) -> int:
    if not (value.isascii() and value.isdecimal()):
        raise argparse.ArgumentTypeError(f"{value!r} is not a non-negative integer")
    return int(value)


def _name_arg(value: str) -> str:
    if not is_name(value):
        raise argparse.ArgumentTypeError(f"{value!r} is not a usable name")
    return value


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occob",
        description="Calculus of open-closed cobordisms with brane labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, *operands, options=None, emits=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=(handler, operands))
        p.add_argument("file", metavar="FILE", help="input document")
        for dest, metavar in operands:
            p.add_argument(dest, metavar=metavar)
        for flag, kwargs in (options or {}).items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if emits:
            p.add_argument(
                "-o", "--output-name", dest="name", type=_name_arg, default="result",
                help="name for the emitted cobordism",
            )

    a, b, n, m, obj = ("a", "A"), ("b", "B"), ("n", "N"), ("m", "M"), ("object", "OBJ")
    cmd("check", _cmd_check, "parse and validate a document")
    cmd("compose", _cmd_compose, "glue B then A and emit the result", a, b, emits=True)
    cmd("tensor", _cmd_tensor, "place A beside B and emit the result", a, b, emits=True)
    cmd("swap", _cmd_swap, "emit the symmetry between two objects", n, m, emits=True)
    cmd("invariants", _cmd_invariants, "per-component and total invariants", a)
    cmd("sigma", _cmd_sigma, "boundary permutation of a cobordism to one circle", a)
    cmd(
        "pullback", _cmd_pullback, "pull a target permutation back along A", a,
        options={"--tau": dict(required=True, help="cycles on the target intervals")},
    )
    cmd("iso", _cmd_iso, "exit 0 iff A and B are isomorphic", a, b)
    cmd(
        "classify", _cmd_classify, "enumerate classes over an object", obj,
        options={
            "-G": dict(type=_count_arg, required=True, help="largest genus (>= 0)"),
            "-W": dict(type=_count_arg, required=True, help="most windows per brane"),
            "--csv": dict(metavar="PATH", help="also write the table as CSV"),
        },
    )
    cmd(
        "stabilize", _cmd_stabilize, "compose with the stabilizer k times", a,
        options={
            "-k": dict(type=_count_arg, default=1, help="how many times (k >= 0)"),
        },
        emits=True,
    )
    parser.commands = sub.choices  # name -> subcommand parser, for _parse_argv
    return parser


def _parse_argv(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` (by default ``sys.argv[1:]``) read as the whole parser reads
    it, by the subcommand's parser where that can be (see the module
    docstring)."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(argv)
    handler, operands = args.handler
    try:
        doc = _load(args.file)
        values = [_lookup(doc, m, getattr(args, d)) for d, m in operands]
        return handler(args, doc, *values)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except DslValidationError as exc:
        print(f"invalid document: {exc}", file=sys.stderr)
        return 1
    except OcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console script entry point
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # As the signal module's note on SIGPIPE does: the reader has gone,
        # so what is left to flush goes to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
