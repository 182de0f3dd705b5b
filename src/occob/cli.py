"""Command line front end.

Exit codes: 0 success, 1 domain failure (invalid data, mismatched
interfaces, a false query), 2 usage or syntax errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from occob import calculus, classify
from occob.dsl import (
    CobordismDef,
    Document,
    parse,
    parse_cycles,
    serialize,
    to_json,
)
from occob.errors import DslSyntaxError, DslValidationError, OcError
from occob.objects import GeneralObject, Permutation
from occob.surfaces import (
    Cobordism,
    Window,
    euler_char,
    euler_total,
    in_b_subcategory,
    invariant_summary,
    window_vector,
)

__all__ = ["main", "run"]


def _load(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}") from exc
    return parse(text)


class _Usage(Exception):
    pass


def _get_cobordism(doc: Document, name: str) -> Cobordism:
    if name not in doc.cobordisms:
        raise OcError(f"no cobordism named {name!r} in the file")
    return doc.cobordisms[name].cobordism


def _get_object(doc: Document, name: str) -> GeneralObject:
    if name not in doc.objects:
        raise OcError(f"no object named {name!r} in the file")
    return doc.objects[name]


def _result_doc(name: str, cob: Cobordism) -> Document:
    doc = Document(branes=cob.source.branes)
    doc.objects[f"{name}_src"] = cob.source
    doc.objects[f"{name}_tgt"] = cob.target
    doc.cobordisms[name] = CobordismDef(f"{name}_src", f"{name}_tgt", cob)
    return doc


def _emit_doc(doc: Document, as_json: bool) -> int:
    sys.stdout.write(to_json(doc) if as_json else serialize(doc))
    return 0


def _fmt_windows(counts: dict[str, int]) -> str:
    return "{" + ", ".join(f"{b}:{n}" for b, n in sorted(counts.items())) + "}"


def _parse_tau(text: str, target: GeneralObject) -> Permutation:
    cycles = parse_cycles(text)
    return Permutation.from_cycles(cycles, target.interval_indices)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    doc = _load(args.file)
    print(f"ok: {len(doc.objects)} objects, {len(doc.cobordisms)} cobordisms")
    return 0


def _cmd_compose(args) -> int:
    doc = _load(args.file)
    second = _get_cobordism(doc, args.a)
    first = _get_cobordism(doc, args.b)
    return _emit_doc(_result_doc(args.name, calculus.compose(second, first)), args.json)


def _cmd_tensor(args) -> int:
    doc = _load(args.file)
    a = _get_cobordism(doc, args.a)
    b = _get_cobordism(doc, args.b)
    return _emit_doc(_result_doc(args.name, calculus.tensor(a, b)), args.json)


def _cmd_swap(args) -> int:
    doc = _load(args.file)
    a = _get_object(doc, args.n)
    b = _get_object(doc, args.m)
    return _emit_doc(_result_doc(args.name, calculus.swap_cobordism(a, b)), args.json)


def _cmd_stabilize(args) -> int:
    doc = _load(args.file)
    cob = _get_cobordism(doc, args.a)
    for _ in range(args.k):
        cob = calculus.stabilize(cob)
    return _emit_doc(_result_doc(args.name, cob), args.json)


def _cmd_invariants(args) -> int:
    doc = _load(args.file)
    cob = _get_cobordism(doc, args.a)
    summary = invariant_summary(cob)
    c_number = cob.source.c_number
    b_flag = in_b_subcategory(cob)
    if args.json:
        payload = {
            "format": 1,
            "name": args.a,
            "components": [
                {
                    "genus": comp.genus,
                    "windows": dict(comp.windows),
                    "boundary": dict(comp.boundary_kinds),
                    "euler": 2
                    - 2 * comp.genus
                    - sum(n for _, n in comp.boundary_kinds),
                }
                for comp in summary.components
            ],
            "total": {
                "components": summary.component_count,
                "genus": summary.genus_total,
                "windows": dict(summary.window_vector),
                "euler": euler_total(cob),
            },
            "c_number": c_number,
            "b_subcategory": b_flag,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for i, comp in enumerate(cob.components, 1):
        wv = {
            b: sum(
                1 for circ in comp.boundary if isinstance(circ, Window) and circ.brane == b
            )
            for b in sorted(cob.source.branes)
        }
        print(
            f"component {i}: genus={comp.genus} "
            f"windows={_fmt_windows(wv)} euler={euler_char(comp)}"
        )
    print(
        f"total: components={summary.component_count} "
        f"genus={summary.genus_total} windows={_fmt_windows(window_vector(cob))} "
        f"euler={euler_total(cob)}"
    )
    print(f"c={c_number}")
    print(f"b={'true' if b_flag else 'false'}")
    return 0


def _permutation_payload(p: Permutation, as_json: bool) -> int:
    if as_json:
        payload = {
            "format": 1,
            "permutation": {
                "cycles": [list(c) for c in p.cycles()],
                "text": p.cycle_string(),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(p.cycle_string())
    return 0


def _cmd_sigma(args) -> int:
    doc = _load(args.file)
    cob = _get_cobordism(doc, args.a)
    try:
        sigma = calculus.boundary_permutation(cob)
    except ValueError as exc:
        raise OcError(str(exc)) from exc
    return _permutation_payload(sigma, args.json)


def _cmd_pullback(args) -> int:
    doc = _load(args.file)
    cob = _get_cobordism(doc, args.a)
    try:
        tau = _parse_tau(args.tau, cob.target)
        result = calculus.pullback(cob, tau)
    except ValueError as exc:
        raise OcError(str(exc)) from exc
    return _permutation_payload(result, args.json)


def _cmd_iso(args) -> int:
    doc = _load(args.file)
    a = _get_cobordism(doc, args.a)
    b = _get_cobordism(doc, args.b)
    try:
        same = classify.is_isomorphic(a, b)
    except ValueError as exc:
        raise OcError(str(exc)) from exc
    if args.json:
        print(json.dumps({"format": 1, "isomorphic": same}, sort_keys=True))
    else:
        print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def _cmd_classify(args) -> int:
    doc = _load(args.file)
    obj = _get_object(doc, args.object)
    try:
        rows = classify.strata_table(obj, args.G, args.W)
    except (ValueError, OcError) as exc:
        raise OcError(str(exc)) from exc
    branes = sorted(obj.branes)
    header = ["g"] + [f"w_{b}" for b in branes] + ["c", "b_flag"]
    table = [
        [row.genus]
        + [dict(row.windows)[b] for b in branes]
        + [row.c_number, "true" if row.in_b else "false"]
        for row in rows
    ]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table)
    if args.json:
        payload = {
            "format": 1,
            "branes": branes,
            "rows": [
                {
                    "g": row.genus,
                    "w": dict(row.windows),
                    "c": row.c_number,
                    "b_flag": row.in_b,
                }
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(" ".join(header))
        for line in table:
            print(" ".join(str(x) for x in line))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _count_arg(value: str) -> int:
    if not value.isdecimal():
        raise argparse.ArgumentTypeError(f"{value!r} is not a non-negative integer")
    return int(value)


def _name_arg(value: str) -> str:
    if not value.isidentifier():
        raise argparse.ArgumentTypeError(f"{value!r} is not a usable name")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occob",
        description="Calculus of open-closed cobordisms with brane labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("file", metavar="FILE", help="input document")
        return p

    cmd("check", _cmd_check, "parse and validate a document")

    p = cmd("compose", _cmd_compose, "glue B then A and emit the result")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("tensor", _cmd_tensor, "place A beside B and emit the result")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("swap", _cmd_swap, "emit the symmetry between two objects")
    p.add_argument("n", metavar="N")
    p.add_argument("m", metavar="M")

    p = cmd("invariants", _cmd_invariants, "per-component and total invariants")
    p.add_argument("a", metavar="A")

    p = cmd("sigma", _cmd_sigma, "boundary permutation of a cobordism to one circle")
    p.add_argument("a", metavar="A")

    p = cmd("pullback", _cmd_pullback, "pull a target permutation back along A")
    p.add_argument("a", metavar="A")
    p.add_argument("--tau", required=True, help="cycles on the target intervals")

    p = cmd("iso", _cmd_iso, "exit 0 iff A and B are isomorphic")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")

    p = cmd("classify", _cmd_classify, "enumerate classes over an object")
    p.add_argument("object", metavar="OBJ")
    p.add_argument("-G", type=int, required=True, help="largest genus")
    p.add_argument("-W", type=int, required=True, help="largest window count per brane")
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")

    p = cmd("stabilize", _cmd_stabilize, "compose with the stabilizer k times")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DslSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except DslValidationError as exc:
        print(f"invalid document: {exc}", file=sys.stderr)
        return 1
    except (OcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:  # console script entry point
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
