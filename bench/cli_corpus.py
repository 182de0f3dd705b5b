"""Workload ``cli_corpus``: ``occob.cli.main`` in-process on the corpus.

Every applicable subcommand runs on every ``corpus/roundtrip/*.occ``:
``check``; per cobordism ``invariants``, ``invariants --json``, ``iso A A``
and ``tensor A A``; ``sigma`` and ``stabilize -k 3`` where the target is
one circle; ``compose A B`` where the interfaces match; ``swap`` on the
first two objects; ``classify -G 2 -W 2`` on every object that has a
realizer.  ``check`` also runs on every ``corpus/malformed/*.occ``, which
must exit 2 with a line and column.  The seed orders the calls.

Expected answers come from ``read_doc``, a reader for the canonical text
layout the corpus and the CLI's document output use, written here and
sharing no code with ``occob.dsl``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from occob.calculus import (
    boundary_permutation,
    compose,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import enumerate_classes, is_isomorphic
from occob.cli import main
from occob.dsl import CobordismDef, Document, parse, serialize
from occob.surfaces import invariant_summary

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
STABILIZE_K = 3
MAX_GENUS = MAX_WINDOWS = 2


# ---------------------------------------------------------------------------
# an independent reader of canonical documents


@dataclass
class Obj:
    entries: list  # "O" or (left, right)
    cycles: list[list[int]] | None  # None: no sigma clause, the identity

    @property
    def intervals(self) -> list[int]:
        return [i for i, e in enumerate(self.entries, 1) if e != "O"]

    def sigma_cycles(self) -> list[list[int]]:
        return self.cycles if self.cycles is not None else [[i] for i in self.intervals]

    @property
    def c_number(self) -> int:
        return self.entries.count("O") + len(self.sigma_cycles()) + 1

    def feasible(self) -> bool:
        """Every interval leaves on the brane its image is entered on."""
        for cyc in self.sigma_cycles():
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                if self.entries[x - 1][0] != self.entries[y - 1][1]:
                    return False
        return True


@dataclass
class Cob:
    source: str
    target: str
    components: list[tuple[int, list[str]]] = field(default_factory=list)

    @property
    def euler(self) -> int:
        return sum(2 - 2 * g - len(lines) for g, lines in self.components)

    @property
    def genus(self) -> int:
        return sum(g for g, _ in self.components)


@dataclass
class Doc:
    branes: list[str]
    objects: dict[str, Obj]
    cobordisms: dict[str, Cob]

    def windows(self, lines: list[str]) -> dict[str, int]:
        counts = dict.fromkeys(self.branes, 0)
        for line in lines:
            if line.startswith("window"):
                counts[line[7:] or "*"] += 1
        return counts


_OBJECT = re.compile(r"object (\w+) = \[(.*)\]( sigma .*)?;")
_COBORDISM = re.compile(r"cobordism (\w+) : (\w+) -> (\w+) \{")


def read_doc(text: str) -> Doc:
    branes, objects, cobordisms = ["*"], {}, {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("branes "):
            branes = line[7:-1].split(", ")
        elif m := _OBJECT.fullmatch(line):
            entries = [
                "O" if e == "O" else tuple(e[2:-1].split(","))
                for e in re.findall(r"O|I\([^)]*\)", m[2])
            ]
            cycles = None
            if m[3]:
                cycles = [list(map(int, c.split()))
                          for c in re.findall(r"\(([\d ]+)\)", m[3])]
            objects[m[1]] = Obj(entries, cycles)
        elif m := _COBORDISM.fullmatch(line):
            current = cobordisms[m[1]] = Cob(m[2], m[3])
        elif line.startswith("genus "):
            current.components.append((int(line[6:-1]), []))
        elif line.endswith(";"):
            current.components[-1][1].append(line[:-1])
    return Doc(branes, objects, cobordisms)


def _ref_indices(mixed: str) -> list[int]:
    """Interval indices of a ``mixed [...]`` line, in order."""
    return [int(part.split()[1]) for part in mixed[7:-1].split(", ")
            if not part.startswith("arc")]


def _cycle_string(mapping: dict[int, int]) -> str:
    if all(k == v for k, v in mapping.items()):
        return "id"
    seen, out = set(), []
    for start in sorted(mapping):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = mapping[x]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out)


def _fmt_windows(counts: dict[str, int]) -> str:
    return "{" + ", ".join(f"{b}:{n}" for b, n in sorted(counts.items())) + "}"


# ---------------------------------------------------------------------------
# expected answers


def _total_windows(doc: Doc, cob: Cob) -> dict[str, int]:
    total = dict.fromkeys(doc.branes, 0)
    for _, bl in cob.components:
        for b, n in doc.windows(bl).items():
            total[b] += n
    return total


def _keeps_outgoing(cob: Cob) -> bool:
    """Every component has an outgoing circle or outgoing interval."""
    return all(
        any(line.startswith("out ") or (line.startswith("mixed") and "out " in line)
            for line in bl)
        for _, bl in cob.components
    )


def _expect_invariants(doc: Doc, name: str) -> str:
    cob = doc.cobordisms[name]
    lines = [
        f"component {i}: genus={g} windows={_fmt_windows(doc.windows(bl))} "
        f"euler={2 - 2 * g - len(bl)}"
        for i, (g, bl) in enumerate(cob.components, 1)
    ]
    lines += [
        f"total: components={len(cob.components)} genus={cob.genus} "
        f"windows={_fmt_windows(_total_windows(doc, cob))} euler={cob.euler}",
        f"c={doc.objects[cob.source].c_number}",
        f"b={'true' if _keeps_outgoing(cob) else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _component_key(component: dict) -> str:
    return json.dumps(component, sort_keys=True)


def _expect_invariants_json(doc: Doc, name: str) -> dict:
    """The payload, with components in ``_component_key`` order."""
    cob = doc.cobordisms[name]
    comps = []
    for g, bl in cob.components:
        kinds: dict[str, int] = {}
        for line in bl:
            kinds[line.split()[0]] = kinds.get(line.split()[0], 0) + 1
        windows = {b: n for b, n in doc.windows(bl).items() if n}
        comps.append({"genus": g, "windows": windows, "boundary": kinds,
                      "euler": 2 - 2 * g - len(bl)})
    return {
        "format": 1,
        "name": name,
        "components": sorted(comps, key=_component_key),
        "total": {"components": len(cob.components), "genus": cob.genus,
                  "windows": _total_windows(doc, cob), "euler": cob.euler},
        "c_number": doc.objects[cob.source].c_number,
        "b_subcategory": _keeps_outgoing(cob),
    }


def _expect_sigma(cob: Cob) -> str:
    mapping = {}
    for _, bl in cob.components:
        for line in bl:
            if line.startswith("mixed"):
                refs = _ref_indices(line)
                mapping.update(zip(refs, refs[1:] + refs[:1]))
    return _cycle_string(mapping) + "\n"


def _expect_classify(doc: Doc, obj: Obj) -> str:
    branes = sorted(doc.branes)
    lines = [" ".join(["g"] + [f"w_{b}" for b in branes] + ["c", "b_flag"])]
    for g in range(MAX_GENUS + 1):
        for w in itertools.product(range(MAX_WINDOWS + 1), repeat=len(branes)):
            lines.append(" ".join(map(str, (g, *w, obj.c_number, "true"))))
    return "\n".join(lines) + "\n"


def _result(out: str) -> Cob | None:
    return read_doc(out).cobordisms.get("result")


# ---------------------------------------------------------------------------
# calls


@dataclass
class Call:
    argv: list[str]
    text: str  # the input document
    exit_code: int
    check: object  # (stdout, stderr) -> error message or None
    replay: object  # (runner, parsed Document) -> None: the library work


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _emitted(r, cob):
    """Serialize ``cob`` as the CLI emits a result document."""
    doc = Document(branes=cob.source.branes)
    doc.objects["result_src"] = cob.source
    doc.objects["result_tgt"] = cob.target
    doc.cobordisms["result"] = CobordismDef("result_src", "result_tgt", cob)
    r.inner("dsl.serialize", serialize, doc)


def _same(expected):
    return lambda out, err: None if out == expected else f"stdout {out!r} != {expected!r}"


def calls_for(path: Path) -> list[Call]:
    text = path.read_text(encoding="utf-8")
    doc = read_doc(text)
    f = str(path)
    calls = []

    def cob_of(parsed, name):
        return parsed.cobordisms[name].cobordism

    def check_roundtrip(out, err):
        want = f"ok: {len(doc.objects)} objects, {len(doc.cobordisms)} cobordisms\n"
        if out != want:
            return f"stdout {out!r} != {want!r}"
        if serialize(parse(text)) != text:
            return f"{path.name} does not round-trip byte for byte"
        return None

    calls.append(Call(["check", f], text, 0, check_roundtrip, lambda r, p: None))
    for name, cob in doc.cobordisms.items():
        calls.append(Call(
            ["invariants", f, name], text, 0, _same(_expect_invariants(doc, name)),
            lambda r, p, n=name: r.inner("surfaces.invariant_summary",
                                         invariant_summary, cob_of(p, n)),
        ))
        want_json = _expect_invariants_json(doc, name)

        def check_json(out, err, want=want_json):
            got = json.loads(out)
            got["components"].sort(key=_component_key)
            return None if got == want else f"invariants --json {got} != {want}"

        calls.append(Call(
            ["invariants", "--json", f, name], text, 0, check_json,
            lambda r, p, n=name: r.inner("surfaces.invariant_summary",
                                         invariant_summary, cob_of(p, n)),
        ))
        calls.append(Call(
            ["iso", f, name, name], text, 0, _same("isomorphic\n"),
            lambda r, p, n=name: r.inner("classify.is_isomorphic", is_isomorphic,
                                         cob_of(p, n), cob_of(p, n)),
        ))

        def check_tensor(out, err, c=cob):
            t = _result(out)
            ok = t and t.euler == 2 * c.euler and len(t.components) == 2 * len(c.components)
            return None if ok else "tensor A A: euler or components do not double"

        calls.append(Call(
            ["tensor", f, name, name], text, 0, check_tensor,
            lambda r, p, n=name: _emitted(r, r.inner(
                "calculus.tensor", tensor, cob_of(p, n), cob_of(p, n))),
        ))
        if doc.objects[cob.target].entries == ["O"]:
            calls.append(Call(
                ["sigma", f, name], text, 0, _same(_expect_sigma(cob)),
                lambda r, p, n=name: r.inner("surfaces.boundary_permutation",
                                             boundary_permutation, cob_of(p, n)),
            ))

            def check_stabilize(out, err, c=cob):
                s = _result(out)
                ok = (
                    s is not None
                    and len(s.components) == len(c.components)
                    and s.genus == c.genus + STABILIZE_K
                    and all(
                        sum(doc.windows(bl)[b] for _, bl in s.components)
                        == sum(doc.windows(bl)[b] for _, bl in c.components)
                        + STABILIZE_K
                        for b in doc.branes
                    )
                )
                return None if ok else "stabilize -k 3: not +3 genus and +3 windows per brane"

            def replay_stabilize(r, p, n=name):
                c = cob_of(p, n)
                for _ in range(STABILIZE_K):
                    c = r.inner("calculus.stabilize", stabilize, c)
                _emitted(r, c)

            calls.append(Call(
                ["stabilize", "-k", str(STABILIZE_K), f, name], text, 0,
                check_stabilize, replay_stabilize,
            ))
        for first_name, first in doc.cobordisms.items():
            middle = doc.objects[first.target]
            if middle != doc.objects[cob.source]:
                continue

            def check_compose(out, err, a=cob, b=first, mid=middle):
                c = _result(out)
                ok = c is not None and c.euler == a.euler + b.euler - len(mid.intervals)
                return None if ok else "compose: euler characteristic not conserved"

            calls.append(Call(
                ["compose", f, name, first_name], text, 0, check_compose,
                lambda r, p, a=name, b=first_name: _emitted(r, r.inner(
                    "calculus.compose", compose, cob_of(p, a), cob_of(p, b))),
            ))
    names = list(doc.objects)
    if names:
        n, m = (names + names)[:2]

        def check_swap(out, err, a=doc.objects[n], b=doc.objects[m]):
            s = _result(out)
            ok = (
                s is not None
                and len(s.components) == len(a.entries) + len(b.entries)
                and s.genus == 0
                and s.euler == len(a.intervals) + len(b.intervals)
            )
            return None if ok else "swap: not one genus-0 piece per entry"

        calls.append(Call(
            ["swap", f, n, m], text, 0, check_swap,
            lambda r, p, a=n, b=m: _emitted(r, r.inner(
                "calculus.swap_cobordism", swap_cobordism, p.objects[a], p.objects[b])),
        ))
    for name, obj in doc.objects.items():
        if obj.feasible():
            calls.append(Call(
                ["classify", "-G", str(MAX_GENUS), "-W", str(MAX_WINDOWS), f, name],
                text, 0, _same(_expect_classify(doc, obj)),
                lambda r, p, n=name: r.inner(
                    "classify.enumerate_classes", enumerate_classes, p.objects[n],
                    MAX_GENUS, MAX_WINDOWS),
            ))
    return calls


def malformed_call(path: Path) -> Call:
    def check(out, err):
        ok = "line" in err and "column" in err
        return None if ok else f"{path.name}: no line/column diagnostic in {err!r}"

    return Call(["check", str(path)], path.read_text(encoding="utf-8"), 2, check,
                lambda r, p: None)


def _item(call: Call):
    def item(r):
        code, out, err = r.op("cli.main", _run_main, call.argv)
        if code != call.exit_code:
            r.counters["cli.exit_mismatch"] += 1
            r.check(False, f"{' '.join(call.argv)}: exit {code}, expected "
                           f"{call.exit_code}: {err.strip()}")
            return
        r.check((message := call.check(out, err)) is None,
                f"{' '.join(call.argv)}: {message}")
        if r.traced:
            with r.replay():
                parsed = r.inner("dsl.parse", parse, call.text)
                if parsed is not None:
                    call.replay(r, parsed)

    return item


def setup(seed: int, traced: bool, tiny: bool = False):
    roundtrip = sorted((CORPUS / "roundtrip").glob("*.occ"))
    malformed = sorted((CORPUS / "malformed").glob("*.occ"))
    if tiny:
        roundtrip, malformed = roundtrip[:4], malformed[:2]
    calls = [c for path in roundtrip for c in calls_for(path)]
    calls += [malformed_call(path) for path in malformed]
    random.Random(seed).shuffle(calls)
    items = [_item(c) for c in calls]
    return items, items[:4]
