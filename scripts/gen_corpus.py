#!/usr/bin/env python3
"""Regenerate the checked-in corpus.

Writes exactly 50 well-formed documents to corpus/roundtrip/ and a set of
broken ones to corpus/malformed/.  Every roundtrip file is emitted through
the canonical serializer, so parsing it back and serializing again must
reproduce the file byte for byte.  Every malformed file must fail at the
syntax level (CLI exit code 2) with a line and column in the message.

Deterministic: fixed seeds, no timestamps.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from occob import calculus
from occob.dsl import CobordismDef, Document, parse, serialize
from occob.errors import DslSyntaxError
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_document
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    Mixed,
    in_ref,
    out_ref,
    validate,
)

ROOT = Path(__file__).resolve().parents[1]


def star_obj(*kinds: str, sigma: Permutation | None = None) -> GeneralObject:
    entries = [Circle() if k == "O" else Interval(STAR, STAR) for k in kinds]
    return GeneralObject(frozenset({STAR}), entries, sigma)


def ref_interfaces() -> Document:
    """A five-component cobordism between interleaved interval/circle lists."""
    src = star_obj("I", "I", "I", "O", "I")
    tgt = star_obj("O", "O", "I", "I", "O")
    comps = (
        Component(0, (Mixed((in_ref(1), Arc(STAR), out_ref(3), Arc(STAR))),)),
        Component(1, (Mixed((in_ref(2), Arc(STAR), in_ref(3), Arc(STAR))),)),
        Component(0, (Mixed((in_ref(5), Arc(STAR), out_ref(4), Arc(STAR))),)),
        Component(0, (Closed(IN, 4), Closed(OUT, 1))),
        Component(2, (Closed(OUT, 2), Closed(OUT, 5)), [(STAR, 1)]),
    )
    cob = Cobordism(src, tgt, comps)
    doc = Document(branes=frozenset({STAR}))
    doc.objects["five"] = src
    doc.objects["mixed_list"] = tgt
    doc.cobordisms["across"] = CobordismDef("five", "mixed_list", cob)
    return doc


def ref_sigma_object() -> Document:
    """The object (circle, three intervals) with sigma (2 3)(4), plus its
    minimal connected realizer down to a single circle."""
    sigma = Permutation.from_cycles([[2, 3], [4]], {2, 3, 4})
    obj = star_obj("O", "I", "I", "I", sigma=sigma)
    doc = Document(branes=frozenset({STAR}))
    doc.objects["n"] = obj
    doc.objects["circle"] = star_obj("O")
    doc.cobordisms["realizer"] = CobordismDef(
        "n", "circle", calculus.realize(obj)
    )
    return doc


def ref_windows() -> Document:
    """A connected cobordism to one circle whose free boundary has three
    circle components."""
    sigma = Permutation.from_cycles([[1, 2]], {1, 2})
    obj = star_obj("I", "I", sigma=sigma)
    base = calculus.realize(obj)
    comp = base.components[0]
    decorated = Component(comp.genus, comp.circles, [(STAR, 3)])
    doc = Document(branes=frozenset({STAR}))
    doc.objects["pair"] = obj
    doc.objects["circle"] = star_obj("O")
    doc.cobordisms["threewindows"] = CobordismDef(
        "pair", "circle", Cobordism(base.source, base.target, (decorated,))
    )
    return doc


def ref_stabilizer() -> Document:
    doc = Document(branes=frozenset({STAR}))
    T = calculus.make_T(frozenset({STAR}))
    doc.objects["circle"] = T.source
    doc.cobordisms["T"] = CobordismDef("circle", "circle", T)
    return doc


def ref_stabilizer_branes() -> Document:
    branes = frozenset({"a", "b"})
    doc = Document(branes=branes)
    T = calculus.make_T(branes)
    doc.objects["circle"] = T.source
    doc.cobordisms["T"] = CobordismDef("circle", "circle", T)
    return doc


def feature_empty() -> Document:
    doc = Document(branes=frozenset({STAR}))
    empty = GeneralObject(frozenset({STAR}), ())
    doc.objects["nil"] = empty
    doc.cobordisms["void"] = CobordismDef(
        "nil", "nil", Cobordism(empty, empty, ())
    )
    return doc


def feature_rev() -> Document:
    """A square whose boundary meets both glued intervals against the
    default direction; valid on its own, composable only with partners
    of matching orientation."""
    obj = star_obj("I")
    comp = Component(
        0,
        (
            Mixed(
                (
                    out_ref(1, rev=True),
                    Arc(STAR),
                    in_ref(1, rev=False),
                    Arc(STAR),
                )
            ),
        ),
    )
    doc = Document(branes=frozenset({STAR}))
    doc.objects["seg"] = obj
    doc.cobordisms["against"] = CobordismDef(
        "seg", "seg", Cobordism(obj, obj, (comp,))
    )
    return doc


def feature_multibrane() -> Document:
    branes = frozenset({"a", "b", "c"})
    sigma = Permutation.from_cycles([[1, 3, 4]], {1, 3, 4})
    src = GeneralObject(
        branes,
        (Interval("a", "c"), Circle(), Interval("b", "a"), Interval("c", "b")),
        sigma,
    )
    tgt = GeneralObject(branes, (Circle(),))
    doc = Document(branes=branes)
    doc.objects["labeled"] = src
    doc.objects["circle"] = tgt
    doc.cobordisms["collapse"] = CobordismDef(
        "labeled", "circle", calculus.realize(src)
    )
    return doc


def feature_squares() -> Document:
    """Identity, symmetry, and a tensor of stabilizers in one document."""
    branes = frozenset({"a", "b"})
    left = GeneralObject(branes, (Interval("a", "b"),))
    right = GeneralObject(branes, (Circle(), Interval("b", "b")))
    doc = Document(branes=branes)
    doc.objects["l"] = left
    doc.objects["r"] = right
    doc.objects["lr"] = left.tensor(right)
    doc.objects["rl"] = right.tensor(left)
    doc.cobordisms["straight"] = CobordismDef(
        "lr", "lr", calculus.identity(left.tensor(right))
    )
    doc.cobordisms["crossing"] = CobordismDef(
        "lr", "rl", calculus.swap_cobordism(left, right)
    )
    T = calculus.make_T(branes)
    doc.objects["twocircles"] = T.source.tensor(T.source)
    doc.cobordisms["double"] = CobordismDef(
        "twocircles", "twocircles", calculus.tensor(T, T)
    )
    return doc


HANDMADE = {
    "ref_interfaces.occ": ref_interfaces,
    "ref_sigma_object.occ": ref_sigma_object,
    "ref_windows.occ": ref_windows,
    "ref_stabilizer.occ": ref_stabilizer,
    "ref_stabilizer_branes.occ": ref_stabilizer_branes,
    "feature_empty.occ": feature_empty,
    "feature_rev.occ": feature_rev,
    "feature_multibrane.occ": feature_multibrane,
    "feature_squares.occ": feature_squares,
}

MALFORMED = {
    "missing_semicolon.occ": "object a = [O]\nobject b = [];\n",
    "unclosed_entries.occ": "object a = [O, I(*,*);\n",
    "typo_keyword.occ": "objct a = [O];\n",
    "branes_not_first.occ": "object a = [];\nbranes x, y;\n",
    "unknown_source.occ": "object a = [O];\ncobordism c : ghost -> a {\n}\n",
    "unknown_target.occ": "object a = [O];\ncobordism c : a -> ghost {\n}\n",
    "duplicate_object.occ": "object a = [O];\nobject a = [];\n",
    "duplicate_cobordism.occ": (
        "object a = [O];\n"
        "cobordism c : a -> a {\n  component {\n    genus 0;\n    in 1;\n    out 1;\n  }\n}\n"
        "cobordism c : a -> a {\n}\n"
    ),
    "undeclared_brane.occ": "branes a, b;\nobject x = [I(a,z)];\n",
    "bare_window_multibrane.occ": (
        "branes a, b;\nobject x = [O];\n"
        "cobordism c : x -> x {\n  component {\n    genus 0;\n    in 1;\n    out 1;\n    window;\n  }\n}\n"
    ),
    "bare_arc_multibrane.occ": (
        "branes a, b;\nobject x = [I(a,a)];\n"
        "cobordism c : x -> x {\n  component {\n    genus 0;\n    mixed [in 1, arc, out 1, arc a];\n  }\n}\n"
    ),
    "sigma_letters.occ": "object x = [I(*,*)] sigma (a);\n",
    "sigma_unclosed.occ": "object x = [I(*,*), I(*,*)] sigma (1 2;\n",
    "unclosed_component.occ": (
        "object x = [O];\ncobordism c : x -> x {\n  component {\n    genus 0;\n    in 1;\n"
    ),
    "trailing_comma.occ": (
        "object x = [I(*,*)];\n"
        "cobordism c : x -> x {\n  component {\n    genus 0;\n    mixed [in 1, arc, out 1, arc,];\n  }\n}\n"
    ),
    "empty_mixed.occ": (
        "object x = [];\n"
        "cobordism c : x -> x {\n  component {\n    genus 0;\n    mixed [];\n  }\n}\n"
    ),
    "missing_genus.occ": (
        "object x = [O];\ncobordism c : x -> x {\n  component {\n    in 1;\n    out 1;\n  }\n}\n"
    ),
    "negative_genus.occ": (
        "object x = [O];\ncobordism c : x -> x {\n  component {\n    genus -1;\n    in 1;\n    out 1;\n  }\n}\n"
    ),
    "stray_token.occ": "object x = [O]; surplus\n",
    "bad_arrow.occ": "object a = [O];\ncobordism c : a => a {\n}\n",
    "missing_index.occ": (
        "object x = [O];\ncobordism c : x -> x {\n  component {\n    genus 0;\n    in;\n    out 1;\n  }\n}\n"
    ),
    "illegal_char.occ": "object x@ = [O];\n",
    "keyword_as_name.occ": "object component = [];\n",
    "missing_colon.occ": "object a = [O];\ncobordism c a -> a {\n}\n",
}


def corpus_files() -> dict[str, str]:
    """Every corpus file as its path under corpus/ and its text.

    Self-checks the texts first: every roundtrip file is canonical, and
    every malformed file fails to parse with a position.
    """
    files = {}
    for name, build in HANDMADE.items():
        doc = build()
        for cdef in doc.cobordisms.values():
            problems = validate(cdef.cobordism)
            if problems:
                raise SystemExit(f"{name}: {problems}")
        files[f"roundtrip/{name}"] = serialize(doc)

    brane_pools = [(STAR,), ("a", "b"), ("a", "b", "c"), ("left", "right")]
    needed = 50 - len(files)
    for k in range(needed):
        rng = random.Random(1000 + k)
        doc = sample_document(rng, branes=brane_pools[k % len(brane_pools)])
        files[f"roundtrip/sampled_{k:02d}.occ"] = serialize(doc)

    for path, text in files.items():
        if serialize(parse(text)) != text:
            raise SystemExit(f"{path} is not canonical")

    for name, text in MALFORMED.items():
        try:
            parse(text)
        except DslSyntaxError as exc:
            if not exc.line:
                raise SystemExit(f"{name}: diagnostic lacks a position")
        else:
            raise SystemExit(f"{name} unexpectedly parsed")
        files[f"malformed/{name}"] = text
    return files


def main() -> int:
    files = corpus_files()
    for path, text in files.items():
        target = ROOT / "corpus" / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    roundtrip = len(files) - len(MALFORMED)
    print(f"wrote {roundtrip} roundtrip files, {len(MALFORMED)} malformed files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
