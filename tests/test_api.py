"""The public surface: every callable export rejects bad values with an ``OcError``.

The gate walks ``occob.__all__``.  Each callable export is in exactly one of
two places:

* ``BAD_VALUES``: calls that pass it bad values, each of which must raise the
  named ``OcError`` subclass.
* ``TOTAL``: plain records and functions that are defined on every value of
  their argument types, each with the reason.

``WRONG_TYPES`` holds calls that pass an argument not of the annotated type
at all, such as an ``int`` where a ``Cobordism`` goes, to each entry point
that checks for it: the constructors ``Component``, ``Cobordism``,
``GeneralObject`` and ``Mixed``, and ``validate``, ``compose``, ``tensor``,
``realize``, ``stabilize``, ``canonicalize``, ``is_isomorphic``, ``parse``,
``serialize``, ``to_json``, ``pullback``, ``boundary_permutation``,
``invariant_summary``, ``identity``, ``euler_char``, ``euler_total``,
``window_vector``, ``in_b_subcategory``, ``component_summary``,
``swap_cobordism``, ``is_morphism``, ``make_T``, ``enumerate_classes`` and
``strata_table``, whose bounds must be exactly ``int``.  Each must raise
``InvalidValueError``.  The argument types of the other exports
are outside this contract.
"""

from __future__ import annotations

import enum
import re

import pytest

import occob
from conftest import AB, STAR_SET, labeled_obj, star_obj
from occob import (
    IN,
    OUT,
    STAR,
    Arc,
    Circle,
    Closed,
    ClosedComponentError,
    Cobordism,
    CobordismDef,
    Component,
    CompositionError,
    Document,
    DslSyntaxError,
    DslValidationError,
    GeneralObject,
    InfeasibleObjectError,
    Interval,
    IntervalRef,
    InvalidCobordismError,
    InvalidValueError,
    Mixed,
    OcError,
    Permutation,
    Window,
    boundary_permutation,
    canonicalize,
    component_summary,
    compose,
    enumerate_classes,
    from_json,
    identity,
    in_ref,
    invariant_summary,
    is_isomorphic,
    is_morphism,
    make_T,
    out_ref,
    parse,
    pullback,
    realize,
    serialize,
    stabilize,
    strata_table,
    swap_cobordism,
    tensor,
    to_json,
    euler_char,
    euler_total,
    in_b_subcategory,
    validate,
    window_vector,
)

ONE = star_obj("O")
IV = star_obj("I")
EMPTY = star_obj("")
LONG = "1" * 5000  # past the interpreter's int conversion limit
HUGE = 10**5000  # an int the interpreter will not write in decimal


def _square(rev_in: bool = True, out_rev: bool = False) -> Cobordism:
    """The identity on one interval, with a choice of traversals."""
    square = Mixed((out_ref(1, out_rev), Arc(STAR), in_ref(1, rev_in), Arc(STAR)))
    return Cobordism(IV, IV, (Component(0, (square,)),))


_AA = GeneralObject(AB, [Interval("a", "a")])
_AB_TWICE = labeled_obj(AB, ["a:b", "a:b"])


def _aa_square(before: str, after: str) -> Cobordism:
    """The identity on ``I(a, a)`` with the arcs beside ``out 1`` on the
    branes given."""
    square = Mixed((out_ref(1), Arc(after), in_ref(1), Arc(before)))
    return Cobordism(_AA, _AA, (Component(0, (square,)),))


def _aa_cap(brane: str) -> Cobordism:
    """A disc from nothing to ``I(a, a)``, its arc on ``brane``."""
    cap = Component(0, (Mixed((out_ref(1), Arc(brane))),))
    return Cobordism(GeneralObject(AB, []), _AA, (cap,))


def _cap_onto(target: GeneralObject) -> Cobordism:
    """A disc on one source circle, to ``target``: nothing reaches it."""
    return Cobordism(ONE, target, (Component(0, (Closed(IN, 1),)),))


def _with_empty(c: Cobordism) -> Cobordism:
    return Cobordism(c.source, c.target, c.components + (Component(0),))


def _to_windows(source: GeneralObject) -> Cobordism:
    """One component with a window and no other circle: no mixed circle
    covers ``source``'s intervals."""
    return Cobordism(source, EMPTY, (Component(0, (), [(STAR, 1)]),))


def _twice_out() -> Cobordism:
    """``[I] -> [I, I]`` with ``out 1`` on two mixed circles."""
    circles = (
        Mixed((in_ref(1), Arc(STAR), out_ref(1), Arc(STAR), out_ref(2), Arc(STAR))),
        Mixed((out_ref(1), Arc(STAR))),
    )
    return Cobordism(IV, star_obj("II"), (Component(0, circles),))


def _to_circle(*boundary) -> Cobordism:
    """A one-component cobordism from one interval to one circle."""
    return Cobordism(IV, ONE, (Component(0, boundary),))


def _undeclared_window() -> Cobordism:
    return Cobordism(EMPTY, EMPTY, (Component(0, (), [("z", 1)]),))


def _document(c: Cobordism) -> Document:
    doc = Document(branes=STAR_SET)
    doc.objects["s"], doc.objects["t"] = c.source, c.target
    doc.cobordisms["c"] = CobordismDef("s", "t", c)
    return doc


def _repeated_ref() -> Cobordism:
    cycle = (in_ref(1), Arc(STAR), in_ref(1), Arc(STAR))
    return Cobordism(IV, EMPTY, (Component(0, (Mixed(cycle),)),))


def _empty_cycle() -> Cobordism:
    return Cobordism(EMPTY, EMPTY, (Component(0, (Mixed(()),)),))


def _huge_genus() -> Cobordism:
    return Cobordism(ONE, ONE, (Component(HUGE, (Closed(IN, 1), Closed(OUT, 1))),))


def _cap() -> Cobordism:
    """A disc from one circle to nothing: gluing it on top closes a surface."""
    return Cobordism(ONE, EMPTY, (Component(0, (Closed(IN, 1),)),))


def _windows(*pairs) -> Component:
    """A component with the window counts ``pairs`` and no other circle."""
    return Component(0, (), pairs)


def _split(*circles) -> Cobordism:
    """A cobordism between empty objects with one component per circle."""
    return Cobordism(EMPTY, EMPTY, [Component(0, (circ,)) for circ in circles])


_INCOHERENT = labeled_obj(AB, ["a:b", "a:b"], cycles=[[1, 2]])

BAD_VALUES: dict[str, list[tuple[str, object, type[OcError]]]] = {
    "Permutation": [
        ("not a bijection", lambda: Permutation({1: 2}), InvalidValueError),
        ("bool entries", lambda: Permutation({True: True}), InvalidValueError),
        ("string entry", lambda: Permutation({1: "a", 2: 1}), InvalidValueError),
        ("triple", lambda: Permutation([(1, 2, 3)]), InvalidValueError),
        ("call outside domain", lambda: Permutation({1: 1})(3), InvalidValueError),
        (
            "cycle outside domain",
            lambda: Permutation.from_cycles([[5]], {1}),
            InvalidValueError,
        ),
        (
            "element listed twice",
            lambda: Permutation.from_cycles([[1, 2], [2]], {1, 2}),
            InvalidValueError,
        ),
        ("identity on bools", lambda: Permutation.identity([True]), InvalidValueError),
        (
            "unhashable cycle element",
            lambda: Permutation.from_cycles([[[1]]], {1}),
            InvalidValueError,
        ),
        (
            "identity on lists",
            lambda: Permutation.identity([[1]]),
            InvalidValueError,
        ),
        (
            "domain not iterable",
            lambda: Permutation.from_cycles([[1]], 5),
            InvalidValueError,
        ),
        (
            "cycles not iterable",
            lambda: Permutation.from_cycles(3, {1}),
            InvalidValueError,
        ),
        (
            "a key too long to print",
            lambda: Permutation({HUGE: 1}),
            InvalidValueError,
        ),
        (
            "a list holding an int too long to print",
            lambda: Permutation({1: [HUGE]}),
            InvalidValueError,
        ),
        (
            "a cycle element too long to print",
            lambda: Permutation.from_cycles([[HUGE]], [1]),
            InvalidValueError,
        ),
        (
            "a call on an int too long to print",
            lambda: Permutation()(HUGE),
            InvalidValueError,
        ),
    ],
    "GeneralObject": [
        ("no branes", lambda: GeneralObject([]), InvalidValueError),
        ("empty label", lambda: GeneralObject([""]), InvalidValueError),
        (
            "undeclared label",
            lambda: GeneralObject(STAR_SET, [Interval(STAR, "z")]),
            InvalidValueError,
        ),
        (
            "unhashable label",
            lambda: GeneralObject(STAR_SET, [Interval(["x"], STAR)]),
            InvalidValueError,
        ),
        (
            "not an entry",
            lambda: GeneralObject(STAR_SET, [Window(STAR)]),
            InvalidValueError,
        ),
        (
            "sigma on the wrong domain",
            lambda: GeneralObject(STAR_SET, [Circle()], Permutation.identity([1])),
            InvalidValueError,
        ),
        (
            "tensor over other branes",
            lambda: ONE.tensor(GeneralObject(AB, [])),
            InvalidValueError,
        ),
        (
            "a brane too long to print",
            lambda: GeneralObject((HUGE,)),
            InvalidValueError,
        ),
        (
            "a label too long to print",
            lambda: GeneralObject(STAR_SET, [Interval(HUGE, STAR)]),
            InvalidValueError,
        ),
        (
            "an entry too long to print",
            lambda: GeneralObject(STAR_SET, [HUGE]),
            InvalidValueError,
        ),
        (
            "sigma on a domain too long to print",
            lambda: GeneralObject(STAR_SET, [], Permutation({HUGE: HUGE})),
            InvalidValueError,
        ),
    ],
    "IntervalRef": [
        ("unknown side", lambda: IntervalRef("up", 1, False), InvalidValueError),
        ("str index", lambda: IntervalRef("in", "1", True), InvalidValueError),
        ("rev=1", lambda: IntervalRef("out", 1, 1), InvalidValueError),
        (
            "a side too long to print",
            lambda: IntervalRef(HUGE, 1, False),
            InvalidValueError,
        ),
    ],
    "in_ref": [
        ("bool index", lambda: in_ref(True), InvalidValueError),
        ("rev=1", lambda: in_ref(1, 1), InvalidValueError),
    ],
    "out_ref": [
        ("str index", lambda: out_ref("1"), InvalidValueError),
        ("rev None", lambda: out_ref(1, None), InvalidValueError),
    ],
    "Arc": [
        ("int brane", lambda: Arc(1), InvalidValueError),
        ("None brane", lambda: Arc(None), InvalidValueError),
    ],
    "Window": [
        ("int brane", lambda: Window(1), InvalidValueError),
        ("unhashable brane", lambda: Window(["a"]), InvalidValueError),
    ],
    "Closed": [
        ("in, bool index", lambda: Closed(IN, True), InvalidValueError),
        ("in, str index", lambda: Closed(IN, "1"), InvalidValueError),
        ("out, float index", lambda: Closed(OUT, 1.0), InvalidValueError),
        ("out, bool index", lambda: Closed(OUT, False), InvalidValueError),
        ("bad side", lambda: Closed("sideways", 1), InvalidValueError),
        ("None side", lambda: Closed(None, 1), InvalidValueError),
        ("a side too long to print", lambda: Closed(HUGE, 1), InvalidValueError),
    ],
    "Mixed": [
        (
            "a circle inside a cycle",
            lambda: Mixed((in_ref(1), Arc(STAR), Window(STAR), Arc(STAR))),
            InvalidValueError,
        ),
        ("a cycle inside a cycle", lambda: Mixed((Mixed(()),)), InvalidValueError),
        ("an int entry", lambda: Mixed((in_ref(1), 1)), InvalidValueError),
    ],
    "Component": [
        ("negative genus", lambda: Component(-1), InvalidValueError),
        (
            "an entry used as a circle",
            lambda: Component(0, (Closed(OUT, 1), in_ref(1))),
            InvalidValueError,
        ),
        ("an int used as a circle", lambda: Component(0, [1]), InvalidValueError),
        (
            "a window among the circles",
            lambda: Component(0, (Closed(OUT, 1), Window(STAR))),
            InvalidValueError,
        ),
        (
            "a window count of 3 items",
            lambda: Component(0, (), [(STAR, 1, 1)]),
            InvalidValueError,
        ),
        (
            "a negative window count",
            lambda: Component(0, (), [(STAR, -1)]),
            InvalidValueError,
        ),
        (
            "a bool window count",
            lambda: Component(0, (), [(STAR, True)]),
            InvalidValueError,
        ),
        (
            "a str window count",
            lambda: Component(0, (), [(STAR, "1")]),
            InvalidValueError,
        ),
        (
            "a genus holding an int too long to print",
            lambda: Component([HUGE]),
            InvalidValueError,
        ),
    ],
    "window_vector": [
        (
            "undeclared window brane",
            lambda: window_vector(_undeclared_window()),
            InvalidCobordismError,
        ),
    ],
    "invariant_summary": [
        (
            "undeclared window brane",
            lambda: invariant_summary(_undeclared_window()),
            InvalidCobordismError,
        ),
        # From here to the end of the component_summary cases, no call
        # reaches the summary: the Component constructor refuses the value
        # first.
        (
            "an arc where a circle goes",
            lambda: invariant_summary(_to_circle(Arc(STAR))),
            InvalidValueError,
        ),
        (
            "window branes of two types on two components",
            lambda: invariant_summary(
                Cobordism(EMPTY, EMPTY, [_windows((STAR, 1)), _windows((1, 1))])
            ),
            InvalidValueError,
        ),
    ],
    "component_summary": [
        (
            "an arc where a circle goes",
            lambda: component_summary(Component(0, (Arc(STAR),))),
            InvalidValueError,
        ),
        (
            "a reference where a circle goes",
            lambda: component_summary(Component(0, (in_ref(1),))),
            InvalidValueError,
        ),
        (
            "unhashable window brane",
            lambda: component_summary(_windows((["a"], 1))),
            InvalidValueError,
        ),
        (
            "window branes of two types",
            lambda: component_summary(_windows((STAR, 1), (1, 1))),
            InvalidValueError,
        ),
    ],
    "boundary_permutation": [
        (
            "target is not one circle",
            lambda: boundary_permutation(identity(IV)),
            InvalidValueError,
        ),
        (
            "outgoing reference in a mixed circle",
            lambda: boundary_permutation(
                _to_circle(Mixed((in_ref(1), Arc(STAR), out_ref(1), Arc(STAR))))
            ),
            InvalidCobordismError,
        ),
        (
            "source interval on no circle",
            lambda: boundary_permutation(_to_circle(Closed(OUT, 1))),
            InvalidCobordismError,
        ),
    ],
    "compose": [
        (
            "interface mismatch",
            lambda: compose(identity(ONE), identity(IV)),
            CompositionError,
        ),
        (
            "both sides traverse the glued interval alike",
            lambda: compose(_square(rev_in=False), _square(rev_in=False)),
            CompositionError,
        ),
        (
            "closes a component",
            lambda: compose(_cap(), realize(EMPTY)),
            ClosedComponentError,
        ),
    ],
    "tensor": [
        (
            "different brane sets",
            lambda: tensor(identity(ONE), identity(GeneralObject(AB, []))),
            InvalidValueError,
        ),
    ],
    "swap_cobordism": [
        (
            "different brane sets",
            lambda: swap_cobordism(ONE, GeneralObject(AB, [])),
            CompositionError,
        ),
    ],
    "realize": [
        ("incoherent cycle", lambda: realize(_INCOHERENT), InfeasibleObjectError),
    ],
    "pullback": [
        (
            "tau on the wrong domain",
            lambda: pullback(identity(IV), Permutation.identity([5])),
            InvalidValueError,
        ),
        (
            "tau not brane-coherent",
            lambda: pullback(identity(_AB_TWICE), Permutation({1: 2, 2: 1})),
            InfeasibleObjectError,
        ),
        (
            "a target circle not attached",
            lambda: pullback(_cap_onto(ONE), Permutation()),
            CompositionError,
        ),
        (
            "a target interval not attached",
            lambda: pullback(_cap_onto(IV), Permutation.identity([1])),
            CompositionError,
        ),
        (
            "an outgoing reference with rev set",
            lambda: pullback(_square(out_rev=True), Permutation.identity([1])),
            CompositionError,
        ),
        (
            "an arc off the brane of the outgoing interval beside it",
            lambda: pullback(_aa_square("a", "b"), Permutation.identity([1])),
            CompositionError,
        ),
        (
            "arcs on two branes round a glued circle",
            lambda: pullback(_aa_cap("b"), Permutation.identity([1])),
            CompositionError,
        ),
        (
            "an empty component",
            lambda: pullback(_with_empty(identity(IV)), Permutation.identity([1])),
            ClosedComponentError,
        ),
        (
            "a source interval not covered",
            lambda: pullback(_to_windows(IV), Permutation()),
            InvalidCobordismError,
        ),
        (
            "a target interval referenced twice",
            lambda: pullback(_twice_out(), Permutation.identity([1, 2])),
            InvalidCobordismError,
        ),
    ],
    "is_morphism": [
        (
            "source does not match",
            lambda: is_morphism(identity(IV), ONE, IV),
            CompositionError,
        ),
        (
            "target does not match",
            lambda: is_morphism(identity(IV), IV, ONE),
            CompositionError,
        ),
    ],
    "make_T": [
        ("no branes", lambda: make_T([]), InvalidValueError),
        ("a brane too long to print", lambda: make_T([HUGE]), InvalidValueError),
    ],
    "stabilize": [
        (
            "target is not one circle",
            lambda: stabilize(identity(IV)),
            CompositionError,
        ),
        (
            "no component holds the outgoing circle",
            lambda: stabilize(Cobordism(EMPTY, ONE, ())),
            CompositionError,
        ),
    ],
    "canonicalize": [
        (
            "repeated reference",
            lambda: canonicalize(_repeated_ref()),
            InvalidCobordismError,
        ),
        (
            "empty mixed cycle",
            lambda: canonicalize(_empty_cycle()),
            InvalidCobordismError,
        ),
        (
            "an arc where a circle goes",
            lambda: canonicalize(_to_circle(Arc(STAR))),
            InvalidValueError,  # from Component, before canonicalize runs
        ),
    ],
    "is_isomorphic": [
        (
            "different objects",
            lambda: is_isomorphic(identity(ONE), identity(IV)),
            CompositionError,
        ),
    ],
    "enumerate_classes": [
        ("negative bound", lambda: enumerate_classes(ONE, -1, 0), InvalidValueError),
        (
            "infeasible object",
            lambda: enumerate_classes(_INCOHERENT, 0, 0),
            InfeasibleObjectError,
        ),
    ],
    "strata_table": [
        ("negative bound", lambda: strata_table(ONE, 0, -1), InvalidValueError),
    ],
    "parse": [
        ("grammar", lambda: parse("object a = [O"), DslSyntaxError),
        (
            "over-long integer",
            lambda: parse(f"object a = [I(*,*)] sigma ({LONG});"),
            DslSyntaxError,
        ),
        (
            "invalid cobordism",
            lambda: parse("object c = [O];\ncobordism x : c -> c { }"),
            DslValidationError,
        ),
    ],
    "serialize": [
        (
            "invalid cobordism",
            lambda: serialize(_document(_empty_cycle())),
            InvalidCobordismError,
        ),
        (
            "genus past the digit limit",
            lambda: serialize(_document(_huge_genus())),
            InvalidValueError,
        ),
        (
            "an int object",
            lambda: serialize(Document(branes=STAR_SET, objects={"a": 5})),
            InvalidValueError,
        ),
        (
            "an int cobordism",
            lambda: serialize(Document(branes=STAR_SET, cobordisms={"c": 5})),
            InvalidValueError,
        ),
        ("int branes", lambda: serialize(Document(branes=5)), InvalidValueError),
        (
            "a list of objects",
            lambda: serialize(Document(branes=STAR_SET, objects=[])),
            InvalidValueError,
        ),
        (
            "a list of cobordisms",
            lambda: serialize(Document(branes=STAR_SET, cobordisms=[])),
            InvalidValueError,
        ),
    ],
    "to_json": [
        (
            "invalid cobordism",
            lambda: to_json(_document(_repeated_ref())),
            InvalidCobordismError,
        ),
        (
            "genus past the digit limit",
            lambda: to_json(_document(_huge_genus())),
            InvalidValueError,
        ),
        (
            "an int object",
            lambda: to_json(Document(branes=STAR_SET, objects={"a": 5})),
            InvalidValueError,
        ),
        (
            "an int cobordism",
            lambda: to_json(Document(branes=STAR_SET, cobordisms={"c": 5})),
            InvalidValueError,
        ),
        ("int branes", lambda: to_json(Document(branes=5)), InvalidValueError),
        (
            "a list of objects",
            lambda: to_json(Document(branes=STAR_SET, objects=[])),
            InvalidValueError,
        ),
        (
            "a list of cobordisms",
            lambda: to_json(Document(branes=STAR_SET, cobordisms=[])),
            InvalidValueError,
        ),
    ],
    "from_json": [
        ("not JSON", lambda: from_json("{"), DslSyntaxError),
        ("unknown format", lambda: from_json({"format": 2}), DslSyntaxError),
        (
            "over-long integer",
            lambda: from_json(f'{{"format": {LONG}}}'),
            DslSyntaxError,
        ),
        ("a top-level array", lambda: from_json("[1, 2]"), DslSyntaxError),
        ("a top-level number", lambda: from_json("5"), DslSyntaxError),
        ("an int too long to print", lambda: from_json(HUGE), DslSyntaxError),
        (
            "a format too long to print",
            lambda: from_json({"format": HUGE}),
            DslSyntaxError,
        ),
    ],
}

WRONG_TYPES: dict[str, list[tuple[str, object]]] = {
    "Component": [
        ("bool genus", lambda: Component(True, (Closed(IN, 1),))),
        ("str genus", lambda: Component("1")),
        ("float genus", lambda: Component(1.0)),
        ("int boundary", lambda: Component(0, 1)),
        ("int windows", lambda: Component(0, (), 1)),
        ("a window count that is not a pair", lambda: Component(0, (), [STAR])),
    ],
    "Cobordism": [
        ("int objects", lambda: Cobordism(1, 2)),
        ("target not an object", lambda: Cobordism(ONE, None)),
        ("int components", lambda: Cobordism(ONE, ONE, 1)),
        ("int component", lambda: Cobordism(ONE, ONE, [1])),
    ],
    "GeneralObject": [
        ("int branes", lambda: GeneralObject(1)),
        ("an unhashable label", lambda: GeneralObject([["a"]])),
        ("int entries", lambda: GeneralObject(STAR_SET, 1)),
        ("sigma not a permutation", lambda: GeneralObject(STAR_SET, [], {})),
        ("tensor with an int", lambda: ONE.tensor(5)),
    ],
    "Mixed": [("an int", lambda: Mixed(1))],
    "validate": [("a str", lambda: validate("x"))],
    "euler_char": [("an int", lambda: euler_char(1))],
    "euler_total": [("an int", lambda: euler_total(1))],
    "window_vector": [("an int", lambda: window_vector(1))],
    "in_b_subcategory": [("an int", lambda: in_b_subcategory(1))],
    "component_summary": [("an int", lambda: component_summary(1))],
    "swap_cobordism": [
        ("ints", lambda: swap_cobordism(1, 2)),
        ("second not an object", lambda: swap_cobordism(ONE, 2)),
    ],
    "is_morphism": [
        ("ints", lambda: is_morphism(1, 2, 3)),
        ("objects not objects", lambda: is_morphism(identity(ONE), 2, 3)),
    ],
    "make_T": [("an int", lambda: make_T(1))],
    "enumerate_classes": [
        ("str genus bound", lambda: enumerate_classes(ONE, "x", 0)),
        ("float genus bound", lambda: enumerate_classes(ONE, 2.5, 0)),
        ("bool genus bound", lambda: enumerate_classes(ONE, True, 0)),
        ("None window bound", lambda: enumerate_classes(ONE, 0, None)),
        ("wrong type before negative", lambda: enumerate_classes(ONE, -1, "x")),
    ],
    "strata_table": [
        ("an int", lambda: strata_table(1, 0, 0)),
        ("None window bound", lambda: strata_table(ONE, 0, None)),
        ("str genus bound", lambda: strata_table(ONE, "x", 0)),
        ("bool window bound", lambda: strata_table(ONE, 0, False)),
        ("float genus bound", lambda: strata_table(_INCOHERENT, 1.0, 0)),
    ],
    "compose": [
        ("ints", lambda: compose(1, 2)),
        ("first not a cobordism", lambda: compose(identity(ONE), ONE)),
    ],
    "tensor": [("ints", lambda: tensor(1, 2))],
    "realize": [("an int", lambda: realize(1))],
    "stabilize": [("None", lambda: stabilize(None))],
    "canonicalize": [("an int", lambda: canonicalize(3))],
    "is_isomorphic": [("ints", lambda: is_isomorphic(1, 1))],
    "parse": [("an int", lambda: parse(1)), ("bytes", lambda: parse(b"object"))],
    "serialize": [("an int", lambda: serialize(5))],
    "to_json": [("a list", lambda: to_json([]))],
    "pullback": [
        ("ints", lambda: pullback(1, 2)),
        ("tau not a permutation", lambda: pullback(identity(ONE), 2)),
    ],
    "boundary_permutation": [("an int", lambda: boundary_permutation(1))],
    "invariant_summary": [("an int", lambda: invariant_summary(1))],
    "identity": [("an int", lambda: identity(1))],
}

_RECORD = "a record; validate or the object that holds it checks its values"
_RESULT = "a result record, built by the library"
_EXCEPTION = "an exception class, which takes any message"

TOTAL: dict[str, str] = {
    "Circle": "a record with no fields",
    "Interval": _RECORD,
    "Cobordism": _RECORD,
    "Document": "a record; parse and from_json check what goes in it",
    "MixedEntry": "a type alias, not called",
    "BoundaryCircle": "a type alias, not called",
    "Violation": _RESULT,
    "ComponentSummary": _RESULT,
    "InvariantSummary": _RESULT,
    "CanonicalForm": _RESULT,
    "StrataRow": _RESULT,
    "CobordismDef": _RESULT,
    "validate": "reports what is wrong as Violation values",
    "euler_char": "arithmetic on the genus and the boundary count",
    "euler_total": "a sum of euler_char",
    "in_b_subcategory": "a yes-or-no question about the components",
    "identity": "a cylinder or a square for each entry of any object",
    "OcError": _EXCEPTION,
    "CompositionError": _EXCEPTION,
    "ClosedComponentError": _EXCEPTION,
    "InfeasibleObjectError": _EXCEPTION,
    "InvalidCobordismError": _EXCEPTION,
    "InvalidValueError": _EXCEPTION,
    "DslSyntaxError": _EXCEPTION,
    "DslValidationError": _EXCEPTION,
}


def test_every_callable_export_is_covered_once():
    callables = {name for name in occob.__all__ if callable(getattr(occob, name))}
    missing = sorted(callables - BAD_VALUES.keys() - TOTAL.keys())
    twice = sorted(BAD_VALUES.keys() & TOTAL.keys())
    stale = sorted((BAD_VALUES.keys() | TOTAL.keys()) - callables)
    caseless = sorted(name for name, cases in BAD_VALUES.items() if not cases)
    assert (missing, twice, stale, caseless) == ([], [], [], [])


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(call, error, id=f"{name}: {what}")
        for name, cases in BAD_VALUES.items()
        for what, call, error in cases
    ],
)
def test_a_bad_value_raises_an_oc_error(call, error):
    assert issubclass(error, OcError)
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(call, id=f"{name}: {what}")
        for name, cases in WRONG_TYPES.items()
        for what, call in cases
    ],
)
def test_a_wrong_type_raises_an_invalid_value_error(call):
    match = "expected a|genus must be a nonnegative int"
    with pytest.raises(InvalidValueError, match=match):
        call()


def test_wrong_types_name_exports():
    assert set(WRONG_TYPES) <= set(occob.__all__)


def test_the_package_exports_what_its_modules_list():
    """Each module's ``__all__`` is its public surface, and ``occob.__all__``
    is those lists joined; a name a module keeps out of its list still
    imports from the module."""
    from occob import calculus, classify, dsl, errors, objects, surfaces
    from occob.dsl import is_name, parse_cycles  # noqa: F401
    from occob.objects import Entry  # noqa: F401
    from occob.surfaces import default_rev  # noqa: F401

    modules = (errors, objects, surfaces, calculus, classify, dsl)
    joined = [name for module in modules for name in module.__all__]
    assert occob.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(occob, name) is getattr(module, name)
    namespace: dict = {}
    exec("from occob import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(joined)
    assert {"Entry", "default_rev", "is_name", "parse_cycles"}.isdisjoint(joined)


# Fourteen values that are not boundary circles, each refused by ``Component``
# before any entry point can meet it.  ``tensor`` once met such a circle and
# leaked ``AttributeError``.
ILL_KINDED = [
    1,
    "x",
    None,
    1.5,
    True,
    {},
    (Closed(IN, 1),),
    [Window(STAR)],
    Arc(STAR),
    in_ref(1),
    out_ref(1),
    Circle(),
    Interval(STAR, STAR),
    Component(0, (Closed(IN, 1),)),
]


@pytest.mark.parametrize("bad", ILL_KINDED, ids=repr)
def test_an_ill_kinded_circle_is_refused_where_it_is_built(bad):
    message = f"{type(bad).__name__} is not a kind of boundary circle"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        Component(0, (Closed(IN, 1), Closed(OUT, 1), bad))


@pytest.mark.parametrize(
    "bad", [1, None, Window(STAR), Closed(IN, 1), Mixed(())], ids=repr
)
def test_a_non_entry_in_a_mixed_cycle_is_refused_where_it_is_built(bad):
    message = f"{type(bad).__name__} is neither an interval reference nor an arc"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        Mixed((in_ref(1), Arc(STAR), bad, Arc(STAR)))


@pytest.mark.parametrize("brane", [[1], 1, None], ids=repr)
def test_validate_reports_a_brane_that_is_not_a_str_as_unknown(brane):
    """``validate`` never meets such a brane: ``Window`` and ``Arc`` refuse it."""
    message = f"^expected a str, got {type(brane).__name__}$"
    for kind in (Window, Arc):
        with pytest.raises(InvalidValueError, match=message):
            kind(brane)


@pytest.mark.parametrize(
    "circle",
    [Closed(IN, HUGE), Mixed((in_ref(HUGE), Arc(STAR)))],
    ids=["closed", "mixed"],
)
def test_validate_shows_an_overlong_index_by_its_size(circle):
    c = Cobordism(ONE, ONE, (Component(0, (circle,)),))
    (v,) = [v for v in validate(c) if v.rule == "index-range"]
    assert v.message.endswith(f"at position <an integer of {HUGE.bit_length()} bits>")


def _per_reader(readers: list[str], cases: list) -> list:
    """Each of the ``pytest.param`` ``cases`` once per reader, with the id
    ``reader-case``.

    Each reader once checked such values itself.  Their constructors now
    refuse them before any reader is called, so every copy asserts only
    that refusal; the reader names stay in the ids so the test ids stay.
    """
    return [pytest.param(*c.values, id=f"{r}-{c.id}") for r in readers for c in cases]


@pytest.mark.parametrize(
    "index",
    _per_reader(
        ["serialize", "to_json"],
        [pytest.param(i, id=repr(i)) for i in (1.5, "x", None, True)],
    ),
)
def test_an_index_of_the_wrong_type_is_not_written(index):
    """No writer meets such an index: ``Closed`` refuses it."""
    name = type(index).__name__
    with pytest.raises(InvalidValueError, match=f"^expected an int, got {name}$"):
        Closed(IN, index)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda c: CobordismDef(5, "t", c), "expected a string, got int"),
        (lambda c: CobordismDef("s", None, c), "expected a string, got NoneType"),
    ],
    ids=["source", "target"],
)
def test_to_json_writes_only_str_object_names(make, message):
    doc = _document(_square())
    doc.cobordisms["c"] = make(doc.cobordisms["c"].cobordism)
    with pytest.raises(InvalidValueError, match=f"^{message}$"):
        to_json(doc)


def _named(where: str, bad) -> Document:
    """The document of ``_square()`` with ``bad`` as one name of kind ``where``."""
    doc = _document(_square())
    if where == "object":
        doc.objects[bad] = ONE
    elif where == "cobordism":
        doc.cobordisms[bad] = doc.cobordisms.pop("c")
    elif where == "endpoint":
        doc.cobordisms["c"] = CobordismDef("s", bad, doc.cobordisms["c"].cobordism)
    else:
        doc.branes = frozenset({STAR, bad})
    return doc


@pytest.mark.parametrize("bad", ["a b", "component", "1a", "", 5], ids=repr)
@pytest.mark.parametrize(
    "where, what",
    [
        ("object", "an object name"),
        ("cobordism", "a cobordism name"),
        ("endpoint", "an object name"),
        ("brane", "a brane label"),
    ],
    ids=["object", "cobordism", "endpoint", "brane"],
)
@pytest.mark.parametrize("write", [serialize, to_json])
def test_a_name_that_would_not_parse_back_is_not_written(write, where, what, bad):
    message = f"{bad!r} cannot be written as {what}"
    if not isinstance(bad, str):
        message = f"expected a string, got {type(bad).__name__}"
    with pytest.raises(InvalidValueError, match=f"^{message}$"):
        write(_named(where, bad))


def test_to_json_writes_only_a_bool_rev():
    """``IntervalRef`` refuses any other ``rev``, so none reaches ``to_json``."""
    with pytest.raises(InvalidValueError, match="^expected a bool, got int$"):
        IntervalRef("in", 1, 2)


@pytest.mark.parametrize(
    "entry, message",
    _per_reader(
        ["canonicalize", "serialize", "to_json"],
        [
            pytest.param(
                lambda: IntervalRef("in", 1, None),
                "expected a bool, got NoneType",
                id="rev None",
            ),
            pytest.param(
                lambda: IntervalRef("in", 1, 1), "expected a bool, got int", id="rev 1"
            ),
            *(
                pytest.param(
                    lambda kind=kind: Mixed((out_ref(1), Arc(STAR), kind, Arc(STAR))),
                    f"{type(kind).__name__} is neither an interval reference nor an arc",
                    id=type(kind).__name__,
                )
                for kind in (Closed(IN, 1), Window(STAR), Mixed(()))
            ),
        ],
    ),
)
def test_a_mixed_entry_of_the_wrong_kind_is_an_invalid_cobordism(entry, message):
    """Such an entry is refused as it is built, by ``IntervalRef`` or by
    ``Mixed``, so no reader meets it."""
    with pytest.raises(InvalidValueError, match=f"^{message}$"):
        entry()


# Cobordisms whose boundary keys would not compare, each with an index that
# is a ``str`` beside one that is an ``int`` or a brane that is not a ``str``
# beside one that is.
INCOMPARABLE = {
    "closed indices": lambda: Cobordism(
        ONE, ONE, (Component(0, (Closed(IN, "x"), Closed(IN, 1))),)
    ),
    "reference indices": lambda: _to_circle(
        Mixed((in_ref(1), Arc(STAR), in_ref("x"), Arc(STAR)))
    ),
    "arc branes": lambda: _to_circle(
        Mixed((Arc(1), Arc(STAR), in_ref(1), Arc(STAR)))
    ),
    "window branes": lambda: Cobordism(EMPTY, EMPTY, (_windows((1, 1), (STAR, 1)),)),
    "components": lambda: _split(Closed(IN, "x"), Closed(IN, 1)),
}


@pytest.mark.parametrize(
    "build",
    _per_reader(
        ["canonicalize", "is_isomorphic", "serialize", "to_json"],
        [pytest.param(build, id=name) for name, build in INCOMPARABLE.items()],
    ),
)
def test_keys_that_do_not_compare_are_an_invalid_cobordism(build):
    """Such a cobordism is refused as it is built, so no reader has keys
    that do not compare."""
    message = r"^expected an? (int|str), got (str|int)$"
    with pytest.raises(InvalidValueError, match=message):
        build()


@pytest.mark.parametrize("label", [["x"], {}], ids=repr)
def test_an_unhashable_label_is_named_as_not_declared(label):
    message = f"entry 2: brane {label!r} not in ['*']"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        GeneralObject(STAR_SET, [Circle(), Interval(STAR, label)])


class _Label(str):
    pass


class _Index(enum.IntEnum):
    ONE = 1
    TWO = 2


def test_a_str_subclass_brane_is_kept_as_the_str_it_holds():
    """So the arcs and windows built from an object's branes take them."""
    a, b = _Label("a"), _Label("b")
    obj = GeneralObject(
        {a, b}, [Interval(a, b), Interval(b, a)], Permutation({1: 2, 2: 1})
    )
    assert {type(x) for x in obj.branes} == {str}
    for c in (
        identity(obj),
        realize(obj),
        swap_cobordism(obj, obj),
        compose(identity(obj), identity(obj)),
    ):
        assert validate(c) == []


def test_an_int_subclass_index_is_kept_as_the_int_it_holds():
    """So ``realize`` takes it as an interval index, and both writers agree."""
    sigma = Permutation({_Index.ONE: _Index.TWO, _Index.TWO: _Index.ONE})
    assert {type(x) for pair in sigma.pairs for x in pair} == {int}
    obj = GeneralObject(STAR_SET, [Interval(STAR, STAR)] * 2, sigma)
    assert validate(realize(obj)) == []
    doc = Document(branes=STAR_SET)
    doc.objects["o"] = obj
    assert parse(serialize(doc)).objects == from_json(to_json(doc)).objects
    assert from_json(to_json(doc)).objects == {"o": obj}


class _Shown(str):
    """A str that formats as something other than the str it holds."""

    def __format__(self, spec):
        return "zz"


def test_a_str_subclass_side_is_kept_as_the_side_it_holds():
    """So both writers write the side itself, and both readers read it back."""
    assert IntervalRef(_Shown(OUT), 1, False).side is OUT
    assert Closed(_Shown(IN), 1).side is IN
    obj = GeneralObject(STAR_SET, [Circle(), Interval(STAR, STAR)])
    to_target = IntervalRef(_Shown(OUT), 2, False)
    to_source = IntervalRef(_Shown(IN), 2, True)
    square = Mixed((to_target, Arc(STAR), to_source, Arc(STAR)))
    annulus = (Closed(_Shown(IN), 1), Closed(_Shown(OUT), 1))
    c = Cobordism(obj, obj, (Component(0, annulus), Component(0, (square,))))
    assert validate(c) == []
    doc = _document(c)
    assert serialize(parse(serialize(doc))) == serialize(doc)
    assert serialize(from_json(to_json(doc))) == serialize(doc)
    assert is_isomorphic(parse(serialize(doc)).cobordisms["c"].cobordism, identity(obj))


def test_a_str_subclass_interval_label_is_kept_as_the_label_it_holds():
    """So both writers write the label itself, and both readers read it back."""
    interval = Interval(_Shown("a"), "b")
    assert type(interval.left) is str and interval == Interval("a", "b")
    obj = GeneralObject({"a", "b"}, [interval])
    doc = Document(branes=frozenset({"a", "b"}), objects={"o": obj})
    assert parse(serialize(doc)).objects == {"o": obj}
    assert from_json(to_json(doc)).objects == {"o": obj}


@pytest.mark.parametrize(
    "boundary, bad",
    [
        (lambda: _windows((["a"], 1)), ["a"]),
        (lambda: _windows((STAR, 1), (1, 1)), 1),
    ],
    ids=["unhashable", "two types"],
)
def test_component_summary_names_a_window_brane_that_is_not_a_str(boundary, bad):
    """``component_summary`` never meets such a brane: ``Component`` names
    its type."""
    message = f"expected a str, got {type(bad).__name__}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        boundary()


@pytest.mark.parametrize(
    "circle",
    [Closed(IN, HUGE), Closed(OUT, HUGE), Mixed((in_ref(HUGE), Arc(STAR)))],
    ids=["in", "out", "interval-ref"],
)
@pytest.mark.parametrize("write", [serialize, to_json])
def test_an_overlong_index_is_not_written(write, circle):
    c = Cobordism(ONE, ONE, (Component(0, (circle,)),))
    with pytest.raises(InvalidValueError, match="too long to write in decimal"):
        write(_document(c))
