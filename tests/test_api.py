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

import re

import pytest

import occob
from conftest import AB, STAR_SET, labeled_obj, star_obj
from occob import (
    STAR,
    Arc,
    Circle,
    ClosedComponentError,
    Cobordism,
    CobordismDef,
    Component,
    CompositionError,
    Document,
    DslSyntaxError,
    DslValidationError,
    GeneralObject,
    InClosed,
    InfeasibleObjectError,
    Interval,
    IntervalRef,
    InvalidCobordismError,
    InvalidValueError,
    Mixed,
    OcError,
    OutClosed,
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


def _square(rev_in: bool = True) -> Cobordism:
    """The identity on one interval, with a choice of incoming traversal."""
    square = Mixed((out_ref(1), Arc(STAR), in_ref(1, rev_in), Arc(STAR)))
    return Cobordism(IV, IV, (Component(0, (square,)),))


def _to_circle(*boundary) -> Cobordism:
    """A one-component cobordism from one interval to one circle."""
    return Cobordism(IV, ONE, (Component(0, boundary),))


def _undeclared_window() -> Cobordism:
    return Cobordism(EMPTY, EMPTY, (Component(0, (Window("z"),)),))


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
    return Cobordism(ONE, ONE, (Component(HUGE, (InClosed(1), OutClosed(1))),))


def _cap() -> Cobordism:
    """A disc from one circle to nothing: gluing it on top closes a surface."""
    return Cobordism(ONE, EMPTY, (Component(0, (InClosed(1),)),))


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
        ("interval out of range", lambda: ONE.interval(9), InvalidValueError),
        ("interval at a circle", lambda: ONE.interval(1), InvalidValueError),
        (
            "tensor over other branes",
            lambda: ONE.tensor(GeneralObject(AB, [])),
            InvalidValueError,
        ),
    ],
    "IntervalRef": [
        ("unknown side", lambda: IntervalRef("up", 1, False), InvalidValueError),
    ],
    "Component": [
        ("negative genus", lambda: Component(-1), InvalidValueError),
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
        (
            "an arc where a circle goes",
            lambda: invariant_summary(_to_circle(Arc(STAR))),
            InvalidCobordismError,
        ),
        (
            "window branes of two types on two components",
            lambda: invariant_summary(_split(Window(STAR), Window(1))),
            InvalidCobordismError,
        ),
    ],
    "component_summary": [
        (
            "an arc where a circle goes",
            lambda: component_summary(Component(0, (Arc(STAR),))),
            InvalidCobordismError,
        ),
        (
            "a reference where a circle goes",
            lambda: component_summary(Component(0, (in_ref(1),))),
            InvalidCobordismError,
        ),
        (
            "unhashable window brane",
            lambda: component_summary(Component(0, (Window(["a"]),))),
            InvalidCobordismError,
        ),
        (
            "window branes of two types",
            lambda: component_summary(Component(0, (Window(STAR), Window(1)))),
            InvalidCobordismError,
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
            lambda: boundary_permutation(_to_circle(OutClosed(1))),
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
    ],
    "is_morphism": [
        (
            "source does not match",
            lambda: is_morphism(identity(IV), ONE, IV),
            CompositionError,
        ),
    ],
    "make_T": [
        ("no branes", lambda: make_T([]), InvalidValueError),
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
            InvalidCobordismError,
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
    ],
    "from_json": [
        ("not JSON", lambda: from_json("{"), DslSyntaxError),
        ("unknown format", lambda: from_json({"format": 2}), DslSyntaxError),
        (
            "over-long integer",
            lambda: from_json(f'{{"format": {LONG}}}'),
            DslSyntaxError,
        ),
    ],
}

WRONG_TYPES: dict[str, list[tuple[str, object]]] = {
    "Component": [
        ("bool genus", lambda: Component(True, (InClosed(1),))),
        ("str genus", lambda: Component("1")),
        ("float genus", lambda: Component(1.0)),
        ("int boundary", lambda: Component(0, 1)),
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
    "Arc": _RECORD,
    "InClosed": _RECORD,
    "OutClosed": _RECORD,
    "Window": _RECORD,
    "Mixed": _RECORD,
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
    "in_ref": "an IntervalRef with a valid side, for any index",
    "out_ref": "an IntervalRef with a valid side, for any index",
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


def _disc(*extra) -> Cobordism:
    """A valid disc from one interval to one circle, plus ``extra`` circles."""
    return _to_circle(Mixed((in_ref(1), Arc(STAR))), OutClosed(1), *extra)


@pytest.mark.parametrize("wrong", [Window(STAR), InClosed(1), Mixed(())])
def test_validate_reports_a_wrong_kind_in_a_mixed_cycle(wrong):
    cycle = (in_ref(1), Arc(STAR), wrong, Arc(STAR))
    c = _to_circle(Mixed(cycle), OutClosed(1))
    (kind,) = [v for v in validate(c) if v.rule == "kind"]
    assert kind.where == "component 1, circle 1"
    name = type(wrong).__name__
    assert kind.message == f"entry 3: {name} is neither an interval reference nor an arc"


@pytest.mark.parametrize("brane", [[1], 1, None], ids=repr)
def test_validate_reports_a_brane_that_is_not_a_str_as_unknown(brane):
    window = Cobordism(EMPTY, EMPTY, (Component(0, (Window(brane),)),))
    (v,) = validate(window)
    message = f"window brane {brane!r} not declared"
    assert (v.rule, v.message) == ("unknown-brane", message)
    with pytest.raises(InvalidCobordismError, match="not declared"):
        window_vector(window)
    v = validate(_to_circle(Mixed((in_ref(1), Arc(brane))), OutClosed(1)))[0]
    assert (v.rule, v.message) == ("unknown-brane", f"arc brane {brane!r} not declared")


def test_validate_reports_a_wrong_kind_of_circle():
    assert validate(_disc()) == []
    (v,) = validate(_disc(Arc(STAR)))
    assert (v.rule, v.where) == ("kind", "component 1, circle 3")
    (v,) = validate(Cobordism(EMPTY, EMPTY, (Component(0, (in_ref(1),)),)))
    assert v.message == "IntervalRef is not a kind of boundary circle"


@pytest.mark.parametrize(
    "circle",
    [InClosed(HUGE), Mixed((in_ref(HUGE), Arc(STAR)))],
    ids=["closed", "mixed"],
)
def test_validate_shows_an_overlong_index_by_its_size(circle):
    c = Cobordism(ONE, ONE, (Component(0, (circle,)),))
    (v,) = [v for v in validate(c) if v.rule == "index-range"]
    assert v.message.endswith(f"at position <an integer of {HUGE.bit_length()} bits>")


@pytest.mark.parametrize("index", [1.5, "x", None, True], ids=repr)
@pytest.mark.parametrize("write", [serialize, to_json])
def test_an_index_of_the_wrong_type_is_not_written(write, index):
    c = Cobordism(ONE, ONE, (Component(0, (InClosed(index), OutClosed(1))),))
    name = type(index).__name__
    with pytest.raises(InvalidValueError, match=f"^expected an integer, got {name}$"):
        write(_document(c))


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
    square = Mixed((out_ref(1), Arc(STAR), IntervalRef("in", 1, 2), Arc(STAR)))
    doc = _document(Cobordism(IV, IV, (Component(0, (square,)),)))
    message = "^mixed cycle entry: an interval reference with rev 2, not a bool$"
    with pytest.raises(InvalidCobordismError, match=message):
        to_json(doc)


@pytest.mark.parametrize(
    "entry, message",
    [
        (IntervalRef("in", 1, None), "an interval reference with rev None, not a bool"),
        (IntervalRef("in", 1, 1), "an interval reference with rev 1, not a bool"),
        (InClosed(1), "InClosed is neither an interval reference nor an arc"),
        (Window(STAR), "Window is neither an interval reference nor an arc"),
        (Mixed(()), "Mixed is neither an interval reference nor an arc"),
    ],
    ids=["rev None", "rev 1", "InClosed", "Window", "Mixed"],
)
@pytest.mark.parametrize("call", [canonicalize, serialize, to_json])
def test_a_mixed_entry_of_the_wrong_kind_is_an_invalid_cobordism(call, entry, message):
    square = Mixed((out_ref(1), Arc(STAR), entry, Arc(STAR)))
    c = Cobordism(IV, IV, (Component(0, (square,)),))
    with pytest.raises(InvalidCobordismError, match=f"^mixed cycle entry: {message}$"):
        call(c if call is canonicalize else _document(c))


INCOMPARABLE = {
    "closed indices": Cobordism(
        ONE, ONE, (Component(0, (InClosed("x"), InClosed(1))),)
    ),
    "reference indices": _to_circle(
        Mixed((in_ref(1), Arc(STAR), in_ref("x"), Arc(STAR)))
    ),
    "arc branes": _to_circle(Mixed((Arc(1), Arc(STAR), in_ref(1), Arc(STAR)))),
    "window branes": Cobordism(
        EMPTY, EMPTY, (Component(0, (Window(1), Window(STAR))),)
    ),
    "components": _split(InClosed("x"), InClosed(1)),
}


@pytest.mark.parametrize("c", INCOMPARABLE.values(), ids=INCOMPARABLE.keys())
@pytest.mark.parametrize(
    "call",
    [
        canonicalize,
        lambda c: is_isomorphic(c, c),
        lambda c: serialize(_document(c)),
        lambda c: to_json(_document(c)),
    ],
    ids=["canonicalize", "is_isomorphic", "serialize", "to_json"],
)
def test_keys_that_do_not_compare_are_an_invalid_cobordism(call, c):
    message = r"^boundary keys do not compare \('<' not supported between .*\): "
    with pytest.raises(InvalidCobordismError, match=message):
        call(c)


@pytest.mark.parametrize("label", [["x"], {}], ids=repr)
def test_an_unhashable_label_is_named_as_not_declared(label):
    message = f"entry 2: brane {label!r} not in ['*']"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(message)}$"):
        GeneralObject(STAR_SET, [Circle(), Interval(STAR, label)])


@pytest.mark.parametrize(
    "boundary, bad",
    [((Window(["a"]),), ["a"]), ((Window(STAR), Window(1)), 1)],
    ids=["unhashable", "two types"],
)
def test_component_summary_names_a_window_brane_that_is_not_a_str(boundary, bad):
    message = f"window brane {bad!r} is not a str"
    with pytest.raises(InvalidCobordismError, match=f"^{re.escape(message)}$"):
        component_summary(Component(0, boundary))


@pytest.mark.parametrize(
    "circle",
    [InClosed(HUGE), OutClosed(HUGE), Mixed((in_ref(HUGE), Arc(STAR)))],
    ids=["in", "out", "interval-ref"],
)
@pytest.mark.parametrize("write", [serialize, to_json])
def test_an_overlong_index_is_not_written(write, circle):
    c = Cobordism(ONE, ONE, (Component(0, (circle,)),))
    with pytest.raises(InvalidValueError, match="too long to write in decimal"):
        write(_document(c))
