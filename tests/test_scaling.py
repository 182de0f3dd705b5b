"""The document layers do work linear in the document, counted in lines run.

``sys.settrace`` counts the Python lines that ``validate``, ``parse``,
``from_json``, ``to_json`` and ``serialize`` run on documents of size n,
that ``realize`` and ``identity`` run on the document's object of n
entries, that ``compose`` runs gluing the realizer to the identity on that
object, that ``canonicalize`` and ``boundary_permutation`` run on the
realizer, that ``pullback`` runs pulling the object's sigma back along
its identity, that ``tensor`` runs placing the realizer beside itself and
that ``swap_cobordism`` runs on the object and itself, for n = 100, 200,
400 and 800.  Three shapes follow the
benchmark's ``large_interfaces`` workload, each an object of n entries
with its realizer as the cobordism: ``cycle``, n intervals joined by one
n-cycle; ``perm``, n intervals joined in pairs, so that sigma has n / 2
cycles; and ``circles``, n circles.  The fourth, ``windows``, is one
component of genus n with n windows over two branes, built directly from
its window counts.  It has no object of n entries, so ``realize``,
``identity``, ``compose``, ``boundary_permutation``, ``pullback``,
``tensor`` and ``swap_cobordism`` skip it.
Apart from the documents, ``stabilize`` runs k = n times on one circle
over two branes, so that its boundary grows to 2n + 2 circles, and
``compose`` glues the identity of one circle onto n caps over n
intervals and one disk, so that n pieces touch no middle entry, and
``pullback`` walks across n glued intervals on one circle.  A
count does not depend on the host or on other load, unlike a time.  Each
doubling of n may multiply the count by at most 2.3, which leaves room
for an n log n sort; a quadratic path in Python multiplies it by about 4.
The tokenizer is held to more: on the texts of the ``cycle``, ``perm``
and ``circles`` documents its count may grow by at most 1.1 per doubling.
So are ``serialize``, ``to_json``, ``canonicalize`` and ``validate`` on
the ``windows`` document, as windows are stored as counts: they work per
brane, not per window.
Work inside a single C call, such as ``x in tuple`` or ``sorted``, runs
no Python lines and so is not counted.  So ``canonicalize`` and
``validate`` on the ``cycle`` document are also timed, the least of seven
runs at n = 800 and at 4n = 3200: the time may grow by at most 9, between
n log n (about 4.8) and quadratic (16).
"""

from __future__ import annotations

import sys
import timeit

import pytest

from occob.calculus import (
    compose,
    identity,
    pullback,
    realize,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import canonicalize
from occob.dsl import (
    CobordismDef,
    Document,
    _tokenize,
    from_json,
    parse,
    serialize,
    to_json,
)
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    Mixed,
    boundary_permutation,
    in_ref,
    out_ref,
    validate,
)

SIZES = (100, 200, 400, 800)
MAX_RATIO = 2.3


def _document(shape: str, n: int) -> Document:
    if shape == "windows":
        branes = ("a", "b")
        c1 = GeneralObject(branes, [Circle()])
        windows = [("a", n - n // 2), ("b", n // 2)]
        c = Cobordism(c1, c1, [Component(n, [Closed(IN, 1), Closed(OUT, 1)], windows)])
        doc = Document(branes=frozenset(branes), objects={"C": c1})
        doc.cobordisms["R"] = CobordismDef("C", "C", c)
        return doc
    if shape == "circles":
        obj = GeneralObject({STAR}, [Circle()] * n)
    else:
        positions = range(1, n + 1)
        pairs = zip(positions[::2], positions[1::2])
        cycles = [positions] if shape == "cycle" else pairs
        sigma = Permutation.from_cycles(cycles, positions)
        obj = GeneralObject({STAR}, [Interval(STAR, STAR)] * n, sigma)
    r = realize(obj)
    doc = Document(branes=frozenset({STAR}))
    doc.objects["C"], doc.objects["X"] = r.target, obj
    doc.cobordisms["R"] = CobordismDef("X", "C", r)
    return doc


def _lines_run(call) -> int:
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(before)
    return count


def _call(layer: str, doc: Document):
    """The traced call of ``layer`` on ``doc``, its input prepared untraced."""
    if layer == "validate":
        c = doc.cobordisms["R"].cobordism
        return lambda: validate(c)
    if layer == "realize" or layer == "identity":
        x, build = doc.objects["X"], realize if layer == "realize" else identity
        return lambda: build(x)
    if layer == "compose":
        r, ident = doc.cobordisms["R"].cobordism, identity(doc.objects["X"])
        return lambda: compose(r, ident)
    if layer == "canonicalize" or layer == "boundary_permutation":
        r = doc.cobordisms["R"].cobordism
        run = canonicalize if layer == "canonicalize" else boundary_permutation
        return lambda: run(r)
    if layer == "pullback":
        x = doc.objects["X"]
        ident = identity(x)
        return lambda: pullback(ident, x.sigma)
    if layer == "tensor":
        r = doc.cobordisms["R"].cobordism
        return lambda: tensor(r, r)
    if layer == "swap_cobordism":
        x = doc.objects["X"]
        return lambda: swap_cobordism(x, x)
    if layer == "parse":
        text = serialize(doc)
        return lambda: parse(text)
    if layer == "from_json":
        text = to_json(doc)
        return lambda: from_json(text)
    write = {"to_json": to_json, "serialize": serialize}[layer]
    return lambda: write(doc)


CASES = [
    (layer, shape)
    for layer in ("validate", "parse", "from_json", "to_json", "serialize")
    for shape in ("cycle", "perm", "circles", "windows")
] + [
    (layer, shape)
    for layer in (
        "realize",
        "identity",
        "compose",
        "canonicalize",
        "boundary_permutation",
        "pullback",
        "tensor",
        "swap_cobordism",
    )
    for shape in ("cycle", "perm", "circles")
] + [("canonicalize", "windows")]


@pytest.mark.parametrize("layer, shape", CASES)
def test_each_doubling_of_n_at_most_doubles_the_lines_run(layer, shape):
    counts = [_lines_run(_call(layer, _document(shape, n))) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= MAX_RATIO, (counts, ratios)


@pytest.mark.parametrize("layer", ["canonicalize", "validate"])
def test_quadrupling_n_takes_less_than_quadratic_time(layer):
    """A backstop for work done inside C calls, which the line count does
    not see: a search over every rotation of a mixed cycle by slicing, or
    a scan of an object's entries per reference.  The two sizes are run
    in turn, so that other load slows both alike, and the least of seven
    runs of each is kept."""
    calls = [_call(layer, _document("cycle", n)) for n in (800, 3200)]
    runs = [[timeit.timeit(call, number=1) for call in calls] for _ in range(7)]
    small, large = map(min, zip(*runs))
    assert large / small <= 9, (small, large)


@pytest.mark.parametrize("shape", ["cycle", "perm", "circles"])
def test_tokenizing_a_document_runs_a_fixed_number_of_lines(shape):
    """A document text of ASCII words, integers and symbols is cut into
    tokens and checked inside a few C calls, not a Python step per token
    or per distinct token."""
    texts = [serialize(_document(shape, n)) for n in SIZES]
    counts = [_lines_run(lambda: _tokenize(text)) for text in texts]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= 1.1, (counts, ratios)


@pytest.mark.parametrize("layer", ["serialize", "to_json", "canonicalize", "validate"])
def test_windows_are_handled_per_brane_not_per_window(layer):
    """Each brane's windows are written as one line or JSON node repeated
    by a C call, keyed as one run of ``(2, brane)`` entries and checked
    once, so the lines run do not grow with the window count."""
    counts = [_lines_run(_call(layer, _document("windows", n))) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= 1.1, (counts, ratios)


def test_stabilizing_k_times_is_linear_in_k():
    """Each call adds a handle and one to each of two window counts in a
    constant number of lines: copying or checking every window again
    would make the count quadratic in k."""
    circle = realize(GeneralObject(("a", "b"), [Circle()]))

    def stabilize_k_times(k: int):
        c = circle
        for _ in range(k):
            c = stabilize(c)

    counts = [_lines_run(lambda: stabilize_k_times(n)) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= MAX_RATIO, (counts, ratios)


def test_composing_past_pieces_the_middle_does_not_touch_is_linear():
    """The first factor is n caps ``mixed [in i, arc *]`` over n intervals
    and one disk holding ``out 1``; only the disk meets the middle circle,
    so each cap passes through in a constant number of lines."""
    c1 = GeneralObject({STAR}, [Circle()])
    ident = identity(c1)

    def glue(n: int):
        x = GeneralObject({STAR}, [Interval(STAR, STAR)] * n)
        caps = [Component(0, [Mixed([in_ref(i), Arc(STAR)])]) for i in range(1, n + 1)]
        first = Cobordism(x, c1, caps + [Component(0, [Closed(OUT, 1)])])
        return lambda: compose(ident, first)

    counts = [_lines_run(glue(n)) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= MAX_RATIO, (counts, ratios)


def test_one_walk_across_n_glued_intervals_is_linear():
    """One component ``mixed [in 1, arc, out 1, arc, ..., out n, arc]``
    from ``[I]`` to ``[I] * n``, and ``tau`` the identity: the walk from
    ``in 1`` crosses all n outgoing intervals before it comes back."""
    star = Arc(STAR)
    one = GeneralObject({STAR}, [Interval(STAR, STAR)])

    def pull(n: int):
        cycle = [in_ref(1), star]
        for y in range(1, n + 1):
            cycle += [out_ref(y), star]
        target = GeneralObject({STAR}, [Interval(STAR, STAR)] * n)
        c = Cobordism(one, target, [Component(0, [Mixed(cycle)])])
        assert validate(c) == []
        tau = Permutation.identity(range(1, n + 1))
        assert pullback(c, tau) == one.sigma
        return lambda: pullback(c, tau)

    counts = [_lines_run(pull(n)) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= MAX_RATIO, (counts, ratios)
