"""``serialize`` and ``to_json`` against the per-window writer in ``reference_writers``.

The writers write each brane's windows as one line or node repeated by
its count; the reference expands them into one string per window first.
Both must give the same text, byte for byte, on towers of stabilizations,
on components that hold only windows, in single-brane mode and beside
closed and mixed circles.
"""

from __future__ import annotations

import pytest

from occob.calculus import realize, stabilize
from occob.dsl import CobordismDef, Document, serialize, to_json
from occob.objects import STAR, Circle, GeneralObject, Interval
from occob.sampling import sample_document
from occob.surfaces import IN, OUT, Arc, Closed, Cobordism, Component, Mixed
from occob.surfaces import in_ref, out_ref
from reference_writers import serialize_per_window, to_json_per_window

BRANE_SETS = [(STAR,), ("a", "b"), ("a", "b", "c")]


def _assert_written_alike(doc: Document) -> None:
    assert serialize(doc) == serialize_per_window(doc)
    assert to_json(doc) == to_json_per_window(doc)


def _document(branes, source, target, components) -> Document:
    c = Cobordism(source, target, components)
    doc = Document(branes=frozenset(branes), objects={"S": source, "T": target})
    doc.cobordisms["c"] = CobordismDef("S", "T", c)
    return doc


@pytest.mark.parametrize("branes", BRANE_SETS, ids=len)
def test_a_circle_stabilized_up_to_50_times(branes):
    c1 = GeneralObject(branes, [Circle()])
    c = realize(c1)
    for _ in range(51):
        doc = Document(branes=frozenset(branes), objects={"C": c1})
        doc.cobordisms["T"] = CobordismDef("C", "C", c)
        _assert_written_alike(doc)
        c = stabilize(c)


@pytest.mark.parametrize("branes", BRANE_SETS, ids=len)
def test_components_that_hold_only_windows(branes):
    empty = GeneralObject(branes, [])
    counts = [(b, k) for k, b in enumerate(branes, start=1)]
    components = [
        Component(0, (), counts),
        Component(3, (), counts[-1:]),
        Component(1, (), [(branes[0], 7)]),
    ]
    _assert_written_alike(_document(branes, empty, empty, components))


@pytest.mark.parametrize("windows", [1, 2, 9])
def test_single_brane_window_lines(windows):
    c1 = GeneralObject({STAR}, [Circle()])
    comp = Component(2, [Closed(OUT, 1), Closed(IN, 1)], [(STAR, windows)])
    doc = _document((STAR,), c1, c1, [comp])
    assert serialize(doc).count("    window;\n") == windows
    _assert_written_alike(doc)


@pytest.mark.parametrize("branes", BRANE_SETS, ids=len)
@pytest.mark.parametrize("closed", [False, True], ids=["no-closed", "closed"])
def test_windows_beside_mixed_circles_with_and_without_closed_ones(branes, closed):
    b = branes[-1]
    entries = [Interval(b, b)] + [Circle()] * closed
    x = GeneralObject(branes, entries)
    mixed = Mixed([in_ref(1), Arc(b), out_ref(1), Arc(b)])
    circles = [mixed] + [Closed(OUT, 2), Closed(IN, 2)] * closed
    windows = [(brane, 2) for brane in branes]
    components = [Component(1, circles, windows)]
    if not closed:
        components.append(Component(0, (), windows[:1]))
    _assert_written_alike(_document(branes, x, x, components))


@pytest.mark.parametrize("branes", BRANE_SETS, ids=len)
def test_sampled_documents(rng, branes):
    for _ in range(40):
        _assert_written_alike(sample_document(rng, branes=branes))
