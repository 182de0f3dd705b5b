"""The read path does work linear in the document, counted in lines run.

``sys.settrace`` counts the Python lines that ``validate``, ``parse`` and
``from_json`` run on documents whose object has n entries, for n = 100,
200, 400 and 800.  The documents have two of the shapes of the benchmark's
``large_interfaces`` workload: ``cycle``, n intervals joined by one
n-cycle, and ``circles``, n circles, each with its realizer as the
cobordism.  A count does not depend on the host or on other load, unlike
a time.  Each doubling of n may multiply the count by at most 2.3, which
leaves room for an n log n sort; a quadratic path in Python multiplies it
by about 4.  Work inside a single C call, such as ``x in tuple`` or
``sorted``, runs no Python lines and so is not counted.
"""

from __future__ import annotations

import sys

import pytest

from occob.calculus import realize
from occob.dsl import CobordismDef, Document, from_json, parse, serialize, to_json
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import validate

SIZES = (100, 200, 400, 800)
MAX_RATIO = 2.3


def _document(shape: str, n: int) -> Document:
    if shape == "cycle":
        positions = range(1, n + 1)
        sigma = Permutation.from_cycles([positions], positions)
        obj = GeneralObject({STAR}, [Interval(STAR, STAR)] * n, sigma)
    else:
        obj = GeneralObject({STAR}, [Circle()] * n)
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
    if layer == "parse":
        text = serialize(doc)
        return lambda: parse(text)
    text = to_json(doc)
    return lambda: from_json(text)


@pytest.mark.parametrize("shape", ["cycle", "circles"])
@pytest.mark.parametrize("layer", ["validate", "parse", "from_json"])
def test_each_doubling_of_n_at_most_doubles_the_lines_run(layer, shape):
    counts = [_lines_run(_call(layer, _document(shape, n))) for n in SIZES]
    ratios = [round(b / a, 3) for a, b in zip(counts, counts[1:])]
    assert max(ratios) <= MAX_RATIO, (counts, ratios)
