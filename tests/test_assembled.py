"""What the library assembles without its constructors' checks equals its
rebuild through those constructors.

The readers assemble the values the document builder has checked, and
``compose``, ``identity``, ``swap_cobordism``, ``tensor``, ``realize``,
``stabilize``, ``canonicalize``, ``enumerate_classes``, ``strata_table``,
``component_summary``, ``invariant_summary`` and the samplers assemble
what they derive from checked values (see ``surfaces``).  So
every part of each result is rebuilt through its checked constructor and
must come out equal (``conftest.assert_checked``, which
``test_compose_reference`` applies to ``compose`` and ``tensor`` too).
Equality alone misses three forms that a constructor would not store, so
each is tested too: a side must be the constant ``IN`` or ``OUT`` itself,
since a token or JSON string equal to ``"in"`` is another object; a label
must be an exact ``str``; and branes a ``frozenset``, which equals a
``set``.  A list where a tuple belongs, or a window count of zero, makes
the rebuild differ.
"""

from __future__ import annotations

import json

import pytest

from conftest import CORPUS, assert_checked, assert_object_checked
from occob.calculus import (
    compose,
    identity,
    realize,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import StrataRow, canonicalize, enumerate_classes, strata_table
from occob.dsl import Document, from_json, parse, to_json
from occob.errors import InfeasibleObjectError
from occob.objects import STAR
from occob.sampling import (
    sample_cobordism,
    sample_composable_pair,
    sample_document,
    sample_object,
    shuffled,
)
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    ComponentSummary,
    InvariantSummary,
    component_summary,
    invariant_summary,
    validate,
)

BRANE_SETS = [(STAR,), ("a", "b"), ("a", "b", "c")]
ROUNDTRIP = sorted((CORPUS / "roundtrip").glob("*.occ"))


def assert_document_checked(doc: Document) -> None:
    assert type(doc.branes) is frozenset
    for obj in doc.objects.values():
        assert_object_checked(obj)
    for d in doc.cobordisms.values():
        assert_checked(d.cobordism)
        assert d.cobordism.source is doc.objects[d.source_name]
        assert d.cobordism.target is doc.objects[d.target_name]


@pytest.mark.parametrize("path", ROUNDTRIP, ids=[p.stem for p in ROUNDTRIP])
def test_the_readers_assemble_checked_documents(path):
    doc = parse(path.read_text(encoding="utf-8"))
    assert_document_checked(doc)
    text = to_json(doc)
    assert_document_checked(from_json(text))
    assert_document_checked(from_json(json.loads(text)))


def test_the_corpus_holds_every_kind_of_boundary_line():
    """So the readers assemble each kind: closed circles and references on
    both sides, a reference against its side's default ``rev``, arcs and
    windows."""
    seen = set()
    for path in ROUNDTRIP:
        for d in parse(path.read_text(encoding="utf-8")).cobordisms.values():
            for comp in d.cobordism.components:
                if comp.windows:
                    seen.add("window")
                for circ in comp.circles:
                    if type(circ) is Closed:
                        seen.add(("closed", circ.side))
                        continue
                    for e in circ.cycle:
                        if type(e) is Arc:
                            seen.add("arc")
                        else:
                            seen.add(("ref", e.side))
                            if e.rev != (e.side == IN):
                                seen.add("rev")
    kinds = {("closed", IN), ("closed", OUT), ("ref", IN), ("ref", OUT)}
    assert seen == kinds | {"rev", "arc", "window"}


# The fixed side, if any, and ensure_b; a fixed target refuses ensure_b.
SAMPLER_MODES = [
    (None, False), (None, True), ("source", False), ("source", True), ("target", False)
]


def assert_sampled_checked(c) -> None:
    assert_checked(c)
    assert validate(c) == []


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
@pytest.mark.parametrize("fixed, ensure_b", SAMPLER_MODES)
def test_the_samplers_assemble_checked_cobordisms(rng, branes, fixed, ensure_b):
    for _ in range(40):
        kw = {
            "ensure_b": ensure_b,
            "max_components": rng.randrange(1, 5),
            "max_new_intervals": rng.randrange(4),
            "max_new_circles": rng.randrange(4),
        }
        if fixed is not None:
            kw[fixed] = sample_object(rng, branes, 2, 4)
            assert_object_checked(kw[fixed])
        c = sample_cobordism(rng, branes, **kw)
        assert_sampled_checked(c)
        assert_sampled_checked(shuffled(rng, c))


def test_sampled_documents_are_assembled_checked(rng):
    for _ in range(30):
        doc = sample_document(rng, n_cobordisms=3)
        assert_document_checked(doc)
        for d in doc.cobordisms.values():
            assert validate(d.cobordism) == []


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_the_calculus_assembles_checked_cobordisms(rng, branes):
    for _ in range(60):
        c = sample_cobordism(rng, branes)
        d = sample_cobordism(rng, branes)
        for obj in (c.source, c.target):
            assert_checked(identity(obj))
        assert_checked(swap_cobordism(c.source, d.target))
        assert_checked(tensor(c, d))
        assert_checked(tensor(d, shuffled(rng, c)))
        second, first = sample_composable_pair(rng, branes)
        assert_checked(compose(second, first))


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_realize_and_stabilize_assemble_checked_cobordisms(rng, branes):
    for _ in range(40):
        r = realize(sample_object(rng, branes))
        assert_checked(r)
        for _ in range(rng.randrange(1, 4)):
            r = stabilize(r)
            assert_checked(r)


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_canonical_forms_are_assembled_checked(rng, branes):
    for _ in range(60):
        c = shuffled(rng, sample_cobordism(rng, branes))
        assert_checked(canonicalize(c).cobordism)
    for _ in range(5):
        for form in enumerate_classes(sample_object(rng, branes), 1, 2):
            assert_checked(form.cobordism)


def assert_row_checked(row: StrataRow) -> None:
    """``row`` equals its rebuild through the dataclass constructor, with
    each field of exactly its declared type."""
    assert type(row) is StrataRow
    assert type(row.genus) is int and type(row.c_number) is int
    assert type(row.in_b) is bool
    assert type(row.windows) is tuple
    for pair in row.windows:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is str and type(pair[1]) is int
    assert StrataRow(row.genus, row.windows, row.c_number, row.in_b) == row


def test_strata_rows_of_corpus_objects_are_assembled_checked():
    tabled = 0
    for path in ROUNDTRIP:
        for obj in parse(path.read_text(encoding="utf-8")).objects.values():
            try:
                realize(obj)
            except InfeasibleObjectError:  # no realizer, so no table
                continue
            for row in strata_table(obj, 2, 2):
                assert_row_checked(row)
            tabled += 1
    assert tabled > 20


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_strata_rows_of_sampled_objects_are_assembled_checked(rng, branes):
    for _ in range(20):
        obj = sample_object(rng, branes)
        for row in strata_table(obj, rng.randrange(3), rng.randrange(3)):
            assert_row_checked(row)


def assert_pairs(pairs) -> None:
    assert type(pairs) is tuple
    for pair in pairs:
        assert type(pair) is tuple and len(pair) == 2
        assert type(pair[0]) is str and type(pair[1]) is int


def assert_summary_checked(s: InvariantSummary) -> None:
    """``s`` and each of its component summaries equal their rebuild
    through the dataclass constructors, with each field of exactly its
    declared type."""
    assert type(s) is InvariantSummary
    assert type(s.components) is tuple
    rebuilt = []
    for cs in s.components:
        assert type(cs) is ComponentSummary
        assert type(cs.genus) is int and type(cs.euler) is int
        assert_pairs(cs.windows)
        assert_pairs(cs.boundary_kinds)
        fields = (cs.genus, cs.windows, cs.boundary_kinds, cs.euler)
        rebuilt.append(ComponentSummary(*fields))
    assert tuple(rebuilt) == s.components
    assert_pairs(s.window_vector)
    assert type(s.genus_total) is int and type(s.component_count) is int
    assert type(s.euler) is int and type(s.b_subcategory) is bool
    assert InvariantSummary(
        tuple(rebuilt),
        s.window_vector,
        s.genus_total,
        s.component_count,
        s.euler,
        s.b_subcategory,
    ) == s


def assert_summaries_checked(c) -> None:
    s = invariant_summary(c)
    assert_summary_checked(s)
    per_component = [component_summary(comp) for comp in c.components]
    assert sorted(per_component) == list(s.components)


def test_summaries_of_corpus_cobordisms_are_assembled_checked():
    summarized = 0
    for path in ROUNDTRIP:
        for d in parse(path.read_text(encoding="utf-8")).cobordisms.values():
            assert_summaries_checked(d.cobordism)
            summarized += 1
    assert summarized > 50


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_summaries_of_sampled_cobordisms_are_assembled_checked(rng, branes):
    for _ in range(60):
        c = sample_cobordism(rng, branes)
        assert_summaries_checked(c)
        assert_summaries_checked(stabilize(realize(sample_object(rng, branes))))
