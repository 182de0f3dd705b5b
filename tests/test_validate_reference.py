"""``validate`` against the earlier version kept in ``reference_validate``.

Both must return the same violations, in the same order, on sampled
cobordisms, on reordered and rotated copies of them, and on mutants that
break each rule.  The mutants here are one or two edits of a sampled
cobordism; every index they write is a plain ``int``.  The reference's
``kind`` rule no longer fires: the constructors refuse a value of the
wrong kind before ``validate`` could meet it, which
``test_a_wrong_kind_is_refused_before_validate`` checks on the edits
that once made it fire.
"""

from __future__ import annotations

import random

import pytest

from conftest import from_boundary
from occob.errors import InvalidValueError
from occob.objects import Circle, GeneralObject, Interval
from occob.sampling import sample_cobordism, shuffled
from occob.surfaces import (
    IN,
    Arc,
    Closed,
    Cobordism,
    IntervalRef,
    Mixed,
    Window,
    validate,
)
from reference_validate import reference_validate
from test_compose_reference import (
    BRANE_SETS,
    _edit_entry,
    _mixed_positions,
    drop_reference,
    flip_rev,
    relabel_arc,
)


def _with_component(c: Cobordism, ci: int, boundary) -> Cobordism:
    comps = list(c.components)
    comps[ci] = from_boundary(comps[ci].genus, boundary)
    return Cobordism(c.source, c.target, comps)


def _circle_positions(c: Cobordism, kinds) -> list[tuple[int, int]]:
    return [
        (ci, bi)
        for ci, comp in enumerate(c.components)
        for bi, circ in enumerate(comp.boundary)
        if isinstance(circ, kinds)
    ]


def duplicate_reference(rng: random.Random, c: Cobordism) -> Cobordism | None:
    """A second circle on some component that uses an interval again."""
    spots = _mixed_positions(c, lambda e: isinstance(e, IntervalRef))
    if not spots:
        return None
    ci, bi, ei = rng.choice(spots)
    ref = c.components[ci].boundary[bi].cycle[ei]
    arc = Arc(rng.choice(sorted(c.source.branes)))
    target = rng.randrange(len(c.components))
    return _with_component(
        c, target, c.components[target].boundary + (Mixed((ref, arc)),)
    )


def duplicate_circle(rng: random.Random, c: Cobordism) -> Cobordism | None:
    spots = _circle_positions(c, Closed)
    if not spots:
        return None
    ci, bi = rng.choice(spots)
    boundary = c.components[ci].boundary
    return _with_component(c, ci, boundary + (boundary[bi],))


def _bad_index(rng: random.Random, obj: GeneralObject, wrong_kind) -> int:
    """An index with no entry of the wanted kind: out of range, or one of
    ``wrong_kind`` positions when there are some."""
    choices = [0, -1, len(obj.entries) + 1, len(obj.entries) + 7]
    choices += [i for i, e in enumerate(obj.entries, 1) if isinstance(e, wrong_kind)]
    return rng.choice(choices)


def index_out_of_range(rng: random.Random, c: Cobordism) -> Cobordism | None:
    refs = _mixed_positions(c, lambda e: isinstance(e, IntervalRef))
    closed = _circle_positions(c, Closed)
    if refs and (not closed or rng.random() < 0.5):

        def pushed(e):
            obj = c.source if e.side == IN else c.target
            return (IntervalRef(e.side, _bad_index(rng, obj, Circle), e.rev),)

        return _edit_entry(c, rng.choice(refs), pushed)
    if not closed:
        return None
    ci, bi = rng.choice(closed)
    boundary = list(c.components[ci].boundary)
    circ = boundary[bi]
    obj = c.source if circ.side == IN else c.target
    boundary[bi] = Closed(circ.side, _bad_index(rng, obj, Interval))
    return _with_component(c, ci, boundary)


def arcs_side_by_side(rng: random.Random, c: Cobordism) -> Cobordism | None:
    spots = _mixed_positions(c, lambda e: isinstance(e, Arc))
    if not spots:
        return None
    return _edit_entry(c, rng.choice(spots), lambda e: (e, Arc(e.brane)))


def empty_component(rng: random.Random, c: Cobordism) -> Cobordism | None:
    if not c.components:
        return None
    return _with_component(c, rng.randrange(len(c.components)), ())


def undeclared_brane(rng: random.Random, c: Cobordism) -> Cobordism | None:
    arcs = _mixed_positions(c, lambda e: isinstance(e, Arc))
    if arcs and rng.random() < 0.7:
        return _edit_entry(c, rng.choice(arcs), lambda e: (Arc("z"),))
    if not c.components:
        return None
    ci = rng.randrange(len(c.components))
    return _with_component(c, ci, c.components[ci].boundary + (Window("z"),))


def other_branes(rng: random.Random, c: Cobordism) -> Cobordism | None:
    t = c.target
    wider = GeneralObject(t.branes | {"z"}, t.entries, t.sigma)
    return Cobordism(c.source, wider, c.components)


MUTATIONS = [
    drop_reference,
    flip_rev,
    relabel_arc,
    duplicate_reference,
    duplicate_circle,
    index_out_of_range,
    arcs_side_by_side,
    empty_component,
    undeclared_brane,
    other_branes,
]


def assert_same(c: Cobordism) -> set[str]:
    got = validate(c)
    assert got == reference_validate(c)
    return {v.rule for v in got}


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_sampled_cobordisms_validate_as_the_reference_does(rng, branes):
    for _ in range(200):
        c = sample_cobordism(rng, branes, max_new_intervals=4)
        assert assert_same(c) == set()
        assert assert_same(shuffled(rng, c)) == set()


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_mutants_validate_as_the_reference_does(rng, branes):
    fired: set[str] = set()
    for _ in range(300):
        c = sample_cobordism(rng, branes, max_new_intervals=4)
        for mutate in MUTATIONS:
            m = mutate(rng, c)
            if m is None:
                continue
            fired |= assert_same(m) | assert_same(shuffled(rng, m))
            twice = rng.choice(MUTATIONS)(rng, m)
            if twice is not None:
                fired |= assert_same(twice)
    rules = {
        "brane-set",
        "empty-boundary",
        "index-range",
        "unknown-brane",
        "alternation",
        "arc-brane",
        "missing-use",
        "duplicate-use",
    }
    assert fired == rules


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_a_wrong_kind_is_refused_before_validate(rng, branes):
    """A circle in a mixed cycle, and an arc or a str among a component's
    circles: the edits that once made ``validate`` report ``kind`` now
    raise ``InvalidValueError`` where the cycle or component is built."""
    tried = 0
    for _ in range(100):
        c = sample_cobordism(rng, branes, max_new_intervals=4)
        brane = rng.choice(sorted(c.source.branes))
        spots = _mixed_positions(c, lambda e: True)
        if spots:
            wrong = rng.choice([Window(brane), Closed(IN, 1)])
            with pytest.raises(InvalidValueError, match="neither"):
                _edit_entry(c, rng.choice(spots), lambda e: (wrong,))
            tried += 1
        if c.components:
            ci = rng.randrange(len(c.components))
            wrong = rng.choice([Arc(brane), "circle"])
            with pytest.raises(InvalidValueError, match="not a kind of boundary"):
                _with_component(c, ci, c.components[ci].boundary + (wrong,))
            tried += 1
    assert tried > 100


def test_arbitrary_cycles_validate_as_the_reference_does(rng):
    """Cycles of 0 to 6 entries drawn from arcs and references in and out
    of range, on objects over {a, b}: every length and order of entries,
    not only a sampled surface edited once or twice.  An entry of another
    kind is refused by ``Mixed``."""
    branes = ("a", "b")
    for wrong in (Window("a"), Closed(IN, 1)):
        with pytest.raises(InvalidValueError, match="neither"):
            Mixed((Arc("a"), wrong))
    pool = [Arc("a"), Arc("b"), Arc("z")]
    pool += [
        IntervalRef(side, i, rev)
        for side in ("in", "out")
        for i in (-1, 0, 1, 2, 3, 4)
        for rev in (False, True)
    ]
    fired: set[str] = set()
    for _ in range(3000):
        c = sample_cobordism(rng, branes, max_components=2)
        if not c.components:
            continue
        cycles = tuple(
            Mixed(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(1, 2))
        )
        ci = rng.randrange(len(c.components))
        fired |= assert_same(_with_component(c, ci, c.components[ci].boundary + cycles))
    assert {"alternation", "arc-brane", "index-range"} <= fired
