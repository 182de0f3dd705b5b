"""Shared builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    Window,
)

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"

STAR_SET = frozenset({STAR})
AB = frozenset({"a", "b"})


def star_obj(kinds: str, cycles=None) -> GeneralObject:
    """Build a single-brane object from a string like "OII".

    ``cycles`` is a list of cycles on the 1-based entry positions of the
    intervals, e.g. [[2, 3]].
    """
    entries = [Circle() if k == "O" else Interval(STAR, STAR) for k in kinds]
    positions = {i for i, k in enumerate(kinds, start=1) if k == "I"}
    sigma = None
    if cycles is not None:
        sigma = Permutation.from_cycles(cycles, positions)
    return GeneralObject(STAR_SET, entries, sigma)


def labeled_obj(branes, spec, cycles=None) -> GeneralObject:
    """Build an object from entry specs: "O" or "left:right" label pairs."""
    entries = []
    for s in spec:
        if s == "O":
            entries.append(Circle())
        else:
            left, right = s.split(":")
            entries.append(Interval(left, right))
    positions = {i for i, s in enumerate(spec, start=1) if s != "O"}
    sigma = None
    if cycles is not None:
        sigma = Permutation.from_cycles(cycles, positions)
    return GeneralObject(frozenset(branes), entries, sigma)


def from_boundary(genus: int, boundary) -> Component:
    """The component that ``Component.boundary`` shows as ``boundary``: each
    ``Window`` in it counts one window, and the rest are its circles."""
    boundary = tuple(boundary)
    circles = [circ for circ in boundary if type(circ) is not Window]
    windows = [(circ.brane, 1) for circ in boundary if type(circ) is Window]
    return Component(genus, circles, windows)


def assert_object_checked(obj: GeneralObject) -> None:
    """``obj`` equals its rebuild through the checked constructors, with
    its branes a ``frozenset`` of exact ``str`` labels."""
    assert type(obj) is GeneralObject
    assert type(obj.branes) is frozenset
    assert all(type(b) is str for b in obj.branes)
    assert type(obj.sigma) is Permutation
    assert Permutation(obj.sigma.pairs) == obj.sigma
    for e in obj.entries:
        assert type(e) is Circle or (
            type(e) is Interval and type(e.left) is str and type(e.right) is str
        )
    assert GeneralObject(obj.branes, obj.entries, obj.sigma) == obj


def _side_checked(x: IntervalRef | Closed) -> None:
    assert x.side is IN or x.side is OUT


def assert_checked(c: Cobordism) -> None:
    """``c`` and every part of it equal their rebuilds through the checked
    constructors, with sides and labels in the stored form."""
    assert type(c) is Cobordism
    assert_object_checked(c.source)
    assert_object_checked(c.target)
    for comp in c.components:
        assert type(comp) is Component
        for circ in comp.circles:
            if type(circ) is Closed:
                _side_checked(circ)
                assert Closed(circ.side, circ.index) == circ
                continue
            assert type(circ) is Mixed
            for e in circ.cycle:
                if type(e) is IntervalRef:
                    _side_checked(e)
                    assert IntervalRef(e.side, e.index, e.rev) == e
                else:
                    assert type(e.brane) is str and Arc(e.brane) == e
            assert Mixed(circ.cycle) == circ
        assert Component(comp.genus, comp.circles, comp.windows) == comp
    assert Cobordism(c.source, c.target, c.components) == c


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0B0)
