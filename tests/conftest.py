"""Shared builders for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.surfaces import Component, Window

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0B0)
