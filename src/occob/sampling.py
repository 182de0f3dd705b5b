"""Seeded random instances for tests, experiments, and corpus generation.

All samplers take a ``random.Random`` and are deterministic given its
state.  The draws they make, and their order, are part of their contract:
the ``gluing_stream`` benchmark inputs and ``scripts/gen_corpus.py``
depend on them, so a change must return equal values from generators in
equal states.  Sampled cobordisms always validate, always use the default
traversal flags, and never leave a component with glueable boundary only
(so composing sampled factors never closes a component off from all
boundary).

A cobordism can be sampled against a fixed interface: pass ``source`` or
``target`` (not both) and the other object is derived from the sampled
surface, its interval labels read off the adjacent arcs.

A bad argument raises ``InvalidValueError`` before any draw: a ``rng``
that is not a ``random.Random``, a bound that is not exactly an ``int``,
is negative (``max_components`` and a chain's ``length`` below one) or
is past ``sys.maxsize``, brane labels that are not an iterable of
nonempty strings, or are empty, and a fixed side or a cobordism to
shuffle of the wrong type.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from occob.dsl import CobordismDef, Document
from occob.errors import InvalidValueError, not_iterable, wrong_type
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
    default_rev,
)

__all__ = [
    "sample_object",
    "sample_cobordism",
    "sample_composable_pair",
    "sample_composable_chain",
    "sample_document",
    "shuffled",
]


def sample_object(
    rng: random.Random,
    branes: Iterable[str] = (STAR,),
    max_circles: int = 2,
    max_intervals: int = 3,
) -> GeneralObject:
    """An object whose permutation is brane-coherent, so it has a realizer.

    The permutation is sampled first; interval labels are then chosen so
    that each interval's left label equals its image's right label.
    """
    _check_rng(rng)
    _check_bound("max_circles", max_circles)
    _check_bound("max_intervals", max_intervals)
    branes = _brane_labels(branes)
    k = rng.randint(0, max_intervals)
    circles = rng.randint(0, max_circles)
    kinds = ["I"] * k + ["O"] * circles
    rng.shuffle(kinds)
    positions = [i for i, kind in enumerate(kinds, start=1) if kind == "I"]
    images = positions[:]
    rng.shuffle(images)
    sigma = Permutation(dict(zip(positions, images)))
    lefts = {i: rng.choice(branes) for i in positions}
    rights = {image: lefts[i] for i, image in zip(positions, images)}
    entries = [
        Circle() if kind == "O" else Interval(lefts[i], rights[i])
        for i, kind in enumerate(kinds, start=1)
    ]
    return GeneralObject(branes, entries, sigma)


def _check_rng(rng: random.Random) -> None:
    if not isinstance(rng, random.Random):
        raise wrong_type(random.Random, rng)


def _check_bound(name: str, n: int, least: int = 0) -> None:
    if type(n) is not int:
        raise wrong_type(int, n)
    if n < least:
        raise InvalidValueError(f"{name} must be at least {least}")
    if n > sys.maxsize:
        raise InvalidValueError(f"{name} must be at most {sys.maxsize}")


def _brane_labels(branes: Iterable[str]) -> tuple[str, ...]:
    """The labels sorted, which is the order the draws choose from."""
    try:
        labels = tuple(branes)
    except TypeError as exc:
        raise not_iterable("brane labels", exc) from None
    if not labels:
        raise InvalidValueError("the brane set must be nonempty")
    for b in labels:
        if not isinstance(b, str):
            raise wrong_type(str, b)
        if not b:
            raise InvalidValueError("brane labels must be nonempty strings")
    return tuple(sorted(labels))


@dataclass
class _Ref:
    """A circle or an interval being assembled, its labels in the order the
    boundary meets them; a new entry's index is drawn with its side's order."""

    side: str
    index: int
    circle: bool = False
    first: str | None = None
    second: str | None = None


def _met(side: str, a: str | None, b: str | None) -> tuple:
    """``(left, right)`` in met order, or back: incoming ones are reversed."""
    return (b, a) if default_rev(side) else (a, b)


@dataclass
class _Part:
    """One component being assembled.  Its boundary is ``circles``, then the
    mixed ``cycles`` cut from ``slots``, then ``tail``."""

    circles: list[_Ref] = field(default_factory=list)
    slots: list[_Ref] = field(default_factory=list)
    cycles: list[list[_Ref]] = field(default_factory=list)
    windows: list[tuple[str, int]] = field(default_factory=list)
    tail: list[_Ref] = field(default_factory=list)


def sample_cobordism(
    rng: random.Random,
    branes: Iterable[str] = (STAR,),
    source: GeneralObject | None = None,
    target: GeneralObject | None = None,
    max_components: int = 3,
    max_new_intervals: int = 2,
    max_new_circles: int = 2,
    max_genus: int = 3,
    ensure_b: bool = False,
) -> Cobordism:
    """A valid cobordism drawn from ``rng`` over ``branes``, with 1 to
    ``max_components`` components, each of genus at most ``max_genus``.

    A fixed ``source`` or ``target`` (not both) brings its own branes, and
    the other side is derived: it gets up to ``max_new_intervals`` new
    intervals and ``max_new_circles`` new circles, and more intervals where
    a mixed cycle needs them.  ``ensure_b`` (with a derived target) gives
    each component an outgoing circle or interval, as the b-subcategory asks.
    """
    _check_rng(rng)
    for obj in (source, target):
        if obj is not None and type(obj) is not GeneralObject:
            raise wrong_type(GeneralObject, obj)
    if source is not None and target is not None:
        raise InvalidValueError("fix at most one side; the other is derived")
    objects = {IN: source, OUT: target}
    derivable = tuple(side for side in (IN, OUT) if objects[side] is None)
    if ensure_b and OUT not in derivable:
        raise InvalidValueError("ensure_b needs a derived target")
    _check_bound("max_components", max_components, 1)
    _check_bound("max_new_intervals", max_new_intervals)
    _check_bound("max_new_circles", max_new_circles)
    _check_bound("max_genus", max_genus)
    circles: list[_Ref] = []
    slots: list[_Ref] = []
    for side, obj in objects.items():
        if obj is not None:
            branes = obj.branes
            circles += [_Ref(side, i, True) for i in obj.circle_indices]
            for i in obj.interval_indices:
                iv = obj.entries[i - 1]
                slots.append(_Ref(side, i, False, *_met(side, iv.left, iv.right)))
    branes = _brane_labels(branes)
    new: dict[str, list[_Ref]] = {IN: [], OUT: []}

    def new_entry(side: str, circle: bool = False) -> _Ref:
        new[side].append(_Ref(side, 0, circle))
        return new[side][-1]

    for side in derivable:
        for _ in range(rng.randint(0, max_new_intervals)):
            slots.append(new_entry(side))
        for _ in range(rng.randint(0, max_new_circles)):
            circles.append(new_entry(side, True))
    parts = [_Part() for _ in range(rng.randint(1, max_components))]
    for ref in circles + slots:
        part = parts[rng.randrange(len(parts))]
        (part.circles if ref.circle else part.slots).append(ref)

    # Cut each component's slots into cycles, then insert a derived interval
    # between fixed labels that clash, and a few more for variety.
    for part in parts:
        cut, rest = [], part.slots
        rng.shuffle(rest)
        while rest:
            size = rng.randint(1, len(rest))
            cut.append(rest[:size])
            rest = rest[size:]
        for cyc in cut:
            part.cycles.append([])
            for slot, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                part.cycles[-1].append(slot)
                a, b = slot.second, nxt.first
                if (a is not None and b is not None and a != b) or rng.random() < 0.15:
                    part.cycles[-1].append(new_entry(rng.choice(derivable)))
    # Each arc takes the label one of its ends has, else a drawn one.
    for part in parts:
        for cyc in part.cycles:
            for slot, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                arc = slot.second if slot.second is not None else nxt.first
                slot.second = nxt.first = rng.choice(branes) if arc is None else arc
        for _ in range(2):
            if rng.random() < 0.2:
                part.windows.append((rng.choice(branes), 1))
    # Guards: no empty component, and no component whose whole boundary
    # could be consumed by a single closed-circle gluing pass.
    for part in parts:
        sides = {ref.side for ref in part.circles}
        if not part.windows and not part.cycles and len(sides) < 2:
            part.windows.append((rng.choice(branes), 1))
        if ensure_b and OUT not in sides | {s.side for c in part.cycles for s in c}:
            part.tail.append(new_entry(OUT, True))

    # Draw the order of each side's new entries; build the derived objects.
    for side in (IN, OUT):
        order = list(range(len(new[side])))
        rng.shuffle(order)
        entries: list = [None] * len(order)
        for ref, k in zip(new[side], order):
            ref.index = k + 1
            labels = _met(side, ref.first, ref.second)
            entries[k] = Circle() if ref.circle else Interval(*labels)
        if objects[side] is None:
            objects[side] = GeneralObject(branes, entries)
    components = []
    for part in parts:
        boundary = [Closed(ref.side, ref.index) for ref in part.circles]
        for cyc in part.cycles:
            refs = [IntervalRef(s.side, s.index, default_rev(s.side)) for s in cyc]
            arcs = [Arc(s.second) for s in cyc]
            boundary.append(Mixed([e for pair in zip(refs, arcs) for e in pair]))
        boundary += [Closed(ref.side, ref.index) for ref in part.tail]
        components.append(Component(rng.randint(0, max_genus), boundary, part.windows))
    return Cobordism(objects[IN], objects[OUT], components)


def sample_composable_pair(
    rng: random.Random, branes: Iterable[str] = (STAR,), **kw
) -> tuple[Cobordism, Cobordism]:
    """A pair ``(second, first)`` with ``first.target == second.source``."""
    first = sample_cobordism(rng, branes=branes, **kw)
    second = sample_cobordism(rng, branes=branes, source=first.target, **kw)
    return second, first


def sample_composable_chain(
    rng: random.Random, branes: Iterable[str] = (STAR,), length: int = 3, **kw
) -> list[Cobordism]:
    """Cobordisms ``[c1, .., cn]`` with each ``ck.target == c(k+1).source``."""
    _check_rng(rng)
    _check_bound("length", length, 1)
    chain = [sample_cobordism(rng, branes=branes, **kw)]
    for _ in range(length - 1):
        chain.append(
            sample_cobordism(rng, branes=branes, source=chain[-1].target, **kw)
        )
    return chain


def shuffled(rng: random.Random, c: Cobordism) -> Cobordism:
    """The same cobordism with every representation freedom re-rolled:
    components and boundary circles reordered, mixed cycles rotated."""
    _check_rng(rng)
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    comps = []
    for comp in c.components:
        boundary = []
        for circ in comp.circles:
            if isinstance(circ, Mixed):
                k = rng.randrange(len(circ.cycle))
                circ = Mixed(circ.cycle[k:] + circ.cycle[:k])
            boundary.append(circ)
        # Windows hold places too, so the rng draws follow the whole boundary.
        boundary += [None] * sum(n for _, n in comp.windows)
        rng.shuffle(boundary)
        comps.append(Component(comp.genus, filter(None, boundary), comp.windows))
    rng.shuffle(comps)
    return Cobordism(c.source, c.target, comps)


def sample_document(
    rng: random.Random,
    branes: tuple[str, ...] | None = None,
    n_cobordisms: int = 2,
) -> Document:
    """A document holding sampled cobordisms and their interface objects."""
    _check_rng(rng)
    _check_bound("n_cobordisms", n_cobordisms)
    if branes is None:
        branes = rng.choice([(STAR,), ("a", "b"), ("l", "m", "r")])
    else:
        branes = _brane_labels(branes)
    doc = Document(branes=frozenset(branes))
    for k in range(n_cobordisms):
        cob = sample_cobordism(rng, branes=branes)
        src_name, tgt_name = f"src{k + 1}", f"tgt{k + 1}"
        doc.objects[src_name] = cob.source
        doc.objects[tgt_name] = cob.target
        doc.cobordisms[f"cob{k + 1}"] = CobordismDef(src_name, tgt_name, cob)
    if rng.random() < 0.3:
        doc.objects["extra"] = sample_object(rng, branes)
    return doc
