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
shuffle of the wrong type.  A ``str`` subclass label is taken as the
``str`` it holds, as ``GeneralObject`` takes it, and draws as that
``str`` would.

Once the arguments pass, every value is derived from checked ones, so the
samplers assemble their results unchecked (``objects._object`` and the
``surfaces`` assemblers); the draws stay those that
``tests/test_sampling_reference.py`` pins.  One ``Circle``, one ``Arc``
per brane and one ``Interval`` per label pair are shared within each
result, as the readers share them.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable

from occob.dsl import CobordismDef, Document
from occob.errors import InvalidValueError, not_iterable, wrong_type
from occob.objects import STAR, Circle, GeneralObject, Interval, _object
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Cobordism,
    Mixed,
    _closed,
    _cobordism,
    _component,
    _mixed,
    _ref,
)

__all__ = [
    "sample_object",
    "sample_cobordism",
    "sample_composable_pair",
    "sample_composable_chain",
    "sample_document",
    "shuffled",
]

_CIRCLE = Circle()


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
    lefts = {i: rng.choice(branes) for i in positions}
    rights = {image: lefts[i] for i, image in zip(positions, images)}
    shared: dict = {}
    entries = tuple(
        _CIRCLE if kind == "O" else _interval(shared, lefts[i], rights[i])
        for i, kind in enumerate(kinds, start=1)
    )
    return _object(frozenset(branes), entries, tuple(zip(positions, images)))


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
    """The labels as exact ``str`` and sorted, which is the order the draws
    choose from; a ``str`` subclass is taken as the ``str`` it holds, as
    ``GeneralObject`` takes it."""
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
    return tuple(sorted(map(str.__str__, labels)))


def _interval(shared: dict, left: str, right: str) -> Interval:
    """``Interval(left, right)``, made once per label pair into ``shared``."""
    key = (left, right)
    return shared.get(key) or shared.setdefault(key, Interval(left, right))


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
    # Each entry under assembly is a list: ``[side, index]`` for a circle,
    # ``[side, index, first, second]`` for an interval, its labels in the
    # order the boundary meets them.  A new entry's index is drawn last.
    circles: list[list] = []
    slots: list[list] = []
    for side, obj in objects.items():
        if obj is not None:
            branes = obj.branes
            for i, e in enumerate(obj.entries, start=1):
                if isinstance(e, Circle):
                    circles.append([side, i])
                elif side is IN:
                    slots.append([side, i, e.right, e.left])
                else:
                    slots.append([side, i, e.left, e.right])
    branes = _brane_labels(branes)
    new: dict[str, list[list]] = {IN: [], OUT: []}
    for side in derivable:
        for _ in range(rng.randint(0, max_new_intervals)):
            slots.append([side, 0, None, None])
            new[side].append(slots[-1])
        for _ in range(rng.randint(0, max_new_circles)):
            circles.append([side, 0])
            new[side].append(circles[-1])
    # Each component: its circles, slots, the mixed cycles cut from the
    # slots, the branes of its windows, and the circles that end it.
    parts = [([], [], [], [], []) for _ in range(rng.randint(1, max_components))]
    for circ in circles:
        parts[rng.randrange(len(parts))][0].append(circ)
    for slot in slots:
        parts[rng.randrange(len(parts))][1].append(slot)

    # Cut each component's slots into cycles, then insert a derived interval
    # between fixed labels that clash, and a few more for variety.
    for _, rest, cycles, _, _ in parts:
        cut = []
        rng.shuffle(rest)
        while rest:
            size = rng.randint(1, len(rest))
            cut.append(rest[:size])
            rest = rest[size:]
        for cyc in cut:
            cycles.append([])
            for slot, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                cycles[-1].append(slot)
                a, b = slot[3], nxt[2]
                if (a is not None and b is not None and a != b) or rng.random() < 0.15:
                    side = rng.choice(derivable)
                    cycles[-1].append([side, 0, None, None])
                    new[side].append(cycles[-1][-1])
    # Each arc takes the label one of its ends has, else a drawn one.
    for _, _, cycles, windows, _ in parts:
        for cyc in cycles:
            for slot, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                arc = slot[3] if slot[3] is not None else nxt[2]
                slot[3] = nxt[2] = rng.choice(branes) if arc is None else arc
        for _ in range(2):
            if rng.random() < 0.2:
                windows.append(rng.choice(branes))
    # Guards: no empty component, and no component whose whole boundary
    # could be consumed by a single closed-circle gluing pass.
    for circs, _, cycles, windows, tail in parts:
        sides = {circ[0] for circ in circs}
        if not windows and not cycles and len(sides) < 2:
            windows.append(rng.choice(branes))
        if ensure_b and OUT not in sides | {s[0] for c in cycles for s in c}:
            tail.append([OUT, 0])
            new[OUT].append(tail[-1])

    # Draw the order of each side's new entries; assemble the derived
    # objects, sharing one entry per label pair.
    brane_set = frozenset(branes)
    shared: dict = {}
    for side in (IN, OUT):
        order = list(range(len(new[side])))
        rng.shuffle(order)
        entries: list = [None] * len(order)
        for entry, k in zip(new[side], order):
            entry[1] = k + 1
            if len(entry) == 2:
                entries[k] = _CIRCLE
            elif side is IN:
                entries[k] = _interval(shared, entry[3], entry[2])
            else:
                entries[k] = _interval(shared, entry[2], entry[3])
        if objects[side] is None:
            pairs = [(i, i) for i, e in enumerate(entries, 1) if e is not _CIRCLE]
            objects[side] = _object(brane_set, tuple(entries), tuple(pairs))
    arcs = {b: Arc(b) for b in brane_set}
    components = []
    for circs, _, cycles, windows, tail in parts:
        boundary = [_closed(side, i) for side, i in circs]
        for cyc in cycles:
            mixed: list = []
            for side, i, _, second in cyc:
                mixed += (_ref(side, i, side is IN), arcs[second])
            boundary.append(_mixed(tuple(mixed)))
        boundary += [_closed(side, i) for side, i in tail]
        counts = tuple([(b, windows.count(b)) for b in sorted(set(windows))])
        genus = rng.randint(0, max_genus)
        components.append(_component(genus, tuple(boundary), counts))
    return _cobordism(objects[IN], objects[OUT], tuple(components))


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
            if type(circ) is Mixed:
                k = rng.randrange(len(circ.cycle))
                circ = _mixed(circ.cycle[k:] + circ.cycle[:k])
            boundary.append(circ)
        # Windows hold places too, so the rng draws follow the whole boundary.
        boundary += [None] * sum(n for _, n in comp.windows)
        rng.shuffle(boundary)
        circles = tuple(filter(None, boundary))
        comps.append(_component(comp.genus, circles, comp.windows))
    rng.shuffle(comps)
    return _cobordism(c.source, c.target, tuple(comps))


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
