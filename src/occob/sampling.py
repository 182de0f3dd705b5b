"""Seeded random instances for tests, experiments, and corpus generation.

All samplers take a ``random.Random`` and are deterministic given its
state.  Sampled cobordisms always validate, always use the default
traversal flags, and never leave a component with glueable boundary only
(so composing sampled factors never closes a component off from all
boundary).

A cobordism can be sampled against a fixed interface: pass ``source`` or
``target`` (not both) and the other object is derived from the sampled
surface, its interval labels read off the adjacent arcs.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from occob.dsl import CobordismDef, Document
from occob.errors import InvalidValueError
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
    branes = tuple(sorted(branes))
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


@dataclass
class _Slot:
    """One interval attachment being assembled; labels may be pending."""

    side: str
    index: int  # -k for the k-th new entry on a derived side
    left: str | None
    right: str | None

    def met(self, which: str) -> str | None:
        # Incoming references are traversed reversed: met order (right, left).
        rev = default_rev(self.side)
        if (which == "first") == rev:
            return self.right
        return self.left

    def set_met(self, which: str, brane: str) -> None:
        rev = default_rev(self.side)
        if (which == "first") == rev:
            self.right = brane
        else:
            self.left = brane


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
    if source is not None and target is not None:
        raise InvalidValueError("fix at most one side; the other is derived")
    if source is not None:
        branes = source.branes
    if target is not None:
        branes = target.branes
    branes = tuple(sorted(branes))
    derivable = tuple(
        side for side, obj in ((IN, source), (OUT, target)) if obj is None
    )
    if ensure_b and OUT not in derivable:
        raise InvalidValueError("ensure_b needs a derived target")

    slots: list[_Slot] = []
    closed: list[tuple[str, int]] = []
    new_entries: dict[str, list[str]] = {IN: [], OUT: []}

    def new_interval(side: str) -> _Slot:
        new_entries[side].append("I")
        s = _Slot(side, -len(new_entries[side]), None, None)
        slots.append(s)
        return s

    def new_circle(side: str) -> tuple[str, int]:
        new_entries[side].append("O")
        return (side, -len(new_entries[side]))

    for side, obj in ((IN, source), (OUT, target)):
        if obj is None:
            continue
        for i in obj.circle_indices:
            closed.append((side, i))
        for i in obj.interval_indices:
            iv = obj.entries[i - 1]
            slots.append(_Slot(side, i, iv.left, iv.right))
    for side in derivable:
        for _ in range(rng.randint(0, max_new_intervals)):
            new_interval(side)
        for _ in range(rng.randint(0, max_new_circles)):
            closed.append(new_circle(side))

    n_comp = rng.randint(1, max_components)
    comp_closed: list[list[tuple[str, int]]] = [[] for _ in range(n_comp)]
    comp_slots: list[list[_Slot]] = [[] for _ in range(n_comp)]
    for c in closed:
        comp_closed[rng.randrange(n_comp)].append(c)
    for s in slots:
        comp_slots[rng.randrange(n_comp)].append(s)

    # Group each component's slots into mixed cycles.  A label clash
    # between fixed neighbours is repaired by inserting a derived
    # interval between them; a few extras are inserted for variety.
    comp_cycles: list[list[list[_Slot]]] = []
    for ci in range(n_comp):
        group = comp_slots[ci][:]
        rng.shuffle(group)
        cycles: list[list[_Slot]] = []
        while group:
            size = rng.randint(1, len(group))
            cycles.append(group[:size])
            group = group[size:]
        repaired = []
        for cyc in cycles:
            out: list[_Slot] = []
            for pos, slot in enumerate(cyc):
                out.append(slot)
                nxt = cyc[(pos + 1) % len(cyc)]
                a, b = slot.met("second"), nxt.met("first")
                clash = a is not None and b is not None and a != b
                if clash or rng.random() < 0.15:
                    out.append(new_interval(rng.choice(derivable)))
            repaired.append(out)
        comp_cycles.append(repaired)

    # Assign arc labels; pending interval labels are filled from them.
    comp_boundary: list[list] = [[] for _ in range(n_comp)]
    comp_windows: list[list[tuple[str, int]]] = [[] for _ in range(n_comp)]
    for ci in range(n_comp):
        for item in comp_closed[ci]:
            comp_boundary[ci].append(item)
        for cyc in comp_cycles[ci]:
            arcs: list[str] = []
            for pos, slot in enumerate(cyc):
                nxt = cyc[(pos + 1) % len(cyc)]
                brane = slot.met("second")
                if brane is None:
                    brane = nxt.met("first")
                if brane is None:
                    brane = rng.choice(branes)
                slot.set_met("second", brane)
                nxt.set_met("first", brane)
                arcs.append(brane)
            comp_boundary[ci].append(("mixed", cyc, arcs))
        for _ in range(2):
            if rng.random() < 0.2:
                comp_windows[ci].append((rng.choice(branes), 1))

    # Guards: no empty component, and no component whose whole boundary
    # could be consumed by a single closed-circle gluing pass.
    for ci in range(n_comp):
        kinds = {b[0] for b in comp_boundary[ci]}
        if not comp_windows[ci] and (not kinds or kinds == {IN} or kinds == {OUT}):
            comp_windows[ci].append((rng.choice(branes), 1))
        if ensure_b:
            has_out = any(
                b[0] == OUT
                or (b[0] == "mixed" and any(s.side == OUT for s in b[1]))
                for b in comp_boundary[ci]
            )
            if not has_out:
                comp_boundary[ci].append(new_circle(OUT))

    # Materialize derived objects: shuffle entry positions, read labels.
    position: dict[str, dict[int, int]] = {}
    sides_objects: dict[str, GeneralObject] = {}
    for side in (IN, OUT):
        kinds = new_entries[side]
        order = list(range(1, len(kinds) + 1))
        rng.shuffle(order)
        position[side] = {-(k + 1): order[k] for k in range(len(kinds))}
        if side not in derivable:
            continue
        entries: list = [None] * len(kinds)
        for k, kind in enumerate(kinds):
            entries[order[k] - 1] = kind
        for s in slots:
            if s.side == side and s.index < 0:
                s.index = position[side][s.index]
        for s in slots:
            if s.side == side:
                if s.left is None:
                    s.left = rng.choice(branes)
                if s.right is None:
                    s.right = rng.choice(branes)
                entries[s.index - 1] = Interval(s.left, s.right)
        entries = [Circle() if e == "O" else e for e in entries]
        sides_objects[side] = GeneralObject(branes, entries)

    src = source if source is not None else sides_objects[IN]
    tgt = target if target is not None else sides_objects[OUT]

    components = []
    for ci, windows in enumerate(comp_windows):
        boundary = []
        for b in comp_boundary[ci]:
            if b[0] == "mixed":
                cyc, arcs = b[1], b[2]
                entries = []
                for slot, arc in zip(cyc, arcs):
                    entries.append(
                        IntervalRef(slot.side, slot.index, default_rev(slot.side))
                    )
                    entries.append(Arc(arc))
                boundary.append(Mixed(entries))
            else:
                side, i = b
                i = position[side][i] if i < 0 else i
                boundary.append(Closed(side, i))
        components.append(Component(rng.randint(0, max_genus), boundary, windows))
    return Cobordism(src, tgt, components)


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
    chain = [sample_cobordism(rng, branes=branes, **kw)]
    for _ in range(length - 1):
        chain.append(
            sample_cobordism(rng, branes=branes, source=chain[-1].target, **kw)
        )
    return chain


def shuffled(rng: random.Random, c: Cobordism) -> Cobordism:
    """The same cobordism with every representation freedom re-rolled:
    components and boundary circles reordered, mixed cycles rotated."""
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
    if branes is None:
        branes = rng.choice([(STAR,), ("a", "b"), ("l", "m", "r")])
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
