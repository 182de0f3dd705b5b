"""The earlier ``sampling.sample_cobordism`` and its ``_Slot`` helper,
copied as they were.

``_Slot`` reads and writes an interval's labels through ``met`` and
``set_met``, which pick left or right by a ``"first"``/``"second"``
string; the sampler keeps each component in five parallel lists and its
mixed circles as ``("mixed", cycle, arcs)`` tuples.
``sampling.sample_cobordism`` now keeps one record per component and each
slot's labels in the order the boundary meets them.  Given generators in
the same state, both must make the same draws and return equal
cobordisms.  This is the reference it is checked against.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from occob.errors import InvalidValueError
from occob.objects import STAR, Circle, GeneralObject, Interval
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
