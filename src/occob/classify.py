"""Canonical forms, isomorphism testing, and class enumeration.

Two valid cobordisms between the same objects are isomorphic (by an
orientation preserving diffeomorphism fixing the boundary attachments)
exactly when their combinatorial data agree up to reordering components,
reordering boundary circles, and rotating mixed cycles.  Canonicalization
quotients out those freedoms with a deterministic total encoding, so
isomorphism becomes equality of canonical keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from occob.calculus import realize
from occob.objects import Circle, GeneralObject
from occob.surfaces import (
    IN,
    BoundaryCircle,
    Cobordism,
    Component,
    InClosed,
    IntervalRef,
    Mixed,
    OutClosed,
    Window,
    in_b_subcategory,
)

__all__ = [
    "CanonicalForm",
    "StrataRow",
    "canonicalize",
    "is_isomorphic",
    "enumerate_classes",
    "strata_table",
]


# ---------------------------------------------------------------------------
# total encodings

# Entry order inside mixed cycles: references before arcs, references by
# (side, index, rev), arcs by brane.


def _entry_key(e) -> tuple:
    if isinstance(e, IntervalRef):
        return (0, 0 if e.side == IN else 1, e.index, int(e.rev))
    return (1, e.brane)


def _min_rotation(cycle: tuple) -> tuple:
    keys = [_entry_key(e) for e in cycle]
    n = len(cycle)
    best = min(range(n), key=lambda s: [keys[(s + k) % n] for k in range(n)])
    return tuple(cycle[(best + k) % n] for k in range(n))


def _circle_key(circ: BoundaryCircle) -> tuple:
    if isinstance(circ, InClosed):
        return (0, circ.index)
    if isinstance(circ, OutClosed):
        return (1, circ.index)
    if isinstance(circ, Window):
        return (2, circ.brane)
    return (3, tuple(_entry_key(e) for e in circ.cycle))


def _object_key(obj: GeneralObject) -> tuple:
    entries = tuple(
        ("O",) if isinstance(e, Circle) else ("I", e.left, e.right)
        for e in obj.entries
    )
    return (tuple(sorted(obj.branes)), entries, obj.sigma.pairs)


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """A cobordism rewritten in canonical order plus its hashable key."""

    key: tuple
    cobordism: Cobordism = field(compare=False)


def canonicalize(c: Cobordism) -> CanonicalForm:
    """Sort components and circles, rotate mixed cycles minimally.

    Idempotent, and invariant under any reordering of components or
    boundary circles and any rotation of mixed cycles.
    """
    comps = []
    for comp in c.components:
        boundary = tuple(
            Mixed(_min_rotation(circ.cycle)) if isinstance(circ, Mixed) else circ
            for circ in comp.boundary
        )
        boundary = tuple(sorted(boundary, key=_circle_key))
        comps.append(Component(comp.genus, boundary))
    comps.sort(key=lambda comp: (comp.genus, tuple(map(_circle_key, comp.boundary))))
    canonical = Cobordism(c.source, c.target, tuple(comps))
    key = (
        _object_key(c.source),
        _object_key(c.target),
        tuple(
            (comp.genus, tuple(map(_circle_key, comp.boundary)))
            for comp in canonical.components
        ),
    )
    return CanonicalForm(key, canonical)


def is_isomorphic(a: Cobordism, b: Cobordism) -> bool:
    """Equality of canonical forms.  Requires matching source and target."""
    if a.source != b.source or a.target != b.target:
        raise ValueError("cobordisms with different source or target objects")
    return canonicalize(a).key == canonicalize(b).key


# ---------------------------------------------------------------------------
# enumeration


def _decorated(base: Cobordism, genus: int, wvec: dict[str, int]) -> Cobordism:
    comp = base.components[0]
    windows = tuple(
        Window(b) for b in sorted(wvec) for _ in range(wvec[b])
    )
    return Cobordism(
        base.source,
        base.target,
        (Component(genus, comp.boundary + windows),),
    )


def enumerate_classes(
    obj: GeneralObject, max_genus: int, max_windows: int
) -> list[CanonicalForm]:
    """All classes of connected cobordisms from ``obj`` to one circle
    inducing ``obj.sigma``, with genus and per-brane window counts up to
    the given bounds.

    Such a cobordism is determined up to isomorphism by its genus and
    window vector, so representatives are built directly: the minimal
    realizer decorated with extra genus and windows.  The list has
    exactly ``(max_genus + 1) * (max_windows + 1) ** len(obj.branes)``
    entries, ordered by genus then window vector.
    """
    if max_genus < 0 or max_windows < 0:
        raise ValueError("bounds must be nonnegative")
    base = realize(obj)
    branes = sorted(obj.branes)
    out = []
    for g in range(max_genus + 1):
        for counts in product(range(max_windows + 1), repeat=len(branes)):
            wvec = dict(zip(branes, counts))
            out.append(canonicalize(_decorated(base, g, wvec)))
    return out


@dataclass(frozen=True, slots=True)
class StrataRow:
    """One enumerated class: genus, windows per brane, constants."""

    genus: int
    windows: tuple[tuple[str, int], ...]
    c_number: int
    in_b: bool


def strata_table(
    obj: GeneralObject, max_genus: int, max_windows: int
) -> list[StrataRow]:
    """Tabulate ``enumerate_classes`` with the object's constants.

    The c-number column is constant down the table; the b column records
    whether the representative keeps outgoing boundary on every component
    (always true for these connected representatives).
    """
    c = obj.c_number
    rows = []
    for form in enumerate_classes(obj, max_genus, max_windows):
        comp = form.cobordism.components[0]
        wvec = {b: 0 for b in sorted(obj.branes)}
        for circ in comp.boundary:
            if isinstance(circ, Window):
                wvec[circ.brane] += 1
        rows.append(
            StrataRow(
                genus=comp.genus,
                windows=tuple(sorted(wvec.items())),
                c_number=c,
                in_b=in_b_subcategory(form.cobordism),
            )
        )
    return rows
