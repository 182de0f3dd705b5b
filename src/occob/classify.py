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
from occob.errors import CompositionError, InvalidCobordismError, InvalidValueError
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
    window_vector,
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
    # A valid cycle holds each reference once, so its least entry is unique.
    keys = [_entry_key(e) for e in cycle]
    least = min(keys, default=None)
    if least is None or least[0] != 0 or keys.count(least) != 1:
        raise InvalidCobordismError(
            "mixed cycle has no unique least interval reference: "
            "the cobordism is not valid"
        )
    best = keys.index(least)
    return cycle[best:] + cycle[:best]


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

    Requires ``c`` to be valid (``surfaces.validate`` returns no
    violations): each mixed cycle then starts at its least interval
    reference.  On valid input the result is idempotent, and invariant
    under any reordering of components or boundary circles and any
    rotation of mixed cycles.  A mixed cycle without a unique least
    interval reference raises ``InvalidCobordismError``.
    """
    keyed = []
    for comp in c.components:
        boundary = [
            Mixed(_min_rotation(circ.cycle)) if isinstance(circ, Mixed) else circ
            for circ in comp.boundary
        ]
        boundary.sort(key=_circle_key)
        comp_key = (comp.genus, tuple(map(_circle_key, boundary)))
        keyed.append((comp_key, Component(comp.genus, boundary)))
    keyed.sort(key=lambda kc: kc[0])
    canonical = Cobordism(c.source, c.target, (comp for _, comp in keyed))
    key = (_object_key(c.source), _object_key(c.target), tuple(k for k, _ in keyed))
    return CanonicalForm(key, canonical)


def is_isomorphic(a: Cobordism, b: Cobordism) -> bool:
    """Equality of canonical forms of two valid cobordisms between the same objects."""
    if a.source != b.source or a.target != b.target:
        raise CompositionError("cobordisms with different source or target objects")
    return canonicalize(a).key == canonicalize(b).key


# ---------------------------------------------------------------------------
# enumeration


def enumerate_classes(
    obj: GeneralObject, max_genus: int, max_windows: int
) -> list[CanonicalForm]:
    """All classes of connected cobordisms from ``obj`` to one circle
    inducing ``obj.sigma``, with genus and per-brane window counts up to
    the given bounds.

    Such a cobordism is determined up to isomorphism by its genus and
    window vector, so representatives are built directly: the canonical
    minimal realizer with extra genus and windows.  The list has exactly
    ``(max_genus + 1) * (max_windows + 1) ** len(obj.branes)`` entries,
    ordered by genus then window vector.  A negative bound raises
    ``InvalidValueError``.
    """
    if max_genus < 0 or max_windows < 0:
        raise InvalidValueError("bounds must be nonnegative")
    base = canonicalize(realize(obj))
    source_key, target_key, ((_, keys),) = base.key
    boundary = base.cobordism.components[0].boundary
    # Window keys (2, brane) sort after the closed circles (0 and 1) and
    # before the mixed ones (3), so adding windows to the canonical
    # realizer keeps it canonical when they go in at that cut, by brane.
    cut = sum(1 for k in keys if k[0] < 2)
    branes = sorted(obj.branes)
    splices = []
    for counts in product(range(max_windows + 1), repeat=len(branes)):
        windows = tuple(Window(b) for b, n in zip(branes, counts) for _ in range(n))
        splices.append((
            boundary[:cut] + windows + boundary[cut:],
            keys[:cut] + tuple(map(_circle_key, windows)) + keys[cut:],
        ))
    return [
        CanonicalForm(
            (source_key, target_key, ((g, circle_keys),)),
            Cobordism(obj, base.cobordism.target, (Component(g, circles),)),
        )
        for g in range(max_genus + 1)
        for circles, circle_keys in splices
    ]


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
    return [
        StrataRow(
            genus=form.cobordism.components[0].genus,
            windows=tuple(window_vector(form.cobordism).items()),
            c_number=c,
            in_b=in_b_subcategory(form.cobordism),
        )
        for form in enumerate_classes(obj, max_genus, max_windows)
    ]
