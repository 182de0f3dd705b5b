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
from itertools import chain, product, repeat
from operator import itemgetter

from occob.calculus import realize
from occob.errors import CompositionError, InvalidCobordismError, InvalidValueError
from occob.errors import wrong_type
from occob.objects import GeneralObject, _setters
from occob.surfaces import (
    IN,
    Arc,
    BoundaryCircle,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    _cobordism,
    _component,
    _mixed,
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

# The most classes a grid may hold, as the grid is built whole; and the
# most windows a key may spell out, as it holds one (2, brane) per window:
# in all the window vectors of enumerate_classes, or in one cobordism
# that canonicalize keys.
_MAX_CLASSES = 2**16
_MAX_KEYED_WINDOWS = 2**21


# ---------------------------------------------------------------------------
# total encodings

_first = itemgetter(0)


# Entry order inside mixed cycles: references before arcs, references by
# (side, index, rev), arcs by brane.


def _entry_key(e: IntervalRef | Arc) -> tuple:
    if type(e) is IntervalRef:
        return (0, 0 if e.side == IN else 1, e.index, 1 if e.rev else 0)
    return (1, e.brane)


def _mixed_key(cycle: tuple) -> tuple[tuple, int]:
    """The key of a mixed circle at its least rotation, and where that starts.

    A valid cycle holds each reference once, so its least entry is unique:
    the least rotation starts there, and its key is the entry keys rotated
    with it.
    """
    keys = [_entry_key(e) for e in cycle]
    least = min(keys, default=None)
    if least is None or least[0] != 0 or keys.count(least) != 1:
        raise InvalidCobordismError(
            "mixed cycle has no unique least interval reference: "
            "the cobordism is not valid"
        )
    best = keys.index(least)
    return (3, tuple(keys[best:] + keys[:best])), best


def _circle_key(circ: BoundaryCircle) -> tuple:
    if isinstance(circ, Mixed):
        return _mixed_key(circ.cycle)[0]
    return (0 if circ.side == IN else 1, circ.index)


def _windowed(keys: tuple, windows: tuple) -> tuple:
    """Sorted circle keys with (2, brane) per window, between closed and mixed."""
    cut = sum(k[0] < 2 for k in keys)
    spliced = tuple(chain.from_iterable(repeat((2, b), n) for b, n in windows))
    return keys[:cut] + spliced + keys[cut:]


def _component_key(comp: Component) -> tuple:
    return (comp.genus, comp.windows, sorted(map(_circle_key, comp.circles)))


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    """A cobordism rewritten in canonical order plus its hashable key.

    The key holds the source and target objects themselves, which compare
    and hash by value, then the sorted component keys."""

    key: tuple
    cobordism: Cobordism = field(compare=False)


def canonicalize(c: Cobordism) -> CanonicalForm:
    """Sort components and circles, rotate mixed cycles minimally.

    Requires ``c`` to be valid (``surfaces.validate`` returns no
    violations): each mixed cycle then starts at its least interval
    reference.  Each circle's key is computed once: a mixed circle's is
    its entry keys, rotated with the cycle.  The key is ``c``'s source and
    target objects, held as they are, and the sorted component keys, a
    component's key being its genus and its sorted circle keys.  On valid input the result is idempotent,
    and invariant under any reordering of components or boundary circles
    and any rotation of mixed cycles.  A mixed cycle without a unique
    least interval reference raises ``InvalidCobordismError``.  A key
    holds one ``(2, brane)`` entry per window, so a cobordism of more than
    2**21 windows in all raises ``InvalidValueError``, found from its
    window counts before any key is built.  The result is assembled from
    ``c``'s parts without the constructors' checks.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if sum(n for comp in c.components for _, n in comp.windows) > _MAX_KEYED_WINDOWS:
        message = f"cobordism has more than {_MAX_KEYED_WINDOWS} windows in all"
        raise InvalidValueError(message)
    keyed = []
    for comp in c.components:
        circles = []
        for circ in comp.circles:
            if type(circ) is Mixed:
                key, best = _mixed_key(circ.cycle)
                if best:
                    circ = _mixed(circ.cycle[best:] + circ.cycle[:best])
            else:
                key = _circle_key(circ)
            circles.append((key, circ))
        circles.sort(key=_first)
        keys = tuple(k for k, _ in circles)
        key = (comp.genus, _windowed(keys, comp.windows) if comp.windows else keys)
        ordered = tuple(circ for _, circ in circles)
        keyed.append((key, _component(comp.genus, ordered, comp.windows)))
    keyed.sort(key=_first)
    canonical = _cobordism(c.source, c.target, tuple(comp for _, comp in keyed))
    key = (c.source, c.target, tuple(k for k, _ in keyed))
    return CanonicalForm(key, canonical)


def is_isomorphic(a: Cobordism, b: Cobordism) -> bool:
    """Do two valid cobordisms between the same objects have one canonical key?

    After checking that the sources and the targets are equal, compares
    the sorted component keys only: no canonical cobordism is built.  A mixed cycle without a unique least interval reference
    raises ``InvalidCobordismError``, as in ``canonicalize``.
    """
    if type(a) is not Cobordism or type(b) is not Cobordism:
        raise wrong_type(Cobordism, a, b)
    if a.source != b.source or a.target != b.target:
        raise CompositionError("cobordisms with different source or target objects")
    return sorted(map(_component_key, a.components)) == sorted(
        map(_component_key, b.components)
    )


# ---------------------------------------------------------------------------
# enumeration


def _check_bounds(obj: GeneralObject, max_genus: int, max_windows: int) -> None:
    """Check the object, then the bounds, then that the grid of
    ``(max_genus + 1) * (max_windows + 1) ** len(obj.branes)`` rows has at
    most ``_MAX_CLASSES``: each factor is tested before it is multiplied
    in, so no huge int is raised to a power."""
    if type(obj) is not GeneralObject:
        raise wrong_type(GeneralObject, obj)
    if type(max_genus) is not int or type(max_windows) is not int:
        raise wrong_type(int, max_genus, max_windows)
    if max_genus < 0 or max_windows < 0:
        raise InvalidValueError("bounds must be nonnegative")
    rows = 1
    for factor in (max_genus + 1, *repeat(max_windows + 1, len(obj.branes))):
        if factor > _MAX_CLASSES or rows * factor > _MAX_CLASSES:
            raise InvalidValueError(f"bounds give more than {_MAX_CLASSES} classes")
        rows *= factor


def _window_grid(obj: GeneralObject, max_windows: int) -> list[tuple]:
    branes = sorted(obj.branes)
    grid = product(range(max_windows + 1), repeat=len(branes))
    return [tuple(zip(branes, counts)) for counts in grid]


def enumerate_classes(
    obj: GeneralObject, max_genus: int, max_windows: int
) -> list[CanonicalForm]:
    """All classes of connected cobordisms from ``obj`` to one circle
    inducing ``obj.sigma``, with genus and per-brane window counts up to
    the given bounds.

    Such a cobordism is determined up to isomorphism by its genus and
    window vector (math/0510664), so each is built as the circles of the
    canonical minimal realizer with the genus and windows set: exactly
    ``(max_genus + 1) * (max_windows + 1) ** len(obj.branes)`` entries,
    ordered by genus then window vector, each assembled from the checked
    realizer without the constructors' checks.  A bound that is not an
    ``int`` (a bool is not) or is negative raises ``InvalidValueError``, as
    do bounds that give more than 2**16 = 65,536 entries, or window vectors
    with more than 2**21 windows in all, before anything is built.
    """
    _check_bounds(obj, max_genus, max_windows)
    # Over the (max_windows + 1) ** k vectors each brane averages half the bound.
    k = len(obj.branes)
    if (max_windows + 1) ** k * k * max_windows // 2 > _MAX_KEYED_WINDOWS:
        message = f"bounds give more than {_MAX_KEYED_WINDOWS} windows in all"
        raise InvalidValueError(message)
    base = canonicalize(realize(obj))
    _, target, ((_, keys),) = base.key
    circles = base.cobordism.components[0].circles
    # A component stores its windows without the grid's zero counts.
    vectors = [
        (tuple(p for p in w if p[1]), _windowed(keys, w))
        for w in _window_grid(obj, max_windows)
    ]
    return [
        CanonicalForm(
            (obj, target, ((g, circle_keys),)),
            _cobordism(obj, target, (_component(g, circles, windows),)),
        )
        for g in range(max_genus + 1)
        for windows, circle_keys in vectors
    ]


@dataclass(frozen=True, slots=True)
class StrataRow:
    """One enumerated class: genus, windows per brane, constants."""

    genus: int
    windows: tuple[tuple[str, int], ...]
    c_number: int
    in_b: bool


_row_genus, _row_windows, _row_c_number, _row_in_b = _setters(StrataRow)


def _row(
    genus: int, windows: tuple[tuple[str, int], ...], c_number: int, in_b: bool
) -> StrataRow:
    row = object.__new__(StrataRow)
    _row_genus(row, genus)
    _row_windows(row, windows)
    _row_c_number(row, c_number)
    _row_in_b(row, in_b)
    return row


def _grid(obj: GeneralObject, max_genus: int, max_windows: int) -> tuple:
    """``(c, in_b, vectors)`` for the table of ``obj`` to these bounds: its
    c-number, whether its realizer lies in the b-subcategory, and the window
    count vectors in grid order, one count per brane in sorted order.

    Checks the bounds as ``enumerate_classes`` does, then realizes ``obj``,
    which raises ``InfeasibleObjectError`` when it has no realizer.
    """
    _check_bounds(obj, max_genus, max_windows)
    in_b = in_b_subcategory(realize(obj))
    vectors = list(product(range(max_windows + 1), repeat=len(obj.branes)))
    return obj.c_number, in_b, vectors


def strata_table(
    obj: GeneralObject, max_genus: int, max_windows: int
) -> list[StrataRow]:
    """Tabulate ``enumerate_classes`` with the object's constants.

    Rows come from the genus and window grid plus one realizer, with no
    class representative built.  The c-number column is constant down the
    table; so is the b column, whether the realizer keeps outgoing boundary
    on every component (always true), which extra genus or windows keep.
    Bounds are refused as by ``enumerate_classes``, at the same 65,536 rows.
    Each row is assembled from these checked values without the dataclass
    constructor.
    """
    c, in_b, vectors = _grid(obj, max_genus, max_windows)
    branes = sorted(obj.branes)
    windows = [tuple(zip(branes, counts)) for counts in vectors]
    return [_row(g, w, c, in_b) for g in range(max_genus + 1) for w in windows]
