"""Combinatorial surfaces between labeled 1-manifolds.

A cobordism is stored as a list of connected components.  Each component
is a nonnegative genus plus a list of boundary circles, and each boundary
circle is one of four kinds:

* ``InClosed(i)``: glued to circle ``i`` of the source object.
* ``OutClosed(i)``: glued to circle ``i`` of the target object.
* ``Window(b)``: a free boundary circle lying entirely on brane ``b``.
* ``Mixed(cycle)``: alternates interval references and free arcs.

Mixed cycles are stored in the boundary orientation induced by the
surface.  An ``IntervalRef`` records which side and entry it attaches to
and a ``rev`` flag saying in which order the traversal meets the interval
endpoints: with ``rev=False`` the endpoints are met (left, right), with
``rev=True`` (right, left).  Because the incoming boundary carries the
opposite induced orientation from the outgoing boundary, the flag
defaults to True for incoming references and False for outgoing ones;
all constructors in ``calculus`` emit these defaults.

The Euler characteristic of a component with genus g and b boundary
circles is 2 - 2g - b, and the composition machinery recovers genus from
that identity after gluing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from occob.errors import InvalidCobordismError, InvalidValueError
from occob.objects import Circle, GeneralObject, Interval, Permutation

__all__ = [
    "IN",
    "OUT",
    "IntervalRef",
    "Arc",
    "MixedEntry",
    "InClosed",
    "OutClosed",
    "Window",
    "Mixed",
    "BoundaryCircle",
    "Component",
    "Cobordism",
    "Violation",
    "ComponentSummary",
    "InvariantSummary",
    "in_ref",
    "out_ref",
    "default_rev",
    "validate",
    "euler_char",
    "euler_total",
    "window_vector",
    "boundary_permutation",
    "in_b_subcategory",
    "component_summary",
    "invariant_summary",
]

IN = "in"
OUT = "out"


def default_rev(side: str) -> bool:
    """Default traversal flag: incoming references are reversed."""
    return side == IN


@dataclass(frozen=True, slots=True)
class IntervalRef:
    """One traversal of a source or target interval by a boundary circle."""

    side: str
    index: int
    rev: bool

    def __post_init__(self):
        if self.side not in (IN, OUT):
            raise InvalidValueError(
                f"side must be {IN!r} or {OUT!r}, got {self.side!r}"
            )


def in_ref(index: int, rev: bool = True) -> IntervalRef:
    return IntervalRef(IN, index, rev)


def out_ref(index: int, rev: bool = False) -> IntervalRef:
    return IntervalRef(OUT, index, rev)


@dataclass(frozen=True, slots=True)
class Arc:
    """A free boundary arc lying on a single brane."""

    brane: str


MixedEntry = Union[IntervalRef, Arc]


@dataclass(frozen=True, slots=True)
class InClosed:
    index: int


@dataclass(frozen=True, slots=True)
class OutClosed:
    index: int


@dataclass(frozen=True, slots=True)
class Window:
    brane: str


@dataclass(frozen=True, slots=True)
class Mixed:
    """A boundary circle that alternates interval references and arcs.

    The cycle is read cyclically, so rotations describe the same circle;
    ``classify.canonicalize`` picks a preferred rotation.
    """

    cycle: tuple[MixedEntry, ...]

    def __init__(self, cycle):
        object.__setattr__(self, "cycle", tuple(cycle))

    def refs(self) -> tuple[IntervalRef, ...]:
        return tuple(e for e in self.cycle if isinstance(e, IntervalRef))


BoundaryCircle = Union[InClosed, OutClosed, Window, Mixed]


@dataclass(frozen=True, slots=True, init=False)
class Component:
    """A connected piece: orientable genus plus boundary circles.

    An empty boundary is representable (a closed surface) but rejected by
    ``validate``, since a closed component carries no anchoring data.
    """

    genus: int
    boundary: tuple[BoundaryCircle, ...]

    def __init__(self, genus: int, boundary=()):
        if genus < 0:
            raise InvalidValueError(f"genus must be nonnegative, got {genus}")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary", tuple(boundary))


@dataclass(frozen=True, slots=True, init=False)
class Cobordism:
    """A surface from ``source`` to ``target``, component by component."""

    source: GeneralObject
    target: GeneralObject
    components: tuple[Component, ...]

    def __init__(self, source: GeneralObject, target: GeneralObject, components=()):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", tuple(components))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation failure: the rule broken, where, and a message."""

    rule: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: [{self.rule}] {self.message}"


def _entry_at(obj: GeneralObject, index: int) -> Circle | Interval | None:
    if isinstance(index, int) and 1 <= index <= len(obj.entries):
        return obj.entries[index - 1]
    return None


def _side_object(c: Cobordism, ref: IntervalRef) -> GeneralObject:
    return c.source if ref.side == IN else c.target


def _shown_index(index) -> str:
    """An index as a message shows it: an integer too long for the
    interpreter to write in decimal is shown by its size."""
    try:
        return str(index)
    except ValueError:
        return f"<an integer of {index.bit_length()} bits>"


def _not_a_circle(circ) -> str:
    return f"{type(circ).__name__} is not a kind of boundary circle"


def validate(c: Cobordism) -> list[Violation]:
    """Check structural validity; an empty list means valid.

    Rules checked, in the order reported: matching brane sets, per
    component nonempty boundary, well-formed boundary circles (kinds of
    circles and of mixed-cycle entries, index ranges, brane membership,
    strict ref/arc alternation, arc labels matching the interval endpoints
    they touch), and globally that every source and target entry is used
    by exactly one boundary circle.  An index too long to write in decimal
    is shown by its size.
    """
    v: list[Violation] = []
    if c.source.branes != c.target.branes:
        v.append(
            Violation(
                "brane-set",
                "cobordism",
                f"source branes {sorted(c.source.branes)} differ from target "
                f"branes {sorted(c.target.branes)}",
            )
        )
    branes = c.source.branes | c.target.branes

    in_circles: Counter[int] = Counter()
    out_circles: Counter[int] = Counter()
    in_refs: Counter[int] = Counter()
    out_refs: Counter[int] = Counter()

    for ci, comp in enumerate(c.components, start=1):
        comp_where = f"component {ci}"
        if not comp.boundary:
            v.append(
                Violation(
                    "empty-boundary",
                    comp_where,
                    "component has no boundary circles",
                )
            )
        for bi, circ in enumerate(comp.boundary, start=1):
            where = f"{comp_where}, circle {bi}"
            if isinstance(circ, (InClosed, OutClosed)):
                incoming = isinstance(circ, InClosed)
                (in_circles if incoming else out_circles)[circ.index] += 1
                obj = c.source if incoming else c.target
                if not isinstance(_entry_at(obj, circ.index), Circle):
                    v.append(
                        Violation(
                            "index-range",
                            where,
                            f"{'source' if incoming else 'target'} has no circle "
                            f"at position {_shown_index(circ.index)}",
                        )
                    )
            elif isinstance(circ, Window):
                if circ.brane not in branes:
                    v.append(
                        Violation(
                            "unknown-brane",
                            where,
                            f"window brane {circ.brane!r} not declared",
                        )
                    )
            elif isinstance(circ, Mixed):
                v.extend(_validate_mixed(c, branes, circ, where, in_refs, out_refs))
            else:
                v.append(Violation("kind", where, _not_a_circle(circ)))

    def check_exactly_once(counter, indices, rule_what, where_side):
        for i in indices:
            n = counter.get(i, 0)
            if n == 0:
                v.append(
                    Violation(
                        "missing-use",
                        "cobordism",
                        f"{where_side} {rule_what} {i} is not attached to any "
                        "boundary circle",
                    )
                )
            elif n > 1:
                v.append(
                    Violation(
                        "duplicate-use",
                        "cobordism",
                        f"{where_side} {rule_what} {i} is attached {n} times",
                    )
                )

    check_exactly_once(in_circles, c.source.circle_indices, "circle", "source")
    check_exactly_once(out_circles, c.target.circle_indices, "circle", "target")
    check_exactly_once(in_refs, c.source.interval_indices, "interval", "source")
    check_exactly_once(out_refs, c.target.interval_indices, "interval", "target")
    return v


def _validate_mixed(c, branes, circ, where, in_refs, out_refs) -> list[Violation]:
    v: list[Violation] = []
    cyc = circ.cycle
    n = len(cyc)
    if n < 2 or n % 2 != 0:
        v.append(
            Violation(
                "alternation",
                where,
                f"mixed cycle must have even length at least 2, got {n}",
            )
        )
    alternates = all(
        isinstance(cyc[k], IntervalRef) != isinstance(cyc[(k + 1) % n], IntervalRef)
        for k in range(n)
    )
    if n >= 2 and not alternates:
        v.append(
            Violation(
                "alternation",
                where,
                "entries must strictly alternate interval references and arcs",
            )
        )
    has_ref = False
    ok_refs = True  # every entry is an arc or a reference to an interval
    for k, entry in enumerate(cyc):
        if isinstance(entry, Arc):
            if entry.brane not in branes:
                v.append(
                    Violation(
                        "unknown-brane",
                        where,
                        f"arc brane {entry.brane!r} not declared",
                    )
                )
            continue
        if not isinstance(entry, IntervalRef):
            v.append(
                Violation(
                    "kind",
                    where,
                    f"entry {k + 1}: {type(entry).__name__} is neither an "
                    "interval reference nor an arc",
                )
            )
            ok_refs = False
            continue
        has_ref = True
        obj = _side_object(c, entry)
        counter = in_refs if entry.side == IN else out_refs
        counter[entry.index] += 1
        if not isinstance(_entry_at(obj, entry.index), Interval):
            side_name = "source" if entry.side == IN else "target"
            v.append(
                Violation(
                    "index-range",
                    where,
                    f"{side_name} has no interval at position "
                    f"{_shown_index(entry.index)}",
                )
            )
            ok_refs = False
    if not has_ref:
        v.append(
            Violation(
                "alternation",
                where,
                "mixed cycle contains no interval reference (use a window)",
            )
        )
    if n >= 2 and n % 2 == 0 and alternates and has_ref and ok_refs:
        # Arc labels must match the interval endpoints they touch:
        # the arc before a reference ends at its first-met endpoint, the
        # arc after it starts at its second-met endpoint.
        for k, entry in enumerate(cyc):
            if not isinstance(entry, IntervalRef):
                continue
            interval = _entry_at(_side_object(c, entry), entry.index)
            before = cyc[(k - 1) % n]
            after = cyc[(k + 1) % n]
            ends = (interval.left, interval.right)  # met in this order unless rev
            want_before, want_after = ends[::-1] if entry.rev else ends
            if before.brane != want_before:
                v.append(
                    Violation(
                        "arc-brane",
                        where,
                        f"arc before {entry.side} {entry.index} is "
                        f"{before.brane!r}, expected {want_before!r}",
                    )
                )
            if after.brane != want_after:
                v.append(
                    Violation(
                        "arc-brane",
                        where,
                        f"arc after {entry.side} {entry.index} is "
                        f"{after.brane!r}, expected {want_after!r}",
                    )
                )
    return v


# ---------------------------------------------------------------------------
# numeric invariants


def euler_char(comp: Component) -> int:
    """Euler characteristic 2 - 2g - b of one component."""
    return 2 - 2 * comp.genus - len(comp.boundary)


def euler_total(c: Cobordism) -> int:
    return sum(euler_char(comp) for comp in c.components)


def window_vector(c: Cobordism) -> dict[str, int]:
    """Window count per brane, with explicit zeros for unused branes.

    A window on a brane that is not declared raises ``InvalidCobordismError``.
    """
    counts = {b: 0 for b in sorted(c.source.branes | c.target.branes)}
    for comp in c.components:
        for circ in comp.boundary:
            if isinstance(circ, Window):
                if circ.brane not in counts:
                    raise InvalidCobordismError(
                        f"window brane {circ.brane!r} not declared"
                    )
                counts[circ.brane] += 1
    return counts


# ---------------------------------------------------------------------------
# boundary permutation


def boundary_permutation(c: Cobordism) -> Permutation:
    """Permutation induced on source intervals by a cobordism to one circle.

    Requires the target to be the single-circle object, and raises
    ``InvalidValueError`` on any other.  Walking each mixed boundary
    circle in its stored orientation, the image of an interval is the
    next interval met on the same circle; an interval alone on its circle
    is a fixed point.  The union over all mixed circles is a permutation
    of the source interval positions.  On an invalid cobordism it is not:
    that raises ``InvalidCobordismError``, or ``InvalidValueError`` when
    two references share an interval.
    """
    if c.target.entries != (Circle(),):
        raise InvalidValueError(
            "boundary permutation requires the single-circle target object"
        )
    mapping: dict[int, int] = {}
    for comp in c.components:
        for circ in comp.boundary:
            if not isinstance(circ, Mixed):
                continue
            refs = circ.refs()
            for r, r_next in zip(refs, refs[1:] + refs[:1]):
                if r.side != IN or r_next.side != IN:
                    raise InvalidCobordismError(
                        "a mixed circle references an outgoing interval"
                    )
                mapping[r.index] = r_next.index
    sigma = Permutation(mapping)
    if sigma.domain != c.source.interval_indices:
        raise InvalidCobordismError(
            "mixed circles do not cover the source intervals"
        )
    return sigma


# ---------------------------------------------------------------------------
# summaries


def in_b_subcategory(c: Cobordism) -> bool:
    """True when every component keeps some outgoing boundary.

    A component fails the condition when it has no outgoing closed circle
    and no outgoing interval reference, i.e. when it is, on its own, a
    cobordism to the empty 1-manifold.
    """
    for comp in c.components:
        has_out = False
        for circ in comp.boundary:
            if isinstance(circ, OutClosed):
                has_out = True
            elif isinstance(circ, Mixed):
                if any(r.side == OUT for r in circ.refs()):
                    has_out = True
        if not has_out:
            return False
    return True


@dataclass(frozen=True, slots=True, order=True)
class ComponentSummary:
    """Key data of one component, in a reordering-invariant shape.

    Windows list only the branes that carry one.  The euler field comes
    last and is fixed by the fields before it, so the field order sorts
    summaries by genus, windows and boundary kinds.
    """

    genus: int
    windows: tuple[tuple[str, int], ...]
    boundary_kinds: tuple[tuple[str, int], ...]
    euler: int


@dataclass(frozen=True, slots=True)
class InvariantSummary:
    components: tuple[ComponentSummary, ...]
    window_vector: tuple[tuple[str, int], ...]
    genus_total: int
    component_count: int
    euler: int
    b_subcategory: bool


_KIND_NAMES = {InClosed: "in", OutClosed: "out", Window: "window", Mixed: "mixed"}


def component_summary(comp: Component) -> ComponentSummary:
    """Genus, windows per brane, boundary kinds and Euler characteristic of
    one component, invariant under boundary reordering and cycle rotation.

    A boundary element that is not one of the four circle kinds raises
    ``InvalidCobordismError``.
    """
    windows: Counter[str] = Counter()
    kinds: Counter[str] = Counter()
    for circ in comp.boundary:
        kind = _KIND_NAMES.get(type(circ))
        if kind is None:
            raise InvalidCobordismError(_not_a_circle(circ))
        kinds[kind] += 1
        if isinstance(circ, Window):
            windows[circ.brane] += 1
    return ComponentSummary(
        comp.genus,
        tuple(sorted(windows.items())),
        tuple(sorted(kinds.items())),
        euler_char(comp),
    )


def invariant_summary(c: Cobordism) -> InvariantSummary:
    """Per-component summaries plus global totals.

    Invariant under component reordering, boundary reordering, and mixed
    cycle rotation: components are reported in sorted order, and the
    totals are the window vector (with zeros), genus, Euler
    characteristic and the b-subcategory flag.
    """
    summaries = sorted(map(component_summary, c.components))
    return InvariantSummary(
        components=tuple(summaries),
        window_vector=tuple(window_vector(c).items()),
        genus_total=sum(s.genus for s in summaries),
        component_count=len(summaries),
        euler=sum(s.euler for s in summaries),
        b_subcategory=in_b_subcategory(c),
    )
