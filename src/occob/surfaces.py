"""Combinatorial surfaces between labeled 1-manifolds.

A cobordism is stored as a list of connected components.  Each component
is a nonnegative genus, its windows (free boundary circles on one brane,
counted per brane) and its other boundary circles, of two kinds:

* ``Closed(side, i)``: glued to circle ``i`` of the source object when
  ``side`` is ``IN``, of the target object when it is ``OUT``.
* ``Mixed(cycle)``: alternates interval references and free arcs.

Each constructor tests its slots by exact type and raises
``InvalidValueError`` on a value of any other: a side is ``IN`` or
``OUT`` (kept as the module's constant), an index an ``int``, a ``rev``
flag a ``bool``, a brane a ``str``, a mixed entry an ``IntervalRef`` or
an ``Arc``, a component's boundary circle one of the two kinds, and a
window count a ``(str, int)`` pair.  So ``validate`` and the readers
after it meet only values of these types, and check structure alone.

One rule says where values are checked: a constructor checks what a
caller hands in, and what the library derives from checked values is
assembled without checking it again.  The private assemblers ``_ref``,
``_closed``, ``_mixed``, ``_component`` and ``_cobordism`` here, and
``objects._object``, set the slots of a value with no test.  They take
each slot only in the form its constructor stores it: a tuple for every
sequence, a side as the constant ``IN`` or ``OUT`` (not a ``str`` equal
to it), and windows as sorted ``(brane, count)`` pairs with no zero
count.  Assemblers and constructors alike set each slot through its
member descriptor's ``__set__`` (``objects._setters``), bound once at
import, so no call looks a slot up by name as ``object.__setattr__``
does.

Mixed cycles are stored in the boundary orientation induced by the
surface.  An ``IntervalRef`` records which side and entry it attaches to
and a ``rev`` flag saying in which order the traversal meets the interval
endpoints: with ``rev=False`` the endpoints are met (left, right), with
``rev=True`` (right, left).  Because the incoming boundary carries the
opposite induced orientation from the outgoing boundary, the flag
defaults to True for incoming references and False for outgoing ones;
all constructors in ``calculus`` emit these defaults.

The Euler characteristic of a component with genus g and b boundary
circles (windows included) is 2 - 2g - b, and the composition machinery
recovers genus from that identity after gluing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Union

from occob.errors import InvalidCobordismError, InvalidValueError
from occob.errors import not_iterable, shown, wrong_type
from occob.objects import Circle, GeneralObject, Interval, Permutation, _setters

__all__ = [
    "IN",
    "OUT",
    "IntervalRef",
    "Arc",
    "MixedEntry",
    "Closed",
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
_new = object.__new__


def _side(side: str) -> str:
    """The constant ``IN`` or ``OUT`` that ``side`` equals."""
    if side == IN:
        return IN
    if side == OUT:
        return OUT
    raise InvalidValueError(f"side must be {IN!r} or {OUT!r}, got {shown(side)}")


def default_rev(side: str) -> bool:
    """Default traversal flag: incoming references are reversed."""
    return side == IN


@dataclass(frozen=True, slots=True, init=False)
class IntervalRef:
    """One traversal of a source or target interval by a boundary circle."""

    side: str
    index: int
    rev: bool

    def __init__(self, side: str, index: int, rev: bool):
        side = _side(side)
        if type(index) is not int:
            raise wrong_type(int, index)
        if type(rev) is not bool:
            raise wrong_type(bool, rev)
        _ref_side(self, side)
        _ref_index(self, index)
        _ref_rev(self, rev)


def in_ref(index: int, rev: bool = True) -> IntervalRef:
    return IntervalRef(IN, index, rev)


def out_ref(index: int, rev: bool = False) -> IntervalRef:
    return IntervalRef(OUT, index, rev)


@dataclass(frozen=True, slots=True, init=False)
class Arc:
    """A free boundary arc lying on a single brane."""

    brane: str

    def __init__(self, brane: str):
        if type(brane) is not str:
            raise wrong_type(str, brane)
        _arc_brane(self, brane)


MixedEntry = Union[IntervalRef, Arc]


@dataclass(frozen=True, slots=True, init=False)
class Closed:
    """A closed boundary circle glued to circle ``index`` of one side."""

    side: str
    index: int

    def __init__(self, side: str, index: int):
        side = _side(side)
        if type(index) is not int:
            raise wrong_type(int, index)
        _closed_side(self, side)
        _closed_index(self, index)


@dataclass(frozen=True, slots=True, init=False)
class Window:
    brane: str

    def __init__(self, brane: str):
        if type(brane) is not str:
            raise wrong_type(str, brane)
        _window_brane(self, brane)


@dataclass(frozen=True, slots=True)
class Mixed:
    """A boundary circle that alternates interval references and arcs.

    The cycle is read cyclically, so rotations describe the same circle;
    ``classify.canonicalize`` picks a preferred rotation.
    """

    cycle: tuple[MixedEntry, ...]

    def __init__(self, cycle):
        try:
            cycle = tuple(cycle)
        except TypeError as exc:
            raise not_iterable("mixed entries", exc) from None
        for e in cycle:
            if type(e) is not IntervalRef and type(e) is not Arc:
                raise InvalidValueError(
                    f"{type(e).__name__} is neither an interval reference nor an arc"
                )
        _mixed_cycle(self, cycle)

    def refs(self) -> tuple[IntervalRef, ...]:
        return tuple(e for e in self.cycle if isinstance(e, IntervalRef))


BoundaryCircle = Union[Closed, Mixed]
_CIRCLE_KINDS = frozenset({Closed, Mixed})


@dataclass(frozen=True, slots=True, init=False)
class Component:
    """A connected piece: orientable genus, boundary circles and windows as
    sorted ``(brane, count)`` pairs, summed per brane, without zeros.  An
    empty boundary is representable (a closed surface) but rejected by
    ``validate``, since a closed component carries no anchoring data."""

    genus: int
    circles: tuple[BoundaryCircle, ...]
    windows: tuple[tuple[str, int], ...]

    def __init__(self, genus: int, circles=(), windows=()):
        if type(genus) is not int or genus < 0:
            raise _bad_count("genus", genus)
        try:
            circles = tuple(circles)
        except TypeError as exc:
            raise not_iterable("boundary circles", exc) from None
        for circ in circles:
            if type(circ) not in _CIRCLE_KINDS:
                raise InvalidValueError(
                    f"{type(circ).__name__} is not a kind of boundary circle"
                )
        if windows or type(windows) is not tuple:
            windows = _window_counts(windows)
        _component_genus(self, genus)
        _component_circles(self, circles)
        _component_windows(self, windows)

    @property
    def boundary(self) -> tuple[BoundaryCircle | Window, ...]:
        """The circles, then one ``Window`` per window in brane order."""
        windows = (Window(b) for b, n in self.windows for _ in range(n))
        return self.circles + tuple(windows)


def _window_counts(pairs) -> tuple[tuple[str, int], ...]:
    counts: dict[str, int] = {}
    try:
        for brane, n in pairs:
            if type(brane) is not str:
                raise wrong_type(str, brane)
            if type(n) is not int or n < 0:
                raise _bad_count("a window count", n)
            if n:
                counts[brane] = counts.get(brane, 0) + n
    except InvalidValueError:
        raise
    except (TypeError, ValueError) as exc:  # not an iterable of pairs
        raise not_iterable("(brane, count) pairs", exc) from None
    return tuple(sorted(counts.items()))


def _bad_count(what: str, n) -> InvalidValueError:
    got = f"{type(n).__name__} {shown(n, str)}"
    return InvalidValueError(f"{what} must be a nonnegative int, got {got}")


@dataclass(frozen=True, slots=True, init=False)
class Cobordism:
    """A surface from ``source`` to ``target``, component by component."""

    source: GeneralObject
    target: GeneralObject
    components: tuple[Component, ...]

    def __init__(self, source: GeneralObject, target: GeneralObject, components=()):
        if type(source) is not GeneralObject or type(target) is not GeneralObject:
            raise wrong_type(GeneralObject, source, target)
        try:
            components = tuple(components)
        except TypeError as exc:
            raise not_iterable("components", exc) from None
        for comp in components:
            if type(comp) is not Component:
                raise wrong_type(Component, comp)
        _cobordism_source(self, source)
        _cobordism_target(self, target)
        _cobordism_components(self, components)


# ---------------------------------------------------------------------------
# slot setters and unchecked assembly: every slot given to an assembler
# must already be a checked value

_ref_side, _ref_index, _ref_rev = _setters(IntervalRef)
(_arc_brane,) = _setters(Arc)
_closed_side, _closed_index = _setters(Closed)
(_window_brane,) = _setters(Window)
(_mixed_cycle,) = _setters(Mixed)
_component_genus, _component_circles, _component_windows = _setters(Component)
_cobordism_source, _cobordism_target, _cobordism_components = _setters(Cobordism)


def _ref(side: str, index: int, rev: bool) -> IntervalRef:
    ref = _new(IntervalRef)
    _ref_side(ref, side)
    _ref_index(ref, index)
    _ref_rev(ref, rev)
    return ref


def _closed(side: str, index: int) -> Closed:
    circ = _new(Closed)
    _closed_side(circ, side)
    _closed_index(circ, index)
    return circ


def _mixed(cycle: tuple[MixedEntry, ...]) -> Mixed:
    circ = _new(Mixed)
    _mixed_cycle(circ, cycle)
    return circ


def _component(
    genus: int,
    circles: tuple[BoundaryCircle, ...],
    windows: tuple[tuple[str, int], ...],
) -> Component:
    comp = _new(Component)
    _component_genus(comp, genus)
    _component_circles(comp, circles)
    _component_windows(comp, windows)
    return comp


def _cobordism(
    source: GeneralObject, target: GeneralObject, components: tuple[Component, ...]
) -> Cobordism:
    c = _new(Cobordism)
    _cobordism_source(c, source)
    _cobordism_target(c, target)
    _cobordism_components(c, components)
    return c


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


def validate(c: Cobordism) -> list[Violation]:
    """Check structural validity; an empty list means valid.

    One walk over the components checks every boundary circle, and one
    walk over each mixed cycle checks alternation, index ranges, brane
    membership and arc labels together.  The constructors have already
    tested every slot's type, so only structure is checked here.

    Reported in this order: differing brane sets; then per component an
    empty boundary, and per circle in turn, numbered as in ``boundary``,
    what is wrong with it (see ``_mixed_findings``); last, every source circle,
    target circle, source interval and target interval, in that order,
    not used by exactly one boundary circle.  An index too long to write
    in decimal is shown by its size.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    source, target = c.source, c.target
    v: list[Violation] = []
    if source.branes != target.branes:
        s, t = sorted(source.branes), sorted(target.branes)
        message = f"source branes {s} differ from target branes {t}"
        v.append(Violation("brane-set", "cobordism", message))
    branes = source.branes | target.branes
    # Per side, its entries and how many boundary circles use each of them:
    # an index in range and at an entry of the right kind is one use.  Looked
    # up by the side of a reference or a closed circle.
    ins = ("source", source.entries, [0] * (len(source.entries) + 1))
    outs = ("target", target.entries, [0] * (len(target.entries) + 1))
    sides = {IN: ins, OUT: outs}
    for ci, comp in enumerate(c.components, start=1):
        if not comp.circles and not comp.windows:
            message = "component has no boundary circles"
            v.append(Violation("empty-boundary", f"component {ci}", message))
        for bi, circ in enumerate(comp.circles, start=1):
            if type(circ) is Closed:
                side, entries, uses = sides[circ.side]
                i = circ.index
                if 0 < i <= len(entries) and isinstance(entries[i - 1], Circle):
                    uses[i] += 1
                    continue
                at = shown(i, str)
                found = [("index-range", f"{side} has no circle at position {at}")]
            else:
                found = _mixed_findings(circ.cycle, sides, branes)
            if found:
                where = f"component {ci}, circle {bi}"
                v.extend(Violation(rule, where, message) for rule, message in found)
        bi = len(comp.circles)
        for brane, n in comp.windows:
            bi += n
            if brane not in branes:
                message = f"window brane {brane!r} not declared"
                where = (f"component {ci}, circle {k + 1}" for k in range(bi - n, bi))
                v.extend(Violation("unknown-brane", w, message) for w in where)
    # uses[0] stays 0: a side's entries are each used once when the rest are 1.
    if any(uses.count(1) < len(entries) for _, entries, uses in (ins, outs)):
        for what, entry_kind in (("circle", Circle), ("interval", Interval)):
            for side, entries, uses in (ins, outs):
                for i, e in enumerate(entries, start=1):
                    n = uses[i]
                    if n == 1 or not isinstance(e, entry_kind):
                        continue
                    rule, how = "duplicate-use", f"attached {n} times"
                    if n == 0:
                        rule, how = "missing-use", "not attached to any boundary circle"
                    message = f"{side} {what} {i} is {how}"
                    v.append(Violation(rule, "cobordism", message))
    return v


def _mixed_findings(cyc: tuple, sides: dict, branes) -> list[tuple[str, str]]:
    """What is wrong with one mixed cycle, as (rule, message) pairs in the
    order reported: its length, its alternation, each entry in cycle order
    (index range, undeclared arc brane), a missing interval reference,
    and, only when the cycle is otherwise sound, arc labels that differ
    from the interval endpoints they touch.  Each reference in range is
    counted as a use in ``sides``."""
    n = len(cyc)
    found = []  # per entry, in cycle order
    arcs = []  # arc labels, reported only when the cycle is otherwise sound
    refs = 0
    adjacent = False  # two references next to each other
    ok_refs = True  # every reference is in range
    # Each entry with the entries before and after it on the cycle.
    for before, e, after in zip(cyc[-1:] + cyc[:-1], cyc, cyc[1:] + cyc[:1]):
        if type(e) is Arc:
            if e.brane not in branes:
                found.append(("unknown-brane", f"arc brane {e.brane!r} not declared"))
            continue
        refs += 1
        if type(after) is IntervalRef:
            adjacent = True
        side, entries, uses = sides[e.side]
        i = e.index
        if not (
            0 < i <= len(entries) and isinstance(interval := entries[i - 1], Interval)
        ):
            at = shown(i, str)
            found.append(("index-range", f"{side} has no interval at position {at}"))
            ok_refs = False
            continue
        uses[i] += 1
        # The arc before a reference ends at the endpoint met first, and the
        # arc after it starts at the one met second: (left, right) unless rev.
        first, second = interval.left, interval.right
        if e.rev:
            first, second = second, first
        if type(before) is Arc and before.brane != first:
            arcs.append(
                f"arc before {e.side} {i} is {before.brane!r}, expected {first!r}"
            )
        if type(after) is Arc and after.brane != second:
            arcs.append(
                f"arc after {e.side} {i} is {after.brane!r}, expected {second!r}"
            )
    alternates = n >= 2 and 2 * refs == n and not adjacent
    if alternates and ok_refs and not found and not arcs:
        return found
    head = []
    if n < 2 or n % 2:
        message = f"mixed cycle must have even length at least 2, got {n}"
        head.append(("alternation", message))
    if n >= 2 and not alternates:
        message = "entries must strictly alternate interval references and arcs"
        head.append(("alternation", message))
    if not refs:
        message = "mixed cycle contains no interval reference (use a window)"
        found.append(("alternation", message))
    if alternates and ok_refs:
        found += (("arc-brane", message) for message in arcs)
    return head + found


# ---------------------------------------------------------------------------
# numeric invariants


def euler_char(comp: Component) -> int:
    """Euler characteristic 2 - 2g - b of one component."""
    if type(comp) is not Component:
        raise wrong_type(Component, comp)
    return 2 - 2 * comp.genus - len(comp.circles) - sum(n for _, n in comp.windows)


def euler_total(c: Cobordism) -> int:
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    return sum(euler_char(comp) for comp in c.components)


def window_vector(c: Cobordism) -> dict[str, int]:
    """Window count per brane, with explicit zeros for unused branes.

    A window on a brane that is not declared raises ``InvalidCobordismError``.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    counts = {b: 0 for b in sorted(c.source.branes | c.target.branes)}
    for comp in c.components:
        for brane, n in comp.windows:
            if brane not in counts:
                raise InvalidCobordismError(f"window brane {brane!r} not declared")
            counts[brane] += n
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
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if c.target.entries != (Circle(),):
        raise InvalidValueError(
            "boundary permutation requires the single-circle target object"
        )
    mapping: dict[int, int] = {}
    for comp in c.components:
        for circ in comp.circles:
            if not isinstance(circ, Mixed):
                continue
            refs = circ.refs()
            for r, r_next in zip(refs, refs[1:] + refs[:1]):
                if r.side != IN or r_next.side != IN:
                    raise _outgoing_left()
                mapping[r.index] = r_next.index
    return _covering(mapping, c.source)


def _outgoing_left() -> InvalidCobordismError:
    return InvalidCobordismError("a mixed circle references an outgoing interval")


def _covering(mapping: dict[int, int], source: GeneralObject) -> Permutation:
    """``mapping`` as a permutation of ``source``'s intervals, which its
    domain must be, else ``InvalidCobordismError``."""
    sigma = Permutation(mapping)
    if sigma.domain != source.interval_indices:
        raise InvalidCobordismError("mixed circles do not cover the source intervals")
    return sigma


# ---------------------------------------------------------------------------
# summaries


def in_b_subcategory(c: Cobordism) -> bool:
    """True when every component keeps some outgoing boundary.

    A component fails the condition when it has no outgoing closed circle
    and no outgoing interval reference, i.e. when it is, on its own, a
    cobordism to the empty 1-manifold.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    for comp in c.components:
        for circ in comp.circles:
            sided = (circ,) if type(circ) is Closed else circ.refs()
            if any(x.side == OUT for x in sided):
                break
        else:
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


_summary_genus, _summary_windows, _summary_kinds, _summary_euler = _setters(
    ComponentSummary
)
(
    _totals_components,
    _totals_windows,
    _totals_genus,
    _totals_count,
    _totals_euler,
    _totals_b,
) = _setters(InvariantSummary)
_summary_order = attrgetter("genus", "windows", "boundary_kinds", "euler")


def component_summary(comp: Component) -> ComponentSummary:
    """Genus, windows per brane, boundary kinds and Euler characteristic of
    one component, invariant under boundary reordering and cycle rotation.
    The result is assembled from ``comp``'s checked slots without the
    dataclass constructor.
    """
    if type(comp) is not Component:
        raise wrong_type(Component, comp)
    kinds: dict[str, int] = {}
    for circ in comp.circles:
        kind = circ.side if type(circ) is Closed else "mixed"
        kinds[kind] = kinds.get(kind, 0) + 1
    windows = sum(n for _, n in comp.windows)
    if windows:
        kinds["window"] = windows
    s = _new(ComponentSummary)
    _summary_genus(s, comp.genus)
    _summary_windows(s, comp.windows)
    _summary_kinds(s, tuple(sorted(kinds.items())))
    _summary_euler(s, 2 - 2 * comp.genus - len(comp.circles) - windows)
    return s


def invariant_summary(c: Cobordism) -> InvariantSummary:
    """Per-component summaries plus global totals.

    Invariant under component reordering, boundary reordering, and mixed
    cycle rotation: components are reported in sorted order, and the
    totals are the window vector (with zeros), genus, Euler
    characteristic and the b-subcategory flag.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    return _summarize(c, list(map(component_summary, c.components)))


def _summarize(c: Cobordism, summaries: list[ComponentSummary]) -> InvariantSummary:
    """``invariant_summary(c)`` from the summaries of ``c``'s components, in
    any order, assembled without the dataclass constructor."""
    s = _new(InvariantSummary)
    _totals_components(s, tuple(sorted(summaries, key=_summary_order)))
    _totals_windows(s, tuple(window_vector(c).items()))
    _totals_genus(s, sum(cs.genus for cs in summaries))
    _totals_count(s, len(summaries))
    _totals_euler(s, sum(cs.euler for cs in summaries))
    _totals_b(s, in_b_subcategory(c))
    return s
