"""The earlier ``surfaces.validate``, which walks each mixed cycle three
times and counts uses in ``Counter`` objects.

``surfaces.validate`` now checks everything in one walk with exact type
tests; on every cobordism whose indices are plain integers both must
return the same violations, in the same order.  This is the reference it
is checked against.
"""

from __future__ import annotations

from collections import Counter

from occob.objects import Circle, GeneralObject, Interval
from occob.surfaces import (
    IN,
    Arc,
    Closed,
    Cobordism,
    IntervalRef,
    Mixed,
    Violation,
    Window,
)


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


def reference_validate(c: Cobordism) -> list[Violation]:
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
            if isinstance(circ, Closed):
                incoming = circ.side == IN
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
