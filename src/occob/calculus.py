"""Constructors and categorical operations on combinatorial cobordisms.

Composition works by gluing: the outgoing boundary of the first factor is
identified with the incoming boundary of the second along their shared
middle object.  Closed circles glue whole; each glued interval splices
two mixed boundary cycles (or resplits one), and a spliced cycle left
with no interval references collapses to a window.  The Euler
characteristic of a glued component is the sum over its pieces minus the
number of glued intervals, which recovers the genus.

Only what the middle object touches is traced: a mixed circle with no
glued reference passes through as the same object, and so does every
closed circle that is not glued (a mixed circle stored from an arc, or
with arcs to fuse, is rewritten as a traced one is).  ``pullback`` walks
a cobordism's circles with the same numbering pass, ``_number``, and the
same pass-through rule.  What this module derives from checked values is
assembled unchecked, by the rule stated in ``surfaces``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from occob.errors import ClosedComponentError, CompositionError, InfeasibleObjectError
from occob.errors import wrong_type
from occob.objects import Circle, GeneralObject, Permutation, _object, _wrong_domain
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    BoundaryCircle,
    Closed,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    MixedEntry,
    _closed,
    _cobordism,
    _component,
    _covering,
    _mixed,
    _outgoing_left,
    _ref,
    _window_counts,
    boundary_permutation,  # reached through this module by the CLI and others
)

__all__ = [
    "identity",
    "compose",
    "tensor",
    "swap_cobordism",
    "realize",
    "pullback",
    "is_morphism",
    "make_T",
    "stabilize",
]


# ---------------------------------------------------------------------------
# cylinders


def _cylinder(obj: GeneralObject, target: GeneralObject, tmap) -> Cobordism:
    arcs = {b: Arc(b) for b in obj.branes}
    comps = []
    for i, e in enumerate(obj.entries, start=1):
        if isinstance(e, Circle):
            circles = (_closed(IN, i), _closed(OUT, tmap(i)))
        else:
            outgoing, incoming = _ref(OUT, tmap(i), False), _ref(IN, i, True)
            circles = (_mixed((outgoing, arcs[e.right], incoming, arcs[e.left])),)
        comps.append(_component(0, circles, ()))
    return _cobordism(obj, target, tuple(comps))


def identity(obj: GeneralObject) -> Cobordism:
    """One cylinder per circle and one square per interval."""
    if type(obj) is not GeneralObject:
        raise wrong_type(GeneralObject, obj)
    return _cylinder(obj, obj, lambda i: i)


def swap_cobordism(a: GeneralObject, b: GeneralObject) -> Cobordism:
    """The symmetry from ``a.tensor(b)`` to ``b.tensor(a)``.

    Identity-shaped cylinders whose target attachments are permuted by
    the block swap.
    """
    if type(a) is not GeneralObject or type(b) is not GeneralObject:
        raise wrong_type(GeneralObject, a, b)
    if a.branes != b.branes:
        raise CompositionError("swap requires matching brane sets")
    la, lb = len(a.entries), len(b.entries)

    def tmap(i: int) -> int:
        return i + lb if i <= la else i - la

    return _cylinder(a.tensor(b), b.tensor(a), tmap)


# ---------------------------------------------------------------------------
# composition


def compose(second: Cobordism, first: Cobordism) -> Cobordism:
    """Glue ``first`` then ``second`` along their shared middle object.

    Both factors must be valid and ``first.target`` must equal
    ``second.source`` (entries, branes, and permutation).  Raises
    ``CompositionError`` on an interface mismatch or incoherent traversal
    flags, and ``ClosedComponentError`` if gluing would close a component
    off from all boundary.

    Only the mixed circles that reference the middle object are traced.
    Every other circle passes through as the same object, in the place
    the trace would have put it (a mixed one whose arcs still need fusing
    is fused as a traced one is).  The result is assembled from these
    checked parts without running the constructors' checks again.
    """
    if type(second) is not Cobordism or type(first) is not Cobordism:
        raise wrong_type(Cobordism, second, first)
    if first.target != second.source:
        raise CompositionError(
            "interface mismatch: target of the first factor differs from "
            "source of the second"
        )

    pieces = first.components + second.components
    n_first = len(first.components)

    # Index every glued closed circle by its piece.  Number the entries of
    # every mixed cycle with a glued reference 0..N-1 in (piece, circle,
    # entry) order with ``_number``: node x lies on piece owner[x].  Any
    # other nonempty mixed cycle is one node, the circle itself, its own
    # successor, and the rest of each piece's circles are kept.  Per piece:
    # its Euler characteristic (windows left out on both sides of
    # ``_genus``) and its windows.
    out_circle_piece: dict[int, int] = {}  # middle circle -> piece in first
    in_circle_piece: dict[int, int] = {}  # middle circle -> piece in second
    entries: list = []  # a MixedEntry per node, or a passing Mixed circle
    succ: list[int] = []
    owner: list[int] = []
    out_nodes: dict[int, int] = {}  # middle interval -> node in first
    in_nodes: dict[int, int] = {}  # middle interval -> node in second
    kept: list[list[BoundaryCircle]] = []
    chi: list[int] = []
    windows: list = []  # a checked tuple, or a list of pairs still to count
    circle_piece, side, nodes = out_circle_piece, OUT, out_nodes
    for pid, comp in enumerate(pieces):
        if pid == n_first:
            circle_piece, side, nodes = in_circle_piece, IN, in_nodes
        stay: list[BoundaryCircle] = []
        for circ in comp.circles:
            if type(circ) is Closed:
                if circ.side == side:
                    circle_piece[circ.index] = pid
                else:
                    stay.append(circ)
                continue
            cycle = circ.cycle
            if _number(cycle, side, nodes, entries, succ):
                owner += [pid] * len(cycle)
            elif cycle:  # a passing circle; an empty cycle is dropped
                succ.append(len(entries))
                entries.append(circ)
                owner.append(pid)
        kept.append(stay)
        chi.append(2 - 2 * comp.genus - len(comp.circles))
        windows.append(comp.windows)

    # One scan of the middle object: glue its circles, which merges their
    # pieces, and list its intervals, so every circle is glued before any
    # interval.
    joins: list[tuple[int, int]] = []
    intervals: list[int] = []
    for i, e in enumerate(first.target.entries, start=1):
        if isinstance(e, Circle):
            a = out_circle_piece.get(i, -1)
            b = in_circle_piece.get(i, -1)
            if a < 0 or b < 0:
                raise _unattached("circle", i, "second" if a >= 0 else "first")
            joins.append((a, b))
        else:
            intervals.append(i)

    # Glue intervals: pair the two references, merge, count the splice.
    # A paired node counts as visited: the trace steps over it.
    partner = [-1] * len(entries)
    visited = bytearray(len(entries))
    for i in intervals:
        a = out_nodes.get(i, -1)
        b = in_nodes.get(i, -1)
        if a < 0 or b < 0:
            raise _unattached("interval", i, "second" if a >= 0 else "first")
        if entries[a].rev == entries[b].rev:
            raise _incoherent(i)
        partner[a] = b
        partner[b] = a
        visited[a] = visited[b] = 1
        joins.append((owner[a], owner[b]))
        chi[owner[a]] -= 1

    # Union-find over the pieces, halving paths.  A class is named by its
    # least piece, so root[x] <= x throughout, and one pass upward sets every
    # root and gathers each class's kept circles, chi and windows into it.
    root = list(range(len(pieces)))
    for a, b in joins:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    for pid, up in enumerate(root):
        if up != pid:
            cls = root[pid] = root[up]
            kept[cls] += kept[pid]
            chi[cls] += chi[pid]
            if w := windows[pid]:
                have = windows[cls]
                windows[cls] = [*have, *w] if have else w

    # Trace the glued boundary: walk successor links, crossing each glued
    # interval onto the other surface, starting from each node not yet
    # visited in turn.  A passing circle is its own node, kept as it is
    # unless it has arcs to fuse.  Runs of arcs then fuse into one.
    start = visited.find(0)
    while start >= 0:
        cls = root[owner[start]]
        if type(circ := entries[start]) is not Mixed:
            seq = []
            cur = start
            while True:
                visited[cur] = 1
                seq.append(entries[cur])
                cur = succ[cur]
                while partner[cur] >= 0:
                    cur = succ[partner[cur]]
                if cur == start:
                    break
            circ = _fuse_arcs(seq)
        elif Arc in map(type, circ.cycle[::2]):
            circ = _fuse_arcs(circ.cycle)
        start = visited.find(0, start + 1)
        if type(circ) is Mixed:
            kept[cls].append(circ)
        else:  # a window born, capped as the others are
            windows[cls] = [*windows[cls], (circ, 1)]
            chi[cls] += 1

    # Assemble class by class, each window capped off, which keeps the genus.
    components = []
    for cls, up in enumerate(root):
        if up != cls:
            continue
        circles, w = kept[cls], windows[cls]
        if not circles and not w:
            raise _closed_off()
        genus = _genus(chi[cls], len(circles), w)
        if type(w) is list:
            w = _window_counts(w)
        components.append(_component(genus, tuple(circles), w))
    return _cobordism(first.source, second.target, tuple(components))


def _number(cycle: tuple, side: str, nodes: dict, entries: list, succ: list) -> bool:
    """Number ``cycle``'s entries on from ``len(entries)`` if it has an
    interval reference on ``side``, and say whether it did: node x is
    ``entries[x]``, followed on its cycle by node ``succ[x]``, and ``nodes``
    maps the index of each reference on ``side`` to its node, the last
    reference to an index winning.  Any other cycle passes through."""
    base = len(entries)
    glued = False
    for node, entry in enumerate(cycle, base):
        if type(entry) is IntervalRef and entry.side == side:
            nodes[entry.index] = node
            glued = True
    if glued:
        entries += cycle
        succ += range(base + 1, base + len(cycle))
        succ.append(base)
    return glued


def _genus(chi: int, boundary_count: int, windows=()) -> int:
    """Recover genus from Euler characteristic and boundary circle count,
    both with the windows (``(brane, count)`` pairs) left out.

    Raises ``CompositionError`` when no orientable surface fits, i.e. when
    2 - chi - b is negative or odd.  Its message counts the windows in
    both numbers, as the surface has them.
    """
    twice = 2 - chi - boundary_count
    if twice < 0 or twice % 2 != 0:
        w = sum(n for _, n in windows)
        raise CompositionError(
            f"no orientable genus fits euler characteristic {chi - w} with "
            f"{boundary_count + w} boundary circles"
        )
    return twice // 2


def _unattached(kind: str, i: int, factor: str) -> CompositionError:
    return CompositionError(f"middle {kind} {i} is not attached to the {factor} factor")


def _incoherent(i: int) -> CompositionError:
    return CompositionError(
        f"incoherent traversal of glued interval {i}: both sides meet its "
        "endpoints in the same order"
    )


def _closed_off() -> ClosedComponentError:
    return ClosedComponentError("gluing closed a component off from all boundary")


_FREE, _ACROSS = "on a glued free circle", "across a glued interval"


def _disagree(branes: set[str], where: str) -> CompositionError:
    return CompositionError(f"arc branes disagree {where}: {sorted(branes)}")


def _fuse_arcs(seq: Sequence[MixedEntry]) -> Mixed | str:
    """Collapse runs of adjacent arcs in a traced cycle.

    The cycle is read from its first interval reference.  A cycle with no
    interval reference left becomes a window, returned as its brane.  The
    arcs of a run must all carry one brane.
    """
    for shift, e in enumerate(seq):
        if type(e) is IntervalRef:
            break
    else:
        branes = {e.brane for e in seq}
        if len(branes) != 1:
            raise _disagree(branes, _FREE)
        return branes.pop()
    rotated = seq[shift:] + seq[:shift]
    out: list[MixedEntry] = []
    last = e
    for k, e in enumerate(rotated):
        if type(e) is IntervalRef or type(last) is IntervalRef:
            out.append(e)
            last = e
        elif e.brane != last.brane:
            lo = hi = k
            while type(rotated[lo - 1]) is not IntervalRef:
                lo -= 1
            while hi < len(rotated) and type(rotated[hi]) is not IntervalRef:
                hi += 1
            raise _disagree({a.brane for a in rotated[lo:hi]}, _ACROSS)
    return _mixed(tuple(out))


# ---------------------------------------------------------------------------
# tensor


def _shift_circle(circ: BoundaryCircle, s_off: int, t_off: int) -> BoundaryCircle:
    if type(circ) is Closed:
        return _closed(circ.side, circ.index + (s_off if circ.side == IN else t_off))
    cycle = tuple(
        _ref(e.side, e.index + (s_off if e.side == IN else t_off), e.rev)
        if type(e) is IntervalRef
        else e
        for e in circ.cycle
    )
    return _mixed(cycle)


def tensor(a: Cobordism, b: Cobordism) -> Cobordism:
    """Place side by side: concatenate components, shifting b's indices.

    The shifted circles, b's components and the result are assembled from
    checked parts, without the constructors' checks.
    """
    if type(a) is not Cobordism or type(b) is not Cobordism:
        raise wrong_type(Cobordism, a, b)
    source = a.source.tensor(b.source)
    target = a.target.tensor(b.target)
    s_off, t_off = len(a.source.entries), len(a.target.entries)
    shifted = tuple(
        _component(
            comp.genus,
            tuple(_shift_circle(circ, s_off, t_off) for circ in comp.circles),
            comp.windows,
        )
        for comp in b.components
    )
    return _cobordism(source, target, a.components + shifted)


# ---------------------------------------------------------------------------
# realizers and the permutation calculus


def realize(obj: GeneralObject) -> Cobordism:
    """The minimal connected realizer of an object over one circle.

    Genus zero, no windows: one incoming circle per circle entry, one
    mixed boundary circle per permutation cycle listing its intervals in
    cycle order, and one outgoing circle.  The boundary circle count is
    then exactly ``obj.c_number``.

    Joining interval ``x`` to interval ``sigma(x)`` uses a single arc, so
    the label met leaving ``x`` (its left endpoint, as incoming intervals
    are traversed right to left) must equal the label met entering
    ``sigma(x)`` (its right endpoint).  A cycle breaking this rule has no
    realizer and raises ``InfeasibleObjectError``.  With one brane every
    object is feasible.
    """
    if type(obj) is not GeneralObject:
        raise wrong_type(GeneralObject, obj)
    at = obj.entries  # sigma permutes the positions of intervals only
    _check_coherent(at, obj.sigma)
    boundary: list[BoundaryCircle] = [_closed(IN, i) for i in obj.circle_indices]
    arcs = {b: Arc(b) for b in obj.branes}
    for cyc in obj.sigma.cycles():
        entries: list[MixedEntry] = []
        for x in cyc:
            entries.append(_ref(IN, x, True))
            entries.append(arcs[at[x - 1].left])
        boundary.append(_mixed(tuple(entries)))
    boundary.append(_closed(OUT, 1))
    target = _object(obj.branes, (Circle(),), ())
    return _cobordism(obj, target, (_component(0, tuple(boundary), ()),))


def _check_coherent(at: tuple, sigma: Permutation) -> None:
    """Raise ``InfeasibleObjectError`` if some interval ``x`` of ``at`` leaves
    on another brane than ``sigma(x)`` is entered on, naming the first such
    step of ``sigma``'s cycles as ``realize`` meets them."""
    if all(at[x - 1].left == at[y - 1].right for x, y in sigma.pairs):
        return
    for cyc in sigma.cycles():
        for x, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            left, right = at[x - 1].left, at[nxt - 1].right
            if left != right:
                raise InfeasibleObjectError(
                    f"cycle {cyc} is not brane-coherent: interval {x} leaves on "
                    f"brane {left!r} but interval {nxt} is entered on brane "
                    f"{right!r}"
                )


def pullback(c: Cobordism, tau: Permutation) -> Permutation:
    """Pull a permutation on the target intervals back along ``c``.

    Equal to the boundary permutation of the realizer of the target,
    re-anchored to carry ``tau``, glued on top of ``c`` (any realizer of
    ``tau``, stabilized or not, gives the same), but found by walking
    ``c``'s mixed circles, with no realizer built and nothing glued.  The
    realizer joins outgoing interval ``y`` to ``tau(y)`` by one arc on
    ``y``'s left brane, so the walk leaves ``c`` at outgoing reference
    ``y`` and goes on after outgoing reference ``tau(y)``; each incoming
    interval maps to the next incoming interval met.  Each outgoing
    reference is crossed once, so the walk is linear.  A circle with no
    outgoing reference passes through, as in ``compose``: its arcs are
    fused, and each of its references maps to the next.

    On every input tested, what the glued path returns ``pullback``
    returns, and where ``pullback`` raises the glued path raises too; on
    one defect both raise the same class with the same message, but with
    defects stacked, they may name different ones, or ``pullback`` may
    return where the glued path raises.  It raises ``InvalidValueError``
    for ``tau`` on another domain than the target intervals,
    ``InfeasibleObjectError`` for a cycle of ``tau`` that is not
    brane-coherent, ``CompositionError`` for a target circle or interval
    ``c`` does not attach, an outgoing reference with ``rev`` set or arcs
    on two branes where they would be joined, ``ClosedComponentError`` for
    an empty component, and ``InvalidCobordismError`` for an outgoing
    reference left unglued (a target interval referenced twice) or source
    intervals not covered.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if type(tau) is not Permutation:
        raise wrong_type(Permutation, tau)
    target = c.target
    at, positions = target.entries, target.interval_indices
    if tau.domain != positions:
        raise _wrong_domain(tau, positions)
    _check_coherent(at, tau)

    # Number the mixed cycles with an outgoing reference as compose does,
    # so a target interval is glued at the last outgoing reference to it.
    # Every other mixed cycle passes through, as in compose.
    image: dict[int, int] = {}
    entries: list[MixedEntry] = []
    succ: list[int] = []
    outs: dict[int, int] = {}  # outgoing index -> node of its last reference
    passing: list[tuple[MixedEntry, ...]] = []
    held: set[int] = set()  # target circles held by a closed circle
    for comp in c.components:
        for circ in comp.circles:
            if type(circ) is Closed:
                if circ.side == OUT:
                    held.add(circ.index)
            elif not _number(circ.cycle, OUT, outs, entries, succ):
                passing.append(circ.cycle)

    # The checks compose makes on the middle object, in its order.
    for i in target.circle_indices:
        if i not in held:
            raise _unattached("circle", i, "first")
    for y in positions:
        a = outs.get(y, -1)
        if a < 0:
            raise _unattached("interval", y, "first")
        if entries[a].rev:
            raise _incoherent(y)

    # Leaving c at glued node outs[y], the walk comes back after outs[tau(y)].
    # Any other outgoing reference is a stray: a walk stops there, as at an
    # incoming reference, so it cannot cycle.
    jump = [-1] * len(entries)
    for y, t in tau.pairs:
        jump[outs[y]] = succ[outs[t]]
    ins: list[int] = []  # nodes of incoming references
    strays: list[int] = []
    for x, e in enumerate(entries):
        if type(e) is IntervalRef:
            if e.side == IN:
                ins.append(x)
            elif jump[x] < 0:
                strays.append(x)
    crossed = bytearray(len(entries))

    def run(cur: int) -> tuple[int, set[str]]:
        """Where a walk from node ``cur`` stops, at a reference or back at
        its start, and the branes of the arcs met, the realizer's too."""
        branes = set()
        while True:
            e = entries[cur]
            if type(e) is Arc:
                branes.add(e.brane)
                cur = succ[cur]
            elif jump[cur] < 0 or crossed[cur]:
                return cur, branes
            else:
                crossed[cur] = 1
                branes.add(at[e.index - 1].left)
                cur = jump[cur]

    # Errors come in the glued path's order: arcs its trace fused, then an
    # empty component, then an outgoing reference it left in the boundary.
    for x in ins + strays:
        stop, branes = run(succ[x])
        if len(branes) > 1:
            raise _disagree(branes, _ACROSS)
        image[entries[x].index] = entries[stop].index
    # A glued reference not crossed lies on a glued circle of arcs alone.
    for y in positions:
        if not crossed[outs[y]] and len(branes := run(outs[y])[1]) > 1:
            raise _disagree(branes, _FREE)
    # A passing cycle's arcs are fused as compose fuses them, which raises
    # where their branes disagree and keeps its references: each maps to
    # the next.
    for cycle in passing:
        if Arc in map(type, cycle[::2]):
            _fuse_arcs(cycle)
        refs = [e for e in cycle if type(e) is IntervalRef]
        for r, r_next in zip(refs, refs[1:] + refs[:1]):
            image[r.index] = r_next.index
    if any(not comp.circles and not comp.windows for comp in c.components):
        raise _closed_off()
    if strays:
        raise _outgoing_left()
    return _covering(image, c.source)


def is_morphism(c: Cobordism, src: GeneralObject, tgt: GeneralObject) -> bool:
    """Does ``c`` connect ``src`` to ``tgt`` compatibly with their sigmas?

    The underlying manifolds must match, else ``CompositionError``; the
    answer is whether the target permutation pulls back along ``c`` to the
    source permutation.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if type(src) is not GeneralObject or type(tgt) is not GeneralObject:
        raise wrong_type(GeneralObject, src, tgt)
    if c.source.entries != src.entries or c.source.branes != src.branes:
        raise CompositionError("the source object does not match the cobordism")
    if c.target.entries != tgt.entries or c.target.branes != tgt.branes:
        raise CompositionError("the target object does not match the cobordism")
    return pullback(c, tgt.sigma) == src.sigma


# ---------------------------------------------------------------------------
# stabilization


def make_T(branes: Iterable[str]) -> Cobordism:
    """The stabilizing cobordism from one circle to one circle.

    A single component of genus one with one window per brane, so its
    Euler characteristic is ``-2 - len(branes)``.
    """
    obj = GeneralObject(branes, (Circle(),))
    comp = Component(1, (Closed(IN, 1), Closed(OUT, 1)), ((b, 1) for b in obj.branes))
    return Cobordism(obj, obj, (comp,))


def stabilize(c: Cobordism) -> Cobordism:
    """Add a handle and one window per brane where the outgoing circle is.

    Requires target equal to the single-circle object.  The closed form of
    ``compose(make_T(c.target.branes), c)``, equal to it up to
    ``canonicalize``: the component holding ``Closed(OUT, 1)`` gains one
    genus and one window per brane, added to its counts in one pass in
    time linear in its circles and branes, so k steps take time linear in
    k; every other component is returned as it is.  Any other target, or
    no component holding ``Closed(OUT, 1)``, raises ``CompositionError``.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    target = c.target
    if len(target.entries) != 1 or type(target.entries[0]) is not Circle:
        raise CompositionError("stabilize requires the single-circle target object")
    comps = list(c.components)
    for pos, comp in enumerate(comps):
        for circ in comp.circles:
            if type(circ) is Closed and circ.index == 1 and circ.side == OUT:
                counts = dict(comp.windows)
                for b in target.branes:
                    counts[b] = counts.get(b, 0) + 1
                windows = tuple(sorted(counts.items()))
                comps[pos] = _component(comp.genus + 1, comp.circles, windows)
                return _cobordism(c.source, target, tuple(comps))
    raise CompositionError("no component holds outgoing circle 1")
