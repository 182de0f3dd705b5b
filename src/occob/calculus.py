"""Constructors and categorical operations on combinatorial cobordisms.

Composition works by gluing: the outgoing boundary of the first factor is
identified with the incoming boundary of the second along their shared
middle object.  Closed circles glue whole; each glued interval splices
two mixed boundary cycles (or resplits one), and a spliced cycle left
with no interval references collapses to a window.  The Euler
characteristic of a glued component is the sum over its pieces minus the
number of glued intervals, which recovers the genus.
"""

from __future__ import annotations

from typing import Iterable

from occob.errors import ClosedComponentError, CompositionError, InfeasibleObjectError
from occob.errors import wrong_type
from occob.objects import Circle, GeneralObject, Permutation
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
    boundary_permutation,
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
            comps.append(Component(0, (Closed(IN, i), Closed(OUT, tmap(i)))))
        else:
            square = Mixed((
                IntervalRef(OUT, tmap(i), False),
                arcs[e.right],
                IntervalRef(IN, i, True),
                arcs[e.left],
            ))
            comps.append(Component(0, (square,)))
    return Cobordism(obj, target, tuple(comps))


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


class _UnionFind:
    """Forest with path compression over integer ids."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def compose(second: Cobordism, first: Cobordism) -> Cobordism:
    """Glue ``first`` then ``second`` along their shared middle object.

    Both factors must be valid and ``first.target`` must equal
    ``second.source`` (entries, branes, and permutation).  Raises
    ``CompositionError`` on an interface mismatch or incoherent traversal
    flags, and ``ClosedComponentError`` if gluing would close a component
    off from all boundary.
    """
    if type(second) is not Cobordism or type(first) is not Cobordism:
        raise wrong_type(Cobordism, second, first)
    if first.target != second.source:
        raise CompositionError(
            "interface mismatch: target of the first factor differs from "
            "source of the second"
        )
    middle = first.target

    pieces = first.components + second.components
    n_first = len(first.components)
    uf = _UnionFind(len(pieces))

    # Index every glued closed circle by its piece, and number every
    # mixed-cycle entry 0..N-1 in (piece, circle, entry) order: node x is
    # entries[x], followed on its cycle by node succ[x], on piece owner[x].
    # The other circles and the windows of each piece are kept as they are.
    out_circle_piece: dict[int, int] = {}  # middle circle -> piece in first
    in_circle_piece: dict[int, int] = {}  # middle circle -> piece in second
    entries: list[MixedEntry] = []
    succ: list[int] = []
    owner: list[int] = []
    out_nodes: dict[int, int] = {}  # middle interval -> node in first
    in_nodes: dict[int, int] = {}  # middle interval -> node in second
    kept: list[list[BoundaryCircle]] = []  # piece -> circles kept
    for pid, comp in enumerate(pieces):
        if pid < n_first:
            circle_piece, side, nodes = out_circle_piece, OUT, out_nodes
        else:
            circle_piece, side, nodes = in_circle_piece, IN, in_nodes
        stay: list[BoundaryCircle] = []
        for circ in comp.circles:
            if isinstance(circ, Mixed):
                cycle = circ.cycle
                if not cycle:
                    continue
                base = len(entries)
                entries += cycle
                owner += [pid] * len(cycle)
                succ += range(base + 1, base + len(cycle))
                succ.append(base)
                for node, entry in enumerate(cycle, base):
                    if isinstance(entry, IntervalRef) and entry.side == side:
                        nodes[entry.index] = node
            elif isinstance(circ, Closed) and circ.side == side:
                circle_piece[circ.index] = pid
            else:
                stay.append(circ)
        kept.append(stay)

    # Glue closed circles: merge the components; assembly drops the pair.
    for i in middle.circle_indices:
        uf.union(
            _attached(out_circle_piece, "circle", i, "first"),
            _attached(in_circle_piece, "circle", i, "second"),
        )

    # Glue intervals: pair the two references, merge, count the splice.
    # A paired node counts as visited: the trace steps over it.
    partner = [-1] * len(entries)
    visited = bytearray(len(entries))
    splices: list[int] = []
    for i in middle.interval_indices:
        a = _attached(out_nodes, "interval", i, "first")
        b = _attached(in_nodes, "interval", i, "second")
        if entries[a].rev == entries[b].rev:
            raise CompositionError(
                f"incoherent traversal of glued interval {i}: both sides "
                "meet its endpoints in the same order"
            )
        partner[a] = b
        partner[b] = a
        visited[a] = visited[b] = 1
        uf.union(owner[a], owner[b])
        splices.append(owner[a])
    # A class is named by its least piece, so classes come up in order.
    root = [uf.find(pid) for pid in range(len(pieces))]

    # Assemble class by class, each window capped off, which keeps the genus.
    chi: dict[int, int] = {}
    boundary: dict[int, list[BoundaryCircle]] = {}
    windows: dict[int, list[tuple[str, int]]] = {}
    for pid, comp in enumerate(pieces):
        cls = root[pid]
        if cls == pid:
            chi[cls], boundary[cls] = 0, kept[pid]
        else:
            boundary[cls] += kept[pid]
        chi[cls] += 2 - 2 * comp.genus - len(comp.circles)
        if comp.windows:
            windows.setdefault(cls, []).extend(comp.windows)
    for pid in splices:
        chi[root[pid]] -= 1

    # Trace the glued boundary: walk successor links, crossing each glued
    # interval onto the other surface.  Runs of arcs then fuse into one.
    start = visited.find(0)
    while start >= 0:
        seq: list[MixedEntry] = []
        cur = start
        while True:
            visited[cur] = 1
            seq.append(entries[cur])
            cur = succ[cur]
            while partner[cur] >= 0:
                cur = succ[partner[cur]]
            if cur == start:
                break
        cls = root[owner[start]]
        if type(fused := _fuse_arcs(seq)) is Mixed:
            boundary[cls].append(fused)
        else:  # a window born, capped as the others are
            windows.setdefault(cls, []).append((fused, 1))
            chi[cls] += 1
        start = visited.find(0, start + 1)

    components = []
    for cls, circles in boundary.items():
        if not circles and cls not in windows:
            raise ClosedComponentError(
                "gluing closed a component off from all boundary"
            )
        genus = _genus(chi[cls], len(circles))
        components.append(Component(genus, circles, windows.get(cls, ())))
    return Cobordism(first.source, second.target, components)


def _genus(chi: int, boundary_count: int) -> int:
    """Recover genus from Euler characteristic and boundary circle count.

    Raises ``CompositionError`` when no orientable surface fits, i.e. when
    2 - chi - b is negative or odd.
    """
    twice = 2 - chi - boundary_count
    if twice < 0 or twice % 2 != 0:
        raise CompositionError(
            f"no orientable genus fits euler characteristic {chi} with "
            f"{boundary_count} boundary circles"
        )
    return twice // 2


def _attached(table: dict, kind: str, i: int, factor: str):
    """Where middle ``kind`` ``i`` attaches to a factor, or a ``CompositionError``."""
    if i not in table:
        raise CompositionError(
            f"middle {kind} {i} is not attached to the {factor} factor"
        )
    return table[i]


def _fuse_arcs(seq: list[MixedEntry]) -> Mixed | str:
    """Collapse runs of adjacent arcs in a traced cycle.

    The cycle is read from its first interval reference.  A cycle with no
    interval reference left becomes a window, returned as its brane.  The
    arcs of a run must all carry one brane.
    """
    for shift, e in enumerate(seq):
        if isinstance(e, IntervalRef):
            break
    else:
        branes = {e.brane for e in seq}
        if len(branes) != 1:
            raise CompositionError(
                f"arc branes disagree on a glued free circle: {sorted(branes)}"
            )
        return branes.pop()
    rotated = seq[shift:] + seq[:shift]
    out: list[MixedEntry] = []
    for k, e in enumerate(rotated):
        if isinstance(e, IntervalRef) or isinstance(out[-1], IntervalRef):
            out.append(e)
        elif e.brane != out[-1].brane:
            lo = hi = k
            while not isinstance(rotated[lo - 1], IntervalRef):
                lo -= 1
            while hi < len(rotated) and not isinstance(rotated[hi], IntervalRef):
                hi += 1
            branes = sorted({a.brane for a in rotated[lo:hi]})
            raise CompositionError(
                f"arc branes disagree across a glued interval: {branes}"
            )
    return Mixed(out)


# ---------------------------------------------------------------------------
# tensor


def _shift_circle(circ: BoundaryCircle, s_off: int, t_off: int) -> BoundaryCircle:
    if isinstance(circ, Closed):
        return Closed(circ.side, circ.index + (s_off if circ.side == IN else t_off))
    cycle = tuple(
        IntervalRef(e.side, e.index + (s_off if e.side == IN else t_off), e.rev)
        if isinstance(e, IntervalRef)
        else e
        for e in circ.cycle
    )
    return Mixed(cycle)


def tensor(a: Cobordism, b: Cobordism) -> Cobordism:
    """Place side by side: concatenate components, shifting b's indices."""
    if type(a) is not Cobordism or type(b) is not Cobordism:
        raise wrong_type(Cobordism, a, b)
    source = a.source.tensor(b.source)
    target = a.target.tensor(b.target)
    s_off, t_off = len(a.source.entries), len(a.target.entries)
    shifted = (
        Component(
            comp.genus,
            tuple(_shift_circle(circ, s_off, t_off) for circ in comp.circles),
            comp.windows,
        )
        for comp in b.components
    )
    return Cobordism(source, target, tuple(a.components) + tuple(shifted))


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
    boundary: list[BoundaryCircle] = [Closed(IN, i) for i in obj.circle_indices]
    arcs = {b: Arc(b) for b in obj.branes}
    at = obj.entries  # sigma permutes the positions of intervals only
    for cyc in obj.sigma.cycles():
        entries: list[MixedEntry] = []
        for x, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            left, right = at[x - 1].left, at[nxt - 1].right
            if left != right:
                raise InfeasibleObjectError(
                    f"cycle {cyc} is not brane-coherent: interval {x} leaves on "
                    f"brane {left!r} but interval {nxt} is entered on brane "
                    f"{right!r}"
                )
            entries.append(IntervalRef(IN, x, True))
            entries.append(arcs[left])
        boundary.append(Mixed(entries))
    boundary.append(Closed(OUT, 1))
    target = GeneralObject(obj.branes, (Circle(),))
    return Cobordism(obj, target, (Component(0, tuple(boundary)),))


def pullback(c: Cobordism, tau: Permutation) -> Permutation:
    """Pull a permutation on the target intervals back along ``c``.

    Computed by gluing the realizer of the target (re-anchored to carry
    ``tau``) on top of ``c`` and reading off the boundary permutation of
    the glued surface.  The result does not depend on which realizer of
    ``tau`` is used; stabilized realizers give the same answer.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if type(tau) is not Permutation:
        raise wrong_type(Permutation, tau)
    anchored = GeneralObject(c.target.branes, c.target.entries, tau)
    rebased = Cobordism(c.source, anchored, c.components)
    return boundary_permutation(compose(realize(anchored), rebased))


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
    genus and one window per brane, added to its counts in time linear in
    its circles and branes, so k steps take time linear in k; every other
    component is returned as it is.  Any other target, or no component
    holding ``Closed(OUT, 1)``, raises ``CompositionError``.
    """
    if type(c) is not Cobordism:
        raise wrong_type(Cobordism, c)
    if c.target.entries != (Circle(),):
        raise CompositionError("stabilize requires the single-circle target object")
    comps = list(c.components)
    for pos, comp in enumerate(comps):
        if Closed(OUT, 1) in comp.circles:
            windows = comp.windows + tuple((b, 1) for b in c.target.branes)
            comps[pos] = Component(comp.genus + 1, comp.circles, windows)
            return Cobordism(c.source, c.target, comps)
    raise CompositionError("no component holds outgoing circle 1")
