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
from occob.objects import Circle, GeneralObject, Permutation
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    BoundaryCircle,
    Cobordism,
    Component,
    InClosed,
    IntervalRef,
    Mixed,
    MixedEntry,
    OutClosed,
    Window,
    boundary_permutation,
    euler_char,
    in_ref,
    out_ref,
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
    comps = []
    for i, e in enumerate(obj.entries, start=1):
        if isinstance(e, Circle):
            comps.append(Component(0, (InClosed(i), OutClosed(tmap(i)))))
        else:
            square = Mixed(
                (out_ref(tmap(i)), Arc(e.right), in_ref(i), Arc(e.left))
            )
            comps.append(Component(0, (square,)))
    return Cobordism(obj, target, tuple(comps))


def identity(obj: GeneralObject) -> Cobordism:
    """One cylinder per circle and one square per interval."""
    return _cylinder(obj, obj, lambda i: i)


def swap_cobordism(a: GeneralObject, b: GeneralObject) -> Cobordism:
    """The symmetry from ``a.tensor(b)`` to ``b.tensor(a)``.

    Identity-shaped cylinders whose target attachments are permuted by
    the block swap.
    """
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
    if first.target != second.source:
        raise CompositionError(
            "interface mismatch: target of the first factor differs from "
            "source of the second"
        )
    middle = first.target

    pieces = list(first.components) + list(second.components)
    n_first = len(first.components)
    uf = _UnionFind(len(pieces))

    # Index every glued closed circle by its piece, and every mixed-cycle
    # entry by a node id (pid, bpos, epos); ids are inserted in sorted order.
    out_circle_piece: dict[int, int] = {}  # middle circle -> piece in first
    in_circle_piece: dict[int, int] = {}  # middle circle -> piece in second
    succ: dict[tuple, tuple] = {}
    entry_at: dict[tuple, MixedEntry] = {}
    out_nodes: dict[int, tuple] = {}  # middle interval -> node in first
    in_nodes: dict[int, tuple] = {}  # middle interval -> node in second
    for pid, comp in enumerate(pieces):
        from_first = pid < n_first
        for bpos, circ in enumerate(comp.boundary):
            if from_first and isinstance(circ, OutClosed):
                out_circle_piece[circ.index] = pid
            elif not from_first and isinstance(circ, InClosed):
                in_circle_piece[circ.index] = pid
            if not isinstance(circ, Mixed):
                continue
            n = len(circ.cycle)
            for epos, entry in enumerate(circ.cycle):
                node = (pid, bpos, epos)
                succ[node] = (pid, bpos, (epos + 1) % n)
                entry_at[node] = entry
                if isinstance(entry, IntervalRef):
                    if from_first and entry.side == OUT:
                        out_nodes[entry.index] = node
                    elif not from_first and entry.side == IN:
                        in_nodes[entry.index] = node

    # Glue closed circles: merge the components; assembly drops the pair.
    for i in middle.circle_indices:
        uf.union(
            _attached(out_circle_piece, "circle", i, "first"),
            _attached(in_circle_piece, "circle", i, "second"),
        )

    # Glue intervals: mark the reference pair, merge, count the splice.
    partner: dict[tuple, tuple] = {}
    splices: list[int] = []
    for i in middle.interval_indices:
        a = _attached(out_nodes, "interval", i, "first")
        b = _attached(in_nodes, "interval", i, "second")
        if entry_at[a].rev == entry_at[b].rev:
            raise CompositionError(
                f"incoherent traversal of glued interval {i}: both sides "
                "meet its endpoints in the same order"
            )
        partner[a] = b
        partner[b] = a
        uf.union(a[0], b[0])
        splices.append(a[0])

    # Trace the glued boundary: walk successor links, crossing each glued
    # interval onto the other surface.  Runs of arcs then fuse into one.
    glued = set(partner)
    traced: dict[int, list[BoundaryCircle]] = {}
    visited: set[tuple] = set(glued)
    for start in succ:
        if start in visited:
            continue
        seq: list[MixedEntry] = []
        cur = start
        while True:
            visited.add(cur)
            seq.append(entry_at[cur])
            nxt = succ[cur]
            while nxt in glued:
                nxt = succ[partner[nxt]]
            cur = nxt
            if cur == start:
                break
        cls = uf.find(start[0])
        traced.setdefault(cls, []).append(_fuse_arcs(seq))

    # Assemble the result components class by class.
    kept: dict[int, list[BoundaryCircle]] = {}
    chi: dict[int, int] = {}
    for pid, comp in enumerate(pieces):
        cls = uf.find(pid)
        chi[cls] = chi.get(cls, 0) + euler_char(comp)
        glued_closed = OutClosed if pid < n_first else InClosed
        for circ in comp.boundary:
            if not isinstance(circ, (Mixed, glued_closed)):
                kept.setdefault(cls, []).append(circ)
    for pid in splices:
        cls = uf.find(pid)
        chi[cls] -= 1

    components = []
    for cls in sorted(chi):
        boundary = kept.get(cls, []) + traced.get(cls, [])
        if not boundary:
            raise ClosedComponentError(
                "gluing closed a component off from all boundary"
            )
        genus = _genus(chi[cls], len(boundary))
        components.append(Component(genus, tuple(boundary)))
    return Cobordism(first.source, second.target, tuple(components))


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


def _fuse_arcs(seq: list[MixedEntry]) -> BoundaryCircle:
    """Collapse runs of adjacent arcs in a traced cycle.

    A cycle with no interval reference left becomes a window; its arcs
    must all carry one brane.
    """
    if all(isinstance(e, Arc) for e in seq):
        branes = {e.brane for e in seq}
        if len(branes) != 1:
            raise CompositionError(
                f"arc branes disagree on a glued free circle: {sorted(branes)}"
            )
        return Window(branes.pop())
    shift = next(i for i, e in enumerate(seq) if isinstance(e, IntervalRef))
    rotated = seq[shift:] + seq[:shift]
    out: list[MixedEntry] = []
    run: list[Arc] = []

    def close_run():
        if run:
            branes = {a.brane for a in run}
            if len(branes) != 1:
                raise CompositionError(
                    f"arc branes disagree across a glued interval: {sorted(branes)}"
                )
            out.append(Arc(branes.pop()))
            run.clear()

    for e in rotated:
        if isinstance(e, IntervalRef):
            close_run()
            out.append(e)
        else:
            run.append(e)
    close_run()
    return Mixed(out)


# ---------------------------------------------------------------------------
# tensor


def _shift_circle(circ: BoundaryCircle, s_off: int, t_off: int) -> BoundaryCircle:
    if isinstance(circ, InClosed):
        return InClosed(circ.index + s_off)
    if isinstance(circ, OutClosed):
        return OutClosed(circ.index + t_off)
    if isinstance(circ, Window):
        return circ
    cycle = tuple(
        IntervalRef(e.side, e.index + (s_off if e.side == IN else t_off), e.rev)
        if isinstance(e, IntervalRef)
        else e
        for e in circ.cycle
    )
    return Mixed(cycle)


def tensor(a: Cobordism, b: Cobordism) -> Cobordism:
    """Place side by side: concatenate components, shifting b's indices."""
    source = a.source.tensor(b.source)
    target = a.target.tensor(b.target)
    s_off, t_off = len(a.source.entries), len(a.target.entries)
    shifted = (
        Component(
            comp.genus,
            tuple(_shift_circle(circ, s_off, t_off) for circ in comp.boundary),
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
    boundary: list[BoundaryCircle] = [InClosed(i) for i in obj.circle_indices]
    for cyc in obj.sigma.cycles():
        entries: list[MixedEntry] = []
        for x, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            left = obj.interval(x).left
            if left != obj.interval(nxt).right:
                raise InfeasibleObjectError(
                    f"cycle {cyc} is not brane-coherent: interval {x} leaves on "
                    f"brane {left!r} but interval {nxt} is entered on brane "
                    f"{obj.interval(nxt).right!r}"
                )
            entries.append(in_ref(x))
            entries.append(Arc(left))
        boundary.append(Mixed(entries))
    boundary.append(OutClosed(1))
    target = GeneralObject(obj.branes, (Circle(),))
    return Cobordism(obj, target, (Component(0, tuple(boundary)),))


def pullback(c: Cobordism, tau: Permutation) -> Permutation:
    """Pull a permutation on the target intervals back along ``c``.

    Computed by gluing the realizer of the target (re-anchored to carry
    ``tau``) on top of ``c`` and reading off the boundary permutation of
    the glued surface.  The result does not depend on which realizer of
    ``tau`` is used; stabilized realizers give the same answer.
    """
    anchored = GeneralObject(c.target.branes, c.target.entries, tau)
    rebased = Cobordism(c.source, anchored, c.components)
    return boundary_permutation(compose(realize(anchored), rebased))


def is_morphism(c: Cobordism, src: GeneralObject, tgt: GeneralObject) -> bool:
    """Does ``c`` connect ``src`` to ``tgt`` compatibly with their sigmas?

    The underlying manifolds must match, else ``CompositionError``; the
    answer is whether the target permutation pulls back along ``c`` to the
    source permutation.
    """
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
    windows = tuple(Window(b) for b in sorted(obj.branes))
    comp = Component(1, (InClosed(1), OutClosed(1)) + windows)
    return Cobordism(obj, obj, (comp,))


def stabilize(c: Cobordism) -> Cobordism:
    """Add a handle and one window per brane where the outgoing circle is.

    Requires target equal to the single-circle object.  The closed form of
    ``compose(make_T(c.target.branes), c)``, equal to it up to
    ``canonicalize``: the component holding ``OutClosed(1)`` gains one
    genus and one window per brane, appended after its boundary circles,
    whose order is kept; every other component is returned as it is.
    Any other target, or no component holding ``OutClosed(1)``, raises
    ``CompositionError``.
    """
    if c.target.entries != (Circle(),):
        raise CompositionError("stabilize requires the single-circle target object")
    comps = list(c.components)
    for pos, comp in enumerate(comps):
        if OutClosed(1) in comp.boundary:
            windows = tuple(Window(b) for b in sorted(c.target.branes))
            comps[pos] = Component(comp.genus + 1, comp.boundary + windows)
            return Cobordism(c.source, c.target, comps)
    raise CompositionError("no component holds outgoing circle 1")
