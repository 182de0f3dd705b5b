"""``compose`` against a reference that keys its nodes by tuples.

The reference is the earlier ``compose``: it names each mixed-cycle entry
by its ``(piece, circle, entry)`` position and keeps successors, entries
and glued partners in dicts and sets keyed by those tuples.  The kernel
numbers the same entries 0..N-1 in the same order, so on every input both
must give the same cobordism, written the same way, or raise the same
error with the same message.  The reference keeps its own copies of the
helpers it needs, so that it shares no code with the kernel.

The kernel numbers no node for a mixed circle that references no glued
interval, so hand-built cases place such circles (stored from an arc,
with a run of arcs, of arcs only, empty, or alternating) in a piece of
their own or beside glued circles, on either factor.  Every result of
``compose`` and ``tensor`` must also equal its rebuild through the checked
constructors, since both assemble their results without those checks.
"""

from __future__ import annotations

import random

import pytest

from conftest import assert_checked, from_boundary
from occob.calculus import compose, identity, tensor
from occob.errors import ClosedComponentError, CompositionError
from occob.objects import STAR, Circle, GeneralObject, Interval
from occob.sampling import sample_cobordism, sample_composable_pair, shuffled
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
    Window,
    euler_char,
    in_ref,
    out_ref,
)

BRANE_SETS = [(STAR,), ("a", "b"), ("a", "b", "c")]


# -- the reference's own helpers, so that it shares no code with the kernel --


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


def _genus(chi: int, boundary_count: int) -> int:
    twice = 2 - chi - boundary_count
    if twice < 0 or twice % 2 != 0:
        raise CompositionError(
            f"no orientable genus fits euler characteristic {chi} with "
            f"{boundary_count} boundary circles"
        )
    return twice // 2


def _attached(table: dict, kind: str, i: int, factor: str):
    if i not in table:
        raise CompositionError(
            f"middle {kind} {i} is not attached to the {factor} factor"
        )
    return table[i]


def reference_compose(second: Cobordism, first: Cobordism) -> Cobordism:
    if first.target != second.source:
        raise CompositionError(
            "interface mismatch: target of the first factor differs from "
            "source of the second"
        )
    middle = first.target

    pieces = list(first.components) + list(second.components)
    n_first = len(first.components)
    uf = _UnionFind(len(pieces))

    out_circle_piece: dict[int, int] = {}
    in_circle_piece: dict[int, int] = {}
    succ: dict[tuple, tuple] = {}
    entry_at: dict[tuple, MixedEntry] = {}
    out_nodes: dict[int, tuple] = {}
    in_nodes: dict[int, tuple] = {}
    for pid, comp in enumerate(pieces):
        from_first = pid < n_first
        for bpos, circ in enumerate(comp.boundary):
            if from_first and isinstance(circ, Closed) and circ.side == OUT:
                out_circle_piece[circ.index] = pid
            elif not from_first and isinstance(circ, Closed) and circ.side == IN:
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

    for i in middle.circle_indices:
        uf.union(
            _attached(out_circle_piece, "circle", i, "first"),
            _attached(in_circle_piece, "circle", i, "second"),
        )

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
        traced.setdefault(cls, []).append(reference_fuse_arcs(seq))

    kept: dict[int, list[BoundaryCircle]] = {}
    chi: dict[int, int] = {}
    for pid, comp in enumerate(pieces):
        cls = uf.find(pid)
        chi[cls] = chi.get(cls, 0) + euler_char(comp)
        glued_side = OUT if pid < n_first else IN
        for circ in comp.boundary:
            glued = isinstance(circ, Closed) and circ.side == glued_side
            if not (isinstance(circ, Mixed) or glued):
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
        components.append(from_boundary(genus, boundary))
    return Cobordism(first.source, second.target, tuple(components))


def reference_fuse_arcs(seq: list[MixedEntry]) -> BoundaryCircle:
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


def outcome(glue, second: Cobordism, first: Cobordism) -> tuple[str, str]:
    """The repr of the result, or the error's type and message."""
    try:
        return ("ok", repr(glue(second, first)))
    except Exception as exc:  # whatever one raises, the other must raise too
        return (type(exc).__name__, str(exc))


def assert_same(second: Cobordism, first: Cobordism) -> str:
    got = outcome(compose, second, first)
    assert got == outcome(reference_compose, second, first)
    if got[0] == "ok":
        assert_checked(compose(second, first))
    return got[0]


# -- mutations of a valid factor --------------------------------------------


def _mixed_positions(c: Cobordism, keep) -> list[tuple[int, int, int]]:
    return [
        (ci, bi, ei)
        for ci, comp in enumerate(c.components)
        for bi, circ in enumerate(comp.boundary)
        if isinstance(circ, Mixed)
        for ei, e in enumerate(circ.cycle)
        if keep(e)
    ]


def _edit_entry(c: Cobordism, where: tuple[int, int, int], edit) -> Cobordism:
    """``c`` with the mixed-cycle entry at ``where`` replaced by ``edit(entry)``
    entries (a tuple: empty drops it)."""
    ci, bi, ei = where
    comps = list(c.components)
    comp = comps[ci]
    cycle = comp.boundary[bi].cycle
    boundary = list(comp.boundary)
    boundary[bi] = Mixed(cycle[:ei] + edit(cycle[ei]) + cycle[ei + 1 :])
    comps[ci] = from_boundary(comp.genus, boundary)
    return Cobordism(c.source, c.target, comps)


def drop_reference(rng: random.Random, c: Cobordism) -> Cobordism | None:
    spots = _mixed_positions(c, lambda e: isinstance(e, IntervalRef))
    return _edit_entry(c, rng.choice(spots), lambda e: ()) if spots else None


def flip_rev(rng: random.Random, c: Cobordism) -> Cobordism | None:
    spots = _mixed_positions(c, lambda e: isinstance(e, IntervalRef))
    if not spots:
        return None

    def flipped(e):
        return (IntervalRef(e.side, e.index, not e.rev),)

    return _edit_entry(c, rng.choice(spots), flipped)


def relabel_arc(rng: random.Random, c: Cobordism) -> Cobordism | None:
    spots = _mixed_positions(c, lambda e: isinstance(e, Arc))
    branes = sorted(c.source.branes)
    if not spots or len(branes) < 2:
        return None

    def relabeled(e):
        return (Arc(rng.choice([b for b in branes if b != e.brane])),)

    return _edit_entry(c, rng.choice(spots), relabeled)


MUTATIONS = [drop_reference, flip_rev, relabel_arc]


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_sampled_pairs_compose_as_the_reference_does(rng, branes):
    for _ in range(250):
        second, first = sample_composable_pair(rng, branes)
        assert assert_same(second, first) == "ok"
        assert assert_same(shuffled(rng, second), shuffled(rng, first)) == "ok"


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_mutated_pairs_fail_or_compose_as_the_reference_does(rng, branes):
    seen = set()
    for _ in range(400):
        second, first = sample_composable_pair(rng, branes)
        mutate = rng.choice(MUTATIONS)
        if rng.random() < 0.5:
            second = mutate(rng, second) or second
        else:
            first = mutate(rng, first) or first
        seen.add(assert_same(second, first))
    # every mutation breaks some pairs, and leaves others composable
    assert {"ok", "CompositionError"} <= seen


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_mismatched_interfaces_fail_as_the_reference_does(rng, branes):
    for _ in range(100):
        second, _ = sample_composable_pair(rng, branes)
        other = sample_cobordism(rng, branes)
        if other.target != second.source:
            assert assert_same(second, other) == "CompositionError"


@pytest.mark.parametrize("branes", BRANE_SETS, ids=["*", "ab", "abc"])
def test_tensor_returns_what_the_checked_constructors_build(rng, branes):
    for _ in range(100):
        second, first = sample_composable_pair(rng, branes)
        assert_checked(tensor(second, first))
        assert_checked(tensor(shuffled(rng, first), second))


# -- mixed circles that reference no glued interval ------------------------
# Each is placed in a piece of its own or beside a glued cycle, on either
# factor.  The kernel numbers no node for it; the reference traces it.

X = GeneralObject(("a", "b"), [Interval("a", "a")] * 3)
Y = GeneralObject(("a", "b"), [Circle(), Interval("a", "a")])
GLUED = Mixed([out_ref(2), Arc("a"), in_ref(1), Arc("a")])
# name: (circle, outcome in a piece of its own, outcome beside glued circles)
UNTOUCHED = {
    "stored from an arc": (Mixed([Arc("a"), in_ref(3)]), "ok", "ok"),
    "an arc run": (Mixed([in_ref(3), Arc("a"), Arc("a")]), "ok", "ok"),
    "an arc run on two branes": (
        Mixed([in_ref(3), Arc("a"), Arc("b")]),
        "CompositionError",
        "CompositionError",
    ),
    "arcs only": (Mixed([Arc("b"), Arc("b")]), "ok", "ok"),
    "arcs only on two branes": (
        Mixed([Arc("a"), Arc("b")]),
        "CompositionError",
        "CompositionError",
    ),
    # dropped, though the Euler characteristic counted it: alone it leaves
    # no boundary, and beside others no genus fits
    "an empty cycle": (Mixed([]), "ClosedComponentError", "CompositionError"),
    "alternating": (Mixed([in_ref(3), Arc("a"), in_ref(2), Arc("a")]), "ok", "ok"),
}


def _outgoing(u: Mixed) -> Mixed:
    """``u`` with its references moved to the outgoing side."""
    return Mixed(
        IntervalRef(OUT, e.index, False) if type(e) is IntervalRef else e
        for e in u.cycle
    )


def _first_factors(u: Mixed):
    """First factors holding ``u``: in a piece of its own before or after
    the glued piece, then in the glued piece before or after its glued
    cycle.  The last two hold it beside glued circles."""
    alone, glued = Component(0, [u]), Component(0, [Closed(OUT, 1), GLUED])
    yield Cobordism(X, Y, [alone, glued]), True
    yield Cobordism(X, Y, [glued, alone]), True
    yield Cobordism(X, Y, [Component(0, [Closed(OUT, 1), u, GLUED])]), False
    yield Cobordism(X, Y, [Component(1, [Closed(OUT, 1), GLUED, u])]), False


@pytest.mark.parametrize("name", UNTOUCHED)
def test_an_untouched_circle_composes_as_the_reference_does(name):
    u, alone_kind, beside_kind = UNTOUCHED[name]
    for first, alone in _first_factors(u):
        kind = assert_same(identity(Y), first)
        assert kind == (alone_kind if alone else beside_kind)
    # on the second factor, whose glued side is the incoming one
    second = identity(Y)
    for comps in ([Component(0, [_outgoing(u)])] + list(second.components),
                  list(second.components) + [Component(0, [_outgoing(u)])]):
        first = Cobordism(X, Y, [Component(0, [Closed(OUT, 1), GLUED])])
        second = Cobordism(Y, Y, comps)
        assert assert_same(second, first) == alone_kind


def test_a_piece_with_no_glued_circle_passes_through_as_it_is():
    u, _, _ = UNTOUCHED["alternating"]
    piece = Component(2, [Closed(IN, 1), u], [("a", 1)])
    first = Cobordism(X, Y, [piece, Component(0, [Closed(OUT, 1), GLUED])])
    assert assert_same(identity(Y), first) == "ok"
    (got, _) = compose(identity(Y), first).components
    assert got == piece
    assert got.circles[1] is u  # the same object, not a copy


def test_a_genus_error_beside_windows_reads_as_the_reference_does():
    u, _, _ = UNTOUCHED["an empty cycle"]
    piece = Component(1, [Closed(OUT, 1), GLUED, u], [("b", 2)])
    assert assert_same(identity(Y), Cobordism(X, Y, [piece])) == "CompositionError"
