"""Workload ``gluing_stream``: thousands of small seeded gluing and law
operations over branes {*} and {a, b}.

Interfaces hold a few entries each, so per-call constant cost in
``calculus``, ``classify`` and ``objects`` dominates; ``dsl`` and ``cli``
are not used.  Every library call is one operation.  Outputs are checked
against answers derived here:

* compose: Euler characteristic chi(b o a) = chi(a) + chi(b) - alpha(middle).
* tensor: chi and the component count add up, the sources concatenate.
* swap: one genus-0 piece per entry, chi = number of intervals, and the
  target is the swapped concatenation.
* pullback: equals the permutation read off by walking the boundary
  (``pullback_walk``), written without ``compose``.
* is_isomorphic: true on both sides of the associativity, unit,
  interchange and symmetry laws, and between a cobordism and a reshuffled
  encoding of it.
* enumerate_classes: the (genus, windows) grid, each class with
  c + windows boundary circles.
"""

from __future__ import annotations

import itertools
import random

from occob.calculus import (
    compose,
    identity,
    pullback,
    swap_cobordism,
    tensor,
)
from occob.classify import enumerate_classes, is_isomorphic
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import (
    sample_cobordism,
    sample_composable_chain,
    sample_composable_pair,
    sample_object,
    shuffled,
)
from occob.surfaces import OUT, IntervalRef, Mixed, Window

STAR_B = (STAR,)
AB = ("a", "b")
MAX_GENUS = MAX_WINDOWS = 2

# Items per pass, by kind; about 15k operations.
COUNTS = {
    "pair": 1000,
    "assoc": 400,
    "unit": 700,
    "interchange": 250,
    "symmetry": 250,
    "involution": 350,
    "enumerate": 60,
}


def euler(c) -> int:
    return sum(2 - 2 * comp.genus - len(comp.boundary) for comp in c.components)


def alpha(obj) -> int:
    return sum(isinstance(e, Interval) for e in obj.entries)


def pullback_walk(c, tau: dict[int, int]) -> dict[int, int]:
    """The pullback of ``tau`` along ``c``, by walking boundary circles.

    Glue the minimal realizer of ``tau`` on top of ``c``: leaving ``c``
    through outgoing interval y, the walk comes back in through outgoing
    interval tau(y) and goes on from there.  Each incoming interval maps
    to the next incoming interval met.
    """
    out_at = {}
    cycles = [
        circ.cycle
        for comp in c.components
        for circ in comp.boundary
        if isinstance(circ, Mixed)
    ]
    for cyc in cycles:
        for k, e in enumerate(cyc):
            if isinstance(e, IntervalRef) and e.side == OUT:
                out_at[e.index] = (cyc, k)
    image = {}
    for cyc in cycles:
        for k, e in enumerate(cyc):
            if not isinstance(e, IntervalRef) or e.side == OUT:
                continue
            cur, pos = cyc, k
            while True:
                pos = (pos + 1) % len(cur)
                nxt = cur[pos]
                if not isinstance(nxt, IntervalRef):
                    continue
                if nxt.side != OUT:
                    image[e.index] = nxt.index
                    break
                cur, pos = out_at[tau[nxt.index]]
    return image


def _chi_compose(r, second, first):
    glued = r.op("calculus.compose", compose, second, first)
    r.check(euler(glued) == euler(second) + euler(first) - alpha(first.target),
            "compose: euler characteristic not conserved")
    return glued


def _tensor(r, a, b):
    t = r.op("calculus.tensor", tensor, a, b)
    r.check(
        euler(t) == euler(a) + euler(b)
        and len(t.components) == len(a.components) + len(b.components)
        and t.source.entries == a.source.entries + b.source.entries,
        "tensor: euler characteristic, components or source do not add up",
    )
    return t


def _swap(r, a, b):
    sw = r.op("calculus.swap_cobordism", swap_cobordism, a, b)
    r.check(
        len(sw.components) == len(a.entries) + len(b.entries)
        and all(comp.genus == 0 for comp in sw.components)
        and euler(sw) == alpha(a) + alpha(b)
        and sw.target.entries == b.entries + a.entries,
        "swap: not one genus-0 piece per entry onto the swapped order",
    )
    return sw


def _iso(r, a, b, law):
    r.check(r.op("classify.is_isomorphic", is_isomorphic, a, b),
            f"is_isomorphic: {law} law fails")


def pair_item(second, first, tau):
    def item(r):
        _chi_compose(r, second, first)
        _tensor(r, second, first)
        pb = r.op("calculus.pullback", pullback, second, Permutation(tau))
        r.check(pb.mapping == pullback_walk(second, tau),
                "pullback: differs from the boundary walk")

    return item


def assoc_item(c1, c2, c3):
    def item(r):
        left = _chi_compose(r, c3, _chi_compose(r, c2, c1))
        right = _chi_compose(r, _chi_compose(r, c3, c2), c1)
        _iso(r, left, right, "associativity")

    return item


def unit_item(c, id_source, id_target, reshuffled):
    def item(r):
        _iso(r, _chi_compose(r, id_target, c), c, "left unit")
        _iso(r, _chi_compose(r, c, id_source), c, "right unit")
        _iso(r, reshuffled, c, "reshuffled encoding")

    return item


def interchange_item(p1, p2, empty):
    (s1, f1), (s2, f2) = p1, p2

    def item(r):
        left = _chi_compose(r, _tensor(r, s1, s2), _tensor(r, f1, f2))
        right = _tensor(r, _chi_compose(r, s1, f1), _chi_compose(r, s2, f2))
        _iso(r, left, right, "interchange")
        _iso(r, _tensor(r, f1, empty), f1, "monoidal unit")

    return item


def symmetry_item(f, g):
    def item(r):
        left = _chi_compose(r, _swap(r, f.target, g.target), _tensor(r, f, g))
        right = _chi_compose(r, _tensor(r, g, f), _swap(r, f.source, g.source))
        _iso(r, left, right, "symmetry naturality")

    return item


def involution_item(a, b, id_ab):
    def item(r):
        twice = _chi_compose(r, _swap(r, b, a), _swap(r, a, b))
        _iso(r, twice, id_ab, "symmetry involution")

    return item


def enumerate_item(obj):
    circles = sum(isinstance(e, Circle) for e in obj.entries)
    sigma, seen, cycles = obj.sigma.mapping, set(), 0
    for start in sigma:
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = sigma[x]
    c_number = circles + cycles + 1
    branes = sorted(obj.branes)
    grid = [
        (g, w)
        for g in range(MAX_GENUS + 1)
        for w in itertools.product(range(MAX_WINDOWS + 1), repeat=len(branes))
    ]

    def item(r):
        forms = r.op("classify.enumerate_classes", enumerate_classes, obj,
                     MAX_GENUS, MAX_WINDOWS)
        found = []
        for form in forms:
            (comp,) = form.cobordism.components
            windows = [c.brane for c in comp.boundary if isinstance(c, Window)]
            w = tuple(windows.count(b) for b in branes)
            found.append((comp.genus, w))
            r.check(len(comp.boundary) == c_number + sum(w),
                    "enumerate_classes: class without c + windows boundary circles")
        r.check(sorted(found) == grid, "enumerate_classes: wrong (genus, windows) grid")

    return item


def setup(seed: int, traced: bool, tiny: bool = False):
    """Sample the inputs; items are interleaved kind by kind."""
    rng = random.Random(seed)
    counts = {k: (3 if tiny else v) for k, v in COUNTS.items()}
    empty = identity(GeneralObject(STAR_B, ()))
    kinds = {}

    def star_tau(c):
        images = list(c.target.interval_indices)
        rng.shuffle(images)
        return dict(zip(c.target.interval_indices, images))

    kinds["pair"] = [
        pair_item(s, f, star_tau(s))
        for s, f in (sample_composable_pair(rng, STAR_B) for _ in range(counts["pair"]))
    ]
    kinds["assoc"] = [
        assoc_item(*sample_composable_chain(rng, STAR_B, 3))
        for _ in range(counts["assoc"])
    ]
    kinds["unit"] = [
        unit_item(c, identity(c.source), identity(c.target), shuffled(rng, c))
        for c in (sample_cobordism(rng, AB) for _ in range(counts["unit"]))
    ]
    kinds["interchange"] = [
        interchange_item(sample_composable_pair(rng, STAR_B),
                         sample_composable_pair(rng, STAR_B), empty)
        for _ in range(counts["interchange"])
    ]
    kinds["symmetry"] = [
        symmetry_item(sample_cobordism(rng, STAR_B), sample_cobordism(rng, STAR_B))
        for _ in range(counts["symmetry"])
    ]
    kinds["involution"] = [
        involution_item(a, b, identity(a.tensor(b)))
        for a, b in ((sample_object(rng, AB), sample_object(rng, AB))
                     for _ in range(counts["involution"]))
    ]
    kinds["enumerate"] = [
        enumerate_item(sample_object(rng, AB)) for _ in range(counts["enumerate"])
    ]
    items = [
        item
        for group in itertools.zip_longest(*kinds.values())
        for item in group
        if item is not None
    ]
    return items, items[:50]
