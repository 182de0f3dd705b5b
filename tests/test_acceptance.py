"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Each criterion warms up untimed, then must finish inside its budget.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

from conftest import CORPUS, STAR_SET, star_obj
from occob.calculus import (
    boundary_permutation,
    compose,
    identity,
    make_T,
    pullback,
    realize,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import canonicalize, enumerate_classes, is_isomorphic
from occob.cli import main
from occob.dsl import CobordismDef, Document, serialize
from occob.objects import STAR, Circle, GeneralObject, Permutation
from occob.sampling import (
    sample_cobordism,
    sample_composable_chain,
    sample_composable_pair,
    sample_object,
    shuffled,
)
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    Mixed,
    euler_total,
    in_b_subcategory,
    in_ref,
    validate,
    window_vector,
)


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    within = elapsed < budget_s
    verdict = "PASS" if within else "FAIL"
    print(
        f"{verdict} criterion {number}: {label} "
        f"[{elapsed * 1000:.1f} ms of {budget_s * 1000:.0f} ms]",
        flush=True,
    )
    assert within, f"criterion {number} took {elapsed:.3f}s, budget {budget_s}s"


def reference_object() -> GeneralObject:
    return star_obj("OIII", cycles=[[2, 3], [4]])


def test_criterion_1_realizer_reference_datum():
    obj = reference_object()
    boundary_permutation(realize(obj))  # warmup
    with criterion(1, "realizer reproduces its boundary permutation", 0.001):
        sigma = boundary_permutation(realize(obj))
        assert sigma == Permutation.from_cycles([[2, 3], [4]], {2, 3, 4})
        assert obj.c_number == 4


def test_criterion_2_stabilizer_data():
    circle = star_obj("O")
    stabilize(identity(circle))  # warmup
    with criterion(2, "stabilizer invariants and repeated stabilization", 0.010):
        for branes in (STAR_SET, frozenset({"a", "b"})):
            T = make_T(branes)
            (comp,) = T.components
            assert comp.genus == 1
            assert window_vector(T) == {b: 1 for b in branes}
        cur = identity(circle)
        for k in range(1, 6):
            cur = stabilize(cur)
            (comp,) = cur.components
            assert comp.genus == k
            assert window_vector(cur) == {STAR: k}


def test_criterion_3_euler_conservation():
    rng = random.Random(301)

    def qualifying_pair():
        while True:
            second, first = sample_composable_pair(
                rng, (STAR,), max_components=4, max_genus=3
            )
            middle = first.target
            if len(middle.interval_indices) > 6:
                continue
            if len(first.components) > 4 or len(second.components) > 4:
                continue
            if any(c.genus > 3 for c in first.components + second.components):
                continue
            return second, first

    s, f = qualifying_pair()  # warmup
    compose(s, f)
    with criterion(3, "Euler characteristic conservation over 1000 pairs", 5.0):
        for _ in range(1000):
            second, first = qualifying_pair()
            glued = compose(second, first)
            expected = (
                euler_total(first)
                + euler_total(second)
                - len(first.target.interval_indices)
            )
            assert euler_total(glued) == expected
            for comp in glued.components:
                assert isinstance(comp.genus, int) and comp.genus >= 0


def test_criterion_4_category_laws():
    rng = random.Random(401)
    s, f = sample_composable_pair(rng, (STAR,))
    is_isomorphic(compose(s, f), compose(s, f))  # warmup
    with criterion(4, "category, monoidal, and symmetry laws x500 each", 30.0):
        for _ in range(500):
            c1, c2, c3 = sample_composable_chain(rng, (STAR,), 3)
            assert is_isomorphic(
                compose(c3, compose(c2, c1)), compose(compose(c3, c2), c1)
            )
        for _ in range(500):
            c = sample_cobordism(rng, ("a", "b"))
            assert is_isomorphic(compose(identity(c.target), c), c)
            assert is_isomorphic(compose(c, identity(c.source)), c)
        empty = identity(GeneralObject(STAR_SET, ()))
        for _ in range(500):
            s1, f1 = sample_composable_pair(rng, (STAR,))
            s2, f2 = sample_composable_pair(rng, (STAR,))
            assert is_isomorphic(
                compose(tensor(s1, s2), tensor(f1, f2)),
                tensor(compose(s1, f1), compose(s2, f2)),
            )
            assert is_isomorphic(tensor(f1, empty), f1)
        for _ in range(500):
            a = sample_object(rng, ("a", "b"))
            b = sample_object(rng, ("a", "b"))
            sw = swap_cobordism(a, b)
            assert is_isomorphic(
                compose(swap_cobordism(b, a), sw), identity(a.tensor(b))
            )
        for _ in range(500):
            f = sample_cobordism(rng, (STAR,))
            g = sample_cobordism(rng, (STAR,))
            assert is_isomorphic(
                compose(swap_cobordism(f.target, g.target), tensor(f, g)),
                compose(tensor(g, f), swap_cobordism(f.source, g.source)),
            )


def test_criterion_5_pullback_contract():
    rng = random.Random(501)

    def random_tau(obj: GeneralObject) -> Permutation:
        perm = list(obj.interval_indices)
        rng.shuffle(perm)
        return Permutation(dict(zip(obj.interval_indices, perm)))

    s, f = sample_composable_pair(rng, (STAR,))
    pullback(compose(s, f), random_tau(s.target))  # warmup
    with criterion(5, "pullback functoriality and realizer-independence", 20.0):
        for _ in range(300):
            second, first = sample_composable_pair(rng, (STAR,))
            tau = random_tau(second.target)
            assert pullback(compose(second, first), tau) == pullback(
                first, pullback(second, tau)
            )
        for _ in range(150):
            c = sample_cobordism(rng, (STAR,))
            tau = random_tau(c.target)
            expect = pullback(c, tau)
            anchored = GeneralObject(c.target.branes, c.target.entries, tau)
            rebased = Cobordism(c.source, anchored, c.components)
            glued = realize(anchored)
            for _k in range(3):
                glued = stabilize(glued)
                assert boundary_permutation(compose(glued, rebased)) == expect
        for _ in range(50):
            obj = sample_object(rng, (STAR,))
            tau = random_tau(obj)
            anchored = GeneralObject(obj.branes, obj.entries, tau)
            assert pullback(identity(anchored), tau) == tau
        for _ in range(50):
            # Multi-brane: the sampler picks labels making its sigma the
            # coherent choice, which pullback's realizer needs.
            obj = sample_object(rng, ("a", "b"))
            assert pullback(identity(obj), obj.sigma) == obj.sigma


def brute_force_to_circle(kinds: str, max_g: int, max_w: int):
    obj = star_obj(kinds)
    tgt = star_obj("O")
    positions = list(obj.interval_indices)
    family = []
    for perm in itertools.permutations(positions):
        sigma = Permutation(dict(zip(positions, perm)))
        for g in range(max_g + 1):
            for w in range(max_w + 1):
                boundary: list = [Closed(IN, i) for i in obj.circle_indices]
                for cyc in sigma.cycles():
                    cycle: list = []
                    for x in cyc:
                        cycle.append(in_ref(x))
                        cycle.append(Arc(STAR))
                    boundary.append(Mixed(tuple(cycle)))
                boundary.append(Closed(OUT, 1))
                cob = Cobordism(obj, tgt, (Component(g, boundary, [(STAR, w)]),))
                wv = tuple(sorted(window_vector(cob).items()))
                family.append((cob, (g, wv, sigma)))
    return family


def test_criterion_6_classification_oracle():
    rng = random.Random(601)
    canonicalize(identity(star_obj("O")))  # warmup
    with criterion(6, "canonical buckets match invariant triples; counts", 60.0):
        for kinds in ("", "I", "II", "III", "OI", "OII"):
            family = brute_force_to_circle(kinds, 2, 2)
            buckets: dict = {}
            for cob, triple in family:
                assert validate(cob) == []
                key = canonicalize(cob).key
                buckets.setdefault(key, set()).add(triple)
                for _ in range(2):
                    assert canonicalize(shuffled(rng, cob)).key == key
            assert len(buckets) == len({t for _, t in family})
            for members in buckets.values():
                assert len(members) == 1
        assert len(enumerate_classes(star_obj("O"), 3, 2)) == 4 * 3
        two = GeneralObject(frozenset({"a", "b"}), star_obj("O").entries)
        assert len(enumerate_classes(two, 2, 2)) == 3 * 9


def test_criterion_7_b_condition():
    rng = random.Random(701)
    cap = Cobordism(star_obj("O"), star_obj(""), (Component(0, (Closed(IN, 1),)),))
    in_b_subcategory(cap)  # warmup
    with criterion(7, "b-flag cap test and closure under compose/tensor", 5.0):
        assert not in_b_subcategory(cap)
        assert in_b_subcategory(identity(star_obj("O")))
        for _ in range(500):
            first = sample_cobordism(rng, (STAR,), ensure_b=True)
            assert in_b_subcategory(first)
            second = sample_cobordism(
                rng, (STAR,), source=first.target, ensure_b=True
            )
            assert in_b_subcategory(second)
            glued = compose(second, first)
            assert in_b_subcategory(glued)
            other = sample_cobordism(rng, (STAR,), ensure_b=True)
            assert in_b_subcategory(tensor(first, other))


def test_criterion_8_dsl_round_trip(capsys):
    from occob.dsl import parse

    roundtrip = sorted((CORPUS / "roundtrip").glob("*.occ"))
    malformed = sorted((CORPUS / "malformed").glob("*.occ"))
    parse(roundtrip[0].read_text(encoding="utf-8"))  # warmup
    with criterion(8, "corpus round-trip and malformed diagnostics", 5.0):
        assert len(roundtrip) == 50
        for path in roundtrip:
            text = path.read_text(encoding="utf-8")
            assert serialize(parse(text)) == text, path.name
        assert len(malformed) >= 20
        for path in malformed:
            rc = main(["check", str(path)])
            captured = capsys.readouterr()
            assert rc == 2, path.name
            assert "line" in captured.err and "column" in captured.err, path.name


def one_cycle_document(n: int):
    """Objects C = [O] and X = n intervals under one n-cycle, and the
    realizer R : X -> C with its mixed cycle rotated to start mid-way."""
    x = star_obj("I" * n, cycles=[range(1, n + 1)])
    c = star_obj("O")
    cycle = [e for i in range(1, n + 1) for e in (in_ref(i), Arc(STAR))]
    cycle = cycle[n:] + cycle[:n]
    cob = Cobordism(x, c, (Component(0, (Mixed(cycle), Closed(OUT, 1))),))
    return Document(STAR_SET, {"C": c, "X": x}, {"R": CobordismDef("X", "C", cob)})


def test_criterion_9_canonical_text_of_a_long_cycle():
    serialize(one_cycle_document(50))  # warmup
    doc = one_cycle_document(5000)
    cob = doc.cobordisms["R"].cobordism
    with criterion(9, "canonicalize and serialize one 5000-interval cycle", 1.0):
        (_, mixed) = canonicalize(cob).cobordism.components[0].boundary
        assert mixed.cycle[0] == in_ref(1)
        assert "mixed [in 1, arc, in 2, arc, in 3," in serialize(doc)


def test_criterion_10_validate_many_circles():
    n = 5000
    source = star_obj("O" * n)
    boundary = [Closed(IN, i) for i in range(1, n + 1)] + [Closed(OUT, 1)]
    cob = Cobordism(source, star_obj("O"), (Component(0, boundary),))
    validate(identity(star_obj("OO")))  # warmup
    with criterion(10, "validate a cobordism with 5000 incoming circles", 1.0):
        assert validate(cob) == []


def test_criterion_11_many_stabilizations():
    circle = GeneralObject(frozenset({"a", "b"}), (Circle(),))
    stabilize(stabilize(identity(circle)))  # warmup
    with criterion(11, "2000 successive stabilizations over two branes", 0.25):
        cur = identity(circle)
        for _ in range(2000):
            cur = stabilize(cur)
        (comp,) = cur.components
        assert comp.genus == 2000
        assert window_vector(cur) == {"a": 2000, "b": 2000}
