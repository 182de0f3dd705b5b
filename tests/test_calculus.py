"""Gluing, juxtaposition, realizers, pullbacks, stabilization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AB, STAR_SET, labeled_obj, star_obj
from occob.calculus import (
    boundary_permutation,
    compose,
    identity,
    is_morphism,
    make_T,
    pullback,
    realize,
    stabilize,
    swap_cobordism,
    tensor,
)
from occob.classify import canonicalize, is_isomorphic
from occob.errors import (
    ClosedComponentError,
    CompositionError,
    InfeasibleObjectError,
)
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
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
    in_ref,
    out_ref,
    validate,
    window_vector,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def middle_interval_count(obj: GeneralObject) -> int:
    return len(obj.interval_indices)


class TestIdentity:
    def test_square_layout(self):
        obj = labeled_obj(AB, ["a:b"])
        ident = identity(obj)
        (comp,) = ident.components
        (circ,) = comp.boundary
        assert circ == Mixed((out_ref(1), Arc("b"), in_ref(1), Arc("a")))

    def test_annulus_for_circles(self):
        ident = identity(star_obj("O"))
        assert ident.components[0].boundary == (Closed(IN, 1), Closed(OUT, 1))

    def test_validates(self, rng):
        for _ in range(10):
            obj = sample_object(rng, ("a", "b"))
            assert validate(identity(obj)) == []


class TestCompose:
    def test_interface_mismatch_raises(self):
        a = identity(star_obj("O"))
        b = identity(star_obj("OO"))
        with pytest.raises(CompositionError):
            compose(a, b)

    def test_unit_laws(self, rng):
        for _ in range(40):
            c = sample_cobordism(rng, ("a", "b"))
            assert is_isomorphic(compose(identity(c.target), c), c)
            assert is_isomorphic(compose(c, identity(c.source)), c)

    def test_associativity(self, rng):
        for _ in range(30):
            c1, c2, c3 = sample_composable_chain(rng, ("x", "y"), 3)
            lhs = compose(c3, compose(c2, c1))
            rhs = compose(compose(c3, c2), c1)
            assert is_isomorphic(lhs, rhs)

    def test_euler_conservation(self, rng):
        for _ in range(60):
            second, first = sample_composable_pair(rng, (STAR,))
            glued = compose(second, first)
            assert validate(glued) == []
            expected = (
                euler_total(first)
                + euler_total(second)
                - middle_interval_count(first.target)
            )
            assert euler_total(glued) == expected

    def test_two_annuli_make_an_annulus(self):
        ann = identity(star_obj("O"))
        assert is_isomorphic(compose(ann, ann), ann)

    def test_pair_of_squares_merges_arcs(self):
        obj = labeled_obj(AB, ["a:b"])
        sq = identity(obj)
        glued = compose(sq, sq)
        (comp,) = glued.components
        (circ,) = comp.boundary
        assert isinstance(circ, Mixed)
        assert len(circ.cycle) == 4
        assert comp.genus == 0

    def test_window_birth_from_arc_only_cycle(self):
        # Fold a two-interval realizer onto a co-pairing: the middle arcs
        # close into a free circle, which must come out as a window.
        obj = star_obj("II", cycles=[[1, 2]])
        fold = realize(obj)  # (I, I) -> (O), one mixed circle with two arcs
        unfold = Cobordism(
            star_obj(""),
            obj,
            (
                Component(
                    0,
                    (
                        Mixed(
                            (
                                out_ref(1),
                                Arc(STAR),
                                out_ref(2),
                                Arc(STAR),
                            )
                        ),
                    ),
                ),
            ),
        )
        assert validate(unfold) == []
        glued = compose(fold, unfold)
        (comp,) = glued.components
        kinds = sorted(type(b).__name__ for b in comp.boundary)
        assert "Window" in kinds

    def test_closed_component_raises(self):
        circ = star_obj("O")
        nil = star_obj("")
        cap = Cobordism(circ, nil, (Component(0, (Closed(IN, 1),)),))
        cocap = Cobordism(nil, circ, (Component(0, (Closed(OUT, 1),)),))
        with pytest.raises(ClosedComponentError):
            compose(cap, cocap)

    def test_same_parity_gluing_raises(self):
        obj = star_obj("I")
        sq = identity(obj)
        against = Cobordism(
            obj,
            obj,
            (
                Component(
                    0,
                    (
                        Mixed(
                            (
                                out_ref(1, rev=True),
                                Arc(STAR),
                                in_ref(1, rev=False),
                                Arc(STAR),
                            )
                        ),
                    ),
                ),
            ),
        )
        assert validate(against) == []
        with pytest.raises(CompositionError):
            compose(sq, against)
        # It does compose with its own kind.
        glued = compose(against, against)
        assert validate(glued) == []

    def test_unattached_middle_circle_raises(self):
        circ = star_obj("O")
        cap = Cobordism(circ, circ, (Component(0, (Closed(IN, 1),)),))
        cocap = Cobordism(circ, circ, (Component(0, (Closed(OUT, 1),)),))
        with pytest.raises(CompositionError, match="circle 1 .* first factor"):
            compose(identity(circ), cap)
        with pytest.raises(CompositionError, match="circle 1 .* second factor"):
            compose(cocap, identity(circ))

    def test_unattached_middle_interval_raises(self):
        obj = star_obj("I")
        only_in = Cobordism(
            obj, obj, (Component(0, (Mixed((in_ref(1), Arc(STAR))),)),)
        )
        only_out = Cobordism(
            obj, obj, (Component(0, (Mixed((out_ref(1), Arc(STAR))),)),)
        )
        with pytest.raises(CompositionError, match="interval 1 .* first factor"):
            compose(identity(obj), only_in)
        with pytest.raises(CompositionError, match="interval 1 .* second factor"):
            compose(only_out, identity(obj))


class TestTensor:
    def test_entry_counts_add(self, rng):
        a = sample_cobordism(rng, ("a",))
        b = sample_cobordism(rng, ("a",))
        t = tensor(a, b)
        assert len(t.source.entries) == len(a.source.entries) + len(b.source.entries)
        assert len(t.components) == len(a.components) + len(b.components)
        assert validate(t) == []

    def test_unit_is_empty_cobordism(self, rng):
        empty = identity(star_obj(""))
        for _ in range(10):
            c = sample_cobordism(rng, (STAR,))
            assert is_isomorphic(tensor(c, empty), c)
            assert is_isomorphic(tensor(empty, c), c)

    def test_interchange(self, rng):
        for _ in range(25):
            s1, f1 = sample_composable_pair(rng, ("a",))
            s2, f2 = sample_composable_pair(rng, ("a",))
            lhs = compose(tensor(s1, s2), tensor(f1, f2))
            rhs = tensor(compose(s1, f1), compose(s2, f2))
            assert is_isomorphic(lhs, rhs)


class TestSwap:
    def test_involution(self, rng):
        for _ in range(25):
            a = sample_object(rng, ("a", "b"))
            b = sample_object(rng, ("a", "b"))
            sw = swap_cobordism(a, b)
            ws = swap_cobordism(b, a)
            assert is_isomorphic(compose(ws, sw), identity(a.tensor(b)))

    def test_naturality(self, rng):
        for _ in range(25):
            f = sample_cobordism(rng, ("a",))
            g = sample_cobordism(rng, ("a",))
            lhs = compose(swap_cobordism(f.target, g.target), tensor(f, g))
            rhs = compose(tensor(g, f), swap_cobordism(f.source, g.source))
            assert is_isomorphic(lhs, rhs)


class TestRealize:
    def test_reference_object(self):
        obj = star_obj("OIII", cycles=[[2, 3], [4]])
        r = realize(obj)
        (comp,) = r.components
        assert comp.genus == 0
        kinds = [type(b).__name__ for b in comp.boundary]
        assert kinds.count("Mixed") == 2
        assert kinds.count("Closed") == 2
        assert Closed(IN, 1) in comp.boundary and Closed(OUT, 1) in comp.boundary
        assert boundary_permutation(r) == obj.sigma

    def test_boundary_count_equals_c_number(self):
        obj = star_obj("II", cycles=[[1, 2]])
        r = realize(obj)
        assert len(r.components[0].boundary) == obj.c_number == 2

    def test_boundary_count_on_random_coherent_objects(self, rng):
        for _ in range(50):
            obj = sample_object(rng, ("a", "b", "c"))
            r = realize(obj)
            assert validate(r) == []
            assert len(r.components[0].boundary) == obj.c_number
            assert boundary_permutation(r) == obj.sigma

    def test_arc_labels_single_brane_transposition(self):
        obj = star_obj("II", cycles=[[1, 2]])
        (comp,) = realize(obj).components
        mixed = [b for b in comp.boundary if isinstance(b, Mixed)]
        (circ,) = mixed
        assert len(circ.cycle) == 4

    def test_incoherent_cycle_raises(self):
        obj = labeled_obj(AB, ["a:a", "b:b"], cycles=[[1, 2]])
        with pytest.raises(InfeasibleObjectError):
            realize(obj)

    def test_fixed_points_always_coherent_when_labels_close_up(self):
        obj = labeled_obj(AB, ["a:a", "b:b"])
        r = realize(obj)
        assert validate(r) == []


class TestPullback:
    def test_merging_pair_of_pants(self):
        src = star_obj("II")
        tgt = star_obj("I")
        pants = Cobordism(
            src,
            tgt,
            (
                Component(
                    0,
                    (
                        Mixed(
                            (
                                in_ref(1),
                                Arc(STAR),
                                in_ref(2),
                                Arc(STAR),
                                out_ref(1),
                                Arc(STAR),
                            )
                        ),
                    ),
                ),
            ),
        )
        assert pullback(pants, Permutation.identity({1})).cycle_string() == "(1 2)"

    def test_identity_pulls_back_to_same(self, rng):
        for _ in range(20):
            obj = sample_object(rng, ("a", "b"))
            tau = obj.sigma
            assert pullback(identity(obj), tau) == tau

    def test_swap_conjugates(self):
        a = star_obj("II")
        b = star_obj("I")
        sw = swap_cobordism(a, b)
        tau = Permutation.from_cycles([[1, 2]], {1, 2, 3})
        got = pullback(sw, tau)
        assert got.cycle_string() == "(1 3)(2)"

    def test_functoriality(self, rng):
        for _ in range(25):
            second, first = sample_composable_pair(rng, (STAR,))
            tau_domain = set(second.target.interval_indices)
            perm = list(tau_domain)
            rng.shuffle(perm)
            tau = Permutation(dict(zip(sorted(tau_domain), perm)))
            direct = pullback(compose(second, first), tau)
            nested = pullback(first, pullback(second, tau))
            assert direct == nested

    def test_realizer_independence(self, rng):
        for _ in range(15):
            c = sample_cobordism(rng, (STAR,))
            tgt = c.target
            perm = list(tgt.interval_indices)
            rng.shuffle(perm)
            tau = Permutation(dict(zip(tgt.interval_indices, perm)))
            anchored = GeneralObject(tgt.branes, tgt.entries, tau)
            base = realize(anchored)
            expect = pullback(c, tau)
            rebased = Cobordism(c.source, anchored, c.components)
            for k in range(1, 4):
                base = stabilize(base)
                assert boundary_permutation(compose(base, rebased)) == expect


class TestMorphismCheck:
    def test_merge_is_a_morphism_for_the_transposition(self):
        src = star_obj("II", cycles=[[1, 2]])
        plain = star_obj("II")
        tgt = star_obj("I")
        pants = Cobordism(
            plain,
            tgt,
            (
                Component(
                    0,
                    (
                        Mixed(
                            (
                                in_ref(1),
                                Arc(STAR),
                                in_ref(2),
                                Arc(STAR),
                                out_ref(1),
                                Arc(STAR),
                            )
                        ),
                    ),
                ),
            ),
        )
        assert is_morphism(pants, src, tgt)
        assert not is_morphism(pants, plain, tgt)

    def test_mismatched_entries_raise(self):
        c = identity(star_obj("O"))
        with pytest.raises(CompositionError):
            is_morphism(c, star_obj("OO"), star_obj("O"))


class TestStabilizer:
    def test_T_shape(self):
        T = make_T(STAR_SET)
        (comp,) = T.components
        assert comp.genus == 1
        assert window_vector(T) == {STAR: 1}
        assert euler_total(T) == -3
        assert T.source.c_number == 2

    def test_T_over_two_branes(self):
        T = make_T(AB)
        assert window_vector(T) == {"a": 1, "b": 1}
        assert euler_total(T) == -4

    def test_double_T(self):
        T = make_T(STAR_SET)
        TT = compose(T, T)
        (comp,) = TT.components
        assert comp.genus == 2
        assert window_vector(TT) == {STAR: 2}
        assert euler_total(TT) == -6

    def test_stabilize_chain(self):
        cur = identity(star_obj("O"))
        for k in range(1, 6):
            cur = stabilize(cur)
            (comp,) = cur.components
            assert comp.genus == k
            assert window_vector(cur) == {STAR: k}

    def test_a_thousand_steps_keep_the_circles_and_count_the_windows(self):
        realizer = realize(GeneralObject(AB, [Circle()]))
        cur = realizer
        for _ in range(1000):
            cur = stabilize(cur)
        (comp,) = cur.components
        assert comp.genus == 1000
        assert comp.circles == realizer.components[0].circles
        assert comp.windows == (("a", 1000), ("b", 1000))

    def test_stabilize_needs_single_circle_target(self):
        with pytest.raises(CompositionError):
            stabilize(identity(star_obj("OO")))

    def test_stabilize_needs_the_outgoing_circle(self):
        circ = star_obj("O")
        cap = Cobordism(circ, circ, (Component(0, (Closed(IN, 1),)),))
        with pytest.raises(CompositionError, match="outgoing circle 1"):
            stabilize(cap)

    def test_closed_form_matches_gluing_T(self, rng):
        for branes in (STAR_SET, AB, frozenset("abc")):
            T = make_T(branes)
            target = GeneralObject(branes, (Circle(),))
            for _ in range(300):
                closed = glued = sample_cobordism(rng, target=target)
                if rng.random() < 0.5:
                    closed = glued = shuffled(rng, closed)
                for _ in range(4):
                    before = closed
                    closed = stabilize(closed)
                    glued = compose(T, glued)
                    assert validate(closed) == []
                    assert canonicalize(closed) == canonicalize(glued)
                    assert len(closed.components) == len(before.components)
                    for old, new in zip(before.components, closed.components):
                        if Closed(OUT, 1) not in old.boundary:
                            assert new is old


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_compose_output_always_validates(seed):
    rng = random.Random(seed)
    second, first = sample_composable_pair(rng, ("a", "b"))
    glued = compose(second, first)
    assert validate(glued) == []
    assert glued.source == first.source
    assert glued.target == second.target


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_genus_is_nonnegative_after_composition(seed):
    rng = random.Random(seed)
    second, first = sample_composable_pair(rng, (STAR,))
    for comp in compose(second, first).components:
        assert comp.genus >= 0
