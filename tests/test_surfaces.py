"""Surface data: boundary circles, validation, numeric invariants."""

from __future__ import annotations

from functools import partial

import pytest

from conftest import AB, STAR_SET, labeled_obj, star_obj
from occob.calculus import _genus
from occob.errors import CompositionError, InvalidValueError, OcError
from occob.objects import STAR, GeneralObject
from occob.sampling import sample_cobordism, shuffled
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    Window,
    boundary_permutation,
    component_summary,
    euler_char,
    euler_total,
    in_b_subcategory,
    in_ref,
    invariant_summary,
    out_ref,
    validate,
    window_vector,
)


def single(src, tgt, *components) -> Cobordism:
    return Cobordism(src, tgt, components)


def rules(violations) -> set[str]:
    return {v.rule for v in violations}


# Each constructor of a slot that holds an index, called with the index alone.
INDEXED = [
    pytest.param(partial(Closed, IN), id="Closed-in"),
    pytest.param(partial(Closed, OUT), id="Closed-out"),
    in_ref,
    out_ref,
]


class TestConstruction:
    def test_ref_defaults_differ_by_side(self):
        assert in_ref(1).rev is True
        assert out_ref(1).rev is False

    def test_component_rejects_negative_genus(self):
        with pytest.raises(ValueError):
            Component(-1, (Closed(IN, 1),))

    def test_windows_given_in_either_brane_order_are_equal(self):
        circles = (Closed(IN, 1), Closed(OUT, 1))
        ab = Component(1, circles, [("a", 2), ("b", 1)])
        ba = Component(1, circles, [("b", 1), ("a", 2)])
        assert ab == ba and hash(ab) == hash(ba)
        assert ab.windows == ba.windows == (("a", 2), ("b", 1))

    def test_window_pairs_add_up_and_zeros_are_dropped(self):
        comp = Component(0, (), [("b", 1), ("a", 0), ("b", 2)])
        assert comp.windows == (("b", 3),)
        assert Component(0, (), [("a", 0)]) == Component(0, ())

    def test_boundary_shows_the_circles_then_one_window_each(self):
        comp = Component(0, (Closed(OUT, 1), Closed(IN, 1)), [("b", 1), ("a", 2)])
        assert comp.boundary == (
            Closed(OUT, 1), Closed(IN, 1), Window("a"), Window("a"), Window("b")
        )

    def test_a_window_among_the_circles_is_refused(self):
        message = "^Window is not a kind of boundary circle$"
        with pytest.raises(InvalidValueError, match=message):
            Component(0, (Closed(IN, 1), Window("a")))

    def test_empty_boundary_is_a_violation(self):
        c = Cobordism(star_obj(""), star_obj(""), (Component(0, ()),))
        assert rules(validate(c)) == {"empty-boundary"}

    def test_interval_ref_rejects_bad_side(self):
        with pytest.raises(ValueError):
            IntervalRef("sideways", 1, False)

    @pytest.mark.parametrize("make", INDEXED)
    def test_a_non_integer_index_is_refused(self, make):
        for index in ("1", 1.0, None):
            message = f"^expected an int, got {type(index).__name__}$"
            with pytest.raises(InvalidValueError, match=message):
                make(index)

    @pytest.mark.parametrize("make", INDEXED)
    def test_a_bool_index_is_refused(self, make):
        with pytest.raises(InvalidValueError, match="^expected an int, got bool$"):
            make(True)


class TestValidate:
    def test_annulus_is_clean(self):
        c = single(star_obj("O"), star_obj("O"), Component(0, (Closed(IN, 1), Closed(OUT, 1))))
        assert validate(c) == []

    def test_brane_set_mismatch(self):
        c = Cobordism(
            labeled_obj(AB, []),
            labeled_obj({"a"}, []),
            (),
        )
        assert "brane-set" in rules(validate(c))

    def test_index_out_of_range(self):
        c = single(star_obj("O"), star_obj("O"), Component(0, (Closed(IN, 3), Closed(OUT, 1))))
        assert "index-range" in rules(validate(c))

    def test_circle_index_must_point_at_circle_entry(self):
        c = single(star_obj("I"), star_obj("O"), Component(0, (Closed(IN, 1), Closed(OUT, 1))))
        assert "index-range" in rules(validate(c))

    def test_unknown_window_brane(self):
        c = single(
            star_obj("O"),
            star_obj("O"),
            Component(0, (Closed(IN, 1), Closed(OUT, 1)), [("z", 1)]),
        )
        assert "unknown-brane" in rules(validate(c))

    def test_windows_are_numbered_after_the_other_circles(self):
        comp = Component(0, (Closed(IN, 1), Closed(OUT, 1)), [("z", 2), ("*", 1)])
        c = single(star_obj("O"), star_obj("O"), comp)
        # As ``boundary`` shows them: circle 3 is the window on "*".
        assert [v.where for v in validate(c)] == [
            "component 1, circle 4",
            "component 1, circle 5",
        ]

    def test_alternation_rejects_adjacent_refs(self):
        c = single(
            star_obj("II"),
            star_obj(""),
            Component(0, (Mixed((in_ref(1), in_ref(2))),)),
        )
        assert "alternation" in rules(validate(c))

    def test_alternation_rejects_adjacent_arcs(self):
        c = single(
            star_obj("I"),
            star_obj(""),
            Component(0, (Mixed((in_ref(1), Arc(STAR), Arc(STAR))),)),
        )
        assert "alternation" in rules(validate(c))

    def test_alternation_rejects_arc_only_cycle(self):
        c = single(
            star_obj(""),
            star_obj(""),
            Component(0, (Mixed((Arc(STAR), Arc(STAR))),)),
        )
        assert "alternation" in rules(validate(c))

    def test_arc_brane_must_match_met_endpoints(self):
        src = labeled_obj(AB, ["a:b"])
        tgt = labeled_obj(AB, ["a:b"])
        good = single(
            src,
            tgt,
            Component(
                0, (Mixed((out_ref(1), Arc("b"), in_ref(1), Arc("a"))),)
            ),
        )
        assert validate(good) == []
        bad = single(
            src,
            tgt,
            Component(
                0, (Mixed((out_ref(1), Arc("a"), in_ref(1), Arc("a"))),)
            ),
        )
        assert "arc-brane" in rules(validate(bad))

    def test_missing_and_duplicate_use(self):
        src = star_obj("OI")
        tgt = star_obj("")
        missing = single(src, tgt, Component(0, (Closed(IN, 1),)))
        assert "missing-use" in rules(validate(missing))
        dup = single(
            src,
            tgt,
            Component(0, (Closed(IN, 1), Closed(IN, 1))),
            Component(0, (Mixed((in_ref(2), Arc(STAR))),)),
        )
        assert "duplicate-use" in rules(validate(dup))

    def test_rev_flag_changes_met_endpoints(self):
        src = labeled_obj(AB, ["a:b"])
        tgt = labeled_obj(AB, ["a:b"])
        # Flipping both refs swaps which arcs sit at which endpoints.
        flipped = single(
            src,
            tgt,
            Component(
                0,
                (
                    Mixed(
                        (
                            out_ref(1, rev=True),
                            Arc("a"),
                            in_ref(1, rev=False),
                            Arc("b"),
                        )
                    ),
                ),
            ),
        )
        assert validate(flipped) == []


class TestNumbers:
    def test_euler_char(self):
        annulus = (Closed(IN, 1), Closed(OUT, 1))
        assert euler_char(Component(1, annulus, [(STAR, 1)])) == -3
        assert euler_char(Component(0, (Closed(IN, 1), Closed(OUT, 1)))) == 0

    def test_genus_from_euler(self):
        assert _genus(-3, 3) == 1
        assert _genus(2 - 0 - 0, 0) == 0
        assert _genus(-6, 4) == 2

    def test_genus_from_euler_rejects_impossible(self):
        with pytest.raises(CompositionError):
            _genus(1, 0)
        with pytest.raises(CompositionError):
            _genus(3, 1)

    def test_window_vector_includes_zero_entries(self):
        src = labeled_obj(AB, ["O"])
        c = single(
            src,
            labeled_obj(AB, []),
            Component(0, (Closed(IN, 1),), [("a", 1)]),
        )
        assert window_vector(c) == {"a": 1, "b": 0}

    def test_euler_total_adds_components(self):
        c = single(
            star_obj("OO"),
            star_obj(""),
            Component(0, (Closed(IN, 1),)),
            Component(1, (Closed(IN, 2),)),
        )
        assert euler_total(c) == 1 + (-1)


class TestBoundaryPermutation:
    def test_requires_single_circle_target(self):
        c = single(star_obj("O"), star_obj("OO"), Component(0, (Closed(IN, 1), Closed(OUT, 1), Closed(OUT, 2))))
        with pytest.raises(ValueError):
            boundary_permutation(c)

    @pytest.mark.parametrize("target", ["", "OO", "I"])
    def test_other_targets_are_an_oc_error(self, target):
        c = single(star_obj("O"), star_obj(target), Component(0, (Closed(IN, 1),)))
        with pytest.raises(OcError):
            boundary_permutation(c)

    def test_successor_within_each_mixed_circle(self):
        obj = star_obj("OIII", cycles=[[2, 3], [4]])
        c = single(
            obj,
            star_obj("O"),
            Component(
                0,
                (
                    Closed(IN, 1),
                    Mixed((in_ref(2), Arc(STAR), in_ref(3), Arc(STAR))),
                    Mixed((in_ref(4), Arc(STAR))),
                    Closed(OUT, 1),
                ),
            ),
        )
        assert validate(c) == []
        assert boundary_permutation(c).cycle_string() == "(2 3)(4)"


class TestBFlag:
    def test_cap_is_flagged(self):
        cap = single(star_obj("O"), star_obj(""), Component(0, (Closed(IN, 1),)))
        assert not in_b_subcategory(cap)

    def test_cocap_is_fine(self):
        cocap = single(star_obj(""), star_obj("O"), Component(0, (Closed(OUT, 1),)))
        assert in_b_subcategory(cocap)

    def test_mixed_with_out_ref_counts_as_outgoing(self):
        src = star_obj("I")
        c = single(
            src,
            star_obj("I"),
            Component(0, (Mixed((out_ref(1), Arc(STAR), in_ref(1), Arc(STAR))),)),
        )
        assert in_b_subcategory(c)

    def test_one_bad_component_spoils_it(self):
        c = single(
            star_obj("OO"),
            star_obj("O"),
            Component(0, (Closed(IN, 1), Closed(OUT, 1))),
            Component(0, (Closed(IN, 2),), [(STAR, 1)]),
        )
        assert not in_b_subcategory(c)


class TestSummary:
    def test_invariant_summary_shape(self):
        src = labeled_obj(AB, ["O", "O"])
        c = single(
            src,
            labeled_obj(AB, []),
            Component(2, (Closed(IN, 1),), [("b", 1)]),
            Component(0, (Closed(IN, 2),), [("a", 2)]),
        )
        s = invariant_summary(c)
        assert s.component_count == 2
        assert s.genus_total == 2
        assert dict(s.window_vector) == {"a": 2, "b": 1}

    def test_component_summary(self):
        comp = Component(1, (Closed(IN, 1), Closed(OUT, 1)), [("b", 2)])
        s = component_summary(comp)
        assert s.euler == euler_char(comp) == -4
        assert s.windows == (("b", 2),)
        assert s.boundary_kinds == (("in", 1), ("out", 1), ("window", 2))

    def test_summaries_agree_with_the_numeric_invariants(self, rng):
        flags = set()
        for _ in range(200):
            c = sample_cobordism(rng, ("a", "b"))
            s = invariant_summary(c)
            flags.add(s.b_subcategory)
            assert s.euler == euler_total(c)
            assert s.b_subcategory == in_b_subcategory(c)
            per_component = [component_summary(comp) for comp in c.components]
            for comp, cs in zip(c.components, per_component):
                assert cs.euler == euler_char(comp)
                assert all(n > 0 for _, n in cs.windows)
            by_fields = sorted(
                per_component, key=lambda cs: (cs.genus, cs.windows, cs.boundary_kinds)
            )
            assert s.components == tuple(by_fields)
            assert invariant_summary(shuffled(rng, c)) == s
        assert flags == {True, False}
