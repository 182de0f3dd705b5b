"""Canonical forms, isomorphism decisions, class enumeration."""

from __future__ import annotations

import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AB, CORPUS, STAR_SET, labeled_obj, star_obj
from occob.calculus import compose, identity, make_T, realize, stabilize
from occob.classify import (
    CanonicalForm,
    StrataRow,
    _entry_key,
    _mixed_key,
    canonicalize,
    enumerate_classes,
    is_isomorphic,
    strata_table,
)
from occob.dsl import CobordismDef, Document, parse, serialize, to_json
from occob.errors import (
    CompositionError,
    InfeasibleObjectError,
    InvalidCobordismError,
    InvalidValueError,
    OcError,
    wrong_type,
)
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_cobordism, sample_object, shuffled
from occob.surfaces import (
    IN,
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    Mixed,
    in_b_subcategory,
    in_ref,
    invariant_summary,
    validate,
    window_vector,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

_INCOHERENT = labeled_obj(AB, ["a:b", "a:b"], cycles=[[1, 2]])
HUGE = 10**5000  # an int the interpreter will not write in decimal


def full_min_rotation(cycle: tuple) -> tuple:
    """The least rotation found by comparing every rotation in full."""
    keys = [_entry_key(e) for e in cycle]
    n = len(cycle)
    best = min(range(n), key=lambda s: [keys[(s + k) % n] for k in range(n)])
    return tuple(cycle[(best + k) % n] for k in range(n))


class TestCanonicalize:
    def test_idempotent(self, rng):
        for _ in range(20):
            c = sample_cobordism(rng, ("a", "b"))
            once = canonicalize(c)
            again = canonicalize(once.cobordism)
            assert once.key == again.key
            assert once.cobordism == again.cobordism

    def test_invariant_under_shuffling(self, rng):
        for _ in range(30):
            c = sample_cobordism(rng, ("a", "b", "c"))
            for _ in range(3):
                other = shuffled(rng, c)
                assert canonicalize(other) == canonicalize(c)
                assert hash(canonicalize(other)) == hash(canonicalize(c))

    def test_key_distinguishes_genus(self):
        ann = identity(star_obj("O"))
        bumped = Cobordism(
            ann.source,
            ann.target,
            (Component(1, ann.components[0].circles),),
        )
        assert canonicalize(ann) != canonicalize(bumped)

    def test_key_holds_the_source_and_target_objects(self, rng):
        for _ in range(20):
            c = sample_cobordism(rng, ("a", "b"))
            assert canonicalize(c).key[:2] == (c.source, c.target)

    def test_one_document_read_twice_gives_equal_keys(self):
        """The objects of two reads are distinct instances, yet compare and
        hash by value, so the two keys are equal and hash equal."""
        checked = 0
        for path in sorted((CORPUS / "roundtrip").glob("*.occ")):
            text = path.read_text(encoding="utf-8")
            first, second = parse(text), parse(text)
            for name, d in first.cobordisms.items():
                a = canonicalize(d.cobordism).key
                b = canonicalize(second.cobordisms[name].cobordism).key
                assert a[0] is not b[0] and a[1] is not b[1]
                assert a == b and hash(a) == hash(b)
                checked += 1
        assert checked > 50

    def test_canonical_cobordism_still_validates(self, rng):
        for _ in range(20):
            c = sample_cobordism(rng, ("a",))
            assert validate(canonicalize(c).cobordism) == []

    def test_min_rotation_matches_full_comparison(self, rng):
        rotations = 0
        for branes in ((STAR,), ("a", "b"), ("a", "b", "c")):
            for _ in range(1000):
                c = sample_cobordism(rng, branes)
                assert validate(c) == []
                for comp in c.components:
                    for circ in comp.boundary:
                        if not isinstance(circ, Mixed):
                            continue
                        for s in range(len(circ.cycle)):
                            cyc = circ.cycle[s:] + circ.cycle[:s]
                            least = full_min_rotation(cyc)
                            key, best = _mixed_key(cyc)
                            assert cyc[best:] + cyc[:best] == least
                            assert key == (3, tuple(map(_entry_key, least)))
                            rotations += 1
        assert rotations > 10000


class TestIsIsomorphic:
    def test_requires_matching_objects(self):
        a = identity(star_obj("O"))
        b = identity(star_obj("OO"))
        with pytest.raises(CompositionError):
            is_isomorphic(a, b)

    def test_shuffled_copies_agree(self, rng):
        for _ in range(20):
            c = sample_cobordism(rng, ("a", "b"))
            assert is_isomorphic(c, shuffled(rng, c))

    def test_rotations_of_a_valid_cycle_agree(self):
        valid = realize(star_obj("III", cycles=[[1, 2, 3]]))
        mixed, out = valid.components[0].boundary
        for s in range(1, len(mixed.cycle)):
            turned = Mixed(mixed.cycle[s:] + mixed.cycle[:s])
            comp = Component(0, (turned, out))
            assert is_isomorphic(valid, Cobordism(valid.source, valid.target, (comp,)))

    def test_invalid_cycles_raise_instead_of_depending_on_rotation(self):
        obj = GeneralObject(frozenset("abc"), ())
        arcs = (Arc("a"), Arc("b"), Arc("a"), Arc("c"))

        def loop(cycle):
            return Cobordism(obj, obj, (Component(0, (Mixed(cycle),)),))

        with pytest.raises(InvalidCobordismError):
            is_isomorphic(loop(arcs), loop(arcs[2:] + arcs[:2]))
        twice = Mixed((in_ref(1), Arc(STAR), in_ref(1), Arc(STAR)))
        src = star_obj("I")
        c = Cobordism(src, star_obj(""), (Component(0, (twice,)),))
        with pytest.raises(InvalidCobordismError):
            canonicalize(c)

    def test_an_invalid_cycle_in_either_argument_raises(self):
        src, tgt = star_obj("I"), star_obj("")

        def cap(*cycle):
            return Cobordism(src, tgt, (Component(0, (Mixed(cycle),)),))

        good = cap(in_ref(1), Arc(STAR))
        bad = cap(in_ref(1), Arc(STAR), in_ref(1), Arc(STAR))
        assert validate(good) == [] and is_isomorphic(good, good)
        for a, b in ((good, bad), (bad, good)):
            with pytest.raises(InvalidCobordismError):
                is_isomorphic(a, b)

    @pytest.mark.parametrize("branes", [(STAR,), ("a", "b"), ("a", "b", "c")])
    def test_agrees_with_canonical_keys(self, rng, branes):
        def same_key(a, b):
            return canonicalize(a).key == canonicalize(b).key

        answers = set()
        for _ in range(60):
            c = sample_cobordism(rng, branes)
            pairs = [(c, shuffled(rng, c)), (shuffled(rng, c), shuffled(rng, c))]
            pairs += [(c, other) for other in _changed(rng, c)]
            obj = sample_object(rng, branes)
            r = realize(obj)
            once = stabilize(r)
            pairs += [
                (once, compose(make_T(branes), r)),
                (once, r),
                (stabilize(once), shuffled(rng, stabilize(once))),
                (stabilize(once), stabilize(shuffled(rng, once))),
            ]
            forms = enumerate_classes(obj, 1, 1)
            pairs += [(f.cobordism, g.cobordism) for f in forms[:3] for g in forms[:3]]
            for a, b in pairs:
                answer = is_isomorphic(a, b)
                assert answer == same_key(a, b)
                answers.add(answer)
        assert answers == {True, False}

    def test_window_brane_matters(self):
        src = GeneralObject(AB, ())
        base = Component(0, (), [("a", 1)])
        other = Component(0, (), [("b", 1)])
        ca = Cobordism(src, src, (base,))
        cb = Cobordism(src, src, (other,))
        assert not is_isomorphic(ca, cb)


def _changed(rng: random.Random, c: Cobordism) -> list[Cobordism]:
    """Copies of ``c`` between the same objects in another class: one
    component gains a genus, or a window of the first brane."""
    if not c.components:
        return []
    k = rng.randrange(len(c.components))
    comp = c.components[k]
    window = (sorted(c.source.branes)[0], 1)
    out = []
    for changed in (
        Component(comp.genus + 1, comp.circles, comp.windows),
        Component(comp.genus, comp.circles, comp.windows + (window,)),
    ):
        comps = list(c.components)
        comps[k] = changed
        out.append(Cobordism(c.source, c.target, comps))
    return out


class TestEnumerate:
    def test_count_single_brane(self):
        forms = enumerate_classes(star_obj("O"), max_genus=2, max_windows=3)
        assert len(forms) == 3 * 4
        assert len(set(forms)) == len(forms)

    def test_count_two_branes(self):
        obj = GeneralObject(AB, star_obj("O").entries)
        forms = enumerate_classes(obj, max_genus=1, max_windows=1)
        assert len(forms) == 2 * 4

    def test_each_class_is_valid_and_connected(self):
        for form in enumerate_classes(star_obj("OI"), 1, 1):
            cob = form.cobordism
            assert validate(cob) == []
            assert len(cob.components) == 1

    def test_classes_carry_the_advertised_invariants(self):
        obj = star_obj("O")
        seen = set()
        for form in enumerate_classes(obj, 2, 2):
            (comp,) = form.cobordism.components
            wv = tuple(sorted(window_vector(form.cobordism).items()))
            seen.add((comp.genus, wv))
        assert seen == {
            (g, ((STAR, w),)) for g in range(3) for w in range(3)
        }


def _decorated(base: Cobordism, genus: int, wvec: dict[str, int]) -> Cobordism:
    comp = base.components[0]
    return Cobordism(
        base.source, base.target, (Component(genus, comp.circles, wvec.items()),)
    )


def reference_classes(obj, max_genus: int, max_windows: int) -> list[CanonicalForm]:
    """Each class built as the realizer plus genus and windows, then
    canonicalized on its own."""
    base = realize(obj)
    branes = sorted(obj.branes)
    return [
        canonicalize(_decorated(base, g, dict(zip(branes, counts))))
        for g in range(max_genus + 1)
        for counts in itertools.product(range(max_windows + 1), repeat=len(branes))
    ]


class TestEnumerateAgainstReference:
    def _assert_same(self, obj, max_genus, max_windows):
        got = enumerate_classes(obj, max_genus, max_windows)
        want = reference_classes(obj, max_genus, max_windows)
        assert [f.key for f in got] == [f.key for f in want]
        assert [f.cobordism for f in got] == [f.cobordism for f in want]

    def test_every_feasible_corpus_object(self):
        checked = 0
        for path in sorted((CORPUS / "roundtrip").glob("*.occ")):
            for obj in parse(path.read_text(encoding="utf-8")).objects.values():
                try:
                    realize(obj)
                except InfeasibleObjectError:
                    continue
                self._assert_same(obj, 2, 2)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("branes", [(STAR,), ("a", "b"), ("a", "b", "c")])
    def test_sampled_objects(self, rng, branes):
        for _ in range(30):
            self._assert_same(sample_object(rng, branes), 2, 2)

    @pytest.mark.parametrize("bounds", [(-1, 0), (0, -1)])
    def test_negative_bound_is_an_oc_error(self, bounds):
        with pytest.raises(OcError):
            enumerate_classes(star_obj("O"), *bounds)
        with pytest.raises(OcError):
            strata_table(star_obj("O"), *bounds)

    # Over two branes, (isqrt(maxsize) + 1) ** 2 rows is past sys.maxsize.
    @pytest.mark.parametrize(
        "bounds",
        [(sys.maxsize, 0), (0, sys.maxsize), (0, math.isqrt(sys.maxsize)), (HUGE, HUGE)],
    )
    def test_a_grid_of_more_than_maxsize_rows_is_refused(self, bounds):
        obj = labeled_obj(AB, ["a:a", "b:b"])
        message = "^bounds give more than"
        with pytest.raises(InvalidValueError, match=message):
            enumerate_classes(obj, *bounds)
        with pytest.raises(InvalidValueError, match=message):
            strata_table(obj, *bounds)

    # 2**16 + 1 classes by genus and by windows over one brane, 257 ** 2
    # over two, and a grid of 10**8 + 1 that would exhaust memory if built.
    @pytest.mark.parametrize(
        "obj, bounds",
        [
            (star_obj("O"), (2**16, 0)),
            (star_obj("O"), (0, 2**16)),
            (labeled_obj(AB, ["a:a", "b:b"]), (0, 256)),
            (GeneralObject({STAR}, [Circle()]), (0, 10**8)),
        ],
    )
    def test_a_grid_of_more_than_the_cap_is_refused(self, obj, bounds):
        message = "^bounds give more than 65536 classes$"
        with pytest.raises(InvalidValueError, match=message):
            enumerate_classes(obj, *bounds)
        with pytest.raises(InvalidValueError, match=message):
            strata_table(obj, *bounds)

    @pytest.mark.parametrize(
        "obj, bounds",
        [(star_obj("O"), (0, 2**16 - 1)), (labeled_obj(AB, ["a:a", "b:b"]), (0, 255))],
    )
    def test_a_grid_of_exactly_the_cap_is_built(self, obj, bounds):
        assert len(strata_table(obj, *bounds)) == 2**16

    # Keys for windows 0..2048 over one brane spell out 2049 * 1024 windows,
    # past 2**21; the table holds no keys and is built.
    def test_window_vectors_with_too_many_windows_to_key_are_refused(self):
        message = "^bounds give more than 2097152 windows in all$"
        with pytest.raises(InvalidValueError, match=message):
            enumerate_classes(star_obj("O"), 0, 2048)
        assert len(strata_table(star_obj("O"), 0, 2048)) == 2049


class TestWindowCap:
    """A key holds one ``(2, brane)`` entry per window, so ``canonicalize``
    refuses a cobordism of more than 2**21 windows from its counts, and the
    writers, which canonicalize first, refuse it with it.  What reads only
    the counts still answers."""

    MESSAGE = "^cobordism has more than 2097152 windows in all$"

    @staticmethod
    def _windows(*components) -> Cobordism:
        empty = GeneralObject(AB, [])
        return Cobordism(empty, empty, [Component(0, (), w) for w in components])

    @pytest.mark.parametrize(
        "components",
        [
            ([("a", 10**12)],),
            ([("a", 2**21 + 1)],),
            ([("a", 2**20), ("b", 2**20 + 1)],),
            ([("a", 2**20)], [("b", 2**20)], [("a", 1)]),
        ],
        ids=["huge", "one-over", "two-branes", "three-components"],
    )
    def test_canonicalize_and_the_writers_refuse_at_once(self, components):
        c = self._windows(*components)
        doc = Document(branes=frozenset(AB), objects={"E": c.source})
        doc.cobordisms["c"] = CobordismDef("E", "E", c)
        for call, arg in ((canonicalize, c), (serialize, doc), (to_json, doc)):
            start = time.perf_counter()
            with pytest.raises(InvalidValueError, match=self.MESSAGE):
                call(arg)
            assert time.perf_counter() - start < 0.1, call

    def test_counts_are_still_read(self):
        c = self._windows([("a", 10**12)])
        assert is_isomorphic(c, c)
        assert not is_isomorphic(c, self._windows([("a", 10**12 + 1)]))
        summary = invariant_summary(c)
        assert summary.window_vector == (("a", 10**12), ("b", 0))
        assert summary.euler == 2 - 10**12

    def test_exactly_the_cap_is_keyed(self):
        c = self._windows([("a", 2**20)], [("b", 2**20)])
        keys = [key for _, key in canonicalize(c).key[2]]
        assert sorted(map(len, keys)) == [2**20, 2**20]


class TestStrata:
    def test_row_count_and_fields(self):
        rows = strata_table(star_obj("O"), 1, 1)
        assert len(rows) == 4
        for row in rows:
            assert row.c_number == star_obj("O").c_number
            assert row.in_b is True

    def test_rows_sorted_lexicographically(self):
        rows = strata_table(star_obj("O"), 2, 1)
        keys = [(r.genus, r.windows) for r in rows]
        assert keys == sorted(keys)


def reference_strata_table(obj, max_genus: int, max_windows: int) -> list[StrataRow]:
    """The table read off each class that ``enumerate_classes`` builds,
    through ``window_vector`` and ``in_b_subcategory``."""
    if type(obj) is not GeneralObject:
        raise wrong_type(GeneralObject, obj)
    c = obj.c_number
    return [
        StrataRow(
            genus=form.cobordism.components[0].genus,
            windows=tuple(window_vector(form.cobordism).items()),
            c_number=c,
            in_b=in_b_subcategory(form.cobordism),
        )
        for form in enumerate_classes(obj, max_genus, max_windows)
    ]


def _outcome(table, *args):
    """The rows, or the class and message of the ``OcError`` raised."""
    try:
        return table(*args)
    except OcError as exc:
        return type(exc), str(exc)


def _relabeled(rng: random.Random, obj: GeneralObject) -> GeneralObject:
    """``obj`` with each interval's labels drawn at random: its cycles are
    often not brane-coherent, so it often has no realizer."""
    branes = sorted(obj.branes)
    entries = [
        Interval(rng.choice(branes), rng.choice(branes))
        if isinstance(e, Interval)
        else e
        for e in obj.entries
    ]
    return GeneralObject(obj.branes, entries, obj.sigma)


# Negative, then of a type other than int: a bool is not an int here.
BAD_BOUNDS = [
    (-1, 0),
    (0, -1),
    ("x", 0),
    (0, None),
    (2.5, 0),
    (True, 0),
    (0, False),
    (-1, "x"),
    (1, 1.0),
]


class TestStrataAgainstReference:
    @pytest.mark.parametrize("branes", [(STAR,), ("a", "b"), ("a", "b", "c")])
    def test_sampled_objects(self, rng, branes):
        for _ in range(8):
            obj = sample_object(rng, branes)
            for max_genus, max_windows in itertools.product(range(4), repeat=2):
                got = strata_table(obj, max_genus, max_windows)
                assert got == reference_strata_table(obj, max_genus, max_windows)

    def test_incoherent_two_brane_objects(self, rng):
        raised = 0
        for _ in range(60):
            obj = _relabeled(rng, sample_object(rng, AB))
            bounds = (rng.randrange(4), rng.randrange(4))
            got = _outcome(strata_table, obj, *bounds)
            assert got == _outcome(reference_strata_table, obj, *bounds)
            raised += got[0] is InfeasibleObjectError
        assert raised > 10

    @pytest.mark.parametrize("bounds", BAD_BOUNDS, ids=repr)
    @pytest.mark.parametrize(
        "obj",
        [star_obj("OI"), _INCOHERENT, 1],
        ids=["feasible", "incoherent", "not an object"],
    )
    def test_bad_bounds(self, obj, bounds):
        got = _outcome(strata_table, obj, *bounds)
        assert got == _outcome(reference_strata_table, obj, *bounds)
        assert got[0] is InvalidValueError


def brute_force_to_circle(entries_kinds: str, max_g: int, max_w: int):
    """Every valid connected cobordism from the given single-brane object
    to one circle, over representations that keep the default traversal
    direction on every glued interval."""
    obj = star_obj(entries_kinds)
    tgt = star_obj("O")
    positions = list(obj.interval_indices)
    out: list[tuple[Cobordism, tuple]] = []
    for perm in itertools.permutations(positions):
        sigma = Permutation(dict(zip(positions, perm)))
        for g in range(max_g + 1):
            for w in range(max_w + 1):
                boundary: list = [Closed(IN, i) for i in obj.circle_indices]
                for cyc in sigma.cycles():
                    cycle = []
                    for x in cyc:
                        cycle.append(in_ref(x))
                        cycle.append(Arc(STAR))
                    boundary.append(Mixed(tuple(cycle)))
                boundary.append(Closed(OUT, 1))
                cob = Cobordism(obj, tgt, (Component(g, boundary, [(STAR, w)]),))
                assert validate(cob) == []
                wv = tuple(sorted(window_vector(cob).items()))
                out.append((cob, (g, wv, sigma)))
    return out


@pytest.mark.parametrize("kinds", ["", "I", "II", "III", "OII"])
def test_canonical_buckets_equal_invariant_triples(kinds, rng):
    family = brute_force_to_circle(kinds, 2, 2)
    buckets: dict = {}
    for cob, triple in family:
        buckets.setdefault(canonicalize(cob).key, set()).add(triple)
        jittered = shuffled(rng, cob)
        assert canonicalize(jittered).key == canonicalize(cob).key
    triples = {t for _, t in family}
    assert len(buckets) == len(triples)
    for key, members in buckets.items():
        assert len(members) == 1


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_shuffle_never_changes_the_class(seed):
    rng = random.Random(seed)
    c = sample_cobordism(rng, ("a", "b"))
    assert canonicalize(shuffled(rng, c)) == canonicalize(c)
