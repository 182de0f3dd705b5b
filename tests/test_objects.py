"""Objects: permutations on sparse 1-based domains and entry sequences."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import AB, REPO, STAR_SET, labeled_obj, star_obj
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_object


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity({2, 5, 9})
        assert p.is_identity
        assert p(5) == 5
        assert p.cycle_count == 3
        assert p.cycle_string() == "id"

    def test_from_cycles_with_implicit_fixed_points(self):
        p = Permutation.from_cycles([[2, 3]], {2, 3, 4})
        assert p(2) == 3 and p(3) == 2 and p(4) == 4
        assert p.cycle_count == 2
        assert p.cycle_string() == "(2 3)(4)"

    def test_cycles_are_min_first_and_sorted(self):
        p = Permutation.from_cycles([[7, 3, 5], [1, 2]], {1, 2, 3, 5, 7})
        assert p.cycles() == ((1, 2), (3, 5, 7))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation({1: 2, 2: 2})

    def test_from_cycles_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([[1, 9]], {1, 2})

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation.from_cycles([[1, 2], [2, 3]], {1, 2, 3})

    @given(st.permutations(list(range(1, 7))))
    def test_cycles_partition_domain(self, image):
        p = Permutation(dict(zip(range(1, 7), image)))
        seen = [x for cyc in p.cycles() for x in cyc]
        assert sorted(seen) == list(range(1, 7))
        for cyc in p.cycles():
            assert cyc[0] == min(cyc)
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                assert p(a) == b


class TestGeneralObject:
    def test_positions_and_alpha(self):
        obj = star_obj("OIIO")
        assert obj.interval_indices == (2, 3)
        assert obj.circle_indices == (1, 4)
        assert len(obj.interval_indices) == 2

    def test_default_sigma_is_identity(self):
        assert star_obj("II").sigma.is_identity

    def test_rejects_empty_brane_set(self):
        with pytest.raises(ValueError):
            GeneralObject(frozenset(), ())

    def test_rejects_label_outside_branes(self):
        with pytest.raises(ValueError):
            GeneralObject(STAR_SET, (Interval(STAR, "z"),))

    def test_rejects_sigma_on_wrong_domain(self):
        with pytest.raises(ValueError):
            GeneralObject(
                STAR_SET,
                (Circle(), Interval(STAR, STAR)),
                Permutation.identity({1, 2}),
            )

    def test_c_number_counts_circles_cycles_plus_one(self):
        obj = star_obj("OIII", cycles=[[2, 3], [4]])
        assert obj.c_number == 4

    def test_c_number_of_transposition_pair(self):
        assert star_obj("II", cycles=[[1, 2]]).c_number == 2

    def test_tensor_concatenates_and_shifts(self):
        a = star_obj("IO", cycles=[[1]])
        b = star_obj("II", cycles=[[1, 2]])
        t = a.tensor(b)
        assert len(t.entries) == 4
        assert t.interval_indices == (1, 3, 4)
        assert t.sigma(3) == 4 and t.sigma(4) == 3 and t.sigma(1) == 1

    def test_tensor_requires_one_brane_set(self):
        a = labeled_obj({"a"}, ["a:a"])
        b = labeled_obj({"b"}, ["b:b"])
        with pytest.raises(ValueError):
            a.tensor(b)
        both = labeled_obj(AB, ["a:a"]).tensor(labeled_obj(AB, ["b:b"]))
        assert both.branes == AB

    @pytest.mark.parametrize("branes", [(STAR,), ("a", "b"), ("a", "b", "c")])
    def test_tensor_equals_the_checked_construction(self, branes):
        rng = random.Random(0xC0B0)
        empty = GeneralObject(branes)
        objects = [empty] + [sample_object(rng, branes) for _ in range(40)]
        for a in objects:
            for b in objects[:10] + [empty]:
                n = len(a.entries)
                shifted = tuple((k + n, v + n) for k, v in b.sigma.pairs)
                sigma = Permutation(a.sigma.pairs + shifted)
                want = GeneralObject(a.branes, a.entries + b.entries, sigma)
                got = a.tensor(b)
                assert got == want
                assert hash(got) == hash(want)
                assert repr(got) == repr(want)

    def test_repr_lists_the_branes_sorted_in_any_process(self):
        """A frozenset shows its items in hash order, which differs between
        processes; the repr sorts them and still evaluates to the object."""
        code = (
            "from occob.objects import *\n"
            "obj = GeneralObject('lmnrabcdxyz', [Interval('x', 'a'), Circle()])\n"
            "print(repr(obj))\n"
            "assert eval(repr(obj)) == obj\n"
        )
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        shown = set()
        for seed in ("0", "1"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(filter(None, paths)),
            }
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, env=env, timeout=60
            )
            assert proc.returncode == 0, proc.stderr.decode()
            shown.add(proc.stdout.decode().strip())
        branes = ", ".join(repr(b) for b in "abcdlmnrxyz")
        assert shown == {
            f"GeneralObject(branes=frozenset({{{branes}}}), "
            "entries=(Interval(left='x', right='a'), Circle()), "
            "sigma=Permutation({1: 1}))"
        }


@given(
    st.lists(st.sampled_from("OI"), max_size=6).map("".join),
    st.randoms(use_true_random=False),
)
def test_c_number_formula_on_random_objects(kinds, pyrng):
    positions = [i for i, k in enumerate(kinds, start=1) if k == "I"]
    image = positions[:]
    pyrng.shuffle(image)
    sigma = Permutation(dict(zip(positions, image)))
    obj = GeneralObject(
        STAR_SET,
        [Circle() if k == "O" else Interval(STAR, STAR) for k in kinds],
        sigma,
    )
    circles = kinds.count("O")
    assert obj.c_number == circles + sigma.cycle_count + 1
