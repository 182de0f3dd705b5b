"""``sample_cobordism`` against the earlier version kept in
``reference_sampling``.

From generators in equal states both must return cobordisms with equal
``repr`` and leave the generators in equal states, so they made the same
draws.  The calls cover three brane sets, a free surface and a fixed
source or target, ``ensure_b`` on and off, and a spread of the ``max_*``
bounds; the two argument errors must be the same and draw nothing.  A bad
bound or brane set must raise ``InvalidValueError`` before any draw, in
``sample_object`` too.
"""

from __future__ import annotations

import random

import pytest

from occob.errors import InvalidValueError
from occob.objects import STAR
from occob.sampling import sample_cobordism, sample_object
from reference_sampling import sample_cobordism as reference_sample_cobordism

BRANE_SETS = [(STAR,), ("a", "b"), ("l", "m", "r")]
OPTIONS = [
    {},
    {"max_components": 1},
    {"max_components": 5, "max_genus": 0},
    {"max_new_intervals": 0, "max_new_circles": 0},
    {"max_new_intervals": 5, "max_new_circles": 0, "max_components": 2},
    {"max_new_intervals": 3, "max_new_circles": 4, "max_components": 4},
    {"max_new_circles": 3, "max_genus": 6},
]
# The fixed side, if any, and ensure_b; a fixed target refuses ensure_b.
MODES = [
    (None, False), (None, True), ("source", False), ("source", True), ("target", False)
]
SEEDS = range(40)


def outcome(sample, seed: int, **kw):
    """What ``sample`` returns or raises, and the generator state after it."""
    rng = random.Random(seed)
    try:
        result = repr(sample(rng, **kw))
    except Exception as exc:  # the class and message are what is compared
        result = (type(exc), str(exc))
    return result, rng.getstate()


@pytest.mark.parametrize("branes", BRANE_SETS, ids="".join)
@pytest.mark.parametrize("fixed, ensure_b", MODES)
def test_the_same_draws_give_the_same_cobordism(branes, fixed, ensure_b):
    for seed in SEEDS:
        kw = {"branes": branes, "ensure_b": ensure_b}
        if fixed is not None:
            kw[fixed] = sample_object(random.Random(-seed), branes, 2, 4)
        for options in OPTIONS:
            got = outcome(sample_cobordism, seed, **kw, **options)
            assert got == outcome(reference_sample_cobordism, seed, **kw, **options)
            assert isinstance(got[0], str), (seed, options, got[0])


@pytest.mark.parametrize(
    "kw, message",
    [
        (
            {
                "source": sample_object(random.Random(1)),
                "target": sample_object(random.Random(2)),
            },
            "fix at most one side; the other is derived",
        ),
        (
            {"target": sample_object(random.Random(3)), "ensure_b": True},
            "ensure_b needs a derived target",
        ),
    ],
    ids=["both sides fixed", "ensure_b with a fixed target"],
)
def test_an_argument_error_is_the_same_and_draws_nothing(kw, message):
    got = outcome(sample_cobordism, 7, **kw)
    assert got == outcome(reference_sample_cobordism, 7, **kw)
    assert got == ((InvalidValueError, message), random.Random(7).getstate())


@pytest.mark.parametrize("sample", [sample_object, sample_cobordism])
def test_an_empty_brane_set_is_refused_before_any_draw(sample):
    got = outcome(sample, 5, branes=())
    message = "the brane set must be nonempty"
    assert got == ((InvalidValueError, message), random.Random(5).getstate())


@pytest.mark.parametrize(
    "sample, kw",
    [
        (sample_cobordism, {"max_components": 0}),
        (sample_cobordism, {"max_genus": -1}),
        (sample_cobordism, {"max_new_intervals": -1}),
        (sample_cobordism, {"max_new_circles": -1}),
        (sample_cobordism, {"max_genus": 1.5}),
        (sample_cobordism, {"max_components": True}),
        (sample_cobordism, {"branes": 5}),
        (sample_cobordism, {"branes": None}),
        (sample_cobordism, {"branes": ("a", 1)}),
        (sample_cobordism, {"branes": ("a", "")}),
        pytest.param(
            sample_cobordism, {"branes": (10**5000,)}, id="sample_cobordism-a huge int"
        ),
        (sample_object, {"max_circles": -1}),
        (sample_object, {"max_intervals": -1}),
        (sample_object, {"max_intervals": "2"}),
        (sample_object, {"branes": 5}),
        (sample_object, {"branes": None}),
        (sample_object, {"branes": ("a", 1)}),
    ],
    ids=lambda x: getattr(x, "__name__", None)
    or ",".join(f"{k}={v!r}" for k, v in x.items()),
)
def test_a_bad_bound_or_brane_set_is_refused_before_any_draw(sample, kw):
    (kind, _), state = outcome(sample, 11, **kw)
    assert kind is InvalidValueError
    assert state == random.Random(11).getstate()
