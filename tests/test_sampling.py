"""Every sampler checks each argument before it draws anything.

A bad argument raises ``InvalidValueError`` and leaves the generator in
the state it was handed in.  A subclass of ``random.Random`` is a
generator too, and makes the same draws.
"""

from __future__ import annotations

import random
import sys

import pytest

from conftest import star_obj
from occob.calculus import identity
from occob.errors import InvalidValueError
from occob.sampling import (
    sample_cobordism,
    sample_composable_chain,
    sample_composable_pair,
    sample_document,
    sample_object,
    shuffled,
)

ONE = star_obj("O")
HUGE = 10**5000


class _Generator(random.Random):
    pass


@pytest.mark.parametrize(
    "sample",
    [
        sample_object,
        sample_cobordism,
        sample_composable_pair,
        sample_composable_chain,
        sample_document,
        lambda rng: shuffled(rng, identity(ONE)),
    ],
    ids=["object", "cobordism", "pair", "chain", "document", "shuffled"],
)
@pytest.mark.parametrize("rng", [None, 7, random], ids=["None", "int", "module"])
def test_a_generator_that_is_not_a_random_is_refused(sample, rng):
    with pytest.raises(InvalidValueError, match="^expected a Random, got "):
        sample(rng)


@pytest.mark.parametrize(
    "sample, args",
    [
        (sample_cobordism, {"source": 1}),
        (sample_cobordism, {"target": "C"}),
        (sample_cobordism, {"source": identity(ONE)}),
        (sample_cobordism, {"max_genus": HUGE}),
        (sample_object, {"max_circles": sys.maxsize + 1}),
        (sample_composable_chain, {"length": 0}),
        (sample_composable_chain, {"length": HUGE}),
        (sample_composable_chain, {"length": 2.0}),
        (sample_document, {"branes": 5}),
        (sample_document, {"branes": ()}),
        (sample_document, {"branes": ("a", None)}),
        (sample_document, {"n_cobordisms": -1}),
        (sample_document, {"n_cobordisms": HUGE}),
        (shuffled, {"c": ONE}),
        (shuffled, {"c": None}),
    ],
    ids=lambda x: getattr(x, "__name__", None)
    or ",".join(f"{k}={type(v).__name__}" for k, v in x.items()),
)
def test_a_bad_argument_is_refused_before_any_draw(sample, args):
    rng = random.Random(3)
    with pytest.raises(InvalidValueError):
        sample(rng, **args)
    assert rng.getstate() == random.Random(3).getstate()


@pytest.mark.parametrize(
    "sample",
    [sample_object, sample_cobordism, sample_composable_chain, sample_document],
)
def test_a_subclass_of_random_makes_the_same_draws(sample):
    assert repr(sample(_Generator(5))) == repr(sample(random.Random(5)))
