"""``Permutation`` against the earlier constructor in ``reference_permutation``.

On sampled bijections, given as a dict, an ``OrderedDict``, a list of
pairs or a one-shot iterator of pairs, and on mutations of them, both
must store the same pairs or raise the same exception class with the same
message.  Where the reference keeps an ``int`` subclass entry as given,
``Permutation`` stores the exact ``int`` it holds, and the comparison
checks each stored type.  The mutations put in bools,
``IntEnum`` members and other ``int`` subclasses, strings, floats, None,
large and negative integers, non-bijections, incomparable and unhashable
keys, triples, and duplicate or conflicting pairs.
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict

import pytest

from occob.objects import Permutation
from reference_permutation import reference_pairs


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2
    BLUE = 3


class Index(int):
    pass


def outcome(build, make_mapping):
    try:
        pairs = build(make_mapping())
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return pairs, [(type(k), type(v)) for k, v in pairs]


def _as_ints(pairs: tuple) -> tuple:
    """``pairs`` with each entry the exact ``int`` it holds."""
    return tuple((int.__int__(k), int.__int__(v)) for k, v in pairs)


def assert_same(make_mapping) -> None:
    got = outcome(lambda m: Permutation(m).pairs, make_mapping)
    want = outcome(lambda m: _as_ints(reference_pairs(m)), make_mapping)
    assert got == want, make_mapping()


_ODD = [
    True, False, Color.RED, Color.BLUE, Index(2), Index(7), "1", "a", 1.0, 2.5,
    None, (1,), 10**30, -(10**30), -1, 0,
]  # fmt: skip


def _sampled(rng: random.Random) -> list[tuple]:
    domain = rng.sample(range(-20, 60), rng.randint(0, 10))
    image = list(domain)
    rng.shuffle(image)
    return list(zip(domain, image))


def _mutated(rng: random.Random, pairs: list[tuple]) -> list[tuple]:
    pairs = list(pairs)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(7)
        k = rng.randrange(len(pairs)) if pairs else None
        if op == 0 and pairs:  # an odd key
            pairs[k] = (rng.choice(_ODD), pairs[k][1])
        elif op == 1 and pairs:  # an odd value
            pairs[k] = (pairs[k][0], rng.choice(_ODD))
        elif op == 2 and pairs:  # a value met twice: not a bijection
            pairs[k] = (pairs[k][0], rng.choice(pairs)[1])
        elif op == 3:  # a triple
            pairs.insert(rng.randint(0, len(pairs)), (1, 2, 3))
        elif op == 4 and pairs:  # the same pair twice
            pairs.insert(rng.randint(0, len(pairs)), pairs[k])
        elif op == 5 and pairs:  # a second image for one key
            pairs.append((pairs[k][0], rng.randrange(-20, 60)))
        elif op == 6:  # an unhashable key
            pairs.append(([1], 1))
    return pairs


def _forms(pairs: list[tuple]):
    """The ways a caller can hand ``pairs`` over, each made afresh per call."""
    yield lambda: list(pairs)
    yield lambda: iter(list(pairs))
    if all(len(p) == 2 for p in pairs):
        try:
            dict(pairs)
        except TypeError:  # an unhashable key
            return
        yield lambda: dict(pairs)
        yield lambda: OrderedDict(pairs)


def test_sampled_bijections():
    rng = random.Random(1)
    for _ in range(400):
        for form in _forms(_sampled(rng)):
            assert_same(form)


def test_mutated_mappings():
    rng = random.Random(2)
    for _ in range(3000):
        for form in _forms(_mutated(rng, _sampled(rng))):
            assert_same(form)


@pytest.mark.parametrize(
    "mapping",
    [
        {},
        {1: 1},
        {True: True},
        {1: True, True: 1},
        {Color.RED: Color.GREEN, Color.GREEN: Color.RED},
        {Index(1): 2, 2: Index(1)},
        {1: 2, 2: 1.0},
        {1.0: 1},
        {float("nan"): 1},
        {"a": "a"},
        {"a": 1, 1: "a"},
        {1: "a", 2: 1},
        {1: 2},
        {1: 2, 2: 2},
        {1: None},
        {(1,): (1,)},
        [(1, 2, 3)],
        [(1,)],
        [1, 2],
        [(1, 2), (2, 1), (1, 2)],
        [(1, 2), (2, 1), (1, 1)],
        5,
        None,
        "12",
        [[1, 1]],
    ],
    ids=repr,
)
def test_edge_mappings(mapping):
    assert_same(lambda: mapping)
