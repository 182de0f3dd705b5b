"""``pullback`` against the earlier version kept in ``reference_pullback``.

The reference glues a realizer of ``tau`` on top of ``c`` and reads the
permutation off the glued surface; ``pullback`` walks ``c``'s mixed
circles.  On each input with at most one defect both must return equal
permutations or raise the same exception class with the same message.
The inputs are sampled cobordisms over ``{*}`` and ``{a, b}`` with a
``tau`` drawn at random, so that over ``{a, b}`` many are not
brane-coherent; mutants of sampled cobordisms: an outgoing reference
dropped or repeated, an arc dropped, a ``rev`` flipped, an arc moved to
another brane, an empty component added, a closed outgoing circle removed
and a circle of arcs alone added; and hand-built circles that do not
alternate from a reference, both circles with an outgoing reference,
which ``pullback`` walks, and circles with none, which pass through as
in ``compose`` and have their arcs fused: stored from an arc, with a run
of arcs on one brane or two (one wrapping round the start), with
adjacent references, and of arcs alone.

With two or three mutants stacked, the two may raise on different
checks, and ``pullback`` may return where the reference raises.  On those
inputs the test asserts only that what the reference returns, ``pullback``
returns, and that where ``pullback`` raises, the reference raises.  Last,
``pullback`` with the empty ``tau`` must equal ``boundary_permutation`` on
cobordisms to the one-circle object, whose mixed circles all pass
through.  Each call runs under a deadline, so a walk that does not end
fails the test.
"""

from __future__ import annotations

import contextlib
import random
import signal

import pytest

from occob import calculus
from occob.calculus import identity, pullback
from occob.errors import InfeasibleObjectError, InvalidCobordismError, OcError
from occob.objects import STAR, Circle, GeneralObject, Interval, Permutation
from occob.sampling import sample_cobordism, shuffled
from occob.surfaces import (
    OUT,
    Arc,
    Closed,
    Cobordism,
    Component,
    IntervalRef,
    Mixed,
    boundary_permutation,
    in_ref,
    out_ref,
    validate,
)
from reference_pullback import reference_pullback

BRANE_SETS = [(STAR,), ("a", "b")]
DEADLINE_S = 2.0


class Deadline(Exception):
    """A call ran past ``DEADLINE_S``."""


@contextlib.contextmanager
def deadline(seconds: float = DEADLINE_S):
    """Raise ``Deadline`` in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise Deadline(f"no result after {seconds} s")

    before = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, before)


def outcome(pull, c: Cobordism, tau: Permutation):
    """The permutation ``pull`` returns, or the class and message of what
    it raises."""
    with deadline():
        try:
            return pull(c, tau)
        except OcError as exc:
            return type(exc), str(exc)


def assert_same(c: Cobordism, tau: Permutation):
    got = outcome(pullback, c, tau)
    assert got == outcome(reference_pullback, c, tau), (c, tau)
    return got


def random_tau(rng: random.Random, c: Cobordism) -> Permutation:
    """A permutation of ``c``'s target intervals, brane-coherent or not."""
    positions = list(c.target.interval_indices)
    images = positions[:]
    rng.shuffle(images)
    return Permutation(dict(zip(positions, images)))


# -- mutations of a valid cobordism -----------------------------------------


def _mixed_spots(c: Cobordism, keep) -> list[tuple[int, int, int]]:
    return [
        (ci, bi, ei)
        for ci, comp in enumerate(c.components)
        for bi, circ in enumerate(comp.circles)
        if type(circ) is Mixed
        for ei, e in enumerate(circ.cycle)
        if keep(e)
    ]


def _edit(c: Cobordism, where: tuple[int, int, int], edit) -> Cobordism:
    """``c`` with the mixed-cycle entry at ``where`` replaced by the
    entries of ``edit(entry)``, a tuple: an empty one drops it."""
    ci, bi, ei = where
    comps = list(c.components)
    comp = comps[ci]
    circles = list(comp.circles)
    cycle = circles[bi].cycle
    circles[bi] = Mixed(cycle[:ei] + edit(cycle[ei]) + cycle[ei + 1 :])
    comps[ci] = Component(comp.genus, circles, comp.windows)
    return Cobordism(c.source, c.target, comps)


def _is_out(e) -> bool:
    return type(e) is IntervalRef and e.side == OUT


def drop_outgoing(rng, c):
    spots = _mixed_spots(c, _is_out)
    return _edit(c, rng.choice(spots), lambda e: ()) if spots else None


def drop_arc(rng, c):
    """Two references made adjacent, or two arcs, by dropping an arc."""
    spots = _mixed_spots(c, lambda e: type(e) is Arc)
    return _edit(c, rng.choice(spots), lambda e: ()) if spots else None


def repeat_outgoing(rng, c):
    """Some outgoing reference again, after a random mixed entry."""
    refs = [e for e in _all_entries(c) if _is_out(e)]
    if not refs:
        return None
    copy = rng.choice(refs)
    spot = rng.choice(_mixed_spots(c, lambda e: True))
    return _edit(c, spot, lambda e: (e, copy) if rng.random() < 0.5 else (copy, e))


def flip_rev(rng, c):
    spots = _mixed_spots(c, lambda e: type(e) is IntervalRef)
    if not spots:
        return None

    def flipped(e):
        return (IntervalRef(e.side, e.index, not e.rev),)

    return _edit(c, rng.choice(spots), flipped)


def relabel_arc(rng, c):
    """An arc moved to another brane, maybe one not declared."""
    spots = _mixed_spots(c, lambda e: type(e) is Arc)
    branes = [*sorted(c.target.branes), "z"]
    if not spots:
        return None

    def relabeled(e):
        return (Arc(rng.choice([b for b in branes if b != e.brane])),)

    return _edit(c, rng.choice(spots), relabeled)


def add_empty_component(rng, c):
    comps = list(c.components)
    comps.insert(rng.randrange(len(comps) + 1), Component(0))
    return Cobordism(c.source, c.target, comps)


def detach_target_circle(rng, c):
    spots = [
        (ci, bi)
        for ci, comp in enumerate(c.components)
        for bi, circ in enumerate(comp.circles)
        if type(circ) is Closed and circ.side == OUT
    ]
    if not spots:
        return None
    ci, bi = rng.choice(spots)
    comps = list(c.components)
    comp = comps[ci]
    circles = comp.circles[:bi] + comp.circles[bi + 1 :]
    comps[ci] = Component(comp.genus, circles, comp.windows)
    return Cobordism(c.source, c.target, comps)


def add_arc_circle(rng, c):
    """A mixed circle of one or two arcs and no reference, maybe on two
    branes, in a random component."""
    if not c.components:
        return None
    branes = sorted(c.target.branes)
    arcs = [Arc(rng.choice(branes)) for _ in range(rng.randint(1, 2))]
    comps = list(c.components)
    ci = rng.randrange(len(comps))
    comp = comps[ci]
    comps[ci] = Component(comp.genus, (*comp.circles, Mixed(arcs)), comp.windows)
    return Cobordism(c.source, c.target, comps)


def _all_entries(c: Cobordism):
    for comp in c.components:
        for circ in comp.circles:
            if type(circ) is Mixed:
                yield from circ.cycle


MUTATIONS = [
    drop_outgoing,
    drop_arc,
    repeat_outgoing,
    flip_rev,
    relabel_arc,
    add_empty_component,
    detach_target_circle,
    add_arc_circle,
]


# -- the tests ---------------------------------------------------------------


@pytest.mark.parametrize("branes", BRANE_SETS, ids="".join)
def test_sampled_pullbacks_agree_with_the_reference(rng, branes):
    seen = set()
    for _ in range(400):
        c = sample_cobordism(rng, branes)
        tau = random_tau(rng, c)
        got = assert_same(c, tau)
        seen.add(got[0] if type(got) is tuple else Permutation)
        assert_same(shuffled(rng, c), tau)
    expected = {Permutation}
    if len(branes) > 1:
        expected.add(InfeasibleObjectError)
    assert expected <= seen


@pytest.mark.parametrize("branes", BRANE_SETS, ids="".join)
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_mutated_pullbacks_agree_with_the_reference(rng, branes, mutate):
    changed = 0
    for _ in range(150):
        c = sample_cobordism(rng, branes)
        bad = mutate(rng, c)
        if bad is None:
            continue
        changed += 1
        tau = random_tau(rng, c)
        assert_same(bad, tau)
        assert_same(bad, c.target.sigma if rng.random() < 0.5 else tau)
    assert changed


_S = Arc(STAR)
# One mixed circle from [I, I] to [I] each, not alternating from a reference.
HAND_BUILT = {
    "stored from an arc": [_S, in_ref(1), _S, in_ref(2), _S, out_ref(1)],
    "out 1 after in 2": [in_ref(1), _S, in_ref(2), out_ref(1)],
    "out 1 after in 1": [in_ref(1), out_ref(1), _S, in_ref(2), _S],
    "odd length": [in_ref(1), _S, in_ref(2), _S, out_ref(1)],
    "no arcs": [in_ref(1), in_ref(2), out_ref(1)],
    "an arc run": [in_ref(1), _S, _S, in_ref(2), _S, out_ref(1), _S],
}


@pytest.mark.parametrize("cycle", HAND_BUILT.values(), ids=HAND_BUILT)
def test_hand_built_circles_pull_back_as_the_reference_does(cycle):
    x = GeneralObject({STAR}, [Interval(STAR, STAR)] * 2)
    y = GeneralObject({STAR}, [Interval(STAR, STAR)])
    c = Cobordism(x, y, [Component(0, [Mixed(cycle)])])
    assert type(assert_same(c, Permutation({1: 1}))) is Permutation


_A, _B = Arc("a"), Arc("b")
# Mixed circles from [I(a,a), I(a,a)] to [I(a,a)] with no outgoing reference
# and not alternating from a reference, beside ``out 1`` on its own circle:
# they pass through, their arcs fused as compose fuses them.
PASSING = {
    "stored from an arc": [[_A, in_ref(1), _A, in_ref(2)]],
    "an arc run on one brane": [[in_ref(1), _A, _A, in_ref(2), _A]],
    "an arc run on two branes": [[in_ref(1), _A, _B, in_ref(2), _A]],
    "a run on two branes round the start": [[_B, in_ref(1), _A, in_ref(2), _A]],
    "adjacent references": [[in_ref(1), in_ref(2), _A]],
    "arcs alone on one brane": [[_A, _A], [in_ref(1), _A, in_ref(2), _A]],
    "arcs alone on two branes": [[_A, _B], [in_ref(1), _A, in_ref(2), _A]],
}


@pytest.mark.parametrize("cycles", PASSING.values(), ids=PASSING)
def test_passing_circles_pull_back_as_the_reference_does(cycles):
    interval = Interval("a", "a")
    x = GeneralObject({"a", "b"}, [interval] * 2)
    y = GeneralObject({"a", "b"}, [interval])
    circles = [*map(Mixed, cycles), Mixed([out_ref(1), _A])]
    assert_same(Cobordism(x, y, [Component(0, circles)]), Permutation({1: 1}))


@pytest.mark.parametrize("branes", BRANE_SETS, ids="".join)
def test_stacked_mutations_never_contradict_the_reference(rng, branes):
    """With two or three defects at once, the two may fail on different
    checks, and ``pullback`` may return where the glued path raises.  But
    what the glued path returns, ``pullback`` returns, and where
    ``pullback`` raises, the glued path raises too."""
    returned = raised = 0
    for _ in range(1000):
        c = sample_cobordism(rng, branes)
        bad = c
        for mutate in rng.sample(MUTATIONS, rng.randint(2, 3)):
            bad = mutate(rng, bad) or bad
        tau = random_tau(rng, c) if rng.random() < 0.5 else c.target.sigma
        got = outcome(pullback, bad, tau)
        expected = outcome(reference_pullback, bad, tau)
        if type(expected) is Permutation:
            returned += 1
            assert got == expected, (bad, tau)
        if type(got) is tuple:
            raised += 1
            assert type(expected) is tuple, (bad, tau)
    assert returned and raised


def test_the_walk_with_no_glued_interval_is_the_boundary_permutation():
    """To the one-circle object every mixed circle passes through, so
    ``pullback`` must read each circle as ``boundary_permutation`` does."""
    rng = random.Random(5)
    for k in range(3000):
        branes = BRANE_SETS[k % 2]
        c = sample_cobordism(rng, branes, target=GeneralObject(branes, [Circle()]))
        assert pullback(c, Permutation()) == boundary_permutation(c), c


def test_a_target_interval_referenced_twice_is_an_invalid_cobordism():
    """``X = [I] -> Y = [I, I]`` with ``out 1`` on two circles: the walk
    must not follow one of them round for ever."""
    x = GeneralObject({STAR}, [Interval(STAR, STAR)])
    y = GeneralObject({STAR}, [Interval(STAR, STAR)] * 2)
    star = Arc(STAR)
    circles = [
        Mixed([in_ref(1), star, out_ref(1), star, out_ref(2), star]),
        Mixed([out_ref(1), star]),
    ]
    c = Cobordism(x, y, [Component(0, circles)])
    assert {v.rule for v in validate(c)} == {"duplicate-use"}
    for tau in (Permutation({1: 1, 2: 2}), Permutation({1: 2, 2: 1})):
        assert assert_same(c, tau)[0] is InvalidCobordismError


def test_the_walk_builds_no_realizer_and_glues_nothing(rng, monkeypatch):
    c = sample_cobordism(rng, (STAR,))
    tau = random_tau(rng, c)
    expected, ident = reference_pullback(c, tau), identity(c.target)

    def refused(*args):
        raise AssertionError("called by pullback")

    for name in ("realize", "compose", "boundary_permutation"):
        monkeypatch.setattr(calculus, name, refused)
    for checked in (GeneralObject, Cobordism):
        monkeypatch.setattr(checked, "__init__", refused)
    assert pullback(c, tau) == expected
    assert pullback(ident, tau) == tau


def test_the_deadline_stops_a_loop_that_does_not_end():
    with pytest.raises(Deadline), deadline(0.05):
        while True:
            pass
