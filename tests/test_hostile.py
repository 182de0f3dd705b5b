"""No hostile value makes a public callable raise anything but an ``OcError``.

The callables are those in ``occob.__all__`` and ``occob.sampling.__all__``
(exception classes aside), the public classmethods of the exported
classes, and the public methods of the library values in the pool (and
such a value itself, if it is callable), so a new export is covered with
no edit here.  Each is called with every tuple of up to three arguments
drawn from one pool; one that needs more is called with each value in
every place.  The pool mixes values that no entry point takes (an int too
long to print, bare and nested in lists and pairs, ``None``, ``nan``,
``bytes``, a bare ``object()`` and a ``str`` subclass) with one valid
value of each kind that reaches past the first checks (an object, its
identity, a permutation, a document and a random generator).  No small
int is in the pool: a bound such as ``enumerate_classes``' genus would
count up to it.  A call that runs past a deadline counts as a leak, so a
value that makes a call run on cannot stall the test.
"""

from __future__ import annotations

import inspect
import random
import signal
import time
from itertools import product

import pytest

import occob
import occob.sampling
from conftest import star_obj
from occob import Document, OcError, Permutation, identity

HUGE = 10**5000  # an int the interpreter will not write in decimal
DEADLINE_S = 0.1  # per call
BUDGET_S = 2.0  # for the whole sweep


class _Label(str):
    pass


ONE = star_obj("O")
POOL = [
    HUGE,
    [HUGE],
    (HUGE, HUGE),
    [(HUGE, 1)],
    None,
    float("nan"),
    b"in",
    object(),
    _Label("a"),
    ONE,
    identity(ONE),
    Permutation(),
    Document(branes=frozenset({"*"})),
    random.Random(0),
]


def _callables() -> list[tuple[str, object]]:
    found = []
    for module in (occob, occob.sampling):
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value):
                if issubclass(value, BaseException):
                    continue
                for attr, member in inspect.getmembers(value, inspect.ismethod):
                    if not attr.startswith("_") and member.__self__ is value:
                        found.append((f"{name}.{attr}", member))
            elif not inspect.isroutine(value):
                continue  # a type alias or a constant
            found.append((name, value))
    # The methods of the pool's library values, and those values if callable.
    for value in POOL:
        kind = type(value).__name__
        if getattr(occob, kind, None) is not type(value):
            continue
        for attr, member in inspect.getmembers(value, inspect.ismethod):
            if not attr.startswith("_") and member.__self__ is value:
                found.append((f"{kind}().{attr}", member))
        if callable(value):
            found.append((f"{kind}()", value))
    return found


CALLABLES = _callables()


def _arguments(call) -> list[tuple]:
    params = [
        p
        for p in inspect.signature(call).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    required = sum(p.default is p.empty for p in params)
    if required > 3:
        return [(v,) * required for v in POOL]
    return [
        args
        for k in range(required, min(len(params), 3) + 1)
        for args in product(POOL, repeat=k)
    ]


class _Overrun(BaseException):
    """Raised at the deadline; not an ``Exception``, so no handler in the
    library catches it."""


def _overrun(signum, frame):
    raise _Overrun


def _leak(call) -> str | None:
    """The first exception other than an ``OcError`` that ``call`` raises,
    with the types of the arguments that raised it."""
    for args in _arguments(call):
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            call(*args)
        except OcError:
            pass
        except (Exception, _Overrun) as exc:
            kinds = ", ".join(type(a).__name__ for a in args)
            return f"{type(exc).__name__} on ({kinds})"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return None


@pytest.fixture(scope="module")
def sweep() -> tuple[dict[str, str | None], float]:
    """Each callable's leak, or None, and the seconds the sweep took."""
    before = signal.signal(signal.SIGALRM, _overrun)
    start = time.perf_counter()
    try:
        leaks = {name: _leak(call) for name, call in CALLABLES}
    finally:
        signal.signal(signal.SIGALRM, before)
    return leaks, time.perf_counter() - start


@pytest.mark.parametrize("name", [name for name, _ in CALLABLES])
def test_hostile_values_raise_only_oc_errors(sweep, name):
    leaks, _ = sweep
    assert leaks[name] is None


def test_the_sweep_takes_under_two_seconds(sweep):
    _, seconds = sweep
    assert seconds < BUDGET_S
