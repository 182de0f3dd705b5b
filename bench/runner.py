"""Timing and tracing of workload operations.

A workload is a list of *items*.  An item is a callable taking a runner;
it makes one or more operations through the runner and checks their
outputs against answers the benchmark derived itself.

``Runner`` times each operation with ``time.perf_counter`` and, given a
``SpeedClock``, scales the time to a reference machine speed.
``TracedRunner`` runs the same items but records a span around
every call the benchmark makes into a library module.  Spans are kept
in memory as ``Span`` records and written out once the run ends.

Spans never nest in time: the benchmark's calls into the library are
sequential.  Where a public function calls another public function
internally (``parse`` calls ``validate``, ``serialize`` calls
``canonicalize``, ...), the traced runner calls the inner function again,
directly, on the same input right after the outer call returns, and
records that *inner* span as a child of the outer one.  A span's self
time is its duration minus the durations of its children (never below
zero), so the inner share is subtracted from the caller and charged to
the callee.  ``INNER`` below lists those internal calls.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from occob.calculus import compose, make_T, realize
from occob.classify import canonicalize
from occob.errors import CompositionError, DslSyntaxError, OcError
from occob.objects import GeneralObject, Permutation
from occob.surfaces import Mixed, boundary_permutation, validate


class ItemAborted(Exception):
    """An operation raised; the rest of its item cannot run."""


# ---------------------------------------------------------------------------
# machine speed


def _kernel_step(d: dict, key: tuple, value: int) -> tuple:
    d[key] = d.get(key, 0) + value
    return key


def _kernel() -> int:
    """Fixed pure-Python work with the library's kind of traffic: calls,
    small tuples and lists, dict updates, a keyed sort."""
    d: dict = {}
    rows = []
    for i in range(200):
        key = (i % 17, i % 5)
        _kernel_step(d, key, i)
        rows.append([key, str(i)])
    rows.sort(key=lambda row: row[0])
    return len({k: v for k, v in d.items() if v % 2}) + len(rows)


def _kernel_s() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


# Least time of ``_kernel`` on an otherwise idle 2-vCPU Xeon (Sapphire
# Rapids) KVM guest under CPython 3.11.
REF_KERNEL_S = 120e-6


class SpeedClock:
    """Samples how fast the machine runs this process, between library
    calls, with ``_kernel``.

    On a shared host the same code runs up to twice as slow for seconds at
    a time while other tenants load the core.  The kernel never changes,
    so an operation timed at ``t`` seconds between kernel samples of mean
    ``k`` seconds would take ``t * REF_KERNEL_S / k`` on the reference
    machine; that is the time the benchmark reports.  The time spent in
    samples is taken out of the operations around them.
    """

    EVERY = 0.005  # seconds between samples

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        t0 = perf_counter()
        if t0 < self._next and not force:
            return
        self.samples.append(min(_kernel_s(), _kernel_s()))
        t1 = perf_counter()
        self.spent += t1 - t0
        self._next = t1 + self.EVERY

    def scale(self, first: int, last: int) -> float:
        """``REF_KERNEL_S`` over the mean of samples first..last."""
        return REF_KERNEL_S / statistics.fmean(self.samples[first:last + 1])


class Runner:
    """Times operations; counts attempted and failed ones.

    With a ``SpeedClock`` each duration is scaled to the reference
    machine once ``end_pass`` has taken the sample that follows it.
    """

    traced = False

    def __init__(self, clock: SpeedClock | None = None) -> None:
        self.clock = clock
        self.durations: list[float] = []  # of the operations since new_pass()
        self._raw: list[tuple[float, int, int]] = []  # seconds, sample range
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.counters: Counter[str] = Counter()

    def new_pass(self) -> None:
        self.durations = []
        self._raw = []

    def end_pass(self) -> None:
        """Scale the pass's durations by the speed sampled around each."""
        if self.clock is None:
            return
        self.clock.tick(force=True)
        self.durations = [t * self.clock.scale(a, b) for t, a, b in self._raw]

    def op(self, name: str, fn: Callable, *args) -> Any:
        """One operation that is a single library call."""
        return self._timed(name, lambda: self.call(name, fn, *args))

    def op_seq(self, name: str, fn: Callable, *args) -> Any:
        """One operation made of several library calls, each made
        through ``self.call`` by ``fn``."""
        return self._timed(name, lambda: fn(*args))

    def call(self, name: str, fn: Callable, *args) -> Any:
        """A library call inside an ``op_seq`` operation."""
        if self.clock is not None:
            self.clock.tick()
        return fn(*args)

    def check(self, ok: bool, message: str) -> None:
        """Mark the latest operation failed when an output check fails."""
        if not ok:
            self._fail(message)

    def _timed(self, name: str, thunk: Callable[[], Any]) -> Any:
        clock, first, spent = self.clock, 0, 0.0
        if clock is not None:
            clock.tick()
            first, spent = len(clock.samples) - 1, clock.spent
        t0 = perf_counter()
        try:
            result = thunk()
        except Exception as exc:
            self._record(perf_counter() - t0, clock, first, spent)
            self._fail(f"{name} raised {exc!r}")
            raise ItemAborted from exc
        self._record(perf_counter() - t0, clock, first, spent)
        return result

    def _record(self, seconds, clock, first, spent) -> None:
        self.attempted += 1
        if clock is None:
            self.durations.append(seconds)
        else:  # up to the first sample after the operation
            self._raw.append((seconds - (clock.spent - spent), first,
                              len(clock.samples)))

    def _fail(self, message: str) -> None:
        index = self.attempted - 1
        if index not in self.failed_ops:
            self.failed_ops.add(index)
            if len(self.failures) < 20:
                self.failures.append(message)


def run_items(runner: Runner, items: list[Callable]) -> None:
    for item in items:
        try:
            item(runner)
        except ItemAborted:
            pass
        except Exception as exc:  # a check could not read a wrong output
            runner.check(False, f"checking the output raised {exc!r}")


# ---------------------------------------------------------------------------
# tracing


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    inner: bool  # re-times a call the parent makes internally
    calls: int  # library calls the span covers (batched calls > 1)
    size: int  # work count for throughput rates (bytes, circles, entries)
    tag: tuple | None  # (shape, n) of a size sweep, else None

    @property
    def dur(self) -> float:
        return self.end - self.start


class TracedRunner(Runner):
    """Runs items with a span around every library call."""

    traced = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.tag: tuple | None = None
        self._parent: int | None = None
        self._last_root: int | None = None

    def call(self, name: str, fn: Callable, *args) -> Any:
        return self._span(name, fn, args, inner=False)

    def inner(self, name: str, fn: Callable, *args, calls: int = 1) -> Any:
        """Re-time a call made internally by the current parent span.

        Domain errors (``OcError``) are counted and give ``None``.
        """
        try:
            return self._span(name, fn, args, inner=True, calls=calls)
        except OcError:
            return None

    @contextmanager
    def replay(self):
        """Make the following ``inner`` calls children of the last
        top-level span, e.g. the library work a ``cli.main`` call did."""
        saved, self._parent = self._parent, self._last_root
        try:
            yield
        finally:
            self._parent = saved

    def _span(self, name, fn, args, inner, calls=1):
        parent = self._parent if inner else None
        sid = len(self.spans)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            t1 = perf_counter()
            self.spans.append(Span(name, t0, t1, parent, inner, calls, 0, self.tag))
            if isinstance(exc, DslSyntaxError) and name == "dsl.parse":
                self.counters["dsl.syntax_errors"] += 1
            if isinstance(exc, CompositionError) and name == "calculus.compose":
                self.counters["calculus.compose.rejected"] += 1
            raise
        t1 = perf_counter()
        size = SIZE[name](args) if name in SIZE else 0
        self.spans.append(Span(name, t0, t1, parent, inner, calls, size, self.tag))
        if not inner:
            self._last_root = sid
        retime = INNER.get(name)
        if retime is not None:
            saved, self._parent = self._parent, sid
            try:
                retime(self, args, result)
            finally:
                self._parent = saved
        return result


# Internal calls of the public functions, re-timed on the same input.


def _objects_of(r: TracedRunner, doc) -> None:
    for obj in doc.objects.values():
        r.inner("objects.Permutation.from_cycles", Permutation.from_cycles,
                obj.sigma.cycles(), obj.interval_indices)
        r.inner("objects.GeneralObject.init", GeneralObject,
                obj.branes, obj.entries, obj.sigma)


def _document_read(r: TracedRunner, args, doc) -> None:
    _objects_of(r, doc)
    for d in doc.cobordisms.values():
        r.inner("surfaces.validate", validate, d.cobordism)


def _document_written(r: TracedRunner, args, _out) -> None:
    for d in args[0].cobordisms.values():
        r.inner("classify.canonicalize", canonicalize, d.cobordism)


def _sigma_calls(obj: GeneralObject) -> list[int]:
    return [obj.sigma(x) for x in obj.sigma.domain]


def _realize(r: TracedRunner, args, _out) -> None:
    obj = args[0]
    r.inner("objects.Permutation.call", _sigma_calls, obj, calls=len(obj.sigma))


def _stabilize(r: TracedRunner, args, _out) -> None:
    c = args[0]
    r.inner("calculus.compose", compose, make_T(c.target.branes), c)


def _pullback(r: TracedRunner, args, _out) -> None:
    c, tau = args
    anchored = GeneralObject(c.target.branes, c.target.entries, tau)
    rebased = type(c)(c.source, anchored, c.components)
    top = r.inner("calculus.realize", realize, anchored)
    glued = r.inner("calculus.compose", compose, top, rebased)
    r.inner("surfaces.boundary_permutation", boundary_permutation, glued)


def _is_isomorphic(r: TracedRunner, args, _out) -> None:
    for c in args:
        r.inner("classify.canonicalize", canonicalize, c)


def _enumerate(r: TracedRunner, args, forms) -> None:
    r.inner("calculus.realize", realize, args[0])
    for form in forms:
        r.inner("classify.canonicalize", canonicalize, form.cobordism)


INNER: dict[str, Callable] = {
    "dsl.parse": _document_read,
    "dsl.from_json": _document_read,
    "dsl.serialize": _document_written,
    "dsl.to_json": _document_written,
    "calculus.realize": _realize,
    "calculus.stabilize": _stabilize,
    "calculus.pullback": _pullback,
    "classify.is_isomorphic": _is_isomorphic,
    "classify.enumerate_classes": _enumerate,
}


def _circle_count(args) -> int:
    return sum(len(comp.boundary) for comp in args[0].components)


def _entry_count(args) -> int:
    return sum(
        len(circ.cycle) if isinstance(circ, Mixed) else 1
        for comp in args[0].components
        for circ in comp.boundary
    )


SIZE: dict[str, Callable] = {
    "dsl.parse": lambda args: len(args[0].encode()),
    "surfaces.validate": _circle_count,
    "classify.canonicalize": _entry_count,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def loglog_slope(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log(time) against log(n)."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class SpanStats:
    """Per-function aggregates over a traced run's spans."""

    def __init__(self, spans: list[Span]) -> None:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.dur
        self.by_name: dict[str, list[tuple[Span, float]]] = {}
        # An inner call re-timed slower than its caller (noise, when the
        # caller does little else) leaves the caller no self time.
        for s, children in zip(spans, child_time):
            self.by_name.setdefault(s.name, []).append((s, max(0.0, s.dur - children)))
        self.root_time = sum(s.dur for s in spans if s.parent is None)
        self.inner_time = sum(s.dur for s in spans if s.inner)

    def _of(self, name: str) -> list[tuple[Span, float]]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return sum(s.calls for s, _ in self._of(name))

    def busy(self, name: str) -> float:
        """Self time: span durations minus their children's."""
        return sum(self_t for _, self_t in self._of(name))

    def inclusive(self, name: str) -> float:
        return sum(s.dur for s, _ in self._of(name))

    def p50_us(self, name: str) -> float:
        durs = [s.dur / s.calls for s, _ in self._of(name) if s.calls]
        return statistics.median(durs) * 1e6 if durs else 0.0

    def rate(self, name: str) -> float:
        """Work counted by ``SIZE`` per second of self time."""
        busy = self.busy(name)
        size = sum(s.size for s, _ in self._of(name))
        return size / busy if busy > 0 else 0.0

    def slopes(self, name: str) -> dict[str, float]:
        """Log-log slope of inclusive time against n, per swept shape.

        Inclusive time is what a caller of the function waits for, so an
        inner call that grows fast shows in its callers too.
        """
        per_point: dict[str, dict[int, float]] = {}
        for s, _ in self._of(name):
            if s.tag is not None:
                shape, n = s.tag
                point = per_point.setdefault(shape, {})
                point[n] = point.get(n, 0.0) + s.dur
        out = {}
        for shape, point in per_point.items():
            slope = loglog_slope(sorted(point.items()))
            if slope is not None:
                out[shape] = slope
        return out

    def slope(self, name: str) -> float:
        """The steepest per-shape slope; 0 when the run swept no size."""
        return max(self.slopes(name).values(), default=0.0)
