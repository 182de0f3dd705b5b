"""Benchmark of the occob library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from its
``src`` directory, no install needed.  Workloads (see each module):

* ``cli_corpus``: ``occob.cli.main`` in-process on every corpus document.
* ``large_interfaces``: one big document per shape through the library
  pipeline.
* ``gluing_stream``: thousands of small seeded gluing and law operations.

Every workload is a closed loop with one client: one process, one
thread, the next operation starts when the previous one has returned.
The timed phase repeats whole passes over the workload's items until
``--seconds`` have elapsed, so every run sees the same mix.  Each output
is checked against an answer the benchmark derived itself; a failed check
or an unexpected exception counts the operation as failed and the run
goes on.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: importing the library, generating the inputs and warming
  up, repeated ``SETUP_REPEATS`` times; the median.  Each repeat imports
  every ``occob`` module afresh (``import_library_s``).
* ``ops_per_s``: operations per second of time spent in operations.  An
  operation is one ``main`` call, one document pipeline, or one library
  call of the gluing stream; output checks are not timed.
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile operation time
  over the operations of one pass.
* ``peak_rss_mb``: peak resident set size of the process.

Every time above is scaled to a reference machine speed: a fixed
pure-Python kernel is timed every few milliseconds between library calls
(``runner.SpeedClock``), and each operation's time is multiplied by the
kernel's reference time over its time around that operation.  On a
shared host the same code runs up to twice as slow for seconds to minutes
while other tenants load the core; the scaling takes that out, and a
change to the program still shows in full, since the kernel does not use
it.  Every pass runs the same operations, so each operation is timed once
per pass, and the figures use each operation's median over the run's
passes.  Each pass runs on whichever CPU runs the workload's warm-up items
fastest just before it (``settle_on_fastest_cpu``), so that the process
does not move between a loaded and an idle core in the middle of an
operation, between the samples that scale it.

``--trace 1`` makes a separate run that records a span around every call
into a library module (see ``runner.py``) and reports the per-layer
metrics, named ``<module>.<function>.<stat>``:

* ``calls``: library calls, including internal calls the benchmark
  re-times (``runner.INNER``).
* ``busy_s``: self time, span durations minus their children's.
  Where the functions of a layer are not called by a workload, its
  metrics read 0.
* ``p50_us``: median duration of one call, children included.
* ``slope``: log-log slope of time against n over the size sweep of
  ``large_interfaces`` (steepest shape); 0 on workloads without a sweep.
* rates (``kb_per_s``, ``circles_per_s``, ``entries_per_s``): work per
  second of self time.
* ``cli.self_frac``: share of ``main`` time not spent in the library work
  it does, which the traced run times directly.
* ``trace.overhead_frac``: wall time of a traced pass, less the re-timed
  internal calls, over that of an untraced pass of the same items, minus 1.
* ``trace.coverage``: top-level span time over that same traced wall time.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (Python
version, CPU count, platform, seed, commit, per-shape slopes) goes to
``.bench_out/`` in the checkout, with the spans of the latest traced run
of each workload.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli_corpus", "large_interfaces", "gluing_stream")
SETUP_REPEATS = 5

FUNCTIONS = (
    "cli.main",
    "dsl.parse",
    "dsl.serialize",
    "dsl.to_json",
    "dsl.from_json",
    "surfaces.validate",
    "surfaces.boundary_permutation",
    "surfaces.invariant_summary",
    "calculus.compose",
    "calculus.tensor",
    "calculus.pullback",
    "calculus.realize",
    "calculus.stabilize",
    "classify.canonicalize",
    "classify.is_isomorphic",
    "classify.enumerate_classes",
    "objects.Permutation.from_cycles",
    "objects.Permutation.call",
    "objects.GeneralObject.init",
)
COUNTERS = ("cli.exit_mismatch", "dsl.syntax_errors", "calculus.compose.rejected")

# The CPUs this process may run on (a few, to keep probing cheap).
ALLOWED_CPUS = (
    sorted(os.sched_getaffinity(0))[:8] if hasattr(os, "sched_setaffinity") else []
)


def settle_on_fastest_cpu(allowed: list[int], probe) -> None:
    """Pin this process to whichever allowed CPU runs ``probe`` fastest.

    On a shared machine a CPU slows down for seconds to minutes while
    other tenants load the core it shares; choosing again before each pass
    keeps the run on the least loaded one.  Affects only this process.
    """
    if len(allowed) < 2:
        return
    def probe_s() -> float:
        t = time.perf_counter()
        probe()
        return time.perf_counter() - t

    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(probe_s(), probe_s())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(times: list[float], setup_s: float) -> dict[str, float]:
    cuts = statistics.quantiles(times, n=10, method="inclusive") if len(
        times
    ) > 1 else [times[0]] * 9
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(stats, counters, overhead: float, coverage: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for f in FUNCTIONS:
        values[f"{f}.calls"] = stats.calls(f)
        values[f"{f}.busy_s"] = stats.busy(f)
        values[f"{f}.p50_us"] = stats.p50_us(f)
        values[f"{f}.slope"] = stats.slope(f)
    for c in COUNTERS:
        values[c] = counters[c]
    main = stats.inclusive("cli.main")
    values["cli.self_frac"] = stats.busy("cli.main") / main if main else 0.0
    values["dsl.parse.kb_per_s"] = stats.rate("dsl.parse") / 1000
    values["surfaces.validate.circles_per_s"] = stats.rate("surfaces.validate")
    values["classify.canonicalize.entries_per_s"] = stats.rate("classify.canonicalize")
    values["trace.overhead_frac"] = overhead
    values["trace.coverage"] = coverage
    return values


def import_library_s() -> float:
    """Seconds to import every loaded ``occob`` module afresh.

    The fresh copies are dropped again: the run goes on with the modules
    the workload already holds.
    """
    loaded = {name: m for name, m in sys.modules.items()
              if name.split(".")[0] == "occob"}
    for name in loaded:
        del sys.modules[name]
    t = time.perf_counter()
    for name in loaded:
        importlib.import_module(name)
    seconds = time.perf_counter() - t
    sys.modules.update(loaded)
    return seconds


def run(workload: str, seed: int, seconds: float, traced: bool,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the result record."""
    # runner and the workloads import occob, so only once src is on the path
    from runner import Runner, SpanStats, SpeedClock, TracedRunner, run_items

    module = importlib.import_module(workload)
    import_s, reps = [], []
    for _ in range(SETUP_REPEATS):
        items = warmup = None
        gc.collect()
        import_s.append(import_library_s())
        t = time.perf_counter()
        items, warmup = module.setup(seed, traced, tiny)
        run_items(Runner(), warmup)
        reps.append(import_s[-1] + time.perf_counter() - t)
    setup_s = statistics.median(reps)

    # A traced run alternates untraced and traced passes over the same
    # items, so drift in machine speed cancels out of the overhead.
    r = TracedRunner() if traced else Runner(SpeedClock())
    base = Runner()
    base_walls, net_walls = [], []
    # Every pass runs the same operations in the same order; each
    # operation's time is its median over the passes.
    passes: list[array] = []
    pass_s = []
    gc.collect()
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        settle_on_fastest_cpu(ALLOWED_CPUS, lambda: run_items(Runner(), warmup))
        if traced:
            base.new_pass()
            t = time.perf_counter()
            run_items(base, items)
            base_walls.append(time.perf_counter() - t)
            first_span = len(r.spans)
        r.new_pass()
        t = time.perf_counter()
        run_items(r, items)
        wall = time.perf_counter() - t
        r.end_pass()
        pass_s.append(sum(r.durations))
        if passes and len(passes[0]) != len(r.durations):
            passes = []  # an aborted item shifted the rest
        passes.append(array("d", r.durations))
        if traced:
            net_walls.append(wall - sum(s.dur for s in r.spans[first_span:] if s.inner))

    spec = load_spec()
    if traced:
        stats = SpanStats(r.spans)
        overhead = statistics.median(n / b for n, b in zip(net_walls, base_walls)) - 1
        values = per_layer(stats, r.counters, overhead, stats.root_time / sum(net_walls))
        wanted = spec["per_layer"]
    else:
        op_s = [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]
        values = end_to_end(op_s, setup_s)
        wanted = spec["end_to_end"]
    runners = (r, base)
    attempted = sum(x.attempted for x in runners)
    failed = sum(len(x.failed_ops) for x in runners)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "commit": git_commit(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [m for x in runners for m in x.failures][:20],
        "passes": len(pass_s),
        "pass_s": pass_s,
        "import_s": import_s,
        "setup_repeats_s": reps,
        "speed_samples": len(r.clock.samples) if r.clock else 0,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    if traced:
        record["slopes"] = {f: stats.slopes(f) for f in FUNCTIONS if stats.slopes(f)}
        record["spans"] = r.spans
    return record


def write_record(record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{record['workload']}_trace{record['trace']}_seed{record['seed']}"
    spans = record.pop("spans", None)
    if spans is not None:
        # One file per workload, replaced by each traced run, bounds disk use.
        path = OUT / f"spans_{record['workload']}.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.inner,
                                     s.calls, s.size, s.tag]) + "\n")
    (OUT / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "occob" / "__init__.py").is_file() or not (
        ROOT / "corpus" / "roundtrip"
    ).is_dir():
        print(f"error: no occob sources or corpus under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(record)
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['passes']} passes, "
          f"{record['attempted']} operations, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.6g}), commit {record['commit']}")
    for message in record["failures"]:
        print(f"  failed: {message}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
