"""Quick self-test of the benchmark at tiny sizes.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cli_corpus  # noqa: E402
import gluing_stream  # noqa: E402
import large_interfaces  # noqa: E402
import run  # noqa: E402


def test_spec_follows_the_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(workload, traced):
    record = run.run(workload, seed=1, seconds=0.01, traced=traced, tiny=True)
    wanted = run.load_spec()["per_layer" if traced else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert record["failed_frac"] == 0, record["failures"]
    assert record["correct"] and record["attempted"] > 0


@pytest.mark.parametrize(
    "workload, module, name, broken",
    [
        ("cli_corpus", cli_corpus, "main", lambda argv: 0),
        ("large_interfaces", large_interfaces, "serialize", lambda doc: ""),
        ("gluing_stream", gluing_stream, "is_isomorphic", lambda a, b: False),
    ],
)
def test_a_wrong_output_counts_as_failed(workload, module, name, broken, monkeypatch):
    monkeypatch.setattr(module, name, broken)
    record = run.run(workload, seed=1, seconds=0.01, traced=False, tiny=True)
    assert 0 < record["failed"] <= record["attempted"]
    assert not record["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli_corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
