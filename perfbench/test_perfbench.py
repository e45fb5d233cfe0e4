"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = json.loads(bench.SPEC.read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


bench.load_package()


def one_pass(workload, trace):
    return bench.run(workload, seed=7, seconds=0, trace=trace, min_passes=1)


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (one_pass(w, True), one_pass(w, True)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_single_pass_has_no_errors(workload):
    metrics, details = one_pass(workload, False)
    assert details["failures"] == []
    assert details["error_rate"] == 0
    assert details["correct"]
    for name, entry in bench.select(SPEC, "end_to_end", metrics).items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_calls_and_checksum(traced_twice, workload):
    (m1, d1), (m2, d2) = traced_twice[workload]
    assert d1["correct"] and d2["correct"]
    assert d1["checksum"] == d2["checksum"]
    calls1 = {k: v for k, v in m1.items() if k.endswith(".calls")}
    calls2 = {k: v for k, v in m2.items() if k.endswith(".calls")}
    assert calls1 == calls2
    assert sum(calls1.values()) > 0
    # Every per-layer metric BENCHMARK.json lists is produced.
    assert set(bench.select(SPEC, "per_layer", m1)) == {m["name"] for m in SPEC["per_layer"]}


def test_cli_processes_and_in_process_calls_agree(traced_twice):
    # A traced cli-session calls cli.main in process; its verdicts must
    # match those of the CLI processes an untraced run starts.
    (_, traced), _ = traced_twice["cli-session"]
    _, untraced = one_pass("cli-session", False)
    assert traced["checksum"] == untraced["checksum"]


def test_finite_tables_makes_no_linalg_calls(traced_twice):
    (metrics, _), _ = traced_twice["finite-tables"]
    linalg = {k: v for k, v in metrics.items() if k.startswith("linalg.") and k.endswith(".calls")}
    assert linalg and all(v == 0 for v in linalg.values())
    assert metrics["finite.canonical_form.calls"] > 0


class _Timed:
    def __init__(self, latencies, complete=True):
        self.latencies = latencies
        self.complete = complete


def test_best_latencies_use_a_cut_short_pass():
    passes = [_Timed([3.0, 2.0, 5.0]), _Timed([2.5, 3.0, 4.0]), _Timed([1.0], complete=False)]
    assert bench.best_latencies(passes) == [1.0, 2.0, 4.0]


def test_tail_has_ten_executions_beyond_it():
    assert bench.tail_index(105) == 94
    assert bench.tail_index(5) == 0
