"""Smoke test of the end-to-end benchmark at a 20k-instruction trace.

Run with ``python -m pytest benchmarks/e2e/test_bench_e2e.py``.  The two
benchmark invocations take about a minute together; the span tests are
instant.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench import WORKLOADS, verdict  # noqa: E402
from spans import layer_metrics, read_jsonl, self_times, write_jsonl  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SMOKE = [sys.executable, str(HERE / "bench.py"), "--trace-len", "20000",
         "--reps", "1"]


def bench(*args):
    return subprocess.run(SMOKE + list(args), capture_output=True,
                          text=True, timeout=900)


@pytest.fixture(scope="module")
def traced():
    return bench("--trace", "1")


def test_every_metric_is_printed_once_per_workload_with_its_unit(traced):
    assert traced.returncode == 0, traced.stderr
    lines = [line.split() for line in traced.stdout.splitlines()]
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            hits = [line for line in lines
                    if line[:2] == [workload, metric["name"]]]
            assert len(hits) == 1, (workload, metric["name"])
            assert hits[0][3] == metric["unit"]
    result = json.loads(traced.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        f"{workload}.{metric['name']}"
        for workload in WORKLOADS for metric in SPEC["per_layer"]
    }


def test_a_tampered_golden_digest_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["grid_wide"]["20000:1234"]["database"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    run = bench("--workload", "grid_wide", "--golden", str(path))
    assert run.returncode != 0
    result = json.loads(run.stdout.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "error_rate=0.3333" in run.stdout


def _span(ident, parent, name, start, end, **attrs):
    return {"id": ident, "parent": parent, "name": name, "start": start,
            "end": end, "attrs": attrs}


SPANS = [
    _span(0, None, "harness.run", 0.0, 10.0),
    _span(1, 0, "analysis.sweep.sweep", 1.0, 4.0),
    _span(2, 1, "core.ckernel.run_plan", 2.0, 3.0, configs=30),
    _span(3, 1, "core.ckernel.run_plan", 2.5, 3.5, configs=10),
    _span(4, 0, "analysis.sweep.sweep", 6.0, 7.0),
]


def test_self_time_subtracts_the_union_of_child_spans():
    assert self_times(SPANS) == {0: 6.0, 1: 1.5, 2: 1.0, 3: 1.0, 4: 1.0}
    metrics = layer_metrics(SPANS, [
        "analysis.sweep.sweep.calls", "analysis.sweep.sweep.self_s",
        "core.ckernel.run_plan.configs", "core.ckernel.ms_per_config",
        "core.kernel_share", "harness.unattributed_s",
        "harness.traced_wall_s", "harness.trace_overhead",
    ], {"harness.trace_overhead": 1.25})
    assert metrics == {
        "analysis.sweep.sweep.calls": 2,
        "analysis.sweep.sweep.self_s": 2.5,
        "core.ckernel.run_plan.configs": 40,
        "core.ckernel.ms_per_config": 50.0,
        "core.kernel_share": 1.0,
        "harness.unattributed_s": 6.0,
        "harness.traced_wall_s": 10.0,
        "harness.trace_overhead": 1.25,
    }


def test_span_file_round_trips(tmp_path):
    path = tmp_path / "spans.jsonl"
    write_jsonl(SPANS, path)
    assert read_jsonl(path) == SPANS


def test_verdicts():
    before = {seed: 10.0 + 0.1 * seed for seed in range(10)}
    faster = {seed: value * 0.8 for seed, value in before.items()}
    slower = {seed: value * 1.2 for seed, value in before.items()}
    noisy = {seed: 10.0 * (1 + (seed % 2)) for seed in range(10)}
    assert verdict(before, faster, "lower", 0.1) == "better"
    assert verdict(before, slower, "lower", 0.1) == "worse"
    assert verdict(before, dict(before), "lower", 0.1) == "unchanged"
    assert verdict(before, noisy, "lower", 0.1) == "unresolved"
