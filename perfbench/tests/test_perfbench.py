"""Tests of the benchmark itself (not of repro).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

import repro  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(name: str, trace: int, seconds: float = 1.0, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_metric_with_its_unit(name, trace, section):
    result = _bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    a, b = workloads.ServeBursty(7), workloads.ServeBursty(7)
    assert a.schedule(4.0) == b.schedule(4.0)
    x, y = workloads.PsSgd(7).inputs, workloads.PsSgd(7).inputs
    assert np.array_equal(x["weights"], y["weights"])
    for (xa, ya), (xb, yb) in zip(x["shards"], y["shards"]):
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert workloads.TaskChain(7).inputs == workloads.TaskChain(7).inputs


def test_other_seed_changes_inputs_not_op_counts():
    a, b = workloads.ServeBursty(7).schedule(4.0), workloads.ServeBursty(8).schedule(4.0)
    assert len(a) == len(b)
    assert [phase for _, _, phase in a] == [phase for _, _, phase in b]
    assert [t for t, _, _ in a] != [t for t, _, _ in b]
    assert len({payload for _, payload, _ in a}) == len(a)
    x, y = workloads.PsSgd(7).inputs, workloads.PsSgd(8).inputs
    assert len(x["shards"]) == len(y["shards"])
    assert x["weights"].shape == y["weights"].shape
    assert not np.array_equal(x["weights"], y["weights"])
    p, q = workloads.TaskChain(7).inputs["values"], workloads.TaskChain(8).inputs["values"]
    assert len(p) == len(q) and p != q


def test_serve_schedule_alternates_quiet_and_burst_rates():
    schedule = workloads.ServeBursty(1).schedule(4.0)
    counts = {}
    for t, _, phase in schedule:
        counts[(int(t), phase)] = counts.get((int(t), phase), 0) + 1
    assert counts == {(0, "quiet"): 20, (1, "burst"): 600, (2, "quiet"): 20, (3, "burst"): 600}


@pytest.fixture
def cluster():
    yield
    repro.shutdown()


def test_wrong_task_result_is_counted_failed(cluster, monkeypatch):
    workload = workloads.TaskChain(1)
    run.setup(workload)

    @repro.remote
    def off_by_two(x):
        return x + 2

    monkeypatch.setattr(workloads, "increment", off_by_two)
    result = workload.run_phase(0.2, 100)
    assert result.attempted >= 1 and result.failed == result.attempted


def test_corrupted_sgd_reference_fails_the_check(cluster):
    workload = workloads.PsSgd(1)
    run.setup(workload)
    # Advance the reference through the warm-up, then corrupt one value.
    workload.check_after(workloads.PhaseResult())
    workload.reference[0, 0] += 1e-3
    result = workload.run_phase(0.3, workload.warmup_ops + 1)
    assert result.attempted >= 1
    assert result.failed >= 1
    assert not result.records[-1].ok


def test_wrong_serve_reply_is_counted_failed(cluster, monkeypatch):
    workload = workloads.ServeBursty(1)
    run.setup(workload)
    monkeypatch.setattr(workloads.ServeBursty, "schedule",
                        lambda self, seconds: [(0.001 * i, 10 + i, "quiet") for i in range(5)])
    expected = workload.run_phase(1.0, 0)
    assert expected.failed == 0
    monkeypatch.setattr(workloads.Model, "handle_batch",
                        lambda self, payloads: [p * 3 for p in payloads])
    result = workload.run_phase(1.0, 0)
    assert result.attempted == 5 and result.failed == 5
