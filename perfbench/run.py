"""The repro benchmark: one command, three workloads, every metric checked.

Run from the repository root:

    python3 perfbench/run.py --workload task_chain --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the time untraced, then wraps each layer's public
methods (``perfbench/tracing.py``) and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread: the gradient tasks are the parallelism, and a BLAS pool
# per task would oversubscribe the cores.  Set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
# Set-ups per untraced run; setup_s is their median.  All but the last run
# in child processes, so the measured process's memory holds one cluster.
SETUP_REPEATS = 3
SETUP_CHILD_TIMEOUT_S = 60
# ops_per_s is the median rate over this many equal-count slices of the
# measured phase, so a pause in one slice does not move it.
RATE_SLICES = 5


def pin_to_one_cpu() -> None:
    """Run the whole cluster on one CPU.  The runtime is threads in one
    process that hand the GIL to each other on every wake-up; spread over
    the vCPUs of a shared host, each hand-off to another vCPU waits until
    the hypervisor runs it, so the rate followed the host's load (up to 2x
    between runs) instead of the code.  Threads and child processes inherit
    the affinity of their creator, so this is set before any exists."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_repro():
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {source}")
    sys.path.insert(0, str(source))


_import_repro()

import numpy as np  # noqa: E402

import repro  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, PhaseResult, set_hop_delay  # noqa: E402


def setup(workload) -> float:
    """``repro.init`` through deploy and warm-up to the first verified op.
    Returns the seconds it took; raises if any warm-up op is wrong."""
    start = time.perf_counter()
    repro.init(**workload.init_options)
    set_hop_delay(workloads.HOP_DELAY_S)
    workload.start()
    for index in range(workload.warmup_ops + 1):
        if not workload.op(index):
            raise RuntimeError(f"{workload.name}: warm-up op {index} returned a wrong value")
    return time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    """One set-up in a fresh process (``--setup-only``); its seconds."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{name}: set-up failed in a child process:\n{out.stderr[-2000:]}")
    return float(out.stdout.strip().splitlines()[-1])


def median_rate(result: PhaseResult) -> float:
    """Verified ops per second: the median over RATE_SLICES consecutive
    slices (equal op counts, in completion order) of each slice's rate."""
    ends = sorted(r.end for r in result.records)
    ok_ends = sorted(r.end for r in result.records if r.ok)
    start = min(r.due for r in result.records)
    slices = min(RATE_SLICES, len(ends))
    rates = []
    for k in range(slices):
        lo = start if k == 0 else ends[len(ends) * k // slices - 1]
        hi = ends[len(ends) * (k + 1) // slices - 1]
        if hi > lo:
            rates.append(sum(1 for t in ok_ends if lo < t <= hi) / (hi - lo))
    return statistics.median(rates)


def end_to_end(workload, result: PhaseResult, setup_times) -> dict:
    ok = [r for r in result.records if r.ok]
    latencies_ms = np.array([(r.end - r.due) * 1e3 for r in ok])
    if not len(latencies_ms):
        raise RuntimeError(f"{workload.name}: no op completed correctly")
    within_slo = int(np.sum(latencies_ms <= workload.slo_ms))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "op_tail_ms": (float(np.percentile(latencies_ms, workload.tail_percentile)), "ms"),
        "ops_per_s": (median_rate(result), "1/s"),
        "ok_share": (len(ok) / result.attempted, "share"),
        "slo_share": (within_slo / result.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def quiescence(runtime) -> dict:
    """What a finished run must not leave behind, read before shutdown."""
    pins = 0
    for node in runtime.nodes():
        pins += sum(1 for oid in node.store.object_ids() if node.store.is_pinned(oid))
    return {
        "core.runtime.backstop_recoveries": (runtime.wait_stats.backstop_recoveries, "count"),
        "core.object_store.pinned_after_run": (pins, "count"),
        "gcs.rows_after_run": (runtime.gcs.kv.num_entries(), "count"),
    }


def threads_leaked(threads_before: int, grace_s: float = 2.0) -> int:
    """Threads alive after ``shutdown`` beyond those before ``init``.
    Worker threads exit just after shutdown returns, so wait briefly."""
    deadline = time.perf_counter() + grace_s
    while threading.active_count() > threads_before and time.perf_counter() < deadline:
        time.sleep(0.01)
    return max(0, threading.active_count() - threads_before)


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_times = []
    if not traced:
        for _ in range(SETUP_REPEATS - 1):
            setup_times.append(setup_in_child(name, seed))
    workload = WORKLOADS[name](seed)
    threads_before = threading.active_count()
    setup_times.append(setup(workload))
    index = workload.warmup_ops + 1
    try:
        if traced:
            import tracing

            untraced = workload.run_phase(seconds / 2, index)
            result, metrics = tracing.traced_phase(
                workload, seconds / 2, index + untraced.attempted, untraced
            )
            metrics.update(quiescence(repro.get_runtime()))
            attempted = untraced.attempted + result.attempted
            failed = untraced.failed + result.failed
        else:
            result = workload.run_phase(seconds, index)
            metrics = end_to_end(workload, result, setup_times)
            attempted, failed = result.attempted, result.failed
    finally:
        repro.shutdown()
    if traced:
        metrics["bench.threads_leaked"] = (threads_leaked(threads_before), "count")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if args.setup_only:
        try:
            print(setup(WORKLOADS[args.workload](args.seed)))
        finally:
            repro.shutdown()
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
