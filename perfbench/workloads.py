"""The benchmark's three workloads, driven only through the public repro API.

Each workload turns a seed into its inputs (``make_inputs``), brings up a
cluster (``start``), and performs operations ("ops") whose results it
checks.  ``perfbench/run.py`` times them; ``perfbench/tracing.py`` wraps the
layers underneath in the traced run.

Every workload prices a GCS chain hop at ``HOP_DELAY_S`` (the paper's
remote control-store round-trip), set right after ``repro.init``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from repro import serve
from repro.common.errors import ReproError
from repro.serve.deployment import get_plane

HOP_DELAY_S = 0.001


@dataclass
class OpRecord:
    """One op: when it was due, when it completed, and whether its result
    was verified correct.  Closed loops are due when they are issued."""

    due: float
    end: float
    ok: bool
    phase: str = ""


@dataclass
class PhaseResult:
    records: List[OpRecord] = field(default_factory=list)
    # Open loop only: how late each request was sent after its due time.
    send_lag: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)


# (kind, start, end, key) of the benchmark's own task and method bodies.
# The traced run sets a list here for its traced phase only.
BODIES: Optional[List[tuple]] = None


def _log_body(kind: str, start: float, key: Any = None) -> None:
    log = BODIES
    if log is not None:
        log.append((kind, start, time.perf_counter(), key))


def seeded_ints(seed: int, count: int = 1 << 15) -> List[int]:
    """Task arguments; op ``i`` uses them cyclically from index ``i``."""
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, 1 << 30, count)]


def set_hop_delay(hop_delay: float) -> None:
    """Price every GCS chain hop at ``hop_delay`` seconds."""
    for shard in repro.get_runtime().gcs.kv.shards:
        shard.hop_delay = hop_delay


# ---------------------------------------------------------------------------
# Task bodies and actors (module level so the runtime can name them)
# ---------------------------------------------------------------------------


@repro.remote
def increment(x):
    start = time.perf_counter()
    out = x + 1
    _log_body("task", start)
    return out


@repro.remote
def gradient(weights, features, targets):
    """Least-squares gradient of one data shard: X^T (X W - Y) / m."""
    start = time.perf_counter()
    out = features.T @ (features @ weights - targets) / features.shape[0]
    _log_body("task", start)
    return out


def apply_gradients(weights: np.ndarray, grads, learning_rate: float) -> np.ndarray:
    """The one update rule, shared by the actor and the local reference."""
    total = grads[0].copy()
    for grad in grads[1:]:
        total += grad
    return weights - learning_rate * total / len(grads)


@repro.remote
class ParameterServer:
    def __init__(self, weights, learning_rate):
        self.weights = weights
        self.learning_rate = learning_rate

    def get_weights(self):
        start = time.perf_counter()
        out = self.weights
        _log_body("get_weights", start)
        return out

    def apply(self, *grads):
        start = time.perf_counter()
        self.weights = apply_gradients(self.weights, grads, self.learning_rate)
        checksum = float(self.weights.sum())
        _log_body("apply", start)
        return checksum


SERVE_BASE_S = 0.003
SERVE_PER_ITEM_S = 0.00015


class Model:
    """The served model: sleeps like a batched kernel, returns payload x 2."""

    def handle_batch(self, payloads):
        start = time.perf_counter()
        time.sleep(SERVE_BASE_S + SERVE_PER_ITEM_S * len(payloads))
        out = [p * 2 for p in payloads]
        _log_body("batch", start, tuple(payloads))
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A named workload: cluster shape, seeded inputs, op, and checks."""

    name = ""
    init_options: Dict[str, Any] = {}
    warmup_ops = 0
    # The op-latency percentile reported as op_tail_ms.  p90 keeps at least
    # 10 samples beyond it on every workload in a 25 s run; higher
    # percentiles moved by 30-50% between runs on a shared 2-core host.
    tail_percentile = 90.0
    # Latency limit for slo_share, measured from each op's due time.
    slo_ms = 50.0

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def start(self) -> None:
        """After ``repro.init``: create actors/deployments the ops use."""

    def op(self, index: int) -> bool:
        """Run op ``index`` and return whether its result is correct."""
        raise NotImplementedError

    def check_after(self, result: PhaseResult) -> None:
        """Checks that need the whole phase; marks wrong ops not ok."""

    def routers(self) -> List[Any]:
        """The serve routers the ops go through (for the traced run)."""
        return []

    def run_phase(self, seconds: float, first_index: int) -> PhaseResult:
        """Closed loop: the next op starts when the previous one ends."""
        result = PhaseResult()
        records = result.records
        index = first_index
        now = time.perf_counter()
        deadline = now + seconds
        while now < deadline:
            try:
                ok = self.op(index)
            except ReproError:
                ok = False
            end = time.perf_counter()
            records.append(OpRecord(now, end, ok))
            now = end
            index += 1
        self.check_after(result)
        return result


class TaskChain(Workload):
    """Sequential ``f.remote(x)`` + ``get``: one task per op."""

    name = "task_chain"
    init_options = dict(num_nodes=1, num_cpus_per_node=2)
    warmup_ops = 50

    def make_inputs(self, seed):
        return {"values": seeded_ints(seed)}

    def op(self, index):
        values = self.inputs["values"]
        x = values[index % len(values)]
        return repro.get(increment.remote(x)) == x + 1


class PsSgd(Workload):
    """Fig. 13 pattern: a parameter-server actor, 4 gradient tasks/round."""

    name = "ps_sgd"
    init_options = dict(
        num_nodes=2,
        num_cpus_per_node=2,
        object_store_capacity_bytes=128 * 1024 * 1024,
        spillback_threshold=1,
    )
    warmup_ops = 3
    slo_ms = 250.0
    dim = 512  # 512 x 512 float64 weights: 2 MB
    shard_rows = 64
    num_shards = 4
    learning_rate = 0.05

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((self.dim, self.dim)) * 0.01
        shards = [
            (
                rng.standard_normal((self.shard_rows, self.dim)),
                rng.standard_normal((self.shard_rows, self.dim)),
            )
            for _ in range(self.num_shards)
        ]
        return {"weights": weights, "shards": shards}

    def start(self):
        self.ps = ParameterServer.remote(
            self.inputs["weights"].copy(), self.learning_rate
        )
        self.shard_refs = [
            (repro.put(x), repro.put(y)) for x, y in self.inputs["shards"]
        ]
        # Checksums returned by apply(), in round order, and the local
        # reference weights after ``reference_rounds`` rounds.
        self.checksums: List[float] = []
        self.reference = self.inputs["weights"].copy()
        self.reference_rounds = 0

    def op(self, index):
        weights = self.ps.get_weights.remote()
        grads = [gradient.remote(weights, x, y) for x, y in self.shard_refs]
        checksum = repro.get(self.ps.apply.remote(*grads))
        self.checksums.append(checksum)
        # The value is checked against the numpy reference in check_after.
        return isinstance(checksum, float)

    def check_after(self, result):
        """Advance the local numpy reference through every round run so
        far.  A round whose checksum differs from the reference's fails;
        so does the last round if the actor's final weights differ."""
        first_measured = len(self.checksums) - result.attempted
        for r in range(self.reference_rounds, len(self.checksums)):
            grads = [x.T @ (x @ self.reference - y) / x.shape[0] for x, y in self.inputs["shards"]]
            self.reference = apply_gradients(self.reference, grads, self.learning_rate)
            if not np.isclose(self.checksums[r], float(self.reference.sum()), rtol=1e-9, atol=1e-9):
                if r < first_measured:
                    raise RuntimeError(f"{self.name}: warm-up round {r} returned wrong weights")
                result.records[r - first_measured].ok = False
        self.reference_rounds = len(self.checksums)
        final = repro.get(self.ps.get_weights.remote())
        if result.records and not np.allclose(final, self.reference, rtol=1e-9, atol=1e-12):
            result.records[-1].ok = False


class ServeBursty(Workload):
    """Open loop: seeded Poisson arrivals, 1 s quiet then 1 s burst."""

    name = "serve_bursty"
    init_options = dict(num_nodes=1, num_cpus_per_node=4)
    warmup_ops = 32
    # Beyond p75 the latency of this near-saturated pipeline stretches by
    # about twice the host's slowdown, so p90 moved by 26-45% between runs.
    tail_percentile = 75.0
    quiet_rate = 20.0
    burst_rate = 600.0
    period_s = 1.0
    reply_timeout_s = 10.0

    def make_inputs(self, seed):
        return {}

    def schedule(self, seconds: float) -> List[tuple]:
        """(due offset, payload, phase) of every request in ``seconds``.

        Each 1 s period holds exactly rate x 1 s arrivals placed uniformly
        at random: a Poisson process conditioned on its count, so the seed
        moves the arrival times but not the number of requests."""
        rng = np.random.default_rng([self.seed, int(seconds * 1000)])
        out = []
        periods = int(np.ceil(seconds / self.period_s))
        for p in range(periods):
            burst = p % 2 == 1
            rate = self.burst_rate if burst else self.quiet_rate
            length = min(self.period_s, seconds - p * self.period_s)
            count = int(round(rate * length))
            offsets = np.sort(rng.uniform(0.0, length, count)) + p * self.period_s
            phase = "burst" if burst else "quiet"
            out.extend((float(t), phase) for t in offsets)
        # Distinct payloads, so a reply (and a traced batch) names its request.
        payloads = rng.choice(1 << 24, size=len(out), replace=False)
        return [(t, int(v), phase) for (t, phase), v in zip(out, payloads)]

    def start(self):
        deployment = serve.deployment(
            num_replicas=2,
            max_batch_size=8,
            batch_wait_timeout_s=0.02,
            name="bench_model",
        )(Model)
        self.handle = deployment.deploy()

    def routers(self):
        return [get_plane(repro.get_runtime()).get(self.handle.name).router]

    def op(self, index):
        payload = index
        return self.handle.query(payload, timeout=self.reply_timeout_s) == payload * 2

    def run_phase(self, seconds, first_index):
        """One generator thread sends on schedule; one collector thread
        gathers replies in send order.  Each request is timed from its
        due time, so a stalled generator counts against latency."""
        schedule = self.schedule(seconds)
        self.op_of_payload = {payload: i for i, (_, payload, _) in enumerate(schedule)}
        result = PhaseResult(records=[None] * len(schedule))
        sent: List[tuple] = []
        cond = threading.Condition()
        done = [False]
        origin = time.perf_counter() + 0.05

        def generate():
            try:
                for index, (offset, payload, phase) in enumerate(schedule):
                    due = origin + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    send = time.perf_counter()
                    result.send_lag.append(send - due)
                    try:
                        future = self.handle.submit(payload)
                    except ReproError:  # shed (BackpressureError) or refused
                        future = None
                    with cond:
                        sent.append((index, due, payload, phase, future))
                        cond.notify()
            finally:
                # Always release the collector, or it would wait forever.
                with cond:
                    done[0] = True
                    cond.notify()

        def collect():
            taken = 0
            while True:
                with cond:
                    while taken >= len(sent) and not done[0]:
                        cond.wait()
                    if taken >= len(sent):
                        return
                    index, due, payload, phase, future = sent[taken]
                taken += 1
                ok = False
                if future is not None:
                    try:
                        ok = future.result(self.reply_timeout_s) == payload * 2
                    except ReproError:
                        ok = False
                result.records[index] = OpRecord(due, time.perf_counter(), ok, phase)

        threads = [
            threading.Thread(target=generate, name="bench-generator"),
            threading.Thread(target=collect, name="bench-collector"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return result


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (TaskChain, PsSgd, ServeBursty)
}
