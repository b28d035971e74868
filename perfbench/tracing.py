"""The traced run: outside-in spans around each layer's public methods.

Nothing in ``repro`` is instrumented for this.  ``traced_phase`` wraps the
public methods of the live layer objects (and a few API classes) after
``init``, runs the workload's measured phase, restores every method, and
turns the spans into the per-layer metrics.  Untraced runs never import
this module, so they carry no wrappers.

A span is (name, start, end, parent, thread).  Each thread keeps its own
stack of open spans, so a span's parent is the innermost wrapped call
that was open on the same thread.  A span's self time is its duration
minus the time its children cover.  Spans are tagged with an op by time
window: the op whose window contains the span's start.  They are kept in
memory and written to ``perfbench/out/spans-<workload>.json`` when the
phase ends.
"""

from __future__ import annotations

import bisect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro
import workloads
from repro import api
from repro.serve.deployment import DeploymentHandle

OUT_DIR = Path(__file__).resolve().parent / "out"
GCS_CALLS = ("gcs.write_batch", "gcs.put", "gcs.append", "gcs.get")
# Threads whose spans lie on an op's own (blocking) path.
OP_THREAD_NAMES = ("MainThread", "bench-generator")


class Span:
    __slots__ = ("name", "parent", "thread", "note", "start", "end", "child",
                 "op", "on_path")

    def __init__(self, name: str, parent: Optional["Span"], thread: int, note: Any):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.note = note
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # seconds covered by child spans
        self.op = -1  # index of the op whose window holds the start
        self.on_path = False  # recorded on the op's own thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Installs and removes method wrappers; collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.thread_names: Dict[int, str] = {}
        self._local = threading.local()
        self._undo: List[tuple] = []

    def wrap(self, owner: Any, attr: str, name: str,
             note: Optional[Callable[[tuple], Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  Works on
        a class (the wrapper binds like the method it replaces), an
        instance, or a module."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        spans, local, names = self.spans, self._local, self.thread_names
        perf_counter, get_ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                names[get_ident()] = threading.current_thread().name
            span = Span(name, stack[-1] if stack else None, get_ident(),
                        note(args) if note is not None else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def finish(self) -> List[Span]:
        """Compute child coverage; returns the spans sorted by start."""
        spans = sorted(self.spans, key=lambda s: s.start)
        for span in spans:
            if span.parent is not None:
                span.parent.child += span.duration
        return spans


def install(tracer: Tracer, runtime: Any, workload: Any) -> None:
    """Wrap the calls into every layer the benchmark's ops reach."""
    # api: the calls the benchmark itself makes.
    tracer.wrap(api.RemoteFunction, "remote", "api.submit")
    tracer.wrap(api.RemoteFunction, "submit_many", "api.submit",
                note=lambda a: len(a[1]))
    tracer.wrap(api.ActorMethod, "remote", "api.submit")
    tracer.wrap(DeploymentHandle, "submit", "api.submit")
    tracer.wrap(repro, "get", "api.get")
    # core.runtime: submission and blocking fetch.
    tracer.wrap(runtime, "submit_task", "core.runtime.submit", note=lambda a: ("task", 1))
    tracer.wrap(runtime, "submit_many", "core.runtime.submit",
                note=lambda a: ("task", len(a[2])))
    tracer.wrap(runtime, "submit_actor_method", "core.runtime.submit",
                note=lambda a: (a[1], a[2][0] if a[2] else None))
    tracer.wrap(runtime, "fetch_to_node", "core.transfer.fetch")
    # gcs: every chain call pays one hop per chain member.
    # The note is the number of keys written.
    for chain in runtime.gcs.kv.shards:
        tracer.wrap(chain, "write_batch", "gcs.write_batch", note=lambda a: len(a[0]))
        tracer.wrap(chain, "put", "gcs.put", note=lambda a: 1)
        tracer.wrap(chain, "append", "gcs.append", note=lambda a: 1)
        tracer.wrap(chain, "get", "gcs.get", note=lambda a: 0)
    # Schedulers, stores, transfer, actors.
    for node in runtime.nodes():
        for attr in ("submit", "submit_many", "place", "place_many"):
            tracer.wrap(node.local_scheduler, attr, "core.local_scheduler.submit")
        tracer.wrap(node.store, "put", "core.object_store.put")
        tracer.wrap(node.store, "load_value", "core.object_store.load_value")
    for scheduler in runtime.global_schedulers:
        tracer.wrap(scheduler, "schedule", "core.global_scheduler.schedule")
    tracer.wrap(runtime.transfer, "transfer", "core.transfer.transfer")
    tracer.wrap(runtime.actors, "submit_method", "core.actor.submit")
    # common.serialization: modules import the functions by name, so wrap
    # each module-level binding of them.
    from repro.common import serialization

    for func in ("serialize", "deserialize"):
        original = getattr(serialization, func)
        for module in list(sys.modules.values()):
            if (module is not serialization
                    and getattr(module, "__name__", "").startswith("repro.")
                    and vars(module).get(func) is original):
                tracer.wrap(module, func, f"common.serialization.{func}")
    # serve: the router's request entry point.
    for router in workload.routers():
        tracer.wrap(router, "submit", "serve.router.submit", note=lambda a: a[0])


def counter_totals(runtime: Any) -> Dict[str, float]:
    """Every counter family's value summed over its label series."""
    totals = {}
    for name, family in runtime.metrics.to_dict().items():
        if family["type"] == "counter":
            totals[name] = sum(row["value"] or 0.0 for row in family["series"])
    return totals


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ms(values) -> float:
    return _mean(values) * 1e3


def traced_phase(workload: Any, seconds: float, first_index: int, untraced: Any):
    """Run ``seconds`` of ``workload`` traced; returns (phase, metrics)."""
    runtime = repro.get_runtime()
    routers = workload.routers()
    before = counter_totals(runtime)
    rows_before = runtime.gcs.kv.num_entries()
    shed_before = sum(router.stats()["shed"] for router in routers)
    tracer = Tracer()
    install(tracer, runtime, workload)
    bodies = workloads.BODIES = []
    try:
        result = workload.run_phase(seconds, first_index)
    finally:
        workloads.BODIES = None
        tracer.uninstall()
    after = counter_totals(runtime)
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    rows = runtime.gcs.kv.num_entries() - rows_before
    shed = sum(router.stats()["shed"] for router in routers) - shed_before

    spans = tracer.finish()
    analysis = Analysis(workload, result, spans, bodies, tracer.thread_names)
    _write_spans(workload, spans, tracer.thread_names)
    m: Dict[str, tuple] = {}
    m.update(analysis.serve(shed))
    m.update(analysis.api())
    m.update(analysis.gcs(rows))
    m.update(analysis.runtime_and_schedulers(delta))
    m.update(analysis.worker_and_actor())
    m.update(analysis.data_plane(delta))
    m["core.reconstruction.tasks_per_op"] = (
        delta.get("reconstruction_tasks_total", 0.0) / analysis.ops, "count")
    m["bench.generator_lag_p99_ms"] = (
        float(np.percentile(result.send_lag, 99)) * 1e3 if result.send_lag else 0.0, "ms")
    m["bench.layer_coverage"] = (analysis.coverage(), "share")
    traced_p50 = _ok_p50(result)
    m["bench.tracing_overhead"] = (
        _ok_p50(untraced) / traced_p50 if traced_p50 else 0.0, "ratio")
    return result, m


def _ok_p50(result: Any) -> float:
    """Median latency of the verified ops.  The untraced-over-traced ratio
    of it is the closed loops' rate ratio, and stays meaningful on the open
    loop, whose rate is set by its schedule."""
    latencies = [r.end - r.due for r in result.records if r.ok]
    return float(np.median(latencies)) if latencies else 0.0


class Analysis:
    """Per-layer metrics from one traced phase's spans and body log."""

    def __init__(self, workload, result, spans, bodies, thread_names):
        self.workload = workload
        self.result = result
        self.ops = max(1, result.attempted)
        op_threads = {
            ident for ident, name in thread_names.items() if name in OP_THREAD_NAMES
        }
        # Op windows run from due time to result.  An event belongs to the
        # latest op started at or before it, if that op's window covers it.
        self.windows = sorted((r.due, r.end, i) for i, r in enumerate(result.records))
        self.starts = [w[0] for w in self.windows]
        for span in spans:
            span.op = self.op_at(span.start)
            span.on_path = span.thread in op_threads
        self.spans = [s for s in spans if s.op >= 0]
        self.by_name: Dict[str, List[Span]] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)
        self.bodies = sorted(bodies, key=lambda b: b[1])
        # Filled by serve(), which runs first: per-request coverage and
        # per-batch mailbox waits of the open loop.
        self.serve_coverage: List[float] = []
        self.batch_mailbox: List[float] = []

    def op_at(self, t: float) -> int:
        k = bisect.bisect_right(self.starts, t) - 1
        return self.windows[k][2] if k >= 0 and t <= self.windows[k][1] else -1

    def named(self, name: str, on_path: Optional[bool] = None) -> List[Span]:
        return [
            s for s in self.by_name.get(name, ())
            if on_path is None or s.on_path == on_path
        ]

    def call_ms(self, name: str, on_path: Optional[bool] = None) -> float:
        """Mean duration of the named calls, in ms."""
        return _ms([s.duration for s in self.named(name, on_path)])

    def api(self):
        # A get's blocked time is its duration minus the non-blocking
        # reads under it (value load, deserialization).
        reads: Dict[int, float] = {}
        for span in self.spans:
            parent = span.parent
            if parent is not None and parent.name == "api.get" and span.name != "core.transfer.fetch":
                reads[id(parent)] = reads.get(id(parent), 0.0) + span.duration
        gets = self.named("api.get", True)
        blocked = sum(g.duration - reads.get(id(g), 0.0) for g in gets)
        return {
            "api.submit_ms": (self.call_ms("api.submit", True), "ms"),
            "api.get_blocked_ms": (blocked * 1e3 / self.ops, "ms"),
        }

    def gcs(self, rows_grown: int):
        calls = [s for name in GCS_CALLS for s in self.named(name)]
        writes = [s.note for s in calls if s.note]
        return {
            "gcs.round_trips_per_op": (len(calls) / self.ops, "count"),
            "gcs.blocking_round_trips_per_op": (
                sum(1 for s in calls if s.on_path) / self.ops, "count"),
            "gcs.round_trip_ms": (_ms([s.duration for s in calls]), "ms"),
            "gcs.keys_per_write": (_mean(writes), "count"),
            "gcs.rows_per_op": (rows_grown / self.ops, "count"),
        }

    def runtime_and_schedulers(self, delta):
        tasks = delta.get("tasks_submitted_total", 0.0)
        share = (lambda n: n / tasks) if tasks else (lambda n: 0.0)
        return {
            "core.runtime.submit_self_ms": (
                _ms([s.self_time for s in self.named("core.runtime.submit")]), "ms"),
            "core.local_scheduler.submit_ms": (
                self.call_ms("core.local_scheduler.submit"), "ms"),
            "core.local_scheduler.fastpath_share": (
                share(delta.get("scheduler_fastpath_total", 0.0)), "share"),
            "core.local_scheduler.spillback_share": (
                share(delta.get("scheduler_spillbacks_total", 0.0)), "share"),
            "core.global_scheduler.schedule_ms": (
                self.call_ms("core.global_scheduler.schedule"), "ms"),
            "core.global_scheduler.decisions_per_op": (
                delta.get("global_scheduler_decisions_total", 0.0) / self.ops, "count"),
        }

    def worker_and_actor(self):
        """Worker and actor timings from the benchmark's own bodies.

        A task body's start delay runs from the return of the submit that
        created it: within one op, submits and bodies are paired in time
        order.  Finish-to-wake runs from an op's last body end to the
        return of its ``get``.  An actor method's mailbox wait runs from
        the return of its submit to its body start, paired per method in
        order (an actor runs its methods in submission order)."""
        submit_ends: Dict[int, List[float]] = {}
        method_submits: Dict[str, List[float]] = {}
        for s in self.named("core.runtime.submit"):
            kind = s.note[0]
            if kind == "task":
                submit_ends.setdefault(s.op, []).extend([s.end] * s.note[1])
            elif kind != "handle_batch":
                method_submits.setdefault(kind, []).append(s.end)
        task_starts: Dict[int, List[float]] = {}
        method_starts: Dict[str, List[float]] = {}
        last_end: Dict[int, float] = {}
        execs = []
        for kind, start, end, _key in self.bodies:
            op = self.op_at(start)
            if op < 0 or kind == "batch":
                continue
            last_end[op] = max(last_end.get(op, 0.0), end)
            if kind == "task":
                task_starts.setdefault(op, []).append(start)
                execs.append(end - start)
            else:
                method_starts.setdefault(kind, []).append(start)
        delays = [
            start - end
            for op, starts in task_starts.items()
            for start, end in zip(starts, sorted(submit_ends.get(op, [])))
        ]
        waits = self.batch_mailbox + [
            start - end
            for kind, starts in method_starts.items()
            for start, end in zip(starts, method_submits.get(kind, []))
        ]
        wakes = [g.end - last_end[g.op] for g in self.named("api.get", True) if g.op in last_end]
        return {
            "core.worker.start_delay_ms": (_ms(delays), "ms"),
            "core.worker.exec_ms": (_ms(execs), "ms"),
            "core.worker.finish_to_wake_ms": (_ms(wakes), "ms"),
            "core.actor.submit_ms": (self.call_ms("core.actor.submit"), "ms"),
            "core.actor.mailbox_wait_ms": (_ms(waits), "ms"),
        }

    def data_plane(self, delta):
        hits = delta.get("value_cache_hits_total", 0.0)
        looked_up = hits + delta.get("value_cache_misses_total", 0.0)
        mb = 1024.0 * 1024.0
        fetch_blocked = sum(s.self_time for s in self.named("core.transfer.fetch", False))
        return {
            "core.object_store.put_ms": (
                self.call_ms("core.object_store.put"), "ms"),
            "core.object_store.load_value_ms": (
                self.call_ms("core.object_store.load_value"), "ms"),
            "core.object_store.value_cache_hit_share": (
                hits / looked_up if looked_up else 0.0, "share"),
            "core.object_store.evictions_per_op": (
                delta.get("object_store_evictions_total", 0.0) / self.ops, "count"),
            "core.object_store.sealed_mb_per_op": (
                delta.get("object_store_seal_bytes_total", 0.0) / mb / self.ops, "MB"),
            "core.transfer.mb_per_op": (
                delta.get("transfer_bytes_total", 0.0) / mb / self.ops, "MB"),
            "core.transfer.transfer_ms": (
                self.call_ms("core.transfer.transfer"), "ms"),
            "core.transfer.fetch_blocked_ms": (fetch_blocked * 1e3 / self.ops, "ms"),
            "common.serialization.serialize_ms": (
                self.call_ms("common.serialization.serialize"), "ms"),
            "common.serialization.deserialize_ms": (
                self.call_ms("common.serialization.deserialize"), "ms"),
        }

    def serve(self, shed: int):
        """Per request: router queue wait (its submit's return to the
        dispatch of its batch), mailbox wait (dispatch return to the batch
        body's start), and the share of its latency those spans cover,
        from its router submit to its batch's body end."""
        op_of = getattr(self.workload, "op_of_payload", {})
        records = self.result.records
        submitted = {}
        for s in self.named("serve.router.submit"):
            op = op_of.get(s.note)
            if op is not None:
                submitted[op] = s
        bodies = {key: (start, end) for kind, start, end, key in self.bodies if kind == "batch"}
        waits: Dict[str, List[float]] = {"quiet": [], "burst": []}
        sizes: Dict[str, List[int]] = {"quiet": [], "burst": []}
        mailbox = []
        covered = []
        for s in self.named("core.runtime.submit"):
            if s.note[0] != "handle_batch":
                continue
            payloads = list(s.note[1])
            ops = [op_of[p] for p in payloads if p in op_of]
            if not ops:
                continue
            phase = records[ops[0]].phase
            sizes[phase].append(len(payloads))
            body = bodies.get(tuple(payloads))
            if body is not None:
                mailbox.append(body[0] - s.end)
            for op in ops:
                sub = submitted.get(op)
                if sub is None:
                    continue
                waits[phase].append(s.start - sub.end)
                record = records[op]
                if body is not None and record.end > record.due:
                    covered.append((body[1] - sub.start) / (record.end - record.due))
        self.serve_coverage = covered
        self.batch_mailbox = mailbox
        return {
            "serve.router.submit_ms": (
                self.call_ms("serve.router.submit"), "ms"),
            "serve.router.queue_wait_quiet_ms": (_ms(waits["quiet"]), "ms"),
            "serve.router.queue_wait_burst_ms": (_ms(waits["burst"]), "ms"),
            "serve.router.batch_size_quiet": (_mean(sizes["quiet"]), "count"),
            "serve.router.batch_size_burst": (_mean(sizes["burst"]), "count"),
            "serve.replica.exec_ms": (
                _ms([end - start for start, end in bodies.values()]), "ms"),
            "serve.router.shed_share": (shed / self.ops, "share"),
        }

    def coverage(self) -> float:
        """Median over ops of the share of op latency that layer self
        times on the op's blocking path cover.  Closed loops: spans on the
        op's own thread.  The open loop: router submit to batch body end."""
        if self.serve_coverage:
            return float(np.median(self.serve_coverage))
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s.on_path:
                covered[s.op] = covered.get(s.op, 0.0) + s.self_time
        shares = [
            covered.get(i, 0.0) / (r.end - r.due)
            for i, r in enumerate(self.result.records) if r.end > r.due
        ]
        return float(np.median(shares)) if shares else 0.0


def _write_spans(workload, spans: List[Span], thread_names) -> None:
    """Write every span (name, start, end, parent index, thread, op, and
    whether it ran on the op's own thread)."""
    OUT_DIR.mkdir(exist_ok=True)
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [
        [s.name, round(s.start, 7), round(s.end, 7), index.get(id(s.parent), -1),
         thread_names.get(s.thread, str(s.thread)), s.op, s.on_path]
        for s in spans
    ]
    # One file per workload, overwritten by its next traced run.
    path = OUT_DIR / f"spans-{workload.name}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "fields": ["name", "start", "end", "parent", "thread", "op", "on_path"],
                   "spans": rows}, f)
