"""One-round-trip submission: each task row is written once, born in its
placed state, with its lifecycle events in the same ``ShardedKV`` write.

The round-trip tests count ``ShardedKV`` calls made on the submitting
thread at ``hop_delay=0`` (deterministic: no timing involved).  The
correctness tests pin the new write order: the row is durable before the
task can run, a placement-time node kill between the write and the
dispatch re-routes the task, and a replayed fast-path task still pairs
into two lifecycles.  The memory tests bound what a finished task leaves
behind.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

import repro
from repro.common.faults import (
    KILL_NODE,
    TARGET_SELF,
    FaultAction,
    FaultSchedule,
    FaultTrigger,
    PlannedFault,
)
from repro.gcs.tables import TaskStatus
from repro.tools.timeline import Timeline


@repro.remote
def add_one(x):
    return x + 1


@repro.remote
class Counter:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
        return self.n


def record_kv_calls(runtime):
    """Wrap the runtime's ShardedKV surface; returns the list that each
    call made on the calling thread appends its op name to."""
    kv = runtime.gcs.kv
    me = threading.get_ident()
    calls = []
    for op in ("put", "append", "batch", "get"):
        original = getattr(kv, op)

        def wrapper(*args, _op=op, _original=original, **kwargs):
            if threading.get_ident() == me:
                calls.append(_op)
            return _original(*args, **kwargs)

        setattr(kv, op, wrapper)
    return calls


def counter_total(runtime, name):
    return sum(
        series.value
        for family in runtime.metrics.families()
        if family.name == name
        for series in family.series.values()
    )


class TestSubmitRoundTrips:
    def test_remote_on_idle_node_is_one_batch(self):
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        try:
            assert repro.get(add_one.remote(0), timeout=10) == 1  # registers
            calls = record_kv_calls(rt)
            ref = add_one.remote(1)
            submitted = list(calls)
            assert repro.get(ref, timeout=10) == 2
            assert submitted == ["batch"]
            entry = rt.gcs.get_task(rt.graph.producer_of(ref.object_id))
            assert entry.status is TaskStatus.FINISHED
        finally:
            repro.shutdown()

    def test_actor_method_is_one_batch(self):
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        try:
            counter = Counter.remote()
            assert repro.get(counter.bump.remote(), timeout=10) == 1
            calls = record_kv_calls(rt)
            ref = counter.bump.remote()
            submitted = list(calls)
            assert repro.get(ref, timeout=10) == 2
            assert submitted == ["batch"]
        finally:
            repro.shutdown()

    def test_per_op_setting_writes_one_key_per_call(self):
        """``gcs_batched_writes=False`` keeps the per-op ablation: the row
        and each lifecycle event are separate single-key chain calls, and
        the row is still written once, born SCHEDULED."""
        rt = repro.init(
            num_nodes=1,
            num_cpus_per_node=2,
            submit_fastpath=False,
            gcs_batched_writes=False,
        )
        try:
            assert repro.get(add_one.remote(0), timeout=10) == 1
            calls = record_kv_calls(rt)
            ref = add_one.remote(1)
            submitted = list(calls)
            assert repro.get(ref, timeout=10) == 2
            # Row, task_submitted, task_scheduled, task_inputs_ready.
            assert submitted == ["put", "append", "append", "append"]
        finally:
            repro.shutdown()

    def test_round_trip_counter_matches_chain_calls(self):
        """``gcs_round_trips_total`` counts every chain call, single-key
        calls included, so it agrees with a count taken at the chains."""
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        try:
            assert repro.get(add_one.remote(0), timeout=10) == 1
            seen = []
            for chain in rt.gcs.kv.shards:
                for op in ("put", "append", "get", "write_batch"):
                    original = getattr(chain, op)

                    def wrapper(*args, _original=original, **kwargs):
                        seen.append(1)
                        return _original(*args, **kwargs)

                    setattr(chain, op, wrapper)
            before = counter_total(rt, "gcs_round_trips_total")
            for i in range(20):
                assert repro.get(add_one.remote(i), timeout=10) == i + 1
            # Quiesce: a get returns once the output is stored, while the
            # worker may still be inside its finish write.
            scheduler = rt.driver_node.local_scheduler
            deadline = time.monotonic() + 10
            while scheduler.backlog() and time.monotonic() < deadline:
                time.sleep(0.01)
            after = counter_total(rt, "gcs_round_trips_total")
            assert len(seen) >= 40  # a submit and a finish write per task
            assert after - before == len(seen)
        finally:
            repro.shutdown()


class TestWriteOrder:
    def test_placement_kill_after_running_write_reroutes(self):
        """A kill fired at the fast path's placement hook — after the row is
        written RUNNING, before dispatch — bounces the task to a live node;
        its new placement overwrites the row."""
        schedule = FaultSchedule(
            seed=0,
            faults=[
                PlannedFault(
                    FaultTrigger(at_placement=1),
                    FaultAction(KILL_NODE, target=TARGET_SELF),
                )
            ],
        )
        rt = repro.init(num_nodes=2, num_cpus_per_node=2, fault_schedule=schedule)
        try:
            first, second = rt.nodes()
            ref = add_one.remote(41)
            assert repro.get(ref, timeout=20) == 42
            assert not first.alive
            task_id = rt.graph.producer_of(ref.object_id)
            entry = rt.gcs.get_task(task_id)
            assert entry.status is TaskStatus.FINISHED
            assert entry.node_id == second.node_id
            policies = [
                record.as_dict().get("policy")
                for record in rt.gcs.events("task_scheduled")
                if record.as_dict()["task"] == task_id.short()
            ]
            assert policies[0] == "fastpath" and len(policies) == 2
            assert counter_total(rt, "scheduler_fastpath_total") == 0
        finally:
            repro.shutdown()

    def test_replayed_fastpath_task_pairs_two_lifecycles(self):
        rt = repro.init(num_nodes=2, num_cpus_per_node=2)
        try:
            ref = add_one.remote(1)
            assert repro.get(ref, timeout=10) == 2
            task = rt.graph.producer_of(ref.object_id).short()
            rt.kill_node(rt.driver_node.node_id)  # loses the only copy
            assert repro.get(ref, timeout=20) == 2  # reconstructed
            runs = [lc for lc in Timeline(rt).lifecycles() if lc.task == task]
            assert len(runs) == 2
            first, second = sorted(runs, key=lambda lc: lc.started)
            assert first.inputs_ready == first.scheduled  # fast path
            assert first.submitted <= first.scheduled <= first.started
            assert second.submitted is None
            assert first.finished <= second.scheduled <= second.inputs_ready
            assert second.inputs_ready <= second.started <= second.finished
        finally:
            repro.shutdown()


class TestBoundedControlState:
    def test_gets_leave_no_completions_for_present_objects(self):
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        try:
            refs = [add_one.remote(i) for i in range(1000)]
            for i, ref in enumerate(refs):
                assert repro.get(ref, timeout=20) == i + 1
            gc.collect()
            store = rt.driver_node.store
            held = [oid for oid in list(store._events) if store.contains(oid)]
            assert held == []
        finally:
            repro.shutdown()

    def test_retained_bytes_per_sequential_task(self):
        """Lineage is kept forever, so what one finished no-op task retains
        (task row, events, graph entry, stored output) bounds the memory
        of a long run: at most 3.5 KB per task."""
        rt = repro.init(num_nodes=1, num_cpus_per_node=2)
        tasks = 1500
        try:
            for i in range(200):  # warm-up: worker pool, caches, metrics
                repro.get(add_one.remote(i), timeout=10)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for i in range(tasks):
                    assert repro.get(add_one.remote(i), timeout=10) == i + 1
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert retained / tasks <= 3500, f"{retained / tasks:.0f} B/task"
            assert rt.graph.num_tasks() == tasks + 200
        finally:
            repro.shutdown()
