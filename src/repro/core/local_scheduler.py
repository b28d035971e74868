"""Per-node local scheduler (the "bottom" of the bottom-up scheduler).

Tasks created on a node are submitted to the node's local scheduler first
(paper Section 4.2.2).  The local scheduler schedules the task locally
*unless*:

* the node's dispatch backlog exceeds the spillback threshold (the node is
  overloaded), or
* the node can never satisfy the task's resource request (e.g. no GPU).

The "overloaded" decision sits behind a pluggable
:class:`~repro.core.scheduling.SpillbackPolicy` (the classic backlog
threshold by default); dead-node and never-satisfiable requests are hard
constraints checked before the policy and always forward.

A forwarded task goes to a global scheduler, which places it via its own
:class:`~repro.core.scheduling.SchedulerPolicy`.  Once a task is *placed*
on a node,
the local scheduler pulls any missing inputs via the object fetcher and
dispatches the task to a worker when all inputs are local and its resources
are available.

Placement is decided before anything is written: a submission writes each
task row once, born in its decided state (RUNNING on the fast path,
SCHEDULED when placed here, PENDING when forwarded), together with its
lifecycle events in one GCS write, and only then dispatches, enqueues, or
forwards it.

Two throughput mechanisms sit on top of that checked pipeline:

* a **submit fast path** — when the node is idle enough that the spillback
  policy would keep the task local anyway, and its inputs are already
  local, submission dispatches straight to a worker (the row is born
  RUNNING; no global-scheduler hop, no dispatcher queue round-trip), and
* a **persistent worker pool** — workers park on a queue between tasks, so
  dispatch costs a queue hand-off instead of a per-task thread spawn.

Both are observable (``scheduler_fastpath_total``, ``policy="fastpath"``
on the trace event) and both degrade to the checked path whenever any
precondition fails.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.common.lockwatch import make_condition, make_thread
from repro.common.events import BACKSTOP_INTERVAL, WaitStats
from repro.common.faults import NULL_FAULTS
from repro.common.ids import ObjectID, TaskID
from repro.common.metrics import MetricsRegistry, NULL_REGISTRY
from repro.core.scheduling import RuntimeNodeView, TaskView, make_spillback
from repro.core.task_spec import TaskSpec
from repro.gcs.tables import TaskStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import Node


class _PendingBacklogView(RuntimeNodeView):
    """A node view whose backlog includes batch members admitted just
    before this decision but not yet enqueued — keeps the per-spec
    spillback decisions of one ``submit_many`` batch equivalent to the
    sequential per-call decisions."""

    __slots__ = ("_extra",)

    def __init__(self, node, extra: int):
        super().__init__(node, 0)
        self._extra = extra

    def backlog(self) -> int:
        return super().backlog() + self._extra


def _submitted_event(spec: TaskSpec, now: float) -> tuple:
    """The ``task_submitted`` trace event of a fresh submission."""
    return (
        "task_submitted",
        dict(task=spec.task_id.short(), name=spec.function_name, t=now),
    )


def _policy_fastpath_trustworthy(policy) -> bool:
    """Whether ``policy.allows_fastpath`` may stand in for ``should_forward``.

    The fast path bypasses ``should_forward``, trusting ``allows_fastpath``
    to give the same answer.  That only holds when the two methods come
    from the same class: a subclass overriding ``should_forward`` while
    inheriting ``allows_fastpath`` (e.g. a recording/experimental policy)
    would get a stale opt-in, so it keeps the checked path.
    """
    for klass in type(policy).__mro__:
        has_forward = "should_forward" in klass.__dict__
        has_fast = "allows_fastpath" in klass.__dict__
        if has_forward or has_fast:
            return has_forward and has_fast
    return False


class LocalScheduler:
    """Bottom-up local scheduler for a single node."""

    def __init__(
        self,
        node: "Node",
        gcs,
        fetcher,
        forward_to_global: Callable[[TaskSpec], None],
        execute: Callable[["Node", TaskSpec, Dict[str, float]], None],
        spillback_threshold: int = 16,
        spillback: Optional[object] = None,
        wait_stats: Optional[WaitStats] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[Callable[..., None]] = None,
        faults: Optional[object] = None,
        fastpath: bool = True,
        pooled_workers: bool = True,
        batched_writes: bool = True,
    ):
        self.node = node
        self.gcs = gcs
        self.fetcher = fetcher
        self._forward_to_global = forward_to_global
        self._execute = execute
        self.spillback_threshold = spillback_threshold
        self._spillback = make_spillback(spillback, threshold=spillback_threshold)
        self._wait_stats = wait_stats
        self._trace = trace
        self._faults = faults if faults is not None else NULL_FAULTS
        self._fastpath = fastpath and _policy_fastpath_trustworthy(
            self._spillback
        )
        self._pooled = pooled_workers
        self._batched_writes = batched_writes

        self._cond = make_condition("LocalScheduler._cond")
        self._ready: deque = deque()
        self._waiting: Dict[TaskID, Set[ObjectID]] = {}
        self._waiting_specs: Dict[TaskID, TaskSpec] = {}
        self._running: Set[TaskID] = set()
        self._ready_since: Dict[TaskID, float] = {}
        self._stopped = False

        # Persistent worker pool: dispatching onto a parked thread costs a
        # queue put instead of a ~100µs thread spawn.  The pool grows on
        # demand up to peak concurrency (the per-task-thread model had the
        # same peak) and threads park on the queue between tasks.
        self._work_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._pool_threads: List[threading.Thread] = []
        self._idle_workers = 0

        self.scheduled_locally = 0
        self.forwarded = 0

        metrics = metrics or NULL_REGISTRY
        node_label = node.node_id.short()
        self._node_hex = node_label
        self._m_placed = metrics.counter(
            "scheduler_tasks_placed_total", "Tasks placed on this node",
            node=node_label,
        )
        self._m_spillbacks = metrics.counter(
            "scheduler_spillbacks_total",
            "Tasks forwarded to a global scheduler",
            node=node_label,
        )
        self._m_fastpath = metrics.counter(
            "scheduler_fastpath_total",
            "Tasks dispatched straight to a worker by the submit fast path",
            node=node_label,
        )
        self._m_dispatch = metrics.histogram(
            "scheduler_dispatch_seconds",
            "Latency from inputs-ready to worker dispatch",
            node=node_label,
        )
        metrics.gauge(
            "scheduler_queue_depth",
            "Tasks waiting for inputs or resources",
            fn=self.queue_length,
            node=node_label,
        )

        node.resources.add_release_listener(self._notify)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"dispatcher-{node.node_id.hex()[:6]}",
            daemon=True,
        )
        self._dispatcher.start()

    # -- submission (bottom-up entry point) ----------------------------------

    def submit(self, spec: TaskSpec) -> None:
        """A co-located driver or worker created this task."""
        if not (self._fastpath and self._try_fastpath(spec)):
            self._admit([spec], self._batched_writes)

    def submit_many(
        self, specs: List[TaskSpec], batched: Optional[bool] = None
    ) -> None:
        """Submit one ``submit_many`` batch created on this node.

        Decisions match per-spec :meth:`submit` exactly — the spillback
        policy sees the backlog grow as earlier batch members are admitted
        — and the whole batch's rows and events go out in one write.  The
        single-submission fast path is not consulted: a batch already
        amortizes its one write, and fast-pathing its head would let it
        overtake nothing.  ``batched`` overrides the node's write setting
        for this batch (``submit_many(..., batched=False)``).
        """
        self._admit(
            specs, self._batched_writes if batched is None else batched
        )

    def _admit(self, specs: List[TaskSpec], batched: bool) -> None:
        """Decide local-vs-forward for fresh submissions, then write every
        row once, born in its decided state, with its ``task_submitted``
        event: placed specs SCHEDULED (via :meth:`_place`), forwarded specs
        PENDING — all in one write, before any is forwarded."""
        local: List[TaskSpec] = []
        forward: List[TaskSpec] = []
        for spec in specs:
            if (
                not self.node.alive
                or not self.node.resources.can_ever_satisfy(spec.resources)
                or self._spillback.should_forward(
                    TaskView(
                        key=spec.task_id,
                        name=spec.function_name,
                        resources=spec.resources,
                        deps_fn=spec.dependencies,
                    ),
                    _PendingBacklogView(self.node, len(local)),
                )
            ):
                forward.append(spec)
            else:
                local.append(spec)
        self.forwarded += len(forward)
        self._m_spillbacks.inc(len(forward))
        self.scheduled_locally += len(local)
        events = []
        if self._trace is not None:
            now = time.perf_counter()
            events = [_submitted_event(spec, now) for spec in specs]
        self._place(
            local, [(spec, TaskStatus.PENDING, None) for spec in forward],
            events, batched,
        )
        for spec in forward:
            self._forward_to_global(spec)

    def _try_fastpath(self, spec: TaskSpec) -> bool:
        """Dispatch a fresh submission straight to a worker, if it is safe.

        When this node is idle enough — queues empty, every input already
        local, resources free, and the spillback policy confirms the task
        would have stayed local anyway — the whole submit→dispatch pipeline
        (global-scheduler hop, ``ClusterView`` construction, the SCHEDULED
        state, the dispatcher queue round-trip) collapses into one write —
        the row born RUNNING on this node plus its ``task_submitted`` and
        ``task_scheduled(policy="fastpath")`` events — and a hand-off to a
        pooled worker.  No ``task_inputs_ready`` is written: the inputs
        were local by definition, and ``Timeline`` derives it.  The row is
        durable before the task enters ``_running``, so ``kill_node`` never
        sees a running task without a row.  Any check failing falls back
        to the ordinary checked path; the shortcut never changes *where* a
        task runs, only how many hops it takes to start.
        """
        node = self.node
        if not node.alive:
            return False
        for dep in spec.dependencies():
            if not node.store.contains(dep):
                return False
        with self._cond:
            if (
                self._stopped
                or self._ready
                or self._waiting
                # Queues are empty, so the backlog is exactly the running
                # set — let the policy apply its own rule to it.
                or not self._spillback.allows_fastpath(len(self._running))
            ):
                return False
            if not node.resources.try_acquire(spec.resources):
                return False
        events = None
        if self._trace is not None:
            now = time.perf_counter()
            scheduled = self._event("task_scheduled", spec, now)
            scheduled[1]["policy"] = "fastpath"
            events = [_submitted_event(spec, now), scheduled]
        self.gcs.write_tasks(
            [(spec, TaskStatus.RUNNING, node.node_id)],
            events=events,
            batched=self._batched_writes,
        )
        # Placement-fault parity with ``place()``: a kill injected at
        # placement must be discovered by the placement that triggered it.
        if self._faults.enabled:
            self._faults.on_place(node.node_id)
        with self._cond:
            # ``kill_node`` ran after the reservation: its drain/running
            # snapshots (serialized by this condition) never saw the task.
            bounced = self._stopped
            if not bounced:
                self._running.add(spec.task_id)
        if bounced:
            # Re-route; the new placement overwrites the RUNNING row.
            node.resources.release(spec.resources)
            self.forwarded += 1
            self._m_spillbacks.inc()
            self._forward_to_global(spec)
            return True
        self.scheduled_locally += 1
        self._m_placed.inc()
        self._m_fastpath.inc()
        self._dispatch_to_worker(spec, already_running=True)
        return True

    # -- placement ------------------------------------------------------------

    def place(self, spec: TaskSpec) -> None:
        """This node has been chosen to run ``spec``."""
        self._place([spec])

    def place_many(self, specs: List[TaskSpec]) -> None:
        """Place a batch chosen for this node: per-spec ``place()``
        semantics, one write for the whole batch."""
        self._place(specs)

    def _place(
        self,
        specs: List[TaskSpec],
        rows: Optional[List[tuple]] = None,
        events: Optional[List[tuple]] = None,
        batched: Optional[bool] = None,
    ) -> None:
        """Place ``specs`` here: one write carries their SCHEDULED rows and
        ``task_scheduled``/``task_inputs_ready`` events, after ``rows`` and
        ``events`` a submission passes in (its forwarded PENDING rows and
        ``task_submitted`` events); then the ready ones are enqueued under
        one condition acquisition with a single wake-up and the rest wait
        for their inputs.  Specs that find the node dead are written
        PENDING and forwarded to a global scheduler instead.
        """
        node = self.node
        rows = list(rows or ())
        events = list(events or ())
        if self._faults.enabled:
            # An ``at_placement`` fault fires *here*, before the alive
            # check, so a kill injected mid-placement is discovered by the
            # very placement that triggered it and spills back to global.
            for _ in specs:
                self._faults.on_place(node.node_id)
        bounced: List[TaskSpec] = []
        if specs and not node.alive:
            # Placed on a node that died in the meantime: bounce to global.
            bounced, specs = specs, []
            rows.extend((spec, TaskStatus.PENDING, None) for spec in bounced)
        ready: List[TaskSpec] = []
        waiting: List[tuple] = []
        for spec in specs:
            missing = {
                dep for dep in spec.dependencies() if not node.store.contains(dep)
            }
            if missing:
                waiting.append((spec, missing))
            else:
                ready.append(spec)
        rows.extend((spec, TaskStatus.SCHEDULED, node.node_id) for spec in specs)
        if self._trace is not None:
            now = time.perf_counter()
            events.extend(self._event("task_scheduled", spec, now) for spec in specs)
            events.extend(self._event("task_inputs_ready", spec, now) for spec in ready)
        if rows or events:
            self.gcs.write_tasks(
                rows,
                events=events,
                batched=self._batched_writes if batched is None else batched,
            )
        self._m_placed.inc(len(specs))
        if specs:
            with self._cond:
                if self._stopped:
                    # The node died between the alive check above and here:
                    # a spec registered now would be invisible to the kill
                    # path's drain (it already ran) and lost forever.
                    # stop()/drain() hold this condition, so the check is
                    # authoritative.  None of the batch registers.
                    bounced.extend(specs)
                    waiting = []
                else:
                    for spec, missing in waiting:
                        self._waiting[spec.task_id] = set(missing)
                        self._waiting_specs[spec.task_id] = spec
                    if ready:
                        now_mono = time.monotonic()
                        for spec in ready:
                            self._ready.append(spec)
                            self._ready_since[spec.task_id] = now_mono
                        self._cond.notify_all()
        for spec in bounced:
            self._forward_to_global(spec)
        # Register every readiness callback first (fires immediately for
        # anything already arrived), then fan the fetches out to the
        # prefetch pool so the missing inputs replicate in parallel.
        all_missing: List[ObjectID] = []
        for spec, missing in waiting:
            for dep in missing:
                node.store.on_available(
                    dep, lambda oid, tid=spec.task_id: self._input_ready(tid, oid)
                )
            all_missing.extend(missing)
        if all_missing:
            self.fetcher.prefetch(all_missing, node)

    def _event(self, category: str, spec: TaskSpec, now: float) -> tuple:
        """A task-lifecycle trace event of this node, for a batched write."""
        return (
            category,
            dict(
                task=spec.task_id.short(), name=spec.function_name,
                node=self._node_hex, t=now,
            ),
        )

    def _input_ready(self, task_id: TaskID, object_id: ObjectID) -> None:
        with self._cond:
            pending = self._waiting.get(task_id)
            if pending is None:
                return
            pending.discard(object_id)
            if pending:
                return
            del self._waiting[task_id]
            spec = self._waiting_specs.pop(task_id)
        # Emit before enqueueing (and outside the lock): once dispatched the
        # span boundaries must already be in the log.
        if self._trace is not None:
            category, payload = self._event(
                "task_inputs_ready", spec, time.perf_counter()
            )
            self._trace(category, **payload)
        self._enqueue_ready(spec)

    def _enqueue_ready(self, spec: TaskSpec) -> None:
        with self._cond:
            if not self._stopped:
                self._ready.append(spec)
                self._ready_since[spec.task_id] = time.monotonic()
                self._cond.notify_all()
                return
        # Stopped under us (the window between _input_ready popping the
        # spec from _waiting and this append is invisible to drain()):
        # hand the task back for placement on a live node.
        self._forward_to_global(spec)

    # -- dispatch ----------------------------------------------------------------

    def _notify(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                batch = self._pick_dispatch_batch()
                while not batch and not self._stopped:
                    # Notification-driven: ready-queue pushes and resource
                    # releases notify this condition.  The timed wait is
                    # only a guarded missed-wakeup backstop.
                    notified = self._cond.wait(timeout=BACKSTOP_INTERVAL)
                    batch = self._pick_dispatch_batch()
                    if (
                        not notified
                        and batch
                        and self._wait_stats is not None
                    ):
                        # A task was dispatchable but no notification
                        # arrived: the backstop caught a missed wakeup.
                        self._wait_stats.record_backstop(recovered=True)
                stopped = self._stopped
                if not stopped:
                    for spec in batch:
                        self._running.add(spec.task_id)
            if stopped:
                # Specs picked in the same round the node stopped were
                # already out of _ready (invisible to drain), with their
                # resources held: release and reroute them rather than drop
                # them.  Forwarding happens outside _cond — it takes another
                # node's condition, and nesting the two would invert lock
                # order against that node's own dispatcher.
                for spec in batch:
                    self.node.resources.release(spec.resources)
                    self._forward_to_global(spec)
                return
            if self._pooled:
                # One coalesced RUNNING write for the whole round (built
                # from the specs in hand — no read-modify-write), then
                # queue hand-offs; the per-task write is skipped by the
                # workers (``status_already_running``).
                self.gcs.write_tasks(
                    [
                        (spec, TaskStatus.RUNNING, self.node.node_id)
                        for spec in batch
                    ],
                    batched=self._batched_writes,
                )
                for spec in batch:
                    self._dispatch_to_worker(spec, already_running=True)
            else:
                for spec in batch:
                    self._dispatch_to_worker(spec)

    def _pick_dispatchable(self) -> Optional[TaskSpec]:
        """First ready task whose resources fit right now (lock held)."""
        for index, spec in enumerate(self._ready):
            if self.node.resources.try_acquire(spec.resources):
                del self._ready[index]
                ready_at = self._ready_since.pop(spec.task_id, None)
                if ready_at is not None:
                    self._m_dispatch.observe(time.monotonic() - ready_at)
                return spec
        return None

    def _pick_dispatch_batch(self) -> List[TaskSpec]:
        """Every ready task whose resources fit right now (lock held)."""
        batch: List[TaskSpec] = []
        while True:
            spec = self._pick_dispatchable()
            if spec is None:
                return batch
            batch.append(spec)

    def _dispatch_to_worker(
        self, spec: TaskSpec, already_running: bool = False
    ) -> None:
        """Hand a dispatched task (resources held, in ``_running``) to a
        worker thread — a parked pool thread when pooling is on, a fresh
        thread otherwise."""
        if not self._pooled:
            worker = threading.Thread(
                target=self._run_task,
                args=(spec, already_running),
                name=f"worker-{spec.function_name[:24]}",
                daemon=True,
            )
            worker.start()
            return
        spawn = None
        with self._cond:
            if self._idle_workers > 0:
                self._idle_workers -= 1
            else:
                spawn = make_thread(
                    self._worker_loop,
                    name=f"worker-{self._node_hex[:6]}-{len(self._pool_threads)}",
                )
                self._pool_threads.append(spawn)
        if spawn is not None:
            spawn.start()
        self._work_queue.put((spec, already_running))

    def _worker_loop(self) -> None:
        while True:
            item = self._work_queue.get()
            if item is None:  # stop() sentinel
                return
            spec, already_running = item
            self._run_task(spec, already_running)
            with self._cond:
                if self._stopped:
                    return
                self._idle_workers += 1

    def _run_task(self, spec: TaskSpec, already_running: bool = False) -> None:
        try:
            if already_running:
                self._execute(
                    self.node,
                    spec,
                    dict(spec.resources),
                    status_already_running=True,
                )
            else:
                self._execute(self.node, spec, dict(spec.resources))
        finally:
            self.node.resources.release(spec.resources)
            with self._cond:
                self._running.discard(spec.task_id)
                self._cond.notify_all()

    # -- cancellation ---------------------------------------------------------

    def cancel(self, task_id: TaskID) -> Optional[TaskSpec]:
        """Dequeue ``task_id`` if it has not started running.

        Returns the removed spec (the caller stores cancelled outputs for
        it), or ``None`` if the task is already running here, finished, or
        unknown — in those cases cancellation is cooperative only.
        """
        with self._cond:
            for index, spec in enumerate(self._ready):
                if spec.task_id == task_id:
                    del self._ready[index]
                    self._ready_since.pop(task_id, None)
                    return spec
            if task_id in self._waiting:
                del self._waiting[task_id]
                return self._waiting_specs.pop(task_id)
            return None

    def running_tasks(self) -> List[TaskID]:
        """IDs of tasks currently executing on this node's workers."""
        with self._cond:
            return list(self._running)

    # -- load info (heartbeats to the global scheduler) --------------------------

    def backlog(self) -> int:
        """Dispatch backlog: tasks placed here but not yet finished."""
        with self._cond:
            return len(self._ready) + len(self._waiting) + len(self._running)

    def queue_length(self) -> int:
        with self._cond:
            return len(self._ready) + len(self._waiting)

    # -- lifecycle ------------------------------------------------------------------

    def drain(self) -> List[TaskSpec]:
        """Remove and return all not-yet-running tasks (node failure path)."""
        with self._cond:
            drained = list(self._ready)
            drained.extend(self._waiting_specs.values())
            self._ready.clear()
            self._waiting.clear()
            self._waiting_specs.clear()
            self._ready_since.clear()
            return drained

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            pool_size = len(self._pool_threads)
        # One sentinel per pool thread: parked workers wake and exit; busy
        # workers notice ``_stopped`` after their task and leave their
        # sentinel behind in a dead queue.
        for _ in range(pool_size):
            self._work_queue.put(None)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the dispatcher thread to exit (call ``stop`` first)."""
        if self._dispatcher is not threading.current_thread():
            self._dispatcher.join(timeout)
        me = threading.current_thread()
        with self._cond:
            pool = list(self._pool_threads)
        # One shared deadline across the pool: a worker stranded in a
        # blocked task must not multiply the wait (they are daemons and
        # exit with the process regardless).
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in pool:
            if worker is me:
                continue
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            worker.join(remaining)
