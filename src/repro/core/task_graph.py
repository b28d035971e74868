"""The dynamic task graph (paper Section 3.2, Figure 4).

Nodes are *data objects* and *tasks* (remote function invocations, actor
creations, and actor method invocations).  Edges are:

* **data edges** — task → each object it outputs; object → each task that
  consumes it;
* **control edges** — invoking task → invoked task (nested remote calls);
* **stateful edges** — actor method Mᵢ → Mᵢ₊₁ on the same actor, encoding
  the implicit dependency through the actor's mutable state.

The runtime appends to this graph as tasks are submitted; it is the basis
of the lineage used for reconstruction, and of the visualization and
debugging tooling the paper describes riding on the GCS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.lockwatch import make_lock
from repro.common.ids import ActorID, ObjectID, TaskID
from repro.core.task_spec import TaskSpec


class EdgeType(enum.Enum):
    DATA = "data"
    CONTROL = "control"
    STATEFUL = "stateful"


@dataclass(frozen=True, slots=True)
class Edge:
    src: object  # TaskID or ObjectID
    dst: object
    kind: EdgeType


class TaskGraph:
    """An append-only computation graph with typed edges.

    Only the specs are stored, plus two indexes the hot paths query:
    object -> producing task, and method -> its stateful predecessor.  The
    edges are a pure function of those and are derived on demand, so the
    graph costs no per-edge objects for lineage that is never inspected.
    """

    def __init__(self):
        self._lock = make_lock("TaskGraph._lock")
        self._tasks: Dict[TaskID, TaskSpec] = {}
        self._producer: Dict[ObjectID, TaskID] = {}
        self._stateful_pred: Dict[TaskID, TaskID] = {}
        self._last_actor_task: Dict[ActorID, TaskID] = {}

    def add_task(self, spec: TaskSpec) -> None:
        """Record a task and all edges it induces."""
        with self._lock:
            if spec.task_id in self._tasks:
                return  # replayed task: the graph already has it
            self._tasks[spec.task_id] = spec
            for object_id in spec.return_ids:
                self._producer[object_id] = spec.task_id
            if spec.actor_id is not None:
                # Stateful edge: previous method on the same actor -> this one.
                previous = self._last_actor_task.get(spec.actor_id)
                if previous is not None and not spec.is_actor_creation:
                    self._stateful_pred[spec.task_id] = previous
                self._last_actor_task[spec.actor_id] = spec.task_id

    @staticmethod
    def _edges_of(spec: TaskSpec, stateful_pred: Optional[TaskID]) -> List[Edge]:
        task_id = spec.task_id
        edges = [Edge(dep, task_id, EdgeType.DATA) for dep in spec.dependencies()]
        edges.extend(Edge(task_id, oid, EdgeType.DATA) for oid in spec.return_ids)
        parent = spec.parent_task_id
        if parent is not None and not parent.is_nil():
            edges.append(Edge(parent, task_id, EdgeType.CONTROL))
        if stateful_pred is not None:
            edges.append(Edge(stateful_pred, task_id, EdgeType.STATEFUL))
        return edges

    # -- queries ---------------------------------------------------------------

    def task(self, task_id: TaskID) -> Optional[TaskSpec]:
        with self._lock:
            return self._tasks.get(task_id)

    def num_tasks(self) -> int:
        with self._lock:
            return len(self._tasks)

    def edges(self, kind: Optional[EdgeType] = None) -> List[Edge]:
        """Every edge, in task insertion order (optionally one kind)."""
        with self._lock:
            specs = list(self._tasks.values())
            preds = dict(self._stateful_pred)
        out: List[Edge] = []
        for spec in specs:
            out.extend(
                edge
                for edge in self._edges_of(spec, preds.get(spec.task_id))
                if kind is None or edge.kind == kind
            )
        return out

    def producer_of(self, object_id: ObjectID) -> Optional[TaskID]:
        with self._lock:
            return self._producer.get(object_id)

    def consumers_of(self, object_id: ObjectID) -> List[TaskID]:
        with self._lock:
            return [
                task_id
                for task_id, spec in self._tasks.items()
                if object_id in spec.dependencies()
            ]

    def predecessors_of(self, task_id: TaskID) -> List[TaskID]:
        """Tasks that must *finish* before ``task_id`` can run: its stateful
        predecessor plus the producers of its data dependencies (control
        edges are excluded — a parent merely submits the child mid-run)."""
        with self._lock:
            spec = self._tasks.get(task_id)
            if spec is None:
                return []
            out: List[TaskID] = []
            previous = self._stateful_pred.get(task_id)
            if previous is not None:
                out.append(previous)
            for dep in spec.dependencies():
                producer = self._producer.get(dep)
                if producer is not None:
                    out.append(producer)
            return out

    def task_ids(self) -> List[TaskID]:
        with self._lock:
            return list(self._tasks)

    def children_of(self, task_id: TaskID) -> List[TaskID]:
        """Tasks invoked by ``task_id`` (control edges out)."""
        with self._lock:
            return [
                child
                for child, spec in self._tasks.items()
                if spec.parent_task_id == task_id
            ]

    def stateful_chain(self, actor_id: ActorID) -> List[TaskID]:
        """All method tasks of an actor, in stateful-edge order."""
        with self._lock:
            chain_tasks = [
                tid
                for tid, spec in self._tasks.items()
                if spec.actor_id == actor_id and not spec.is_actor_creation
            ]
            return sorted(chain_tasks, key=lambda t: self._tasks[t].actor_counter)

    def ancestors(self, object_id: ObjectID) -> Set[TaskID]:
        """Transitive lineage of an object: every task it depends on."""
        result: Set[TaskID] = set()
        frontier = [object_id]
        while frontier:
            current = frontier.pop()
            producer = self.producer_of(current)
            if producer is None or producer in result:
                continue
            result.add(producer)
            spec = self.task(producer)
            if spec is not None:
                frontier.extend(spec.dependencies())
        return result

    def to_dot(self) -> str:
        """Graphviz rendering, for the debugging tools of Section 7."""
        lines = ["digraph task_graph {"]
        with self._lock:
            for task_id, spec in self._tasks.items():
                lines.append(
                    f'  "{task_id.short()}" [shape=box label="{spec.function_name}"];'
                )
        seen_objects = set()
        for edge in self.edges():
            for endpoint in (edge.src, edge.dst):
                if isinstance(endpoint, ObjectID) and endpoint not in seen_objects:
                    seen_objects.add(endpoint)
                    lines.append(
                        f'  "{endpoint.short()}" [shape=ellipse label="obj"];'
                    )
            style = {
                EdgeType.DATA: "solid",
                EdgeType.CONTROL: "dashed",
                EdgeType.STATEFUL: "bold",
            }[edge.kind]
            lines.append(
                f'  "{edge.src.short()}" -> "{edge.dst.short()}" [style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)
