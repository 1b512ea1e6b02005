"""Task and task-graph definitions for the discrete-event simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class Task:
    """One unit of work bound to a named serial resource.

    ``resource`` names the device that executes the task ("cpu",
    "gpu", "pcie-h2d", ...).  ``duration`` is in seconds.  ``deps``
    lists task ids that must finish before this task may start.
    """

    task_id: str
    resource: str
    duration: float
    deps: Tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0.0:
            raise SimulationError(
                f"task {self.task_id}: duration must be >= 0")
        if self.task_id in self.deps:
            raise SimulationError(
                f"task {self.task_id}: depends on itself")


class TaskGraph:
    """A DAG of tasks with helpers for incremental construction."""

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}

    def __len__(self) -> int:
        return len(self._tasks)

    def get(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise SimulationError(f"unknown task: {task_id}") from None

    def add(self, task_id: str, resource: str, duration: float,
            deps: Iterable[str] = (), label: str = "") -> Task:
        """Create and register a task; dependencies must already exist."""
        if task_id in self._tasks:
            raise SimulationError(f"duplicate task id: {task_id}")
        deps = tuple(deps)
        for dep in deps:
            if dep not in self._tasks:
                raise SimulationError(
                    f"task {task_id}: unknown dependency {dep}")
        task = Task(task_id=task_id, resource=resource, duration=duration,
                    deps=deps, label=label or task_id)
        self._tasks[task_id] = task
        return task

    def resources(self) -> List[str]:
        """Names of all resources referenced by the graph, sorted."""
        return sorted({t.resource for t in self._tasks.values()})

    def topological_order(self) -> List[Task]:
        """Tasks in dependency order (insertion-order stable)."""
        in_degree: Dict[str, int] = {t: len(self._tasks[t].deps)
                                     for t in self._tasks}
        dependents: Dict[str, List[str]] = {t: [] for t in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                dependents[dep].append(task.task_id)
        ready = [t for t in self._tasks if in_degree[t] == 0]
        order: List[Task] = []
        seen: Set[str] = set()
        while ready:
            task_id = ready.pop(0)
            seen.add(task_id)
            order.append(self._tasks[task_id])
            for child in dependents[task_id]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._tasks):
            cyclic = sorted(set(self._tasks) - seen)
            raise SimulationError(f"task graph has a cycle among {cyclic}")
        return order
