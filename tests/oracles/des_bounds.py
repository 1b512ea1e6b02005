"""Contention-free bound on a DES task graph's makespan.

:class:`repro.sim.engine.Simulator` serializes tasks that share a
resource.  :func:`critical_path_length` drops that contention and
keeps only the dependency edges, so no simulated makespan can be
shorter than it.
"""

from typing import Dict

from repro.sim.task import TaskGraph


def critical_path_length(graph: TaskGraph) -> float:
    """Longest dependency chain of ``graph``, by task duration."""
    finish: Dict[str, float] = {}
    for task in graph.topological_order():
        start = max((finish[d] for d in task.deps), default=0.0)
        finish[task.task_id] = start + task.duration
    return max(finish.values(), default=0.0)
