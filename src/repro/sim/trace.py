"""Execution timelines produced by the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import SimulationError

#: Columns of :meth:`Timeline.render_gantt`.
GANTT_WIDTH = 72


@dataclass(frozen=True)
class TaskRecord:
    """Start/finish of one executed task."""

    task_id: str
    resource: str
    label: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Timeline:
    """An ordered collection of :class:`TaskRecord` with analysis
    helpers: makespan, per-resource utilization, and an ASCII Gantt
    rendering used by the examples to visualize Fig. 7-style overlap."""

    def __init__(self, records: List[TaskRecord]) -> None:
        self._records = sorted(records, key=lambda r: (r.start, r.resource))
        self._by_id: Dict[str, TaskRecord] = {}
        for rec in self._records:
            if rec.task_id in self._by_id:
                raise SimulationError(
                    f"duplicate task id in timeline: {rec.task_id}")
            self._by_id[rec.task_id] = rec

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> List[TaskRecord]:
        return list(self._records)

    @property
    def makespan(self) -> float:
        """Total wall-clock time from 0 to the last finish."""
        if not self._records:
            return 0.0
        return max(r.finish for r in self._records)

    def record(self, task_id: str) -> TaskRecord:
        try:
            return self._by_id[task_id]
        except KeyError:
            raise SimulationError(
                f"no record for task {task_id}") from None

    def busy_time(self, resource: str) -> float:
        """Total time the resource spent executing tasks."""
        return sum(r.duration for r in self._records
                   if r.resource == resource)

    def utilization(self, resource: str) -> float:
        """Busy fraction of the makespan for one resource."""
        makespan = self.makespan
        if makespan == 0.0:
            return 0.0
        return self.busy_time(resource) / makespan

    def by_resource(self) -> Dict[str, List[TaskRecord]]:
        """Records grouped by resource, preserving time order."""
        grouped: Dict[str, List[TaskRecord]] = {}
        for rec in self._records:
            grouped.setdefault(rec.resource, []).append(rec)
        return grouped

    def render_gantt(self) -> str:
        """ASCII Gantt chart, one row per resource, :data:`GANTT_WIDTH`
        columns wide.

        Each task is drawn as a run of ``#`` proportional to its
        duration; idle time is ``.``.  Used by the quickstart example
        to show the Fig. 7 overlap structure.
        """
        makespan = self.makespan
        if makespan == 0.0:
            return "(empty timeline)"
        width = GANTT_WIDTH
        lines = []
        for resource, records in sorted(self.by_resource().items()):
            row = ["."] * width
            for rec in records:
                # Map [start, finish) onto the width columns; every
                # task paints at least one column (sub-pixel tasks
                # stay visible) and finish == makespan lands exactly
                # on column width-1, never past it.
                lo = min(int(rec.start / makespan * width), width - 1)
                hi = min(int(math.ceil(rec.finish / makespan * width)),
                         width)
                for col in range(lo, max(hi, lo + 1)):
                    row[col] = "#"
            lines.append(f"{resource:>12} |{''.join(row)}|")
        lines.append(f"{'':>12}  makespan = {makespan * 1e3:.3f} ms")
        return "\n".join(lines)

    def to_trace_events(self) -> List[dict]:
        """Chrome trace events for this timeline (one lane per
        resource); see :mod:`repro.telemetry.bridge`."""
        from repro.telemetry.bridge import timeline_to_trace_events
        return timeline_to_trace_events(self)
