"""Bridges from the repro's evidence containers into the telemetry layer.

``Timeline`` (DES gantt data) converts to spans.  A serving run's
report leaves through :func:`emit_report`, the one exit every serving
engine's public call takes once, after the run: the ``serving.*``
histograms, counters and gauges, the engine's own metrics, the capped
spans and their truncation note.  In-run events (fault spans and
counters, Eq. (1) search counts) are recorded where they happen.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.export import spans_to_trace_events
from repro.telemetry.spans import Span

if TYPE_CHECKING:
    from repro.serving.simulator import ServingReport
    from repro.telemetry.runtime import Telemetry

#: One engine-specific metric of a report: ``(kind, name, labels,
#: value)``; a ``"counter"`` is incremented by the value, a ``"gauge"``
#: set to it.
Extra = Tuple[str, str, Dict[str, str], float]


def timeline_to_spans(timeline) -> List[Span]:
    """One span per :class:`TaskRecord`, tracked by resource."""
    return [Span(name=record.label or record.task_id,
                 track=record.resource, start=record.start,
                 finish=record.finish,
                 args={"task_id": record.task_id})
            for record in timeline]


def timeline_to_trace_events(timeline) -> List[dict]:
    """Chrome trace events for a DES timeline (Fig. 7 in Perfetto)."""
    return spans_to_trace_events(timeline_to_spans(timeline))


def run_labels(estimator) -> Dict[str, str]:
    """The (system, model) labels of a run's ``serving.*`` metrics."""
    return {"system": estimator.system.name, "model": estimator.spec.name}


def request_spans(report: "ServingReport", replicas: Optional[np.ndarray],
                  cap: int) -> List[List[Span]]:
    """The spans of a FIFO report's first ``cap`` served requests, one
    list each: the wait between arrival and start on ``queue`` (when
    there was one), the service on ``server``.  ``replicas``, each
    served request's replica, puts them on ``queue[j]``/``server[j]``.
    """
    emit = min(report.n_served, cap)
    shapes = report.workload.shapes
    suffixes = ([""] * emit if replicas is None
                else [f"[{j}]" for j in replicas[:emit].tolist()])
    spans: List[List[Span]] = []
    for index, (code, arrival, start, finish, suffix) in enumerate(zip(
            report.workload.codes[:emit].tolist(),
            report.arrivals[:emit].tolist(), report.starts[:emit].tolist(),
            report.finishes[:emit].tolist(), suffixes)):
        name = f"request[{index}]"
        request = shapes[code]
        served = Span(name, "server" + suffix, start, finish,
                      {"batch": request.batch_size,
                       "input_len": request.input_len,
                       "output_len": request.output_len,
                       "latency_s": finish - arrival})
        wait = start - arrival
        spans.append([served] if wait <= 0.0 else [
            Span(name, "queue" + suffix, arrival, start,
                 {"queue_delay_s": wait}), served])
    return spans


def emit_report(telemetry: "Telemetry", report: "ServingReport",
                labels: Dict[str, str], extras: Sequence[Extra],
                spans: Sequence[Sequence[Span]], total: int,
                component: str) -> None:
    """Emit a serving run's final report into ``telemetry``, once.

    The ``serving.*`` metrics carry ``labels`` (the run's system and
    model); ``extras`` are the engine's own metrics; a run under a
    fault or chaos scenario sets ``faults.dropped_requests{scenario}``
    to its drops.  ``spans`` hold
    one list per spanned row (a served request, a decode step) for the
    first rows of ``total``, up to the call's span cap; the rest are
    counted in ``serving.spans_dropped`` and
    ``telemetry.spans.dropped{component}``, and a
    :class:`RuntimeWarning` says the trace was truncated.
    """
    metrics = telemetry.metrics
    for name, values in (("queue_delay_s", report.queue_delays),
                         ("service_time_s", report.service_times),
                         ("latency_s", report.latencies)):
        metrics.histogram(f"serving.{name}", **labels).observe_array(values)
    metrics.counter("serving.requests", **labels).inc(report.n_served)
    metrics.counter("serving.generated_tokens", **labels).inc(
        report.workload.total_generated_tokens)
    metrics.gauge("serving.utilization", **labels).set(report.utilization)
    metrics.gauge("serving.makespan_s", **labels).set(report.makespan)
    if report.scenario is not None:
        metrics.gauge("faults.dropped_requests",
                      scenario=report.scenario.name).set(report.n_dropped)
    for kind, name, extra_labels, value in extras:
        if kind == "counter":
            metrics.counter(name, **extra_labels).inc(value)
        else:
            metrics.gauge(name, **extra_labels).set(value)
    add_span = telemetry.tracer.add_span
    for row in spans:
        for span in row:
            add_span(span.name, span.track, span.start, span.finish,
                     **span.args)
    dropped = total - len(spans)
    if dropped > 0:
        metrics.counter("serving.spans_dropped", **labels).inc(dropped)
        metrics.counter("telemetry.spans.dropped",
                        component=component).inc(dropped)
        warnings.warn(
            f"{component}: span cap truncated the trace — emitted spans "
            f"for the first {len(spans)} of {total} rows; windowed "
            "metrics (repro.telemetry.timeseries) cover the full run",
            RuntimeWarning, stacklevel=3)
