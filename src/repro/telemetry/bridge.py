"""Bridges from pre-telemetry structures into the telemetry layer.

The repro grew ad-hoc evidence containers before it had telemetry:
``Timeline`` (DES gantt data) and ``ServingReport`` (queueing
statistics).  These adapters round-trip each of them into
spans/counters/histograms so one exporter path serves every
subsystem.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, List, Tuple

from repro.telemetry.export import spans_to_trace_events
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span

if TYPE_CHECKING:
    from repro.serving.scheduler import ContinuousServingReport


def note_dropped_spans(telemetry, dropped: int, total: int,
                       component: str, cap: int) -> None:
    """Make span-cap truncation loud: counter + one-line warning.

    A capped trace looks complete in Perfetto; without this, a
    1M-request run silently renders as its first ``cap`` requests.
    The ``telemetry.spans.dropped`` counter makes the loss queryable,
    the :class:`RuntimeWarning` makes it visible at the console.
    Callers still keep their domain-specific drop counters.
    """
    if dropped <= 0:
        return
    telemetry.metrics.counter(
        "telemetry.spans.dropped", component=component).inc(dropped)
    warnings.warn(
        f"{component}: span cap truncated the trace — emitted spans "
        f"for {total - dropped} of {total} requests (cap={cap}); "
        "windowed metrics (repro.telemetry.timeseries) cover the "
        "full run", RuntimeWarning, stacklevel=3)


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


def scheduler_report_to_metrics(report, metrics: MetricsRegistry,
                                system: str = "",
                                model: str = "") -> None:
    """Fold a :class:`ContinuousServingReport` into the registry.

    Emits the shared ``serving.*`` histograms (the report is a
    :class:`ServingReport`), then the scheduler-specific evidence:
    iteration/admission/policy-resolve counters, the batch-occupancy
    gauges, and per-tier peak KV bytes under
    ``scheduler.kv_peak_bytes{tier=...}``.
    """
    vectorized_report_to_metrics(report, metrics, system=system,
                                 model=model)
    labels = {}
    if system:
        labels["system"] = system
    if model:
        labels["model"] = model
    metrics.counter("scheduler.iterations",
                    **labels).inc(report.iterations)
    metrics.counter("scheduler.admissions",
                    **labels).inc(report.admissions)
    metrics.counter("scheduler.completions",
                    **labels).inc(report.n_served)
    metrics.counter("scheduler.policy_resolves",
                    **labels).inc(report.policy_resolves)
    metrics.counter("scheduler.kv_demotions",
                    **labels).inc(report.kv_demotions)
    scheduler_report_to_gauges(report, metrics, system=system,
                               model=model)


def scheduler_report_to_gauges(report: "ContinuousServingReport",
                               metrics: MetricsRegistry,
                               system: str = "",
                               model: str = "") -> None:
    """Set the gauges of a :class:`ContinuousServingReport`: serving
    utilization and makespan, batch occupancy and per-tier peak KV
    bytes.  A continuous fleet sets them once more from its merged
    report, over the values its last replica's run left."""
    labels = {}
    if system:
        labels["system"] = system
    if model:
        labels["model"] = model
    metrics.gauge("serving.utilization",
                  **labels).set(report.utilization)
    metrics.gauge("serving.makespan_s", **labels).set(report.makespan)
    metrics.gauge("scheduler.occupancy_mean",
                  **labels).set(report.occupancy_mean)
    metrics.gauge("scheduler.occupancy_peak",
                  **labels).set(float(report.occupancy_peak))
    for tier, peak in report.kv_peak_bytes.items():
        metrics.gauge("scheduler.kv_peak_bytes", tier=tier,
                      **labels).set(peak)


def vectorized_report_to_metrics(report, metrics: MetricsRegistry,
                                 system: str = "", model: str = "",
                                 **extra: str) -> None:
    """Fold a :class:`ServingReport` into histograms and counters.

    Batch-feeds the ``serving.*`` histograms/counters/gauges from the
    report's timeline arrays; the labels identify the (model, system)
    pair so several runs can share one registry.  The registry state
    is bit-identical to observing every request in order
    (``StreamingHistogram.observe_array`` folds totals in the same
    order and re-checks bucket boundaries against ``math.log``).
    """
    labels = dict(extra)
    if system:
        labels["system"] = system
    if model:
        labels["model"] = model
    metrics.histogram("serving.queue_delay_s",
                      **labels).observe_array(report.queue_delays)
    metrics.histogram("serving.service_time_s",
                      **labels).observe_array(report.service_times)
    metrics.histogram("serving.latency_s",
                      **labels).observe_array(report.latencies)
    metrics.counter("serving.requests", **labels).inc(report.n_served)
    metrics.counter("serving.generated_tokens", **labels).inc(
        report.workload.total_generated_tokens)
    metrics.gauge("serving.utilization",
                  **labels).set(report.utilization)
    metrics.gauge("serving.makespan_s", **labels).set(report.makespan)


def vectorized_report_to_spans(report, cap: int) -> Tuple[List[Span], int]:
    """Per-request spans for the first ``cap`` served requests of a
    :class:`ServingReport`, plus the count of requests whose spans
    were dropped.

    Service intervals go on the ``server`` track (they are disjoint —
    the FIFO serves one request at a time); the wait between arrival
    and start goes on the ``queue`` track.
    """
    n = report.n_served
    emit = min(n, cap)
    spans: List[Span] = []
    shapes = report.workload.shapes
    rows = zip(report.workload.codes[:emit].tolist(),
               report.arrivals[:emit].tolist(),
               report.starts[:emit].tolist(),
               report.finishes[:emit].tolist())
    for index, (code, arrival, start, finish) in enumerate(rows):
        name = f"request[{index}]"
        queue_delay = start - arrival
        if queue_delay > 0.0:
            spans.append(Span(name=name, track="queue",
                              start=arrival, finish=start,
                              args={"queue_delay_s": queue_delay}))
        request = shapes[code]
        spans.append(Span(
            name=name, track="server",
            start=start, finish=finish,
            args={"batch": request.batch_size,
                  "input_len": request.input_len,
                  "output_len": request.output_len,
                  "latency_s": finish - arrival}))
    return spans, n - emit
