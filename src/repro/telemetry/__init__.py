"""repro.telemetry — metrics, spans, time series, and export.

The unified observability layer (see docs/OBSERVABILITY.md):

* :class:`MetricsRegistry` — labelled counters, gauges, and
  streaming (bounded-memory) p50/p95/p99 histograms.
* :class:`Tracer` — nested spans over *simulated* clocks; the
  functional engine uses a logical :class:`TickClock`, the DES and
  serving simulator stamp sim-seconds directly.
* Time series — :func:`compute_timeseries` windows the columnar
  serving timelines into queue-depth/utilization/throughput/
  percentile series in O(n); :func:`evaluate_slo` runs multi-window
  burn-rate SLO monitors over them with fault attribution, and
  :func:`fleet_timeseries` merges a fleet's replicas.
* Exporters — Chrome trace-event JSON (Perfetto /
  chrome://tracing) with span and counter tracks, JSON/CSV metric
  dumps, windowed CSV series, and a self-contained HTML dashboard.
* Bridges — adapters from ``Timeline``, ``TransferLog``, and
  ``ServingReport`` into the above.

Typical use::

    from repro.telemetry import Telemetry, activate, write_chrome_trace

    telemetry = Telemetry()
    with activate(telemetry):
        ...  # run engine / simulator / estimator
    write_chrome_trace("run.trace.json", telemetry.tracer.spans)
"""

from repro.telemetry.bridge import (
    note_dropped_spans,
    scheduler_report_to_metrics,
    timeline_to_spans,
    timeline_to_trace_events,
    transfer_log_to_counters,
    vectorized_report_to_metrics,
    vectorized_report_to_spans,
)
from repro.telemetry.dashboard import write_dashboard_html
from repro.telemetry.export import (
    build_chrome_trace,
    render_metrics,
    spans_to_trace_events,
    timeseries_to_counter_events,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
    write_timeseries_csv,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.telemetry.runtime import Telemetry, activate, current
from repro.telemetry.spans import Span, TickClock, Tracer
from repro.telemetry.timeseries import (
    ORGANIC_LOAD,
    AlertAttribution,
    MonitoringReport,
    SLOAlert,
    SLOPolicy,
    ServingTimeseries,
    WindowGrid,
    attribute_alerts,
    compute_timeseries,
    evaluate_slo,
    fleet_timeseries,
    monitor_report,
    timeseries_from_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "Span",
    "TickClock",
    "Tracer",
    "Telemetry",
    "activate",
    "current",
    "ORGANIC_LOAD",
    "AlertAttribution",
    "MonitoringReport",
    "SLOAlert",
    "SLOPolicy",
    "ServingTimeseries",
    "WindowGrid",
    "attribute_alerts",
    "compute_timeseries",
    "evaluate_slo",
    "fleet_timeseries",
    "monitor_report",
    "timeseries_from_report",
    "build_chrome_trace",
    "render_metrics",
    "spans_to_trace_events",
    "timeseries_to_counter_events",
    "write_chrome_trace",
    "write_dashboard_html",
    "write_metrics_csv",
    "write_metrics_json",
    "write_timeseries_csv",
    "note_dropped_spans",
    "scheduler_report_to_metrics",
    "timeline_to_spans",
    "timeline_to_trace_events",
    "transfer_log_to_counters",
    "vectorized_report_to_metrics",
    "vectorized_report_to_spans",
]
