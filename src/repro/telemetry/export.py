"""Exporters: Chrome trace-event JSON, and JSON metric dumps.

The trace format is the Trace Event Format's JSON-object flavour —
``{"traceEvents": [...]}`` with complete ("X") duration events and
thread-name ("M") metadata — which both Perfetto and chrome://tracing
load directly.  Timestamps are microseconds (sim-time seconds times
:data:`US_PER_S`).

A metric dump is the registry snapshot under a title: one row per
metric series.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span

#: pid used for every track; the repro is one logical process.
TRACE_PID = 1
#: Trace timestamps are microseconds of sim time.
US_PER_S = 1e6


def spans_to_trace_events(spans: Sequence[Span]) -> List[dict]:
    """Convert spans to Chrome complete events plus track metadata.

    Tracks become "threads": each distinct track name gets a tid and
    a ``thread_name`` metadata event, so Perfetto shows one swim lane
    per device/resource.
    """
    track_ids: Dict[str, int] = {}
    events: List[dict] = []
    for span in spans:
        if span.track not in track_ids:
            tid = len(track_ids) + 1
            track_ids[span.track] = tid
            events.append({"ph": "M", "name": "thread_name",
                           "pid": TRACE_PID, "tid": tid,
                           "args": {"name": span.track}})
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.track,
            "ts": span.start * US_PER_S,
            "dur": span.duration * US_PER_S,
            "pid": TRACE_PID,
            "tid": track_ids[span.track],
            "args": dict(span.args),
        })
    return events


def build_chrome_trace(events: Iterable[dict],
                       metadata: Optional[Dict[str, object]] = None
                       ) -> dict:
    """Assemble the top-level JSON-object trace document."""
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(path, spans: Sequence[Span] = (),
                       extra_events: Iterable[dict] = (),
                       metadata: Optional[Dict[str, object]] = None
                       ) -> Path:
    """Write spans (plus pre-built events) as a ``.trace.json`` file."""
    events = spans_to_trace_events(spans)
    events.extend(extra_events)
    if not events:
        raise ConfigurationError("nothing to export: no trace events")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(build_chrome_trace(events, metadata), handle, indent=1)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Counter tracks (windowed time series).
# ----------------------------------------------------------------------
#: Percentile fractions exported as counter tracks / CSV columns.
TIMESERIES_PERCENTILES = (0.50, 0.95, 0.99)


def timeseries_to_counter_events(series) -> List[dict]:
    """Chrome counter-track ("C") events from a windowed series.

    Each channel becomes one ``serving.<channel>`` counter track
    sampled at every window's
    left edge (a counter holds its value until the next sample), so
    Perfetto renders queue depth, utilization, throughput, and
    windowed percentiles as area charts alongside the span swim
    lanes.  Windows with no latency samples are skipped on the
    percentile tracks — counter events must stay finite.
    """
    edges = series.grid.edges
    timestamps = [edge * US_PER_S for edge in edges[:-1].tolist()]

    channels: List[tuple] = [
        ("queue_depth", series.queue_depth.tolist()),
        ("arrived", series.arrived.tolist()),
        ("finished", series.finished.tolist()),
        ("utilization", series.utilization.tolist()),
    ]
    for name in sorted(series.weighted):
        channels.append((name, series.weighted[name].tolist()))
    if series.dropped is not None:
        channels.append(("dropped", series.dropped.tolist()))
    for fraction in TIMESERIES_PERCENTILES:
        label = f"p{round(fraction * 100)}_latency_s"
        channels.append((label, series.percentile(fraction).tolist()))

    events: List[dict] = []
    for name, values in channels:
        track = f"serving.{name}"
        for ts, value in zip(timestamps, values):
            if value != value:  # NaN: empty percentile window
                continue
            events.append({"ph": "C", "name": track, "pid": TRACE_PID,
                           "ts": ts, "args": {"value": float(value)}})
    return events


def write_timeseries_csv(path, series, monitoring=None,
                         title: str = "serving time series") -> Path:
    """One CSV row per window; optional SLO burn-rate columns.

    Columns: window bounds, the count/busy/utilization channels,
    weighted sums, windowed percentiles — plus ``bad``,
    ``burn_long``, ``burn_short``, and ``alert`` (0/1) when a
    :class:`~repro.telemetry.timeseries.MonitoringReport` is given.
    """
    edges = series.grid.edges
    columns: List[tuple] = [
        ("t_start_s", edges[:-1].tolist()),
        ("t_end_s", edges[1:].tolist()),
        ("arrived", series.arrived.tolist()),
        ("started", series.started.tolist()),
        ("finished", series.finished.tolist()),
        ("queue_depth", series.queue_depth.tolist()),
        ("busy_s", series.busy_s.tolist()),
        ("utilization", series.utilization.tolist()),
    ]
    for name in sorted(series.weighted):
        columns.append((name, series.weighted[name].tolist()))
    if series.dropped is not None:
        columns.append(("dropped", series.dropped.tolist()))
    for fraction in TIMESERIES_PERCENTILES:
        label = f"p{round(fraction * 100)}_latency_s"
        values = ["" if value != value else value
                  for value in series.percentile(fraction).tolist()]
        columns.append((label, values))
    if monitoring is not None:
        alert_flags = [0] * series.n_windows
        for alert in monitoring.alerts:
            for window in range(alert.first_window,
                                alert.last_window + 1):
                alert_flags[window] = 1
        columns.extend([
            ("bad", monitoring.bad.tolist()),
            ("burn_long", monitoring.burn_long.tolist()),
            ("burn_short", monitoring.burn_short.tolist()),
            ("alert", alert_flags),
        ])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(f"# {title}\n")
        writer = csv.writer(handle)
        writer.writerow(["window"] + [name for name, _ in columns])
        for window in range(series.n_windows):
            writer.writerow([window]
                            + [values[window] for _, values in columns])
    return path


# ----------------------------------------------------------------------
# Metric dumps.
# ----------------------------------------------------------------------
def _flat_rows(registry: MetricsRegistry) -> List[Dict[str, object]]:
    """Snapshot rows with labels flattened to a ``k=v,...`` column."""
    rows = []
    for row in registry.snapshot():
        flat = dict(row)
        labels = flat.pop("labels")
        flat["labels"] = ",".join(f"{k}={v}"
                                  for k, v in sorted(labels.items()))
        rows.append(flat)
    return rows


def write_metrics_json(path, registry: MetricsRegistry,
                       title: str = "telemetry metrics") -> Path:
    """Dump the registry snapshot as a JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"title": title, "metrics": registry.snapshot()}
    with path.open("w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return path


def render_metrics(registry: MetricsRegistry) -> str:
    """Human-readable metric summary for CLI output."""
    lines = []
    for row in _flat_rows(registry):
        labels = f"{{{row['labels']}}}" if row["labels"] else ""
        if row["type"] == "histogram":
            summary = (f"count={row['count']} mean={row['mean']:.6g}"
                       + "".join(f" {k}={row[k]:.6g}"
                                 for k in ("p50", "p95", "p99")
                                 if k in row))
        else:
            summary = f"{row['value']:.6g}"
        lines.append(f"  {row['metric']}{labels}: {summary}")
    return "\n".join(lines) if lines else "  (no metrics recorded)"
