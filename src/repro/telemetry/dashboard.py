"""Self-contained HTML serving dashboards.

One file, zero external assets: charts are inline SVG polylines
rendered at write time from the windowed series, so the dashboard
opens from disk, attaches to CI runs as an artifact, and diffs
meaningfully in review.  The layout mirrors an SRE burn-rate page:
headline stats, per-channel sparkline charts with alert windows
shaded, the alert table with fault attributions, and (for fleets)
per-replica utilization.
"""

from __future__ import annotations

import html
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

_CHART_WIDTH = 640
_CHART_HEIGHT = 120
_PAD = 6

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
.stats { display: flex; flex-wrap: wrap; gap: 1.5em; margin: 1em 0; }
.stat b { display: block; font-size: 1.3em; }
.stat span { color: #666; font-size: 0.85em; }
figure { margin: 1.2em 0; }
figcaption { font-size: 0.85em; color: #444; margin-bottom: 0.2em; }
svg { background: #fafaff; border: 1px solid #dde; }
table { border-collapse: collapse; font-size: 0.9em; }
th, td { border: 1px solid #ccd; padding: 0.3em 0.7em; text-align: left; }
th { background: #eef; }
.organic { color: #667; } .fault { color: #a22; font-weight: 600; }
.bar { background: #dde; height: 0.9em; display: inline-block; }
.bar i { background: #46a; height: 100%; display: block; }
""".strip()


def _format_value(value: float) -> str:
    if value != value:
        return "–"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.01:
        return f"{value:.3g}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _polyline(values: Sequence[float], lo: float,
              span: float) -> str:
    """SVG points for one series, NaN samples skipped."""
    count = len(values)
    step = (_CHART_WIDTH - 2 * _PAD) / max(count - 1, 1)
    points = []
    for index, value in enumerate(values):
        if value != value:
            continue
        y = (_CHART_HEIGHT - _PAD
             - (value - lo) / span * (_CHART_HEIGHT - 2 * _PAD))
        points.append(f"{_PAD + index * step:.1f},{y:.1f}")
    return " ".join(points)


def _chart(title: str, values: Sequence[float],
           alert_windows: Sequence[Tuple[int, int]] = (),
           color: str = "#46a") -> str:
    """One labelled sparkline with alert windows shaded red."""
    finite = [v for v in values if v == v]
    if not finite:
        return ""
    lo = min(min(finite), 0.0)
    hi = max(finite)
    span = (hi - lo) or 1.0
    count = len(values)
    step = (_CHART_WIDTH - 2 * _PAD) / max(count - 1, 1)
    shading = []
    for first, last in alert_windows:
        x0 = _PAD + first * step
        width = max((last - first + 1) * step, 1.0)
        shading.append(
            f'<rect x="{x0:.1f}" y="0" width="{width:.1f}" '
            f'height="{_CHART_HEIGHT}" fill="#c33" opacity="0.15"/>')
    caption = (f"{html.escape(title)} "
               f"<small>(min {_format_value(lo)}, "
               f"max {_format_value(hi)})</small>")
    return (
        f"<figure><figcaption>{caption}</figcaption>"
        f'<svg width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">'
        + "".join(shading)
        + f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{_polyline(values, lo, span)}"/></svg></figure>')


def _stat(label: str, value: str) -> str:
    return (f'<div class="stat"><b>{html.escape(value)}</b>'
            f"<span>{html.escape(label)}</span></div>")


def _alert_table(monitoring) -> str:
    if not monitoring.alerts:
        return ("<p>No SLO alerts fired: burn rate stayed under "
                f"{monitoring.policy.burn_rate_threshold:g}× "
                "budget in every window pair.</p>")
    rows = []
    for alert in monitoring.alerts:
        primary = alert.attributions[0] if alert.attributions else None
        cause = primary.cause if primary else "organic-load"
        css = "organic" if cause == "organic-load" else "fault"
        detail = ""
        if primary is not None and cause != "organic-load":
            end = ("∞" if math.isinf(primary.event_end_s)
                   else _format_value(primary.event_end_s))
            detail = (f"fault [{_format_value(primary.event_start_s)}"
                      f"–{end}] s, magnitude "
                      f"{primary.magnitude:g}, overlap "
                      f"{_format_value(primary.overlap_s)} s")
        rows.append(
            "<tr>"
            f"<td>{_format_value(alert.start_s)}–"
            f"{_format_value(alert.end_s)}</td>"
            f"<td>{_format_value(alert.peak_burn_long)}×</td>"
            f"<td>{_format_value(alert.peak_burn_short)}×</td>"
            f"<td>{alert.n_bad} / {alert.n_requests}</td>"
            f'<td class="{css}">{html.escape(cause)}</td>'
            f"<td>{html.escape(detail)}</td></tr>")
    return ("<table><tr><th>interval (s)</th><th>peak burn "
            "(long)</th><th>peak burn (short)</th><th>bad / "
            "served</th><th>cause</th><th>detail</th></tr>"
            + "".join(rows) + "</table>")


def _replica_section(report) -> str:
    """One row per replica of a
    :class:`~repro.serving.replicas.ScaleOutReport` that served
    requests: served count, p95 latency and busy fraction of the fleet
    makespan."""
    makespan = report.makespan
    rows = []
    for replica, sub in zip(report.replica_ids, report.per_replica):
        if not sub.n_served:
            continue
        utilization = sub.busy_s / makespan if makespan else 0.0
        width = min(100.0, utilization * 100.0)
        rows.append(
            "<tr>"
            f"<td>{replica}</td>"
            f"<td>{sub.n_served}</td>"
            f"<td>{_format_value(sub.latency_percentile(0.95))} s</td>"
            f'<td><span class="bar" style="width:8em">'
            f'<i style="width:{width:.1f}%"></i></span> '
            f"{utilization * 100:.1f}%</td></tr>")
    fleet_p95 = report.latency_percentile(0.95)
    return (f"<h2>Fleet · {report.n_replicas} replicas "
            f"(merged p95 {_format_value(fleet_p95)} s)</h2>"
            "<table><tr><th>replica</th><th>served</th>"
            "<th>p95 latency</th><th>utilization</th></tr>"
            + "".join(rows) + "</table>")


def write_dashboard_html(path, monitoring, fleet=None,
                         title: str = "serving dashboard",
                         metadata: Optional[Dict[str, object]] = None
                         ) -> Path:
    """Render one monitoring report (and optional fleet) to HTML.

    ``monitoring`` is a
    :class:`~repro.telemetry.timeseries.MonitoringReport`; ``fleet``
    an optional :class:`~repro.serving.replicas.ScaleOutReport` for
    the per-replica section.
    """
    series = monitoring.timeseries
    policy = monitoring.policy
    alert_windows = [(a.first_window, a.last_window)
                     for a in monitoring.alerts]
    served = int(series.finished.sum())
    if not served:
        raise ConfigurationError("dashboard needs served requests")
    shed = (int(series.dropped.sum())
            if series.dropped is not None else 0)

    stats = [
        _stat("requests served", f"{served:,}"),
        _stat("SLO threshold",
              f"{policy.latency_threshold_s:g} s"),
        _stat("bad requests",
              f"{monitoring.total_bad:,} "
              f"({monitoring.bad_fraction * 100:.2f}%)"),
        _stat("error budget spent",
              f"{monitoring.budget_spent * 100:.0f}%"),
        _stat("alerts", str(len(monitoring.alerts))),
    ]
    if shed:
        stats.append(_stat("requests shed", f"{shed:,}"))
    if monitoring.scenario_name:
        stats.append(_stat("fault scenario",
                           monitoring.scenario_name))

    charts: List[str] = [
        _chart("queue depth", series.queue_depth.tolist(),
               alert_windows),
        _chart("utilization (busy fraction)",
               series.utilization.tolist(), alert_windows),
        _chart("arrived per window", series.arrived.tolist(),
               alert_windows, color="#284"),
        _chart("finished per window", series.finished.tolist(),
               alert_windows, color="#284"),
        _chart("p95 latency (s)", series.percentile(0.95).tolist(),
               alert_windows, color="#a52"),
        _chart("burn rate (long window, × budget)",
               monitoring.burn_long.tolist(), alert_windows,
               color="#c33"),
        _chart("burn rate (short window, × budget)",
               monitoring.burn_short.tolist(), alert_windows,
               color="#c33"),
    ]
    tokens = series.tokens
    if tokens is not None:
        charts.append(_chart("generated tokens per window",
                             tokens.tolist(), alert_windows,
                             color="#667"))
    if series.dropped is not None:
        charts.append(_chart("shed requests per window",
                             series.dropped.tolist(), alert_windows,
                             color="#c33"))

    meta_rows = "".join(
        f"<tr><th>{html.escape(str(key))}</th>"
        f"<td>{html.escape(str(value))}</td></tr>"
        for key, value in sorted((metadata or {}).items()))
    sections = [
        f"<h1>{html.escape(title)}</h1>",
        f'<div class="stats">{"".join(stats)}</div>',
        "<h2>SLO alerts</h2>", _alert_table(monitoring),
        "<h2>Time series "
        f"<small>({series.n_windows} windows × "
        f"{_format_value(series.grid.window_s)} s)</small></h2>",
        "".join(charts),
    ]
    if fleet is not None:
        sections.append(_replica_section(fleet))
    if meta_rows:
        sections.append(f"<h2>Run metadata</h2><table>{meta_rows}"
                        "</table>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        + "".join(sections) + "</body></html>\n")
    return path


__all__ = ["write_dashboard_html"]
