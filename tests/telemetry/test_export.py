"""Chrome trace and metric-dump exporters, checked against the
schema validator CI uses (scripts/validate_trace.py)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.export import (build_chrome_trace, render_metrics,
                                    spans_to_trace_events,
                                    write_chrome_trace,
                                    write_metrics_json)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span
from tests.oracles import cli_smokes

validate_trace = cli_smokes.validator()


def _spans():
    return [
        Span("compute L0", "cpu", 0.0, 1.5, {"layer": 0}),
        Span("weights L1", "pcie", 0.5, 1.0, {"bytes": 4096}),
        Span("compute L1", "gpu", 1.5, 2.0, {}),
    ]


def test_spans_to_trace_events_structure():
    events = spans_to_trace_events(_spans())
    metadata = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    # One thread_name record per distinct track.
    assert sorted(m["args"]["name"] for m in metadata) == ["cpu", "gpu",
                                                           "pcie"]
    first = complete[0]
    assert first["ts"] == 0.0
    assert first["dur"] == pytest.approx(1.5e6)  # seconds -> us
    assert first["args"] == {"layer": 0}
    # Same track -> same tid; different tracks -> different tids.
    tids = {e["name"]: e["tid"] for e in complete}
    assert len(set(tids.values())) == 3


def test_written_trace_passes_schema_validator(tmp_path):
    path = write_chrome_trace(tmp_path / "out.trace.json", _spans(),
                              metadata={"mode": "test"})
    assert validate_trace.validate_trace_file(path) == []
    document = json.loads(path.read_text())
    assert document["otherData"]["mode"] == "test"


def test_validator_flags_broken_traces(tmp_path):
    assert validate_trace.validate_trace_object([]) != []
    assert validate_trace.validate_trace_object({"traceEvents": {}}) != []
    bad_event = {"traceEvents": [{"ph": "X", "name": "x", "ts": -1.0,
                                  "dur": 0, "pid": 1, "tid": 1}]}
    assert any("ts" in message for message in
               validate_trace.validate_trace_object(bad_event))
    missing = tmp_path / "nope.json"
    assert validate_trace.validate_trace_file(missing) != []


def test_empty_trace_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError):
        write_chrome_trace(tmp_path / "empty.trace.json", [])


def _registry():
    registry = MetricsRegistry()
    registry.counter("pcie.bytes", source="cpu",
                     destination="gpu").inc(4096)
    registry.histogram("latency_s").observe(0.5)
    registry.gauge("utilization").set(0.75)
    return registry


def test_metrics_json_round_trip(tmp_path):
    path = write_metrics_json(tmp_path / "metrics.json", _registry(),
                              title="unit test")
    document = json.loads(path.read_text())
    assert document["title"] == "unit test"
    names = [row["metric"] for row in document["metrics"]]
    assert names == sorted(names)
    byte_row = next(row for row in document["metrics"]
                    if row["metric"] == "pcie.bytes")
    assert byte_row["value"] == 4096
    assert byte_row["labels"] == {"source": "cpu",
                                  "destination": "gpu"}


def test_render_metrics_is_human_readable():
    text = render_metrics(_registry())
    assert "pcie.bytes{destination=gpu,source=cpu}: 4096" in text
    assert "latency_s" in text and "p95" in text
    assert render_metrics(MetricsRegistry()) == "  (no metrics recorded)"


def test_build_chrome_trace_shape():
    document = build_chrome_trace([{"ph": "X"}], {"k": "v"})
    assert set(document) == {"traceEvents", "displayTimeUnit",
                             "otherData"}
