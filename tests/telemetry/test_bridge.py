"""Bridges from Timeline / TransferLog / ServingReport."""

import numpy as np
import pytest

from repro.inference.tensors import TransferLog
from repro.serving.simulator import ServingReport
from repro.serving.vectorized import WorkloadVector
from repro.models.workload import InferenceRequest
from repro.sim.trace import TaskRecord, Timeline
from repro.telemetry.bridge import (timeline_to_spans,
                                    transfer_log_to_counters,
                                    vectorized_report_to_metrics,
                                    vectorized_report_to_spans)
from repro.telemetry.metrics import MetricsRegistry


def _timeline():
    return Timeline([
        TaskRecord("c0", "compute", "compute L0", 0.0, 2.0),
        TaskRecord("w1", "pcie", "weights L1", 0.0, 1.0),
        TaskRecord("c1", "compute", "compute L1", 2.0, 3.0),
    ])


def test_timeline_round_trips_into_spans():
    spans = timeline_to_spans(_timeline())
    assert len(spans) == 3
    by_id = {span.args["task_id"]: span for span in spans}
    assert by_id["w1"].track == "pcie"
    assert by_id["w1"].name == "weights L1"
    assert by_id["c1"].start == 2.0 and by_id["c1"].finish == 3.0


def test_timeline_to_trace_events_method():
    events = _timeline().to_trace_events()
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 3
    lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert lanes == {"compute", "pcie"}
    # Sim seconds -> trace microseconds.
    c0 = next(e for e in complete if e["args"]["task_id"] == "c0")
    assert c0["dur"] == pytest.approx(2e6)


def test_transfer_log_reconciles_exactly():
    log = TransferLog()
    log.record("weights:L0", "cpu", "gpu", 1000)
    log.record("act:L0:S2", "cpu", "gpu", 24)
    log.record("act:L0:S3", "gpu", "cpu", 8)
    registry = MetricsRegistry()
    transfer_log_to_counters(log, registry)
    assert registry.counter_value("pcie.bytes", source="cpu",
                                  destination="gpu") == 1024
    assert registry.counter_value("pcie.bytes", source="gpu",
                                  destination="cpu") == 8
    total = sum(counter.value for counter in registry.counters()
                if counter.name == "pcie.bytes")
    assert total == log.total_bytes
    assert registry.counter_value("pcie.transfers", source="cpu",
                                  destination="gpu") == 2


def _report():
    request = InferenceRequest(1, 8, 4)
    return ServingReport(
        WorkloadVector(shapes=(request,), codes=np.zeros(2, np.int64)),
        np.array([0.0, 0.5]), np.array([0.0, 1.0]),
        np.array([1.0, 2.0]))


def test_serving_report_metrics():
    registry = MetricsRegistry()
    vectorized_report_to_metrics(_report(), registry,
                                 system="spr-a100", model="opt-30b")
    latency = registry.histogram("serving.latency_s",
                                 system="spr-a100", model="opt-30b")
    assert latency.count == 2
    assert latency.max == pytest.approx(1.5)
    assert registry.counter_value("serving.requests",
                                  system="spr-a100",
                                  model="opt-30b") == 2
    assert registry.counter_value("serving.generated_tokens",
                                  system="spr-a100",
                                  model="opt-30b") == 8


def test_serving_report_spans_split_queue_and_service():
    spans, dropped = vectorized_report_to_spans(_report())
    assert dropped == 0
    server = [s for s in spans if s.track == "server"]
    queue = [s for s in spans if s.track == "queue"]
    assert len(server) == 2
    assert len(queue) == 1  # only the second request waited
    assert queue[0].start == 0.5 and queue[0].finish == 1.0
    # Service spans are disjoint on the single server.
    assert server[0].finish <= server[1].start
