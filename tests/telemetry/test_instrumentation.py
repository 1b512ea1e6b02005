"""End-to-end instrumentation: engine, serving, optimizer, CXL.

The acceptance invariant lives here: telemetry byte counters for a
CooperativeEngine run exactly equal ``GenerationResult.pcie_bytes``.
"""

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.core.optimizer import optimal_policy
from repro.core.policy import FULL_CPU, PARTIAL_CPU
from repro.cxl.tiering import adaptive_config, plan_tiering
from repro.inference.engine import CooperativeEngine
from repro.inference.transformer import TinyTransformer
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.telemetry import Telemetry, activate, current


@pytest.fixture
def tiny_model(tiny_spec):
    return TinyTransformer(tiny_spec, seed=0)


def _prompt(batch=1, length=6):
    return (np.arange(batch * length) % 11).reshape(batch, length)


def test_engine_byte_counters_equal_pcie_bytes(tiny_model):
    telemetry = Telemetry()
    engine = CooperativeEngine(tiny_model, prefill_policy=PARTIAL_CPU,
                               decode_policy=FULL_CPU)
    with activate(telemetry):
        result = engine.generate(_prompt(), max_new_tokens=3)
    counted = sum(counter.value
                  for counter in telemetry.metrics.counters()
                  if counter.name == "pcie.bytes")
    assert result.pcie_bytes > 0
    assert counted == result.pcie_bytes
    transfers = sum(counter.value
                    for counter in telemetry.metrics.counters()
                    if counter.name == "pcie.transfers")
    assert transfers == len(result.transfers.records)


def test_engine_spans_cover_stages_and_sublayers(tiny_model, tiny_spec):
    telemetry = Telemetry()
    engine = CooperativeEngine(tiny_model, prefill_policy=PARTIAL_CPU,
                               decode_policy=PARTIAL_CPU)
    with activate(telemetry):
        engine.generate(_prompt(), max_new_tokens=2)
    tracer = telemetry.tracer
    engine_spans = tracer.spans_on("engine")
    names = [span.name for span in engine_spans]
    assert "prefill" in names and "decode[0]" in names
    # 6 sublayers per layer per forward pass (prefill + 1 decode).
    device_spans = tracer.spans_on("cpu") + tracer.spans_on("gpu")
    assert len(device_spans) == 2 * 6 * tiny_spec.n_layers
    # Transfer spans carry their byte counts.
    pcie_spans = tracer.spans_on("pcie")
    assert pcie_spans and all(span.args["bytes"] > 0
                              for span in pcie_spans)
    # Stage spans envelop everything that ran inside them.
    prefill = next(s for s in engine_spans if s.name == "prefill")
    inner = [s for s in device_spans + pcie_spans
             if s.start < prefill.finish]
    assert all(s.finish <= prefill.finish for s in inner)


def test_engine_uses_ambient_telemetry(tiny_model):
    telemetry = Telemetry()
    engine = CooperativeEngine(tiny_model, prefill_policy=PARTIAL_CPU,
                               decode_policy=FULL_CPU)
    with activate(telemetry):
        result = engine.generate(_prompt(), max_new_tokens=2)
    counted = sum(counter.value
                  for counter in telemetry.metrics.counters()
                  if counter.name == "pcie.bytes")
    assert counted == result.pcie_bytes
    assert current() is None  # deactivated on exit


def test_untelemetered_engine_still_works(tiny_model):
    engine = CooperativeEngine(tiny_model, prefill_policy=FULL_CPU,
                               decode_policy=FULL_CPU)
    result = engine.generate(_prompt(), max_new_tokens=2)
    assert result.tokens.shape == (1, 2)


def test_optimizer_counts_policy_evaluations(opt_30b, spr_a100,
                                             eval_config):
    telemetry = Telemetry()
    with activate(telemetry):
        optimal_policy(opt_30b, Stage.DECODE, 4, 128, spr_a100,
                       eval_config)
    assert telemetry.metrics.counter_value(
        "policy.searches", stage="decode") == 1
    # Eq. (1) enumerates all 64 policy vectors.
    assert telemetry.metrics.counter_value(
        "policy.evaluations", stage="decode") == 64


def test_cxl_tiering_counters(opt_30b, spr_a100, eval_config):
    telemetry = Telemetry()
    system = spr_a100.with_cxl(n_expanders=2)
    request = InferenceRequest(64, 128, 16)
    with activate(telemetry):
        plan = plan_tiering(opt_30b, request, system, eval_config)
        adaptive_config(opt_30b, request, system, eval_config)
    assert telemetry.metrics.counter_value(
        "cxl.tier_bytes", tier="ddr",
        system=system.name) == pytest.approx(plan.ddr_bytes)
    assert telemetry.metrics.counter_value(
        "cxl.tier_bytes", tier="cxl",
        system=system.name) == pytest.approx(plan.cxl_bytes)
    decisions = [counter for counter in telemetry.metrics.counters()
                 if counter.name == "cxl.placement_decisions"]
    assert sum(counter.value for counter in decisions) == 1


def test_serving_simulator_fills_histograms(opt_30b, spr_a100,
                                            eval_config):
    from repro.serving.simulator import ServingSimulator

    telemetry = Telemetry()
    simulator = ServingSimulator(
        LiaEstimator(opt_30b, spr_a100, eval_config))
    requests = [InferenceRequest(1, 64, 8) for __ in range(5)]
    with activate(telemetry):
        report = simulator.run(requests, [0.0] * 5)
    latency = telemetry.metrics.histogram(
        "serving.latency_s", system=spr_a100.name, model=opt_30b.name)
    assert latency.count == 5
    # The streaming histogram agrees with the report's exact math.
    for fraction in (0.5, 0.95):
        assert latency.quantile(fraction) == pytest.approx(
            report.latency_percentile(fraction), rel=0.05)
    server_spans = telemetry.tracer.spans_on("server")
    assert len(server_spans) == 5
    assert server_spans[-1].finish == pytest.approx(report.makespan)
