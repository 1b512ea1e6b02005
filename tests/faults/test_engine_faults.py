"""Engine transfer-fault accounting: invariance and determinism."""

import numpy as np
import pytest

from repro.core.policy import OffloadPolicy
from repro.faults.engine import TransferFaultModel
from repro.faults.scenarios import get_scenario
from repro.faults.spec import FaultEvent, FaultKind, FaultScenario
from repro.inference.engine import CooperativeEngine
from repro.inference.transformer import TinyTransformer
from repro.telemetry.runtime import Telemetry, activate


@pytest.fixture
def model(tiny_spec):
    return TinyTransformer(tiny_spec, seed=0)


def _generate(model, fault_model=None):
    engine = CooperativeEngine(
        model, OffloadPolicy.from_string("101010"),
        OffloadPolicy.from_string("010101"), fault_model=fault_model)
    prompt = (np.arange(6) % model.spec.vocab_size)[None, :]
    return engine.generate(prompt, max_new_tokens=3)


def test_idle_fault_model_is_invisible(model):
    base = _generate(model)
    idle = _generate(model, TransferFaultModel(
        FaultScenario(name="idle", seed=5)))
    assert np.array_equal(base.tokens, idle.tokens)
    assert base.pcie_bytes == idle.pcie_bytes
    assert len(base.transfers.records) == len(idle.transfers.records)


def test_faults_never_touch_tokens_or_traffic(model):
    base = _generate(model)
    fault_model = TransferFaultModel(get_scenario("pcie-flaky"))
    faulty = _generate(model, fault_model)
    assert np.array_equal(base.tokens, faulty.tokens)
    assert base.pcie_bytes == faulty.pcie_bytes
    assert fault_model.stalls > 0   # seed 2 at p=0.03 over ~100 xfers


def test_fault_draws_are_deterministic(model):
    first = TransferFaultModel(get_scenario("pcie-flaky"))
    second = TransferFaultModel(get_scenario("pcie-flaky"))
    _generate(model, first)
    _generate(model, second)
    assert (first.stalls, first.retries, first.failures) == (
        second.stalls, second.retries, second.failures)


def test_fault_model_emits_counters_and_retry_spans(model):
    telemetry = Telemetry()
    fault_model = TransferFaultModel(get_scenario("pcie-flaky"))
    with activate(telemetry):
        _generate(model, fault_model)
    metrics = {sample["metric"]: sample["value"]
               for sample in telemetry.metrics.snapshot()}
    assert metrics.get("faults.engine.stalls", 0) == fault_model.stalls
    retry_spans = [sp for sp in telemetry.tracer.spans
                   if sp.track == "faults"]
    assert len(retry_spans) == fault_model.retries
    assert all(sp.name.startswith("retry:") for sp in retry_spans)


def test_stall_probability_composition():
    scenario = FaultScenario(
        name="double", seed=0,
        events=(FaultEvent(FaultKind.PCIE_STALL, magnitude=0.5),
                FaultEvent(FaultKind.PCIE_STALL, magnitude=0.5)))
    assert TransferFaultModel(scenario).probability == pytest.approx(0.75)
    assert TransferFaultModel(
        FaultScenario(name="calm", seed=0)).idle
