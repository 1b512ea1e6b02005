"""Fault injector: degraded hardware copies, and the deterministic
chunk draws of the FIFO oracle (``tests/oracles/fifo_loop.py``)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import (FaultInjector, apply_faults,
                                   signature_system)
from repro.faults.scenarios import builtin_scenarios, get_scenario
from repro.faults.spec import FaultEvent, FaultKind, FaultScenario
from repro.hardware.system import get_system
from tests.oracles.fifo_loop import chunk_stalls, retry_succeeds


def _scenario(*events):
    return FaultScenario(name="test", seed=5, events=tuple(events))


def _degraded(injector, system, time):
    return signature_system(system, injector.performance_signature(time))


# ----------------------------------------------------------------------
# Scalar factors
# ----------------------------------------------------------------------
def test_factors_compose_only_inside_windows():
    system = get_system("spr-a100")
    injector = FaultInjector(_scenario(
        FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=10.0, duration=10.0,
                   magnitude=0.5),
        FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=15.0, duration=10.0,
                   magnitude=0.8)))

    def link_scale(time):
        return (_degraded(injector, system, time).host_link.bandwidth
                / system.host_link.bandwidth)

    assert link_scale(0.0) == 1.0
    assert link_scale(12.0) == pytest.approx(0.5)
    assert link_scale(17.0) == pytest.approx(0.4)   # overlap
    assert link_scale(22.0) == pytest.approx(0.8)
    assert link_scale(30.0) == 1.0


def test_stall_probability_composes_independently():
    injector = FaultInjector(_scenario(
        FaultEvent(FaultKind.PCIE_STALL, magnitude=0.5),
        FaultEvent(FaultKind.PCIE_STALL, magnitude=0.5)))
    assert injector.stall_probability(0.0) == pytest.approx(0.75)


def test_cpu_loss_and_gpu_reservation_compose():
    injector = FaultInjector(_scenario(
        FaultEvent(FaultKind.CPU_PREEMPTION, magnitude=0.5),
        FaultEvent(FaultKind.CPU_PREEMPTION, magnitude=0.5),
        FaultEvent(FaultKind.GPU_HBM_PRESSURE, magnitude=0.25)))
    system = get_system("spr-a100")
    degraded = _degraded(injector, system, 0.0)
    assert degraded.cpu.engines["amx"].peak_flops == pytest.approx(
        system.cpu.engines["amx"].peak_flops * 0.25)
    assert degraded.gpu.memory.capacity_bytes == pytest.approx(
        system.gpu.memory.capacity_bytes * 0.75)


# ----------------------------------------------------------------------
# Degraded systems
# ----------------------------------------------------------------------
def test_degraded_system_is_same_object_when_quiet():
    system = get_system("spr-a100")
    injector = FaultInjector(_scenario(
        FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=100.0, duration=10.0,
                   magnitude=0.5)))
    assert _degraded(injector, system, 0.0) is system


def test_degraded_system_memoizes_per_signature():
    """One degraded system per signature per run: the run's plan table
    builds it once, however many requests, replicas and instants see
    the signature — and the next run builds its own."""
    from repro.core.config import LiaConfig
    from repro.core.estimator import LiaEstimator
    from repro.models.workload import InferenceRequest
    from repro.models.zoo import get_model
    from repro.serving.degradation import PlanTable
    from repro.serving.replicas import MultiReplicaSimulator
    from repro.serving.vectorized import WorkloadVector
    from repro.telemetry import Telemetry, activate

    system = get_system("spr-a100")
    scenario = _scenario(
        FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=20.0, duration=100.0,
                   magnitude=0.5),
        FaultEvent(FaultKind.CPU_PREEMPTION, start=60.0, duration=100.0,
                   magnitude=0.25))
    estimator = LiaEstimator(get_model("opt-30b"), system,
                             LiaConfig(enforce_host_capacity=False))
    plans = PlanTable(estimator)
    request = InferenceRequest(1, 128, 8)
    signature = FaultInjector(scenario).performance_signature(30.0)
    telemetry = Telemetry()
    with activate(telemetry):
        first = plans.estimate(signature, request)
        second = plans.estimate(signature, InferenceRequest(1, 256, 8))
    assert telemetry.metrics.counter_value(
        "faults.degraded_systems", system=system.name) == 1
    assert first.latency > estimator.estimate(request).latency
    assert second.latency > first.latency

    workload = WorkloadVector.from_requests([request] * 40)
    arrivals = [5.0 * i for i in range(40)]
    fleet = MultiReplicaSimulator(estimator, 4)
    for run in (1, 2):
        telemetry = Telemetry()
        with activate(telemetry):
            fleet.run(workload, arrivals, scenario=scenario)
        # Three signatures (link, link+cpu, cpu), four replicas.
        assert telemetry.metrics.counter_value(
            "faults.degraded_systems", system=system.name) == 3


def test_apply_faults_touches_only_requested_subsystems():
    system = get_system("spr-a100").with_cxl(n_expanders=2)
    degraded = apply_faults(system, link_scale=0.5, cxl_scale=0.6,
                            cpu_loss=0.25, gpu_reserved=0.4)
    assert degraded.host_link.bandwidth == pytest.approx(
        system.host_link.bandwidth * 0.5)
    for base, hit in zip(system.cxl_devices, degraded.cxl_devices):
        assert hit.bandwidth == pytest.approx(base.bandwidth * 0.6)
    assert degraded.gpu.memory.capacity_bytes == pytest.approx(
        system.gpu.memory.capacity_bytes * 0.6)
    amx = degraded.cpu.engines["amx"]
    assert amx.peak_flops == pytest.approx(
        system.cpu.engines["amx"].peak_flops * 0.75)
    assert "!" in degraded.name
    # Untouched factors leave the original objects in place.
    same = apply_faults(system)
    assert same is system


def test_apply_faults_validates_ranges():
    system = get_system("spr-a100")
    with pytest.raises(ConfigurationError):
        apply_faults(system, link_scale=0.0)
    with pytest.raises(ConfigurationError):
        apply_faults(system, gpu_reserved=1.0)


# ----------------------------------------------------------------------
# Deterministic draws
# ----------------------------------------------------------------------
def test_chunk_stalls_deterministic_and_seed_sensitive():
    event = FaultEvent(FaultKind.PCIE_STALL, magnitude=0.3)
    a = FaultInjector(FaultScenario(seed=1, events=(event,)))
    b = FaultInjector(FaultScenario(seed=1, events=(event,)))
    c = FaultInjector(FaultScenario(seed=2, events=(event,)))
    draws_a = [chunk_stalls(a, 0.0, i, 40) for i in range(6)]
    draws_b = [chunk_stalls(b, 0.0, i, 40) for i in range(6)]
    draws_c = [chunk_stalls(c, 0.0, i, 40) for i in range(6)]
    assert draws_a == draws_b
    assert draws_a != draws_c
    assert all(s == tuple(sorted(set(s))) for s in draws_a)


def test_chunk_stalls_empty_without_probability():
    injector = FaultInjector(_scenario())
    assert chunk_stalls(injector, 0.0, 0, 100) == ()
    with pytest.raises(ConfigurationError):
        chunk_stalls(injector, 0.0, 0, -1)


def test_retry_succeeds_deterministic():
    injector = FaultInjector(_scenario(
        FaultEvent(FaultKind.PCIE_STALL, magnitude=0.4)))
    outcomes = [retry_succeeds(injector, 3, chunk, attempt, 0.0)
                for chunk in range(4) for attempt in range(3)]
    again = [retry_succeeds(injector, 3, chunk, attempt, 0.0)
             for chunk in range(4) for attempt in range(3)]
    assert outcomes == again
    # Stall probability zero -> always succeeds, no draws needed.
    calm = FaultInjector(_scenario())
    assert retry_succeeds(calm, 0, 0, 0, 0.0)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def test_builtin_scenarios_are_valid_and_named():
    scenarios = builtin_scenarios()
    assert len(scenarios) >= 5
    for name, scenario in scenarios.items():
        assert scenario.name == name
        assert not scenario.idle


def test_get_scenario_unknown_is_one_line():
    with pytest.raises(ConfigurationError, match="known scenarios"):
        get_scenario("nope")
