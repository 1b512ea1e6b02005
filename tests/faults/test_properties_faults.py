"""Property-based tests (hypothesis) on fault-layer invariants.

The two contract-level properties the robustness layer promises:

* an enabled-but-idle fault layer is bit-identical to no fault layer;
* a seeded fault scenario is deterministic across repeat runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy)
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import arrivals_poisson

CONFIG = LiaConfig(enforce_host_capacity=False)

_REQUESTS = [InferenceRequest(4, 256, 32)] * 6


def _simulator():
    from repro.hardware.system import get_system

    return ServingSimulator(
        LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                     CONFIG))


def _timeline(report):
    return [(s.arrival, s.start, s.finish) for s in report.served]


# Bounded magnitudes per kind so every generated event validates.
_events = st.one_of(
    st.builds(FaultEvent,
              kind=st.just(FaultKind.PCIE_DOWNSHIFT),
              start=st.floats(0.0, 200.0),
              duration=st.floats(1.0, 500.0),
              magnitude=st.floats(0.25, 1.0, exclude_min=False)),
    st.builds(FaultEvent,
              kind=st.just(FaultKind.CXL_CONTENTION),
              start=st.floats(0.0, 200.0),
              duration=st.floats(1.0, 500.0),
              magnitude=st.floats(0.25, 1.0)),
    st.builds(FaultEvent,
              kind=st.just(FaultKind.CPU_PREEMPTION),
              start=st.floats(0.0, 200.0),
              duration=st.floats(1.0, 500.0),
              magnitude=st.floats(0.0, 0.6)),
    st.builds(FaultEvent,
              kind=st.just(FaultKind.GPU_HBM_PRESSURE),
              start=st.floats(0.0, 200.0),
              duration=st.floats(1.0, 500.0),
              magnitude=st.floats(0.0, 0.5)),
    st.builds(FaultEvent,
              kind=st.just(FaultKind.PCIE_STALL),
              start=st.floats(0.0, 200.0),
              duration=st.floats(1.0, 500.0),
              magnitude=st.floats(0.0, 0.3)),
)

_scenarios = st.builds(
    FaultScenario,
    name=st.just("generated"),
    seed=st.integers(0, 2 ** 16),
    events=st.lists(_events, min_size=1, max_size=4).map(tuple),
    retry=st.builds(RetryPolicy,
                    max_retries=st.integers(0, 3),
                    timeout_s=st.floats(0.0, 0.2),
                    backoff_base_s=st.floats(0.0, 0.05),
                    backoff_factor=st.floats(1.0, 3.0)),
    admission=st.builds(AdmissionPolicy,
                        max_queue_depth=st.integers(0, 8),
                        max_deferrals=st.integers(0, 3)))


# ----------------------------------------------------------------------
# Pure-spec properties (cheap, many examples)
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(start=st.floats(0.0, 1e6), duration=st.floats(1e-6, 1e6),
       probe=st.floats(0.0, 2e6))
def test_fault_window_is_half_open(start, duration, probe):
    event = FaultEvent(FaultKind.PCIE_STALL, start=start,
                       duration=duration, magnitude=0.1)
    assert event.active_at(probe) == (start <= probe < start + duration)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), index=st.integers(0, 2 ** 16))
def test_rng_streams_are_reproducible(seed, index):
    scenario = FaultScenario(seed=seed)
    assert (scenario.rng_for(index).random()
            == scenario.rng_for(index).random())


@settings(max_examples=100, deadline=None)
@given(base=st.floats(1e-6, 1.0), factor=st.floats(1.0, 4.0),
       attempts=st.integers(1, 8))
def test_backoff_is_monotonically_non_decreasing(base, factor, attempts):
    retry = RetryPolicy(backoff_base_s=base, backoff_factor=factor)
    delays = [retry.backoff_delay(k) for k in range(attempts)]
    assert delays == sorted(delays)


# ----------------------------------------------------------------------
# Simulation properties (estimator-backed: few, heavier examples)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def simulator():
    return _simulator()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_enabled_but_idle_layer_is_bit_identical(simulator, seed):
    """Any idle scenario — whatever its seed or retry knobs — leaves
    the timeline untouched, bit for bit."""
    idle = FaultScenario(name="idle", seed=seed,
                         retry=RetryPolicy(max_retries=seed % 4))
    assert idle.idle
    arrivals = arrivals_poisson(len(_REQUESTS), 0.05, seed=1)
    base = simulator.run(_REQUESTS, arrivals)
    layered = simulator.run(_REQUESTS, arrivals, scenario=idle)
    assert _timeline(base) == _timeline(layered)


@settings(max_examples=8, deadline=None)
@given(scenario=_scenarios)
def test_seeded_scenarios_deterministic_across_repeat_runs(simulator,
                                                           scenario):
    """The same scenario yields the same report on every run: fault
    draws key off (seed, request index), never off scheduling
    order."""
    results = []
    for _ in range(2):
        report = simulator.run(
            _REQUESTS, arrivals_poisson(len(_REQUESTS), 0.05, seed=2),
            scenario=scenario)
        dropped = [(d.arrival, d.reason)
                   for d in getattr(report, "dropped", [])]
        stats = getattr(report, "stats", None)
        results.append((_timeline(report), dropped,
                        stats.as_dict() if stats else None))
    assert results[0] == results[1]
