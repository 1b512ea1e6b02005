"""Per-call plan tables: a serving call estimates each distinct
(fault signature, shape) point once, and no call inherits another's
estimates — a second identical call costs what the first did."""

from collections import Counter

import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.faults.spec import FaultEvent, FaultKind, FaultScenario
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.replicas import MultiReplicaSimulator, replicas_needed
from repro.serving.simulator import ServingSimulator, arrivals_poisson
from repro.serving.vectorized import WorkloadVector

#: Under the HBM-pressure window the batch-8 shape no longer fits and
#: shrinks: its full-batch point raises ``CapacityError``.
SHAPES = (InferenceRequest(1, 128, 8), InferenceRequest(8, 512, 16))
SCENARIO = FaultScenario(
    name="pressure-then-downshift", seed=3,
    events=(FaultEvent(FaultKind.GPU_HBM_PRESSURE, start=40.0,
                       duration=80.0, magnitude=0.9),
            FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=80.0,
                       duration=120.0, magnitude=0.5)))


@pytest.fixture
def estimator():
    return LiaEstimator(get_model("opt-66b"), get_system("spr-a100"),
                        LiaConfig(enforce_host_capacity=False))


@pytest.fixture
def calls(monkeypatch):
    """Every ``LiaEstimator.estimate`` call as ``(system, request)``."""
    seen = []
    original = LiaEstimator.estimate

    def counted(self, request):
        seen.append((self.system.name, request))
        return original(self, request)

    monkeypatch.setattr(LiaEstimator, "estimate", counted)
    return seen


def _workload(n):
    return (WorkloadVector.sample_mix(list(SHAPES), n, seed=1),
            arrivals_poisson(n, 0.4, seed=2))


def _run_twice(calls, run):
    runs = []
    for _ in range(2):
        del calls[:]
        run()
        runs.append(Counter(calls))
    return runs


def test_fresh_simulators_estimate_alike(estimator, calls):
    workload, arrivals = _workload(120)
    first, second = _run_twice(calls, lambda: ServingSimulator(
        estimator).run(workload, arrivals, scenario=SCENARIO))
    assert first == second
    assert set(first.values()) == {1}
    assert len({system for system, __ in first}) == 4


def test_fleet_estimates_each_point_once(estimator, calls):
    workload, arrivals = _workload(120)
    fleet = MultiReplicaSimulator(estimator, 3)
    first, second = _run_twice(
        calls, lambda: fleet.run(workload, arrivals, scenario=SCENARIO))
    assert first == second
    # Each (platform, shape) once, across all three replicas — the
    # shrunk batches and the full batch that raised included.
    assert set(first.values()) == {1}
    assert {request.batch_size for __, request in first} > {1, 8}


def test_replicas_needed_estimates_each_shape_once(estimator, calls):
    workload, __ = _workload(400)
    arrivals = arrivals_poisson(400, 2.0, seed=4)
    system = estimator.system.name
    searches = _run_twice(calls, lambda: replicas_needed(
        estimator, workload, arrivals, slo_p95_seconds=30.0))
    for search in searches:
        assert search == Counter({(system, shape): 1 for shape in SHAPES})
    k, __ = replicas_needed(estimator, workload, arrivals, 30.0)
    assert k > 2  # the search simulated several fleet sizes
