"""Per-call plan tables: a serving call estimates each distinct
(fault signature, shape) point once, and no call inherits another's
estimates — a second identical call costs what the first did."""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError
from repro.faults.spec import FaultEvent, FaultKind, FaultScenario
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.degradation import PlanTable
from repro.serving.replicas import MultiReplicaSimulator, replicas_needed
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import arrivals_poisson
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
    """Every request ``LiaEstimator`` estimates, as ``(system,
    request)``: ``estimate`` is the one-point case of
    ``estimate_many``, so this sees both."""
    seen = []
    original = LiaEstimator.estimate_many

    def counted(self, requests):
        seen.extend((self.system.name, request) for request in requests)
        return original(self, requests)

    monkeypatch.setattr(LiaEstimator, "estimate_many", counted)
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


def test_service_times_raise_first_used_shape_that_does_not_fit(calls):
    """One batched call estimates the shapes a stream uses; the first
    of them (in shape order) that overflows host memory raises."""
    estimator = LiaEstimator(get_model("opt-175b"), get_system("spr-a100"),
                             LiaConfig())
    shapes = (InferenceRequest(1, 128, 8), InferenceRequest(2048, 2048, 8),
              InferenceRequest(4096, 2048, 8))
    errors = estimator.estimate_many(shapes)[1:]
    assert all(isinstance(error, CapacityError) for error in errors)
    for codes, error in (([2, 0, 1], errors[0]), ([2, 0], errors[1])):
        del calls[:]
        with pytest.raises(CapacityError) as raised:
            PlanTable(estimator).service_times(
                WorkloadVector(shapes, np.array(codes)))
        assert str(raised.value) == str(error)
        assert sorted(request.batch_size for __, request in calls) == sorted(
            shapes[code].batch_size for code in codes)


def test_service_column_is_gathered_once_per_workload(estimator):
    """A search's fleet sizes share one read-only service column; a
    different workload object gets its own."""
    plans = PlanTable(estimator)
    workload = WorkloadVector(SHAPES, np.array([0, 1, 1, 0]))
    column = plans.service_times(workload)
    assert plans.service_times(workload) is column
    assert not column.flags.writeable
    with pytest.raises(ValueError):
        column[0] = 0.0
    again = WorkloadVector(SHAPES, np.array([0, 1, 1, 0]))
    other = plans.service_times(again)
    assert other is not column
    assert np.array_equal(other.view(np.uint64), column.view(np.uint64))
