"""Capacity search: the backlog bound, its in-place probe, streaming
p95 by selection, and the search's agreement with an exhaustive one.

``replicas_needed`` skips simulating a round-robin fleet size whose
backlog bound already misses the SLO, and a streaming percentile is
read off the selected order statistic instead of a histogram.  Both
shortcuts must leave every answer bit-identical.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import (MultiReplicaSimulator, WorkloadVector,
                           arrivals_poisson, replicas_needed)
from repro.serving.degradation import PlanTable
from repro.serving.replicas import _bound_misses, backlog_bound
from repro.serving.simulator import (DEFAULT_EXACT_PERCENTILE_LIMIT,
                                     ServingReport, nearest_rank)
from repro.telemetry.metrics import StreamingHistogram
from tests.oracles.differentials import check_capacity_search
from tests.oracles.replicas_search import (fleet_size_summary,
                                           replicas_needed_exhaustive)

SHAPES = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32),
          InferenceRequest(8, 256, 32)]
GROWTH = StreamingHistogram.GROWTH


@pytest.fixture(scope="module")
def estimator():
    return LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                        LiaConfig(enforce_host_capacity=False))


# ----------------------------------------------------------------------
# Streaming percentiles by selection
# ----------------------------------------------------------------------
def _boundary_values():
    """Bucket edges ``GROWTH ** i`` and their float neighbours."""
    edges = st.integers(-400, 400).map(lambda i: GROWTH ** i)
    return st.one_of(
        edges,
        edges.map(lambda edge: float(np.nextafter(edge, 0.0))),
        edges.map(lambda edge: float(np.nextafter(edge, np.inf))))


SAMPLES = st.lists(
    st.one_of(st.floats(-1e3, 1e7, allow_nan=False),
              st.sampled_from([0.0, -0.0, 1.0, 1e-300]),
              _boundary_values()),
    min_size=1, max_size=60)
FRACTIONS = st.one_of(st.sampled_from([1.0, 0.95, 0.5, 1e-12]),
                      st.floats(1e-12, 1.0))


def _streaming_report(latencies):
    """A report whose latencies are ``latencies`` and whose
    percentiles always take the streaming path."""
    n = latencies.size
    zeros = np.zeros(n)
    return ServingReport(
        WorkloadVector(shapes=(SHAPES[0],),
                       codes=np.zeros(n, dtype=np.int64)),
        zeros, zeros.copy(), latencies.copy(),
        exact_percentile_limit=0)


@settings(max_examples=300, deadline=None)
@given(values=SAMPLES, fraction=FRACTIONS)
@example(values=[0.0, -1.0, 2.0], fraction=0.5)
@example(values=[GROWTH ** 7, GROWTH ** 7], fraction=1.0)
@example(values=[5.0, 3.0, 4.0], fraction=1e-12)
def test_streaming_percentile_is_the_histogram_estimate(values,
                                                        fraction):
    latencies = np.array(values, dtype=np.float64)
    report = _streaming_report(latencies)
    assert report.streaming_percentiles
    histogram = StreamingHistogram()
    histogram.observe_array(latencies)
    assert report.latency_percentile(fraction) == \
        histogram.quantile(fraction)


# ----------------------------------------------------------------------
# The backlog bound
# ----------------------------------------------------------------------
def _fleet_inputs(gaps, codes, origin):
    n = len(gaps)
    workload = WorkloadVector(shapes=tuple(SHAPES),
                              codes=np.array(codes[:n], dtype=np.int64))
    arrivals = np.add.accumulate(np.array([origin] + gaps))[1:]
    return workload, arrivals


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
                     min_size=1, max_size=120),
       codes=st.lists(st.integers(0, len(SHAPES) - 1), min_size=120,
                      max_size=120),
       origin=st.sampled_from([0.0, 0.3, 1e4, 1e9]),
       k=st.integers(1, 9))
def test_backlog_bound_never_exceeds_simulated_latency(estimator, gaps,
                                                       codes, origin,
                                                       k):
    workload, arrivals = _fleet_inputs(gaps, codes, origin)
    report = MultiReplicaSimulator(estimator, k).run(workload, arrivals)
    services = PlanTable(estimator).service_times(workload)
    bound = backlog_bound(arrivals, services, k)
    assert bound.shape == arrivals.shape
    assert (bound <= report.latencies).all()


@pytest.mark.parametrize("k", [1, 3, 8])
def test_backlog_bound_is_exact_when_replicas_never_idle(estimator, k):
    # Every request arrives at once: no replica idles after its first
    # arrival, so the fold is the simulated finish, bit for bit.
    workload = WorkloadVector.sample_mix(SHAPES, 50, seed=2)
    arrivals = np.full(50, 1234.567)
    report = MultiReplicaSimulator(estimator, k).run(workload, arrivals)
    bound = backlog_bound(
        arrivals, PlanTable(estimator).service_times(workload), k)
    assert np.array_equal(bound, report.latencies)


# ----------------------------------------------------------------------
# The in-place probe
# ----------------------------------------------------------------------
@st.composite
def _probe_streams(draw):
    """Arrivals and service times of up to 40 requests, some tied."""
    n = draw(st.integers(1, 40))
    times = st.one_of(st.just(0.0), st.floats(0.0, 50.0),
                      st.sampled_from([1e-9, 7.25]))
    gaps = draw(st.lists(times, min_size=n, max_size=n))
    services = draw(st.lists(times, min_size=n, max_size=n))
    origin = draw(st.sampled_from([0.0, 0.3, 1e4]))
    return (origin + np.add.accumulate(np.array(gaps)),
            np.array(services))


@settings(max_examples=200, deadline=None)
@given(stream=_probe_streams(), shift=st.floats(-60.0, 60.0))
def test_in_place_probe_decides_as_the_selected_p95(stream, shift):
    # Every fleet size from 1 to n + 2 (so n < k and n % k != 0 both
    # occur) folds into one buffer, stale from the size before and
    # NaN-filled at first.  The limits are the size's own p95 (the
    # probe must keep it), the float just below it (it must rule the
    # size out), and a drawn offset from it.
    arrivals, services = stream
    n = arrivals.size
    scratch = np.full(n, np.nan)
    for k in range(1, n + 3):
        p95 = nearest_rank(backlog_bound(arrivals, services, k), 0.95)
        for limit in (p95, float(np.nextafter(p95, -np.inf)),
                      p95 + shift):
            expected = nearest_rank(
                backlog_bound(arrivals, services, k), 0.95) > limit
            assert _bound_misses(arrivals, services, k, limit,
                                 scratch) == expected


# ----------------------------------------------------------------------
# The search against the exhaustive oracle
# ----------------------------------------------------------------------
def _count_runs(monkeypatch):
    import repro.serving.replicas as replicas_module

    simulated = []
    original_run = replicas_module.MultiReplicaSimulator._run

    def counting_run(self, *args, **kwargs):
        simulated.append(self.n_replicas)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(replicas_module.MultiReplicaSimulator, "_run",
                        counting_run)
    return simulated


@pytest.mark.parametrize("n, rate, seed, slo, dispatch", [
    (3000, 1.6, 0, 60.0, "round-robin"),
    (3000, 1.6, 1, 20.0, "round-robin"),
    (3000, 0.6, 2, 60.0, "round-robin"),
    (3000, 3.0, 3, 8.0, "round-robin"),
    (800, 1.6, 4, 30.0, "least-loaded"),
    (DEFAULT_EXACT_PERCENTILE_LIMIT + 40_000, 1.6, 5, 60.0,
     "round-robin"),
])
def test_search_matches_exhaustive_oracle(estimator, n, rate, seed, slo,
                                          dispatch):
    workload = WorkloadVector.sample_mix(SHAPES, n, seed=seed)
    arrivals = np.asarray(arrivals_poisson(n, rate, seed=seed + 100))
    check_capacity_search(estimator, workload, arrivals, slo, dispatch)


@pytest.mark.parametrize("k_slo", [1, 5, 12])
def test_search_matches_oracle_with_the_slo_on_a_bound(estimator, k_slo):
    # Everything arrives at once, so every bound equals its latency,
    # and the SLO is the k_slo fleet's p95 exactly: that size meets
    # the SLO with no slack, and any size whose bound overshoots
    # would be ruled out wrongly.
    workload = WorkloadVector.sample_mix(SHAPES, 3000, seed=7)
    arrivals = np.zeros(3000)
    slo = MultiReplicaSimulator(estimator, k_slo).run(
        workload, arrivals).latency_percentile(0.95)
    oracle_k, oracle, __ = replicas_needed_exhaustive(
        estimator, workload, arrivals, slo)
    k, report = replicas_needed(estimator, workload, arrivals, slo)
    assert k == oracle_k == k_slo
    assert fleet_size_summary(report) == fleet_size_summary(oracle)


def test_cap_is_always_simulated(estimator, monkeypatch):
    workload = WorkloadVector.sample_mix(SHAPES, 2000, seed=6)
    arrivals = arrivals_poisson(2000, 1.6, seed=6)
    with pytest.raises(CapacityError) as expected:
        replicas_needed_exhaustive(estimator, workload, arrivals, 60.0,
                                   max_replicas=4)
    simulated = _count_runs(monkeypatch)
    with pytest.raises(CapacityError) as raised:
        replicas_needed(estimator, workload, arrivals, 60.0,
                        max_replicas=4)
    assert str(raised.value) == str(expected.value)
    assert simulated == [4]


def test_shape_that_does_not_fit_raises_the_same_error():
    estimator = LiaEstimator(get_model("opt-175b"), get_system("spr-a100"),
                             LiaConfig())
    shapes = (InferenceRequest(1, 128, 8), InferenceRequest(2048, 2048, 8))
    workload = WorkloadVector(shapes, np.array([0, 1, 0, 0, 1]))
    arrivals = [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(CapacityError) as expected:
        replicas_needed_exhaustive(estimator, workload, arrivals, 60.0)
    with pytest.raises(CapacityError) as raised:
        replicas_needed(estimator, workload, arrivals, 60.0)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_margin_keeps_a_size_whose_streaming_p95_meets_the_slo(
        estimator):
    # Everything arrives at once, so the bound is the latency itself;
    # the streaming p95 (a bucket midpoint) sits below the exact order
    # statistic.  With the SLO set to that streaming p95, one replica
    # meets it although its bound's p95 exceeds it: only the GROWTH**2
    # margin keeps the search from ruling the size out.
    n = DEFAULT_EXACT_PERCENTILE_LIMIT + 1000
    workload = WorkloadVector.sample_mix(SHAPES, n, seed=0)
    arrivals = np.zeros(n)
    report = MultiReplicaSimulator(estimator, 1).run(workload, arrivals)
    slo = report.latency_percentile(0.95)
    services = PlanTable(estimator).service_times(workload)
    assert nearest_rank(backlog_bound(arrivals, services, 1),
                        0.95) > slo
    limit = slo * GROWTH ** 2
    assert not nearest_rank(backlog_bound(arrivals, services, 1),
                            0.95) > limit
    assert not _bound_misses(arrivals, services, 1, limit,
                             np.empty(n))
    k, found = replicas_needed(estimator, workload, arrivals, slo)
    assert k == 1
    assert fleet_size_summary(found) == fleet_size_summary(report)
