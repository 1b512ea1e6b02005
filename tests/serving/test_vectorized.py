"""Bit-identity and unit tests for the healthy FIFO engine.

The contract under test: ``ServingSimulator.run`` returns the *same
bits* as the per-request loop oracle (``tests/oracles/fifo_loop.py``)
— timelines, percentiles, utilization, queue delay, and the
``serving.*`` telemetry — for every workload the loop accepts.
"""

import math
import random

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving import (ServingReport, ServingSimulator,
                           WorkloadVector, arrivals_poisson,
                           lindley_timeline, run_fifo,
                           validate_arrivals)
from repro.telemetry import Telemetry, activate
from tests.oracles.fifo_loop import left_sum, run_loop


@pytest.fixture
def simulator(opt_30b, spr_a100, eval_config):
    return ServingSimulator(LiaEstimator(opt_30b, spr_a100, eval_config))


def _fresh_simulator(simulator):
    """Same estimator, no telemetry attached."""
    return ServingSimulator(simulator.estimator)


SHAPE_MIXES = {
    "single": [InferenceRequest(1, 128, 16)],
    "tier1": [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32),
              InferenceRequest(1, 512, 32), InferenceRequest(8, 256, 32)],
    "batched": [InferenceRequest(8, 256, 32), InferenceRequest(16, 128, 16)],
}


def _serving_rows(telemetry):
    return [row for row in telemetry.metrics.snapshot()
            if str(row["metric"]).startswith("serving.")]


# ----------------------------------------------------------------------
# The tentpole property: loop oracle == engine, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mix", sorted(SHAPE_MIXES))
@pytest.mark.parametrize("n_requests,rate", [(1, 0.5), (7, 0.05),
                                             (64, 0.2), (257, 1.0),
                                             (1000, 0.21)])
def test_vectorized_bit_identical_to_loop(simulator, mix, n_requests,
                                          rate):
    shapes = SHAPE_MIXES[mix]
    workload = WorkloadVector.sample_mix(shapes, n_requests, seed=7)
    requests = workload.to_requests()
    arrivals = arrivals_poisson(n_requests, rate, seed=11)

    loop_telemetry = Telemetry()
    with activate(loop_telemetry):
        loop = run_loop(_fresh_simulator(simulator), requests, arrivals)
    vec_telemetry = Telemetry()
    with activate(vec_telemetry):
        vec = _fresh_simulator(simulator).run(workload, arrivals)

    assert isinstance(vec, ServingReport)
    # Timelines: every start and finish, to the last bit.
    assert vec.starts.tolist() == [r.start for r in loop.served]
    assert vec.finishes.tolist() == [r.finish for r in loop.served]
    # Statistics: the exact floats the loop report computes.
    for fraction in (0.25, 0.5, 0.95, 0.99, 1.0):
        assert (vec.latency_percentile(fraction)
                == loop.latency_percentile(fraction))
    assert vec.utilization == loop.utilization
    assert vec.mean_queue_delay == loop.mean_queue_delay
    assert vec.makespan == loop.makespan
    assert vec.throughput_tokens_per_s == loop.throughput_tokens_per_s
    # Telemetry: the serving.* rows agree (the estimator's own
    # cache.* metrics are process-global and order-dependent, so the
    # parity contract is scoped to the serving layer).
    assert _serving_rows(vec_telemetry) == _serving_rows(loop_telemetry)


def test_vectorized_estimate_counters_match_loop(simulator):
    # computed = one per distinct shape, memoized = the repeats —
    # the loop's memoization totals, reproduced without the loop.
    shapes = SHAPE_MIXES["tier1"]
    workload = WorkloadVector.sample_mix(shapes, 100, seed=0)
    arrivals = arrivals_poisson(100, 0.2, seed=0)
    telemetry = Telemetry()
    with activate(telemetry):
        _fresh_simulator(simulator).run(workload, arrivals)
    assert telemetry.metrics.counter_value(
        "serving.estimates", result="computed") == len(shapes)
    assert telemetry.metrics.counter_value(
        "serving.estimates", result="memoized") == 100 - len(shapes)


def test_vectorized_spans_match_loop_below_cap(simulator):
    shapes = SHAPE_MIXES["tier1"]
    workload = WorkloadVector.sample_mix(shapes, 40, seed=3)
    requests = workload.to_requests()
    arrivals = arrivals_poisson(40, 0.3, seed=3)
    loop_telemetry = Telemetry()
    with activate(loop_telemetry):
        run_loop(_fresh_simulator(simulator), requests, arrivals)
    vec_telemetry = Telemetry()
    with activate(vec_telemetry):
        _fresh_simulator(simulator).run(workload, arrivals)

    def rows(telemetry):
        return [(s.name, s.track, s.start, s.finish)
                for s in telemetry.tracer.spans]

    assert rows(vec_telemetry) == rows(loop_telemetry)
    assert vec_telemetry.metrics.counter_value(
        "serving.spans_dropped") == 0.0


def test_vectorized_span_cap_counts_overflow(simulator):
    workload = WorkloadVector.sample_mix(
        SHAPE_MIXES["single"], 50, seed=0)
    arrivals = arrivals_poisson(50, 0.5, seed=0)
    telemetry = Telemetry()
    with activate(telemetry):
        run_fifo(simulator.estimator, workload, arrivals, span_cap=8)
    # Spans exist only for the first 8 requests; the other 42 are
    # counted, not emitted.
    spanned = {int(s.name[len("request["):-1])
               for s in telemetry.tracer.spans}
    assert spanned and max(spanned) <= 7
    assert telemetry.metrics.counter_value(
        "serving.spans_dropped",
        system=simulator.estimator.system.name,
        model=simulator.estimator.spec.name) == 42.0


def test_span_cap_truncation_is_loud(simulator):
    # Satellite contract: a capped trace warns once and exposes the
    # loss on the shared ``telemetry.spans.dropped`` counter, on top
    # of the serving layer's own counter above.
    workload = WorkloadVector.sample_mix(
        SHAPE_MIXES["single"], 50, seed=0)
    arrivals = arrivals_poisson(50, 0.5, seed=0)
    telemetry = Telemetry()
    with activate(telemetry):
        with pytest.warns(RuntimeWarning,
                          match="span cap truncated the trace"):
            run_fifo(simulator.estimator, workload, arrivals, span_cap=8)
    assert telemetry.metrics.counter_value(
        "telemetry.spans.dropped",
        component="serving.fifo") == 42.0


def test_auto_vectorize_dispatch(simulator):
    # Small or large, request list or columnar workload, every FIFO
    # run is the one engine and returns the same columnar report.
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["single"], 64,
                                         seed=0)
    arrivals = arrivals_poisson(64, 5.0, seed=0)
    for n in (1, 4, 64):
        listed = simulator.run(workload.to_requests()[:n], arrivals[:n])
        columnar = simulator.run(workload.subset(np.arange(n)),
                                 arrivals[:n])
        assert type(listed) is ServingReport
        assert type(columnar) is ServingReport
        assert listed.finishes.tolist() == columnar.finishes.tolist()


# ----------------------------------------------------------------------
# Lindley recursion kernel
# ----------------------------------------------------------------------
def _reference_timeline(arrivals, services):
    starts, finishes = [], []
    free_at = 0.0
    for arrival, service in zip(arrivals, services):
        start = arrival if arrival >= free_at else free_at
        free_at = start + service
        starts.append(start)
        finishes.append(free_at)
    return starts, finishes


@pytest.mark.parametrize("trial", range(25))
def test_lindley_fuzz_bit_identical(trial):
    rng = random.Random(trial)
    n = rng.choice([1, 2, 3, 17, 64, 65, 100, 513])
    rate = rng.choice([0.05, 0.3, 2.0])
    arrivals, clock = [], 0.0
    for __ in range(n):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    services = [abs(rng.gauss(1.0 / rate, 0.5 / rate)) for __ in range(n)]
    if trial % 5 == 0:  # zero-service runs stress boundary detection
        k = min(3, n)
        services = [0.0] * k + services[k:]
    starts, finishes = lindley_timeline(np.asarray(arrivals),
                                        np.asarray(services))
    ref_starts, ref_finishes = _reference_timeline(arrivals, services)
    assert starts.tolist() == ref_starts
    assert finishes.tolist() == ref_finishes


def test_lindley_rejects_mismatched_lengths():
    with pytest.raises(ConfigurationError):
        lindley_timeline(np.zeros(3), np.zeros(2))


# ----------------------------------------------------------------------
# WorkloadVector
# ----------------------------------------------------------------------
def test_workload_round_trip_preserves_order():
    requests = [InferenceRequest(1, 128, 16), InferenceRequest(8, 256, 32),
                InferenceRequest(1, 128, 16)]
    workload = WorkloadVector.from_requests(requests)
    assert workload.to_requests() == requests
    assert len(workload) == 3
    assert workload.shapes == (requests[0], requests[1])
    assert workload.request_at(2) == requests[0]


def test_workload_sample_mix_deterministic():
    shapes = SHAPE_MIXES["tier1"]
    a = WorkloadVector.sample_mix(shapes, 100, seed=5)
    b = WorkloadVector.sample_mix(shapes, 100, seed=5)
    assert np.array_equal(a.codes, b.codes)
    c = WorkloadVector.sample_mix(shapes, 100, seed=6)
    assert not np.array_equal(a.codes, c.codes)


def test_workload_counts_and_tokens():
    shapes = [InferenceRequest(1, 8, 2), InferenceRequest(1, 8, 4)]
    workload = WorkloadVector(shapes=tuple(shapes),
                              codes=np.array([0, 1, 1, 0, 1]))
    assert workload.counts().tolist() == [2, 3]
    expected = (2 * shapes[0].total_generated_tokens
                + 3 * shapes[1].total_generated_tokens)
    assert workload.total_generated_tokens == expected
    # Cached: the second ask returns the same array object.
    assert workload.counts() is workload.counts()


def test_workload_validation():
    shape = InferenceRequest(1, 8, 2)
    with pytest.raises(ConfigurationError, match="at least one"):
        WorkloadVector(shapes=(), codes=np.array([], dtype=np.int64))
    with pytest.raises(ConfigurationError, match="distinct"):
        WorkloadVector(shapes=(shape, shape), codes=np.array([0]))
    with pytest.raises(ConfigurationError, match="index"):
        WorkloadVector(shapes=(shape,), codes=np.array([0, 1]))
    with pytest.raises(ConfigurationError, match="index"):
        WorkloadVector(shapes=(shape,), codes=np.array([-1]))
    with pytest.raises(ConfigurationError, match="flat"):
        WorkloadVector(shapes=(shape,), codes=np.zeros((2, 2), int))
    with pytest.raises(ConfigurationError):
        WorkloadVector.sample_mix([shape], 0)
    with pytest.raises(ConfigurationError, match="weights"):
        WorkloadVector.sample_mix([shape], 5, weights=[1.0, 2.0])
    with pytest.raises(ConfigurationError, match="non-negative"):
        WorkloadVector.sample_mix([shape], 5, weights=[-1.0])


def test_workload_subset():
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 20,
                                         seed=1)
    sub = workload.subset(np.arange(0, 20, 2))
    assert sub.shapes == workload.shapes
    assert np.array_equal(sub.codes, workload.codes[::2])


# ----------------------------------------------------------------------
# Arrival validation + generation
# ----------------------------------------------------------------------
def test_validate_arrivals_rejects_nan():
    with pytest.raises(ConfigurationError, match="NaN"):
        validate_arrivals([0.0, float("nan"), 2.0])


def test_validate_arrivals_rejects_decreasing_and_2d():
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        validate_arrivals([0.0, 2.0, 1.0])
    with pytest.raises(ConfigurationError, match="flat"):
        validate_arrivals([[0.0], [1.0]])
    out = validate_arrivals([0.0, 0.0, 3.0])
    assert isinstance(out, np.ndarray) and out.dtype == np.float64


def test_validate_arrivals_rejects_infinite_and_negative():
    with pytest.raises(ConfigurationError, match="finite"):
        validate_arrivals([0.0, 1.0, float("inf")])
    with pytest.raises(ConfigurationError, match=">= 0"):
        validate_arrivals([float("-inf"), 1.0])
    with pytest.raises(ConfigurationError, match=">= 0"):
        validate_arrivals([-5.0, 1.0])
    assert validate_arrivals([-0.0, 2.0]).tolist() == [0.0, 2.0]
    assert validate_arrivals([]).size == 0


def test_arrivals_poisson_matches_inline_stream():
    # Byte-identical to the generator the serving CLI always used: one
    # random.Random(seed) stream of expovariate gaps.
    rng = random.Random(9)
    clock, expected = 0.0, []
    for __ in range(50):
        clock += rng.expovariate(0.25)
        expected.append(clock)
    assert arrivals_poisson(50, 0.25, seed=9) == expected
    assert arrivals_poisson(0, 1.0) == []
    with pytest.raises(ConfigurationError):
        arrivals_poisson(-1, 1.0)
    with pytest.raises(ConfigurationError):
        arrivals_poisson(5, 0.0)
    with pytest.raises(ConfigurationError, match="finite"):
        arrivals_poisson(5, math.inf)


def test_poisson_stream_loop_vs_vectorized(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 200,
                                         seed=2)
    arrivals = arrivals_poisson(200, 0.21, seed=2)
    loop = run_loop(simulator, workload.to_requests(), arrivals)
    vec = simulator.run(workload, arrivals)
    assert vec.starts.tolist() == [r.start for r in loop.served]
    assert vec.finishes.tolist() == [r.finish for r in loop.served]


# ----------------------------------------------------------------------
# Report behavior
# ----------------------------------------------------------------------
def _vector_report(simulator, n, rate=0.5):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], n, seed=0)
    arrivals = arrivals_poisson(n, rate, seed=0)
    return simulator.run(workload, arrivals)


def test_streaming_percentiles_kick_in_above_limit(simulator):
    exact = _vector_report(simulator, 64)
    assert not exact.streaming_percentiles
    forced = _vector_report(simulator, 64)
    forced.exact_percentile_limit = 63
    assert forced.streaming_percentiles
    # Streaming stays within the histogram's relative-error envelope.
    for fraction in (0.5, 0.95, 0.99):
        assert forced.latency_percentile(fraction) == pytest.approx(
            exact.latency_percentile(fraction), rel=0.05)


def test_exact_percentile_sort_is_cached(simulator):
    report = _vector_report(simulator, 32)
    report.latency_percentile(0.5)
    first = report._sorted_latencies
    assert first is not None
    report.latency_percentile(0.95)
    assert report._sorted_latencies is first


def test_summary_matches_individual_statistics(simulator):
    report = _vector_report(simulator, 100)
    summary = report.summary((0.5, 0.95, 0.99))
    assert summary["p50"] == report.latency_percentile(0.5)
    assert summary["p95"] == report.latency_percentile(0.95)
    assert summary["p99"] == report.latency_percentile(0.99)
    assert summary["utilization"] == report.utilization
    assert summary["mean_queue_delay_s"] == report.mean_queue_delay
    assert summary["makespan_s"] == report.makespan
    assert (summary["throughput_tokens_per_s"]
            == report.throughput_tokens_per_s)


def test_materialize_round_trip(simulator):
    # ``served`` builds the per-request view lazily; ``iter_timeline``
    # streams the same rows without objects.
    report = _vector_report(simulator, 10)
    assert [r.start for r in report.served] == report.starts.tolist()
    assert report.served[3].latency == report.latencies[3]
    rows = list(report.iter_timeline())
    assert len(rows) == 10
    assert rows[0][0] == report.workload.request_at(0)
    assert [row[3] for row in rows] == report.finishes.tolist()


def test_parity_on_order_sensitive_service_sum(simulator):
    # A trace whose total service time depends on the summation
    # order: the exactly rounded sum (what Python 3.12's compensated
    # ``sum()`` approximates) differs from the left fold.  The engine
    # report and the loop oracle must both fold left to right, so
    # their utilization and mean queue delay still agree bit for bit.
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 3000,
                                         seed=1)
    arrivals = arrivals_poisson(3000, 0.21, seed=1)
    loop = run_loop(_fresh_simulator(simulator), workload.to_requests(),
                    arrivals)
    vec = _fresh_simulator(simulator).run(workload, arrivals)
    services = [r.service_time for r in loop.served]
    delays = [r.queue_delay for r in loop.served]
    assert math.fsum(services) != left_sum(services)
    assert math.fsum(delays) != left_sum(delays)
    assert vec.busy_s == left_sum(services)
    assert vec.utilization == loop.utilization
    assert vec.mean_queue_delay == loop.mean_queue_delay
