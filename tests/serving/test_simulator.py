"""Online serving simulation."""

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.simulator import ServingReport, ServingSimulator
from repro.serving.vectorized import WorkloadVector
from repro.workloads.traces import arrivals_poisson


@pytest.fixture
def simulator(opt_30b, spr_a100, eval_config):
    return ServingSimulator(LiaEstimator(opt_30b, spr_a100, eval_config))


def _requests(n):
    return [InferenceRequest(1, 128, 16) for __ in range(n)]


def test_fifo_ordering_and_queueing(simulator):
    # Three simultaneous arrivals: each waits for its predecessors.
    report = simulator.run(_requests(3), [0.0, 0.0, 0.0])
    served = report.served
    assert served[0].queue_delay == 0.0
    assert served[1].start == pytest.approx(served[0].finish)
    assert served[2].start == pytest.approx(served[1].finish)
    assert served[2].latency > served[0].latency


def test_idle_server_has_no_queue_delay(simulator):
    # Arrivals far apart: no queueing.
    report = simulator.run(_requests(3), [0.0, 1000.0, 2000.0])
    assert all(r.queue_delay == 0.0 for r in report.served)
    assert report.utilization < 0.1


def test_percentiles_and_throughput(simulator):
    report = simulator.run(_requests(5), [0.0] * 5)
    p50 = report.latency_percentile(0.5)
    p95 = report.latency_percentile(0.95)
    assert p50 <= p95 <= report.makespan
    assert report.throughput_tokens_per_s > 0
    with pytest.raises(ConfigurationError):
        report.latency_percentile(0.0)


def test_poisson_deterministic_with_seed(simulator):
    a = simulator.run(_requests(5), arrivals_poisson(5, 0.5, seed=3))
    b = simulator.run(_requests(5), arrivals_poisson(5, 0.5, seed=3))
    assert [r.arrival for r in a.served] == [r.arrival for r in b.served]
    c = simulator.run(_requests(5), arrivals_poisson(5, 0.5, seed=4))
    assert [r.arrival for r in a.served] != [r.arrival for r in c.served]


def test_higher_rate_means_more_queueing(simulator):
    slow = simulator.run(_requests(8), arrivals_poisson(8, 0.01, seed=0))
    fast = simulator.run(_requests(8), arrivals_poisson(8, 10.0, seed=0))
    assert fast.mean_queue_delay >= slow.mean_queue_delay
    assert fast.utilization >= slow.utilization


def _empty_report():
    empty = np.empty(0)
    return ServingReport(
        WorkloadVector(shapes=(InferenceRequest(1, 8, 1),),
                       codes=np.empty(0, dtype=np.int64)),
        empty, empty, empty)


def test_percentile_empty_report_is_impossible():
    # An empty report cannot exist, so percentiles never see one.
    with pytest.raises(ConfigurationError, match="at least one"):
        _empty_report()


@pytest.mark.parametrize("served_index, dropped_index", [
    (None, [1]),          # all three served, one also dropped
    ([0, 1], []),         # request 2 neither served nor dropped
    ([0, 2], [1, 2]),     # request 2 both served and dropped
    ([0, 1], [1]),        # request 1 both, request 2 neither
])
def test_report_rejects_inconsistent_accounting(served_index,
                                                dropped_index):
    workload = WorkloadVector(shapes=(InferenceRequest(1, 8, 1),),
                              codes=np.zeros(3, dtype=np.int64))
    arrivals = np.array([0.0, 1.0, 2.0])
    n_served = 3 if served_index is None else len(served_index)
    timeline = np.arange(n_served, dtype=np.float64)
    with pytest.raises(ConfigurationError, match="accounting"):
        ServingReport(
            workload, arrivals, timeline, timeline + 1.0,
            served_index=(None if served_index is None
                          else np.array(served_index)),
            dropped_index=np.array(dropped_index),
            dropped_reasons=["queue-full"] * len(dropped_index))


def test_percentile_single_request(simulator):
    report = simulator.run(_requests(1), [0.0])
    only = report.served[0].latency
    for fraction in (0.01, 0.5, 0.95, 1.0):
        assert report.latency_percentile(fraction) == pytest.approx(only)


def test_percentile_fraction_bounds(simulator):
    report = simulator.run(_requests(3), [0.0] * 3)
    with pytest.raises(ConfigurationError, match="fraction"):
        report.latency_percentile(0.0)
    with pytest.raises(ConfigurationError, match="fraction"):
        report.latency_percentile(1.0001)
    with pytest.raises(ConfigurationError, match="fraction"):
        report.latency_percentile(-0.5)
    # fraction 1.0 is inclusive: the slowest request.
    assert report.latency_percentile(1.0) == pytest.approx(
        max(r.latency for r in report.served))


def test_percentiles_cross_check_telemetry_histogram(simulator):
    # The streaming histogram the simulator feeds must agree with the
    # report's exact order statistics on the same run.
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    with activate(telemetry):
        report = simulator.run(_requests(9), [0.0] * 9)
    histogram = telemetry.metrics.histogram(
        "serving.latency_s", system=simulator.estimator.system.name,
        model=simulator.estimator.spec.name)
    assert histogram.count == len(report.served)
    for fraction in (0.25, 0.5, 0.95, 0.99, 1.0):
        assert histogram.quantile(fraction) == pytest.approx(
            report.latency_percentile(fraction), rel=0.05)


def test_input_validation(simulator):
    with pytest.raises(ConfigurationError, match="equal length"):
        simulator.run(_requests(2), [0.0])
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        simulator.run(_requests(2), [1.0, 0.0])
    with pytest.raises(ConfigurationError):
        simulator.run(_requests(1), arrivals_poisson(1, 0.0))
    with pytest.raises(ConfigurationError):
        _empty_report()


def _report_with_latencies(latencies):
    # Back-to-back zero-queue requests with the given service times.
    starts = []
    clock = 0.0
    for latency in latencies:
        starts.append(clock)
        clock += latency
    starts = np.array(starts)
    workload = WorkloadVector(shapes=(InferenceRequest(1, 8, 1),),
                              codes=np.zeros(len(latencies), np.int64))
    return ServingReport(workload, starts, starts,
                         starts + np.array(latencies))


def test_percentile_nearest_rank_regression():
    # Regression: int(fraction * n) - 1 indexing under-reported tails.
    # With 10 known latencies, nearest-rank p95 = ceil(9.5) = 10th
    # smallest, p50 = 5th smallest, p90 = 9th, p10 = 1st.
    report = _report_with_latencies([float(i) for i in range(1, 11)])
    assert report.latency_percentile(0.95) == 10.0
    assert report.latency_percentile(0.90) == 9.0
    assert report.latency_percentile(0.50) == 5.0
    assert report.latency_percentile(0.10) == 1.0
    assert report.latency_percentile(1.0) == 10.0


def test_percentile_matches_histogram_convention():
    # The exact report and the streaming histogram use the same
    # nearest-rank ceil rule, so on well-separated samples they pick
    # the same order statistic (the histogram within bucket error).
    from repro.telemetry.metrics import StreamingHistogram

    latencies = [2.0 ** i for i in range(8)]
    report = _report_with_latencies(latencies)
    histogram = StreamingHistogram("t")
    for latency in latencies:
        histogram.observe(latency)
    for fraction in (0.2, 0.5, 0.75, 0.95):
        assert histogram.quantile(fraction) == pytest.approx(
            report.latency_percentile(fraction), rel=0.05)


def test_zero_makespan_throughput_regression():
    # Regression: an all-zero-service-time run divided by zero.
    report = _report_with_latencies([0.0, 0.0, 0.0])
    assert report.makespan == 0.0
    assert report.throughput_tokens_per_s == 0.0
    assert report.utilization == 0.0


def test_request_shape_memoization(simulator):
    # Identical request shapes estimate once; distinct shapes do not
    # share entries.  Latencies are unchanged by memoization.
    from repro.telemetry import Telemetry, activate

    shapes = [InferenceRequest(1, 128, 16), InferenceRequest(1, 128, 16),
              InferenceRequest(1, 64, 16), InferenceRequest(1, 128, 16)]
    telemetry = Telemetry()
    with activate(telemetry):
        report = simulator.run(shapes, [0.0] * len(shapes))
    assert telemetry.metrics.counter_value(
        "serving.estimates", result="computed") == 2
    assert telemetry.metrics.counter_value(
        "serving.estimates", result="memoized") == 2
    # A service is finish - start, so equal memoized services can
    # differ by an ulp after the add/subtract round trip.
    service = [r.finish - r.start for r in report.served]
    assert service[0] == pytest.approx(service[1], rel=1e-12)
    assert service[1] == pytest.approx(service[3], rel=1e-12)
    assert service[2] != pytest.approx(service[0], rel=1e-6)
