"""Multi-replica scale-out: dispatch policies and fleet sizing."""

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                           WorkloadVector, arrivals_poisson,
                           replicas_needed)
from repro.serving.piecewise import run_fifo

SHAPES = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32)]


@pytest.fixture
def estimator(opt_30b, spr_a100, eval_config):
    return LiaEstimator(opt_30b, spr_a100, eval_config)


def _workload(n, seed=0):
    return WorkloadVector.sample_mix(SHAPES, n, seed=seed)


def test_single_replica_matches_single_server(estimator):
    # k=1 is the plain simulator, bit for bit, under either policy.
    workload = _workload(200)
    arrivals = arrivals_poisson(200, 0.2, seed=1)
    single = ServingSimulator(estimator).run(workload, arrivals)
    for dispatch in ("round-robin", "least-loaded"):
        fleet = MultiReplicaSimulator(estimator, 1, dispatch=dispatch)
        report = fleet.run(workload, arrivals)
        assert np.array_equal(report.starts, single.starts)
        assert np.array_equal(report.finishes, single.finishes)
        assert report.latency_percentile(0.95) == \
            single.latency_percentile(0.95)


def test_round_robin_assignment_pattern(estimator):
    fleet = MultiReplicaSimulator(estimator, 3)
    report = fleet.run(_workload(10), arrivals_poisson(10, 0.5, seed=0))
    assert report.assignment.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    assert report.n_served == 10
    assert report.replica_ids == (0, 1, 2)
    assert sum(r.n_served for r in report.per_replica) == 10


def test_round_robin_replica_timeline_is_per_replica_fifo(estimator):
    # Each replica's sub-timeline obeys the single-server Lindley
    # recursion over its own sub-stream.
    workload = _workload(60)
    arrivals = arrivals_poisson(60, 1.0, seed=2)
    fleet = MultiReplicaSimulator(estimator, 4)
    report = fleet.run(workload, arrivals)
    for sub in report.per_replica:
        # FIFO within the replica: service starts never overlap.
        assert (sub.starts[1:] >= sub.finishes[:-1] - 1e-12).all()


@pytest.mark.parametrize("k", [1, 3, 8, None])
def test_healthy_replicas_equal_independent_runs(estimator, k):
    # A healthy round-robin replica is the FIFO engine over its strided
    # substream, bit for bit; ``None`` is a fleet larger than the
    # stream (n + 2), whose idle replicas are omitted.
    n = 400
    workload = _workload(n, seed=3)
    arrivals = np.asarray(arrivals_poisson(n, 1.0, seed=3))
    k = n + 2 if k is None else k
    report = MultiReplicaSimulator(estimator, k).run(workload, arrivals)
    assert report.replica_ids == tuple(range(min(k, n)))
    for replica, sub in zip(report.replica_ids, report.per_replica):
        rows = slice(replica, None, k)
        alone = run_fifo(estimator, workload.subset(rows), arrivals[rows])
        for column in ("arrivals", "starts", "finishes"):
            assert np.array_equal(
                getattr(sub, column).view(np.uint64),
                getattr(alone, column).view(np.uint64))
        assert np.array_equal(sub.workload.codes, alone.workload.codes)
        assert sub.dropped_index is None and sub.stats is None
        assert np.array_equal(report.finishes[rows].view(np.uint64),
                              sub.finishes.view(np.uint64))


def test_more_replicas_cut_queueing(estimator):
    workload = _workload(300)
    arrivals = arrivals_poisson(300, 1.0, seed=3)
    one = MultiReplicaSimulator(estimator, 1).run(workload, arrivals)
    four = MultiReplicaSimulator(estimator, 4).run(workload, arrivals)
    assert four.mean_queue_delay < one.mean_queue_delay
    assert four.latency_percentile(0.95) <= one.latency_percentile(0.95)


def test_least_loaded_never_worse_than_round_robin(estimator):
    workload = _workload(300)
    arrivals = arrivals_poisson(300, 1.0, seed=4)
    rr = MultiReplicaSimulator(estimator, 3, "round-robin").run(
        workload, arrivals)
    ll = MultiReplicaSimulator(estimator, 3, "least-loaded").run(
        workload, arrivals)
    # Join-earliest-free starts every request no later than any static
    # assignment does on average.
    assert ll.mean_queue_delay <= rr.mean_queue_delay + 1e-12


def test_least_loaded_ties_break_to_lowest_id(estimator):
    fleet = MultiReplicaSimulator(estimator, 3, "least-loaded")
    report = fleet.run(_workload(3), [0.0, 0.0, 0.0])
    # All replicas idle at t=0: requests go to 0, 1, 2 in order.
    assert report.assignment.tolist() == [0, 1, 2]


def test_idle_replicas_are_omitted_from_per_replica(estimator):
    report = MultiReplicaSimulator(estimator, 5).run(
        _workload(2), [0.0, 1.0])
    assert report.replica_ids == (0, 1)
    assert len(report.per_replica) == 2
    assert [sub.n_served for sub in report.per_replica] == [1, 1]


def test_merged_statistics_cover_all_replicas(estimator):
    workload = _workload(100)
    arrivals = arrivals_poisson(100, 0.8, seed=5)
    report = MultiReplicaSimulator(estimator, 2).run(workload, arrivals)
    assert report.makespan == max(sub.makespan
                                  for sub in report.per_replica)
    assert report.throughput_tokens_per_s == pytest.approx(
        workload.total_generated_tokens / report.makespan)
    assert 0.0 < report.utilization <= 1.0


def test_validation(estimator):
    with pytest.raises(ConfigurationError, match="n_replicas"):
        MultiReplicaSimulator(estimator, 0)
    with pytest.raises(ConfigurationError, match="dispatch"):
        MultiReplicaSimulator(estimator, 1, dispatch="random")
    fleet = MultiReplicaSimulator(estimator, 2)
    with pytest.raises(ConfigurationError, match="equal length"):
        fleet.run(_workload(3), [0.0])


@pytest.mark.parametrize("size", [2.0, 2.5, float("nan"), True, False,
                                  np.float64(2.0), np.array([2])])
def test_fleet_size_must_be_an_integer(estimator, size):
    with pytest.raises(ConfigurationError,
                       match="n_replicas must be an integer"):
        MultiReplicaSimulator(estimator, size)
    with pytest.raises(ConfigurationError,
                       match="max_replicas must be an integer"):
        replicas_needed(estimator, _workload(10),
                        arrivals_poisson(10, 0.01, seed=0),
                        slo_p95_seconds=1e6, max_replicas=size)


def test_numpy_fleet_sizes_are_normalized(estimator):
    fleet = MultiReplicaSimulator(estimator, np.int64(2))
    assert type(fleet.n_replicas) is int
    report = fleet.run(_workload(10), arrivals_poisson(10, 0.5, seed=0))
    assert report.n_replicas == 2 and type(report.n_replicas) is int
    k, __ = replicas_needed(estimator, _workload(10),
                            arrivals_poisson(10, 0.01, seed=0),
                            slo_p95_seconds=1e6,
                            max_replicas=np.int32(4))
    assert k == 1


def test_replicas_needed_rejects_a_nan_slo(estimator):
    # NaN fails every comparison, so it used to pass the positivity
    # check and answer k = 1 whatever the p95.
    with pytest.raises(ConfigurationError, match="slo_p95_seconds"):
        replicas_needed(estimator, _workload(10),
                        arrivals_poisson(10, 1.0, seed=0),
                        slo_p95_seconds=float("nan"))


def test_infinite_slo_accepts_any_fleet(estimator):
    workload = _workload(200)
    arrivals = arrivals_poisson(200, 5.0, seed=1)
    k, report = replicas_needed(estimator, workload, arrivals,
                                slo_p95_seconds=float("inf"))
    single = MultiReplicaSimulator(estimator, 1).run(workload, arrivals)
    assert k == 1
    assert np.array_equal(report.finishes, single.finishes)


def test_replicas_needed_is_minimal(estimator):
    workload = _workload(120)
    arrivals = arrivals_poisson(120, 1.0, seed=0)
    needed, report = replicas_needed(estimator, workload, arrivals,
                                     slo_p95_seconds=30.0)
    assert report.latency_percentile(0.95) <= 30.0
    if needed > 1:
        smaller = MultiReplicaSimulator(estimator, needed - 1)
        worse = smaller.run(workload, arrivals)
        assert worse.latency_percentile(0.95) > 30.0


def test_replicas_needed_infeasible_slo(estimator):
    # No fleet makes a request faster than its own service time.
    with pytest.raises(CapacityError):
        replicas_needed(estimator, _workload(10),
                        arrivals_poisson(10, 1.0, seed=0),
                        slo_p95_seconds=1e-6, max_replicas=8)


@pytest.mark.parametrize("max_replicas", [0, -5])
def test_replicas_needed_rejects_cap_below_one(estimator, max_replicas):
    with pytest.raises(ConfigurationError, match="max_replicas"):
        replicas_needed(estimator, _workload(10),
                        arrivals_poisson(10, 0.01, seed=0),
                        slo_p95_seconds=1e6, max_replicas=max_replicas)


def test_replicas_needed_cap_message_blames_the_right_cause(estimator):
    # Queueing-bound: each request is served well inside the SLO, but
    # one replica cannot keep up with the arrival rate.
    workload = _workload(400)
    arrivals = arrivals_poisson(400, 5.0, seed=1)
    services = MultiReplicaSimulator(estimator, 1).run(
        workload, arrivals).service_times
    slo = 2.0 * float(services.max())
    with pytest.raises(CapacityError) as queueing:
        replicas_needed(estimator, workload, arrivals,
                        slo_p95_seconds=slo, max_replicas=1)
    message = str(queueing.value)
    assert "alone violates" not in message
    assert "queueing" in message
    assert "1-replica cap" in message
    # Service-bound: no fleet makes a request faster than itself.
    with pytest.raises(CapacityError) as service:
        replicas_needed(estimator, workload, arrivals,
                        slo_p95_seconds=1e-6, max_replicas=4)
    assert "4-replica cap" in str(service.value)
    assert "alone violates the SLO" in str(service.value)


def test_replicas_needed_simulates_each_fleet_size_once(estimator,
                                                       monkeypatch):
    """The bisection only probes sizes strictly between two evaluated
    ones, so no fleet size is ever simulated twice."""
    import repro.serving.replicas as replicas_module

    evaluated = []
    original_run = replicas_module.MultiReplicaSimulator._run

    def counting_run(self, *args, **kwargs):
        evaluated.append(self.n_replicas)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(replicas_module.MultiReplicaSimulator, "_run",
                        counting_run)
    workload = _workload(150, seed=4)
    arrivals = arrivals_poisson(150, 2.0, seed=4)
    needed, report = replicas_needed(estimator, workload, arrivals,
                                     slo_p95_seconds=8.0)
    assert report.latency_percentile(0.95) <= 8.0
    assert len(evaluated) == len(set(evaluated)), evaluated
    assert needed in evaluated


def test_replica_telemetry_gauges(estimator):
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    fleet = MultiReplicaSimulator(estimator, 2)
    with activate(telemetry):
        fleet.run(_workload(20), arrivals_poisson(20, 0.5, seed=0))
    system = estimator.system.name
    model = estimator.spec.name
    gauge = telemetry.metrics.gauge("serving.replicas", system=system,
                                    model=model)
    assert gauge.value == 2.0
    tracks = telemetry.tracer.tracks()
    assert any(track.startswith("server[") for track in tracks)
