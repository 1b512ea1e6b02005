"""Multi-replica scale-out: dispatch policies and fleet sizing."""

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                           WorkloadVector, arrivals_poisson,
                           plan_replicas, replicas_needed)

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
        assert np.array_equal(report.merged.starts, single.starts)
        assert np.array_equal(report.merged.finishes, single.finishes)
        assert report.latency_percentile(0.95) == \
            single.latency_percentile(0.95)


def test_round_robin_assignment_pattern(estimator):
    fleet = MultiReplicaSimulator(estimator, 3)
    report = fleet.run_poisson(_workload(10), 0.5, seed=0)
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
    assert len(report.replica_utilizations) == 2


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


def test_replicas_needed_simulates_each_fleet_size_once(estimator,
                                                       monkeypatch):
    """The doubling phase can land on the exact answer the binary
    search re-derives; the per-``k`` memo must keep every fleet size
    to a single simulation."""
    import repro.serving.replicas as replicas_module

    evaluated = []
    original_run = replicas_module.MultiReplicaSimulator.run

    def counting_run(self, *args, **kwargs):
        evaluated.append(self.n_replicas)
        return original_run(self, *args, **kwargs)

    monkeypatch.setattr(replicas_module.MultiReplicaSimulator, "run",
                        counting_run)
    workload = _workload(150, seed=4)
    arrivals = arrivals_poisson(150, 2.0, seed=4)
    needed, report = replicas_needed(estimator, workload, arrivals,
                                     slo_p95_seconds=8.0)
    assert report.latency_percentile(0.95) <= 8.0
    assert len(evaluated) == len(set(evaluated)), evaluated
    assert needed in evaluated


def test_plan_replicas_prices_the_fleet(opt_30b):
    plan, report = plan_replicas(opt_30b, _workload(80),
                                 slo_p95_seconds=60.0,
                                 arrival_rate_per_s=0.5)
    assert plan.n_replicas == report.n_replicas
    assert report.latency_percentile(0.95) <= 60.0
    assert plan.p95_latency == report.latency_percentile(0.95)
    assert plan.usd_per_hour > 0.0


def test_replica_telemetry_gauges(estimator):
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    fleet = MultiReplicaSimulator(estimator, 2,
                                  telemetry=telemetry)
    with activate(telemetry):
        fleet.run_poisson(_workload(20), 0.5, seed=0)
    system = estimator.system.name
    model = estimator.spec.name
    gauge = telemetry.metrics.gauge("serving.replicas", system=system,
                                    model=model)
    assert gauge.value == 2.0
    tracks = telemetry.tracer.tracks()
    assert any(track.startswith("server[") for track in tracks)


def test_sweep_fleet_sizes_process_path_matches_serial(estimator):
    from repro.serving.pool import published_segments
    from repro.serving.replicas import sweep_fleet_sizes

    workload = _workload(200)
    arrivals = arrivals_poisson(200, 5.0, seed=2)
    serial = sweep_fleet_sizes(estimator, workload, arrivals, [1, 2, 4])
    for processes in (1, 2):
        pooled = sweep_fleet_sizes(estimator, workload, arrivals,
                                   [1, 2, 4], processes=processes)
        assert serial == pooled
    assert [s["n_replicas"] for s in serial] == [1, 2, 4]
    assert all(s["fingerprint"] for s in serial)
    # The sweep published its workload/trace segments and released
    # them before returning — nothing may leak into later tests.
    assert published_segments() == []


def test_sweep_fleet_sizes_falls_back_off_zoo(spr_a100, eval_config):
    # A hand-built spec cannot rebuild by name inside a worker; the
    # sweep must quietly take the in-process path instead.
    from dataclasses import replace

    from repro.models.zoo import get_model
    from repro.serving.replicas import sweep_fleet_sizes

    spec = replace(get_model("opt-30b"), name="opt-30b-custom")
    estimator = LiaEstimator(spec, spr_a100, eval_config)
    workload = _workload(50)
    arrivals = arrivals_poisson(50, 5.0, seed=3)
    out = sweep_fleet_sizes(estimator, workload, arrivals, [1, 2],
                            processes=2)
    assert [s["n_replicas"] for s in out] == [1, 2]
