"""Fleet resilience: chaos, failover, autoscaling — and determinism.

The properties pinned here are the PR's acceptance bar:

* an **idle** scenario (no faults, no hedging, no autoscaler)
  reproduces the static :class:`MultiReplicaSimulator` fleet bit for
  bit, under either dispatch policy;
* chaos runs are deterministic — bit-identical reports across
  repeated runs;
* accounting never leaks a request:
  ``n_served + n_dropped == n_offered``;
* failover is load-bearing — the replica-crash scenario loses zero
  requests with retries on and strictly loses requests with the
  retry budget zeroed;
* the reactive autoscaler rides the diurnal trace within the
  per-class p95 SLO while spending >= 30% fewer replica-seconds
  than the static fleet sized for the same SLO.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.faults.fleet import (FleetScenario, HealthPolicy,
                                RedispatchPolicy, ReplicaFault,
                                ReplicaFaultKind,
                                builtin_fleet_scenarios,
                                get_fleet_scenario)
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import (AutoscalerPolicy, FleetSimulator,
                           MultiReplicaSimulator, WorkloadVector,
                           builtin_fleet_presets, get_fleet_preset,
                           replicas_needed)
from repro.workloads import TraceSpec, get_trace

SHAPES = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32)]


@pytest.fixture(scope="module")
def estimator():
    config = LiaConfig(enforce_host_capacity=False)
    return LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                        config)


def _workload(n, seed=0):
    return WorkloadVector.sample_mix(SHAPES, n, seed=seed)


def _trace(n, rate=0.5, seed=1, kind="poisson"):
    return TraceSpec(kind=kind, n_requests=n, rate_per_s=rate,
                     seed=seed).generate()


def _fingerprint(report):
    """Every run surface that must be bit-stable."""
    return (report.served_index.tolist(), report.starts.tolist(),
            report.finishes.tolist(), report.assignment.tolist(),
            report.dropped_index.tolist(), report.dropped_reasons,
            report.stats.as_dict(), report.scale_events)


# ----------------------------------------------------------------------
# Idle scenario == static fleet, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dispatch", ["round-robin", "least-loaded"])
def test_idle_fleet_reproduces_static_fleet(estimator, dispatch):
    workload = _workload(200)
    arrivals = _trace(200, rate=1.0)
    static = MultiReplicaSimulator(estimator, 3, dispatch=dispatch).run(
        workload, arrivals)
    fleet = FleetSimulator(estimator, 3, dispatch=dispatch).run(
        workload, arrivals)
    assert fleet.n_dropped == 0
    assert np.array_equal(fleet.starts, static.merged.starts)
    assert np.array_equal(fleet.finishes, static.merged.finishes)
    assert np.array_equal(fleet.assignment, static.assignment)
    assert fleet.latency_percentile(0.95) == \
        static.latency_percentile(0.95)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 16), retries=st.integers(0, 3),
       dispatch=st.sampled_from(["round-robin", "least-loaded"]))
def test_any_idle_scenario_is_transparent(estimator, seed, retries,
                                          dispatch):
    """Whatever its seed, health knobs, or retry budget, a scenario
    with no faults and no hedging never touches the timeline."""
    scenario = FleetScenario(
        name="idle-ish", seed=seed,
        health=HealthPolicy(failure_threshold=1 + seed % 5),
        redispatch=RedispatchPolicy(max_retries=retries))
    assert scenario.idle
    workload = _workload(80)
    arrivals = _trace(80, rate=1.0)
    static = MultiReplicaSimulator(estimator, 2, dispatch=dispatch).run(
        workload, arrivals)
    fleet = FleetSimulator(estimator, 2, scenario=scenario,
                           dispatch=dispatch).run(workload, arrivals)
    assert fleet.n_dropped == 0
    assert np.array_equal(fleet.starts, static.merged.starts)
    assert np.array_equal(fleet.finishes, static.merged.finishes)
    assert np.array_equal(fleet.assignment, static.assignment)


# ----------------------------------------------------------------------
# Determinism: repeated runs
# ----------------------------------------------------------------------
def test_chaos_run_is_deterministic_across_repeat_runs(estimator):
    workload = _workload(400)
    arrivals = get_trace("bursty").scaled(400).generate()
    scenario = get_fleet_scenario("bursty-chaos")
    prints = []
    for _ in range(3):
        report = FleetSimulator(estimator, 4, scenario=scenario).run(
            workload, arrivals)
        prints.append(_fingerprint(report))
    assert prints[0] == prints[1] == prints[2]


def test_autoscaled_run_is_deterministic(estimator):
    preset = get_fleet_preset("diurnal-autoscale")
    trace = preset.trace.scaled(800).generate()
    workload = _workload(800, seed=2)
    prints = [
        _fingerprint(preset.simulator(estimator).run(workload, trace))
        for __ in range(2)]
    assert prints[0] == prints[1]


# ----------------------------------------------------------------------
# Accounting: no request is ever lost or double-counted
# ----------------------------------------------------------------------
def test_accounting_invariant_across_builtin_scenarios(estimator):
    workload = _workload(300, seed=3)
    arrivals = _trace(300, rate=2.0, seed=3)
    for name, scenario in builtin_fleet_scenarios().items():
        report = FleetSimulator(estimator, 4, scenario=scenario).run(
            workload, arrivals)
        assert report.n_served + report.n_dropped == 300, name
        assert 0.0 <= report.availability <= 1.0, name
        # Served and dropped index sets partition the offered set.
        merged = np.sort(np.concatenate(
            [report.served_index, report.dropped_index]))
        assert np.array_equal(merged, np.arange(300)), name


def test_report_rejects_inconsistent_accounting(estimator):
    workload = _workload(10)
    arrivals = _trace(10)
    report = FleetSimulator(estimator, 2).run(workload, arrivals)
    from dataclasses import replace

    with pytest.raises(ConfigurationError, match="accounting"):
        replace(report, dropped_index=np.array([3], dtype=np.int64),
                dropped_reasons=("replica-crash",))


# ----------------------------------------------------------------------
# Failover is load-bearing
# ----------------------------------------------------------------------
def _crash_scenario(max_retries):
    return FleetScenario(
        name="crash", seed=1,
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_CRASH,
                             replica=1, start=50.0, duration=150.0),),
        redispatch=RedispatchPolicy(max_retries=max_retries))


def test_crash_with_retries_loses_nothing(estimator):
    workload = _workload(400, seed=5)
    arrivals = _trace(400, rate=1.5, seed=5)
    report = FleetSimulator(
        estimator, 3, scenario=_crash_scenario(2)).run(
        workload, arrivals)
    assert report.availability == 1.0
    assert report.stats.crash_failures > 0
    assert report.stats.redispatched > 0
    assert report.stats.breaker_ejections >= 1


def test_crash_without_retries_strictly_loses_requests(estimator):
    workload = _workload(400, seed=5)
    arrivals = _trace(400, rate=1.5, seed=5)
    report = FleetSimulator(
        estimator, 3, scenario=_crash_scenario(0)).run(
        workload, arrivals)
    assert report.n_dropped > 0
    assert set(report.dropped_reasons) == {"replica-crash"}
    # Every loss arrived before the crash window closed (a request
    # arriving just before the crash can still be killed in flight;
    # after recovery nothing fails).
    lost = report.arrivals[report.dropped_index]
    assert (lost < 200.0).all()


def test_gray_failure_trips_the_breaker_but_serves(estimator):
    scenario = FleetScenario(
        name="gray", seed=2,
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_SLOW,
                             replica=0, start=20.0, duration=400.0,
                             magnitude=5.0),),
        health=HealthPolicy(failure_threshold=3, cooldown_s=60.0,
                            slow_tolerance=3.0),
        redispatch=RedispatchPolicy(max_retries=1))
    workload = _workload(300, seed=6)
    arrivals = _trace(300, rate=1.0, seed=6)
    report = FleetSimulator(estimator, 3, scenario=scenario).run(
        workload, arrivals)
    # Gray failure never refuses a request — the breaker just stops
    # routing to the slow replica after enough inflated attempts.
    assert report.availability == 1.0
    assert report.stats.slow_attempts > 0
    assert report.stats.breaker_ejections >= 1


def test_hedging_duplicates_queued_dispatches(estimator):
    scenario = FleetScenario(
        name="hedge", redispatch=RedispatchPolicy(max_retries=1,
                                                  hedge_after_s=0.5))
    assert not scenario.idle
    workload = _workload(200, seed=7)
    arrivals = _trace(200, rate=4.0, seed=7)
    report = FleetSimulator(estimator, 3, scenario=scenario,
                            dispatch="least-loaded").run(
        workload, arrivals)
    assert report.availability == 1.0
    assert report.stats.hedges > 0
    assert 0 <= report.stats.hedge_wins <= report.stats.hedges


# ----------------------------------------------------------------------
# Autoscaler: SLO at >= 30% lower replica-seconds than static
# ----------------------------------------------------------------------
def test_autoscaler_beats_static_fleet_on_diurnal_trace(estimator):
    preset = get_fleet_preset("diurnal-autoscale")
    trace = preset.trace.generate()
    workload = _workload(preset.trace.n_requests, seed=0)

    report = preset.simulator(estimator).run(workload, trace)
    assert report.availability == 1.0
    assert report.stats.scale_ups >= 1
    assert report.stats.scale_downs >= 1
    for key, p95 in report.per_class_p95().items():
        assert p95 <= preset.slo_p95_s, (key, p95)

    static_k, static = replicas_needed(
        estimator, workload, trace,
        slo_p95_seconds=preset.slo_p95_s,
        dispatch=preset.dispatch)
    static_seconds = static_k * static.makespan
    assert report.replica_seconds <= 0.7 * static_seconds


def test_autoscaler_respects_replica_bounds(estimator):
    policy = AutoscalerPolicy(slo_p95_s=10.0, min_replicas=2,
                              max_replicas=4, interval_s=30.0,
                              provisioning_lag_s=30.0)
    workload = _workload(600, seed=8)
    arrivals = _trace(600, rate=3.0, seed=8)
    report = FleetSimulator(estimator, 2, autoscaler=policy,
                            dispatch="least-loaded").run(
        workload, arrivals)
    counts = report.replica_counts()
    assert counts.min() >= 2
    assert counts.max() <= 4
    assert report.availability == 1.0


# ----------------------------------------------------------------------
# Report surface: windows, timeseries, JSON payload
# ----------------------------------------------------------------------
def test_report_windows_and_timeseries_channels(estimator):
    workload = _workload(200, seed=9)
    arrivals = get_trace("bursty").scaled(200).generate()
    report = FleetSimulator(
        estimator, 4,
        scenario=get_fleet_scenario("replica-crash")).run(
        workload, arrivals)
    counts = report.replica_counts()
    assert counts.shape == (report.n_windows,)
    arrived, dropped, availability = report.windowed_availability()
    assert int(arrived.sum()) == report.n_offered
    assert int(dropped.sum()) == report.n_dropped
    assert ((0.0 <= availability) & (availability <= 1.0)).all()
    series = report.timeseries(n_windows=16)
    assert series.replicas.shape == (16,)
    assert series.availability.shape == (16,)
    payload = report.to_dict()
    assert payload["n_offered"] == 200
    assert payload["n_served"] + payload["n_dropped"] == 200
    assert payload["scenario"] == "replica-crash"
    assert len(payload["replica_counts"]) == report.n_windows


def test_fleet_presets_are_runnable(estimator):
    presets = builtin_fleet_presets()
    assert list(presets) == sorted(presets)
    for name, preset in presets.items():
        assert preset.name == name
        assert preset.trace.n_requests > 0
        preset.simulator(estimator)  # constructs and validates
    assert presets["diurnal-autoscale"].autoscaler is not None


def test_fleet_telemetry_gauges(estimator):
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    simulator = FleetSimulator(
        estimator, 3, scenario=get_fleet_scenario("replica-crash"),
        telemetry=telemetry)
    workload = _workload(120, seed=10)
    arrivals = _trace(120, rate=1.5, seed=10)
    with activate(telemetry):
        report = simulator.run(workload, arrivals)
    labels = {"system": estimator.system.name,
              "model": estimator.spec.name}
    gauge = telemetry.metrics.gauge("fleet.replicas", **labels)
    assert gauge.value == float(report.replica_counts()[-1])


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_validation(estimator):
    with pytest.raises(ConfigurationError, match="n_replicas"):
        FleetSimulator(estimator, 0)
    with pytest.raises(ConfigurationError, match="dispatch"):
        FleetSimulator(estimator, 1, dispatch="chaotic")
    with pytest.raises(ConfigurationError, match="min_replicas"):
        FleetSimulator(estimator, 1,
                       autoscaler=AutoscalerPolicy(slo_p95_s=10.0,
                                                   min_replicas=2))
    fleet = FleetSimulator(estimator, 2)
    with pytest.raises(ConfigurationError, match="equal length"):
        fleet.run(_workload(3), [0.0])
    with pytest.raises(ConfigurationError, match="at least one request"):
        fleet.run([], [])


def test_sweep_fleet_grid_process_path_matches_serial(estimator):
    from repro.serving.fleet import run_fleet_cell, sweep_fleet_grid

    shapes = (InferenceRequest(1, 128, 16),
              InferenceRequest(1, 256, 32))
    kwargs = dict(shapes=shapes, seed=4, n_requests=120)
    serial = sweep_fleet_grid(estimator, ["steady"],
                              ["none", "replica-crash"], [1, 2],
                              **kwargs)
    for processes in (1, 2):
        pooled = sweep_fleet_grid(estimator, ["steady"],
                                  ["none", "replica-crash"], [1, 2],
                                  processes=processes, **kwargs)
        assert serial == pooled
    assert len(serial) == 4
    # Cell order is the nested product order, and each cell matches a
    # direct run_fleet_cell call.
    assert [(c["trace"], c["chaos"], c["n_replicas"])
            for c in serial] == [("steady", "none", 1),
                                 ("steady", "none", 2),
                                 ("steady", "replica-crash", 1),
                                 ("steady", "replica-crash", 2)]
    direct = run_fleet_cell(estimator, "steady", "replica-crash", 2,
                            **kwargs)
    assert serial[3] == direct
