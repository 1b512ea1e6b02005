"""Fleet resilience: chaos, failover, autoscaling — and determinism.

The properties pinned here are the PR's acceptance bar:

* an **idle** chaos scenario (no faults, no hedging), or an
  autoscaler that cannot scale, runs the control-plane loop of
  :class:`MultiReplicaSimulator` and reproduces its static fleet bit
  for bit, under either dispatch policy;
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

import math

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
from repro.serving import (AutoscalerPolicy, FleetReport,
                           MultiReplicaSimulator, ServingReport,
                           WorkloadVector, builtin_fleet_presets,
                           get_fleet_preset, replicas_needed)
from repro.telemetry import SLOPolicy, timeseries_from_report
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
def _reproduces_static_fleet(estimator, dispatch, **controls):
    """The 3-replica fleet under ``controls`` (which run the control
    loop) against the static fleet (the array paths), bit for bit."""
    workload = _workload(200)
    arrivals = _trace(200, rate=1.0)
    static = MultiReplicaSimulator(estimator, 3, dispatch=dispatch).run(
        workload, arrivals)
    fleet = MultiReplicaSimulator(estimator, 3, dispatch=dispatch,
                                  **controls).run(workload, arrivals)
    assert isinstance(fleet, FleetReport)
    assert fleet.n_dropped == 0
    assert np.array_equal(fleet.starts, static.starts)
    assert np.array_equal(fleet.finishes, static.finishes)
    assert np.array_equal(fleet.assignment, static.assignment)
    _assert_same_surface(fleet, static)
    return fleet


@pytest.mark.parametrize("dispatch", ["round-robin", "least-loaded"])
def test_idle_fleet_reproduces_static_fleet(estimator, dispatch):
    _reproduces_static_fleet(estimator, dispatch,
                             chaos=FleetScenario(name="idle"))


@pytest.mark.parametrize("dispatch", ["round-robin", "least-loaded"])
def test_pinned_autoscaler_reproduces_static_fleet(estimator, dispatch):
    """An autoscaler held at the fleet's size walks every window
    boundary of the control loop yet never scales."""
    fleet = _reproduces_static_fleet(
        estimator, dispatch,
        autoscaler=AutoscalerPolicy(slo_p95_s=10.0, min_replicas=3,
                                    max_replicas=3))
    assert fleet.autoscaled
    assert fleet.stats.scale_ups == fleet.stats.drained == 0


def _assert_same_surface(fleet, static):
    """An idle chaos fleet and the static fleet answer every shared
    :class:`ServingReport` statistic with the same bits."""
    assert isinstance(fleet, ServingReport)
    assert isinstance(static, ServingReport)
    fractions = (0.5, 0.95, 0.99)
    assert fleet.latency_percentiles(fractions) == \
        static.latency_percentiles(fractions)
    assert fleet.mean_queue_delay == static.mean_queue_delay
    assert fleet.makespan == static.makespan
    assert fleet.throughput_tokens_per_s == \
        static.throughput_tokens_per_s
    # Idle and static, every replica spans the whole makespan, so the
    # fsum of k spans is k * makespan exactly.
    assert fleet.replica_seconds == static.n_replicas * static.makespan
    assert fleet.utilization == static.utilization


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 16), retries=st.integers(0, 3),
       dispatch=st.sampled_from(["round-robin", "least-loaded"]))
def test_any_idle_scenario_is_transparent(estimator, seed, retries,
                                          dispatch):
    """Whatever its health knobs or retry budget, a scenario with no
    faults and no hedging never touches the timeline."""
    scenario = FleetScenario(
        name="idle-ish",
        health=HealthPolicy(failure_threshold=1 + seed % 5),
        redispatch=RedispatchPolicy(max_retries=retries))
    assert scenario.idle
    workload = _workload(80)
    arrivals = _trace(80, rate=1.0)
    static = MultiReplicaSimulator(estimator, 2, dispatch=dispatch).run(
        workload, arrivals)
    fleet = MultiReplicaSimulator(estimator, 2, dispatch=dispatch,
                                  chaos=scenario).run(workload, arrivals)
    assert fleet.n_dropped == 0
    assert np.array_equal(fleet.starts, static.starts)
    assert np.array_equal(fleet.finishes, static.finishes)
    assert np.array_equal(fleet.assignment, static.assignment)
    _assert_same_surface(fleet, static)


# ----------------------------------------------------------------------
# Determinism: repeated runs
# ----------------------------------------------------------------------
def test_chaos_run_is_deterministic_across_repeat_runs(estimator):
    workload = _workload(400)
    arrivals = get_trace("bursty").scaled(400).generate()
    scenario = get_fleet_scenario("bursty-chaos")
    prints = []
    for _ in range(3):
        report = MultiReplicaSimulator(estimator, 4, chaos=scenario).run(
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
        report = MultiReplicaSimulator(estimator, 4, chaos=scenario).run(
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
    report = MultiReplicaSimulator(
        estimator, 2, chaos=FleetScenario(name="idle")).run(
        workload, arrivals)

    # Request 3 is both served and dropped: 10 + 1 != 10 offered.
    with pytest.raises(ConfigurationError, match="accounting"):
        FleetReport(
            report.offered, report.offered_arrivals,
            report.served_index, report.starts, report.finishes,
            assignment=report.assignment,
            dropped_index=np.array([3], dtype=np.int64),
            dropped_reasons=("replica-crash",), stats=report.stats,
            scenario=report.scenario, scale_events=report.scale_events,
            replica_spans=report.replica_spans,
            window_s=report.window_s,
            n_replicas_initial=report.n_replicas_initial,
            autoscaled=report.autoscaled)


# ----------------------------------------------------------------------
# Failover is load-bearing
# ----------------------------------------------------------------------
def _crash_scenario(max_retries):
    return FleetScenario(
        name="crash",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_CRASH,
                             replica=1, start=50.0, duration=150.0),),
        redispatch=RedispatchPolicy(max_retries=max_retries))


def test_crash_with_retries_loses_nothing(estimator):
    workload = _workload(400, seed=5)
    arrivals = _trace(400, rate=1.5, seed=5)
    report = MultiReplicaSimulator(
        estimator, 3, chaos=_crash_scenario(2)).run(
        workload, arrivals)
    assert report.availability == 1.0
    assert report.stats.crash_failures > 0
    assert report.stats.redispatched > 0
    assert report.stats.breaker_ejections >= 1


def test_crash_without_retries_strictly_loses_requests(estimator):
    workload = _workload(400, seed=5)
    arrivals = _trace(400, rate=1.5, seed=5)
    report = MultiReplicaSimulator(
        estimator, 3, chaos=_crash_scenario(0)).run(
        workload, arrivals)
    assert report.n_dropped > 0
    assert set(report.dropped_reasons) == {"replica-crash"}
    # Every loss arrived before the crash window closed (a request
    # arriving just before the crash can still be killed in flight;
    # after recovery nothing fails).
    lost = report.dropped_arrivals
    assert lost.size == report.n_dropped
    assert (lost < 200.0).all()


def test_gray_failure_trips_the_breaker_but_serves(estimator):
    scenario = FleetScenario(
        name="gray",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_SLOW,
                             replica=0, start=20.0, duration=400.0,
                             magnitude=5.0),),
        health=HealthPolicy(failure_threshold=3, cooldown_s=60.0,
                            slow_tolerance=3.0),
        redispatch=RedispatchPolicy(max_retries=1))
    workload = _workload(300, seed=6)
    arrivals = _trace(300, rate=1.0, seed=6)
    report = MultiReplicaSimulator(estimator, 3, chaos=scenario).run(
        workload, arrivals)
    # Gray failure never refuses a request — the breaker just stops
    # routing to the slow replica after enough inflated attempts.
    assert report.availability == 1.0
    assert report.stats.slow_attempts > 0
    assert report.stats.breaker_ejections >= 1


def test_fault_windows_cut_attempts_at_their_edges(estimator):
    """One replica, no retries.  A crash on [100, 150) kills the
    request in flight at 100 and refuses every attempt inside the
    window, including one queued behind the kill; a restart refuses
    its downtime; overlapping slow windows stretch service by the
    largest factor."""
    shape = SHAPES[0]
    service = estimator.estimate(shape).latency
    assert 1.0 < service < 10.0
    scenario = FleetScenario(
        name="edges",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_CRASH, replica=0,
                             start=100.0, duration=50.0),
                # Down on [250, 260), then 3x slow until 360.
                ReplicaFault(ReplicaFaultKind.REPLICA_RESTART,
                             replica=0, start=250.0, duration=10.0,
                             magnitude=3.0, warmup_s=100.0),
                ReplicaFault(ReplicaFaultKind.REPLICA_SLOW, replica=0,
                             start=300.0, duration=100.0,
                             magnitude=4.0)),
        health=HealthPolicy(failure_threshold=10),
        redispatch=RedispatchPolicy(max_retries=0))
    arrivals = [98.0, 99.0, 149.0, 150.0, 255.0, 270.0, 320.0, 380.0,
                420.0]
    report = MultiReplicaSimulator(estimator, 1, chaos=scenario).run(
        [shape] * len(arrivals), arrivals)
    assert report.dropped_index.tolist() == [0, 1, 2, 4]
    assert list(report.dropped_reasons) == ["replica-crash"] * 3 + [
        "replica-restart"]
    assert report.stats.crash_failures == 4
    assert report.stats.killed_in_flight == 1
    assert report.starts.tolist() == [150.0, 270.0, 320.0, 380.0, 420.0]
    assert report.finishes.tolist() == [
        150.0 + service, 270.0 + service * 3.0, 320.0 + service * 4.0,
        380.0 + service * 4.0, 420.0 + service]


def test_hedging_duplicates_queued_dispatches(estimator):
    scenario = FleetScenario(
        name="hedge", redispatch=RedispatchPolicy(max_retries=1,
                                                  hedge_after_s=0.5))
    assert not scenario.idle
    workload = _workload(200, seed=7)
    arrivals = _trace(200, rate=4.0, seed=7)
    report = MultiReplicaSimulator(estimator, 3, dispatch="least-loaded",
                                   chaos=scenario).run(workload, arrivals)
    assert report.availability == 1.0
    assert report.stats.hedges > 0
    assert 0 <= report.stats.hedge_wins <= report.stats.hedges


def test_hedge_spends_no_probe_on_the_primary(estimator):
    """A hedge never picks the primary's own replica, so it spends no
    half-open probe without an attempt: the lone replica's breaker
    closes after its three probes instead of staying half-open with
    none left and refusing every later request."""
    shape = SHAPES[0]
    scenario = FleetScenario(
        name="lone-hedge",
        faults=(ReplicaFault(ReplicaFaultKind.REPLICA_CRASH, replica=0,
                             start=10.0, duration=2.0),),
        health=HealthPolicy(failure_threshold=1, cooldown_s=5.0,
                            half_open_probes=3),
        redispatch=RedispatchPolicy(max_retries=0, hedge_after_s=0.1))
    arrivals = [10.0, 16.0, 16.5, 100.0, 200.0, 1000.0]
    report = MultiReplicaSimulator(estimator, 1, chaos=scenario).run(
        [shape] * len(arrivals), arrivals)
    # Request 2 queues behind request 1, so it would hedge.
    assert report.starts[1] - arrivals[2] > 0.1
    assert report.dropped_index.tolist() == [0]
    assert list(report.dropped_reasons) == ["replica-crash"]
    assert report.stats.breaker_probes == 3
    assert report.stats.breaker_closes == 1
    assert report.stats.hedges == 0


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


@pytest.mark.parametrize("field, value", [
    ("slo_p95_s", math.nan), ("interval_s", math.nan),
    ("interval_s", math.inf)])
def test_autoscaler_rejects_nan_and_infinite_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        AutoscalerPolicy(**{"slo_p95_s": 10.0, field: value})


def test_autoscaler_respects_replica_bounds(estimator):
    policy = AutoscalerPolicy(slo_p95_s=10.0, min_replicas=2,
                              max_replicas=4, interval_s=30.0,
                              provisioning_lag_s=30.0)
    workload = _workload(600, seed=8)
    arrivals = _trace(600, rate=3.0, seed=8)
    report = MultiReplicaSimulator(estimator, 2, dispatch="least-loaded",
                                   autoscaler=policy).run(
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
    report = MultiReplicaSimulator(
        estimator, 4, chaos=get_fleet_scenario("replica-crash")).run(
        workload, arrivals)
    counts = report.replica_counts()
    assert counts.shape == (report.grid.n_windows,)
    arrived, dropped, availability = report.windowed_availability()
    assert int(arrived.sum()) == report.n_offered
    assert int(dropped.sum()) == report.n_dropped
    assert ((0.0 <= availability) & (availability <= 1.0)).all()
    series = timeseries_from_report(report, n_windows=16)
    assert series.replicas.shape == (16,)
    assert series.availability.shape == (16,)
    payload = report.to_dict()
    assert payload["n_offered"] == 200
    assert payload["n_served"] + payload["n_dropped"] == 200
    assert payload["scenario"] == "replica-crash"
    assert len(payload["replica_counts"]) == report.grid.n_windows


@pytest.mark.parametrize("name", sorted(builtin_fleet_presets()))
def test_windowed_utilization_never_exceeds_one(estimator, name):
    """Each window's busy seconds fit in the replica-seconds
    provisioned in it, draining replicas included."""
    preset = get_fleet_preset(name)
    trace = preset.trace.generate()
    workload = _workload(trace.size, seed=0)
    report = preset.simulator(estimator).run(workload, trace)
    series = timeseries_from_report(report, n_windows=64)
    # A fully busy window divides two float sums of one real number
    # (busy intervals, provisioned spans): allow their rounding only.
    assert series.utilization.max() <= 1.0 + 1e-12, name
    monitored = report.monitor(
        SLOPolicy(latency_threshold_s=preset.slo_p95_s)).timeseries
    assert monitored.utilization.max() <= 1.0 + 1e-12, name
    assert 0.0 < report.utilization <= 1.0, name


def test_report_reads_offered_and_served_rows_apart(estimator):
    workload = _workload(300, seed=5)
    arrivals = _trace(300, rate=1.5, seed=5)
    report = MultiReplicaSimulator(
        estimator, 3, chaos=_crash_scenario(0)).run(
        workload, arrivals)
    assert 0 < report.n_dropped < 300
    assert report.n_offered == report.offered.n_requests == 300
    assert np.array_equal(report.offered_arrivals, arrivals)
    # ``arrivals``/``workload`` are the served rows only.
    assert report.arrivals.size == report.n_served
    assert np.array_equal(report.arrivals,
                          arrivals[report.served_index])
    assert np.array_equal(report.workload.codes,
                          workload.codes[report.served_index])
    assert np.array_equal(report.dropped_arrivals,
                          arrivals[report.dropped_index])
    assert [d.arrival for d in report.dropped] == \
        report.dropped_arrivals.tolist()
    assert report.availability == report.n_served / 300


def test_monitor_attributes_alerts_to_the_replica_crash(estimator):
    preset = get_fleet_preset("replica-crash")
    trace = preset.trace.scaled(1500).generate()
    workload = _workload(trace.size, seed=0)
    report = preset.simulator(estimator).run(workload, trace)
    (crash,) = report.scenario.faults
    threshold = 1.5 * report.latency_percentile(0.5)
    # About one-minute windows.
    monitoring = report.monitor(SLOPolicy(latency_threshold_s=threshold),
                                n_windows=math.ceil(report.makespan / 60))
    assert monitoring.scenario_name == "replica-crash"
    inside = [alert for alert in monitoring.alerts
              if alert.start_s < crash.end and alert.end_s > crash.start]
    assert inside
    for alert in inside:
        assert alert.cause == "replica-crash"
    # Far from the crash, alerts stay organic.
    assert monitoring.alerts[-1].cause == "organic-load"


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
    simulator = MultiReplicaSimulator(
        estimator, 3, chaos=get_fleet_scenario("replica-crash"))
    workload = _workload(120, seed=10)
    arrivals = _trace(120, rate=1.5, seed=10)
    with activate(telemetry):
        report = simulator.run(workload, arrivals)
    labels = {"system": estimator.system.name,
              "model": estimator.spec.name}
    gauge = telemetry.metrics.gauge("fleet.replicas", **labels)
    assert gauge.value == float(report.replica_counts()[-1])
    utilization = telemetry.metrics.gauge("serving.utilization",
                                          **labels)
    assert utilization.value == report.utilization
    assert 0.0 < utilization.value <= 1.0


def test_scale_out_telemetry_gauge_is_fleet_normalized(estimator):
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    with activate(telemetry):
        report = MultiReplicaSimulator(estimator, 3).run(
            _workload(120, seed=10), _trace(120, rate=3.0, seed=10))
    gauge = telemetry.metrics.gauge(
        "serving.utilization", system=estimator.system.name,
        model=estimator.spec.name)
    assert gauge.value == report.utilization
    assert report.busy_s / report.makespan > 1.0  # un-normalized
    assert 0.0 < gauge.value <= 1.0


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_validation(estimator):
    with pytest.raises(ConfigurationError, match="n_replicas"):
        MultiReplicaSimulator(estimator, 0)
    with pytest.raises(ConfigurationError, match="dispatch"):
        MultiReplicaSimulator(estimator, 1, dispatch="chaotic")
    with pytest.raises(ConfigurationError, match="min_replicas"):
        MultiReplicaSimulator(
            estimator, 1,
            autoscaler=AutoscalerPolicy(slo_p95_s=10.0, min_replicas=2))
    fleet = MultiReplicaSimulator(estimator, 2,
                                  chaos=FleetScenario(name="idle"))
    with pytest.raises(ConfigurationError, match="equal length"):
        fleet.run(_workload(3), [0.0])
    with pytest.raises(ConfigurationError, match="at least one request"):
        fleet.run([], [])


@pytest.mark.parametrize("chaos, autoscaler", [
    (get_fleet_scenario("replica-crash"), None),
    (None, AutoscalerPolicy(slo_p95_s=10.0, min_replicas=2)),
], ids=["chaos", "autoscaler"])
def test_fault_scenario_rejected_on_a_controlled_fleet(estimator, chaos,
                                                       autoscaler):
    from repro.faults.scenarios import get_scenario

    fleet = MultiReplicaSimulator(estimator, 2, chaos=chaos,
                                  autoscaler=autoscaler)
    with pytest.raises(ConfigurationError) as error:
        fleet.run(_workload(10), _trace(10),
                  scenario=get_scenario("pcie-downshift"))
    message = str(error.value)
    assert "\n" not in message
    assert "'pcie-downshift' cannot run on a chaos or autoscaled" in message
