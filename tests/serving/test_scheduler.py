"""Iteration-level continuous batching (repro.serving.scheduler).

The two contracts that make the scheduler trustworthy — the
FIFO-degenerate config reproduces the FIFO simulator bit for bit, and
every run is deterministic across reps — plus the
KV-tier admission coupling and the telemetry surface.
"""

import math

import pytest

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.cxl.residency import KvTierCapacities, kv_capacities_from_system
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import WorkloadVector, arrivals_poisson
from repro.serving.scheduler import (
    MIXED_SHAPES,
    ContinuousBatchScheduler,
    ContinuousServingReport,
    SchedulerConfig,
    StepProfile,
    run_continuous_fleet,
)
from repro.serving.simulator import ServingSimulator
from tests.oracles.fifo_loop import run_loop

CONFIG = LiaConfig(enforce_host_capacity=False)
SHAPES = tuple(InferenceRequest(*shape) for shape in MIXED_SHAPES)


@pytest.fixture(scope="module")
def estimator():
    return LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                        CONFIG)


@pytest.fixture(scope="module")
def cxl_estimator():
    system = get_system("spr-a100").with_cxl()
    return LiaEstimator(get_model("opt-30b"), system,
                        CONFIG.with_cxl_weights())


def _mix(n, rate=0.5, seed=0):
    workload = WorkloadVector.sample_mix(SHAPES, n, seed=seed)
    arrivals = arrivals_poisson(n, rate, seed=seed)
    return workload.to_requests(), arrivals


# ----------------------------------------------------------------------
# The degenerate contract
# ----------------------------------------------------------------------
def test_fifo_degenerate_is_bit_identical_to_simulator(estimator):
    requests, arrivals = _mix(300, rate=0.21)
    fifo = run_loop(ServingSimulator(estimator), requests, arrivals)
    degenerate = ContinuousBatchScheduler(
        estimator, SchedulerConfig.fifo_degenerate()).run(requests,
                                                          arrivals)
    assert isinstance(degenerate, ContinuousServingReport)
    assert len(degenerate.served) == len(fifo.served)
    for ours, theirs in zip(degenerate.served, fifo.served):
        assert ours.arrival == theirs.arrival
        assert ours.start == theirs.start
        assert ours.finish == theirs.finish
    # Every inherited statistic rides on the identical timelines —
    # including the overridden utilization property.
    assert degenerate.utilization == fifo.utilization
    assert degenerate.makespan == fifo.makespan
    assert (degenerate.throughput_tokens_per_s
            == fifo.throughput_tokens_per_s)
    assert degenerate.mean_queue_delay == fifo.mean_queue_delay
    for fraction in (0.5, 0.95, 0.99):
        assert (degenerate.latency_percentile(fraction)
                == fifo.latency_percentile(fraction))


def test_degenerate_detection_requires_all_three_knobs():
    assert SchedulerConfig.fifo_degenerate().is_fifo_degenerate
    assert SchedulerConfig(
        max_batch_requests=1, join="drain",
        kv_capacities=KvTierCapacities.unbounded()).is_fifo_degenerate
    assert not SchedulerConfig(max_batch_requests=1,
                               join="drain").is_fifo_degenerate
    assert not SchedulerConfig(
        max_batch_requests=1,
        kv_capacities=KvTierCapacities.unbounded()).is_fifo_degenerate
    assert not SchedulerConfig(
        join="drain",
        kv_capacities=KvTierCapacities.unbounded()).is_fifo_degenerate


# ----------------------------------------------------------------------
# Batching pays, deterministically
# ----------------------------------------------------------------------
def test_continuous_beats_fifo_throughput_when_saturated(estimator):
    requests, arrivals = _mix(400)
    fifo = ServingSimulator(estimator).run(requests, arrivals)
    report = ContinuousBatchScheduler(estimator).run(requests,
                                                     arrivals)
    assert (report.throughput_tokens_per_s
            >= 1.3 * fifo.throughput_tokens_per_s)
    assert report.occupancy_peak > 1
    assert 1.0 < report.occupancy_mean <= 8.0
    assert report.policy_resolves > 0
    assert len(report.served) == 400
    assert report.admissions == 400
    # Concurrency never lets a request start before it arrives or
    # finish before it starts.
    for record in report.served:
        assert record.start >= record.arrival
        assert record.finish > record.start


def test_runs_are_deterministic_across_reps(estimator):
    requests, arrivals = _mix(200)
    scheduler = ContinuousBatchScheduler(estimator)
    first = scheduler.run(requests, arrivals)
    second = scheduler.run(requests, arrivals)
    assert first.fingerprint() == second.fingerprint()
    fresh = ContinuousBatchScheduler(estimator).run(requests, arrivals)
    assert fresh.fingerprint() == first.fingerprint()


def test_admission_is_fifo_under_batch_pressure(estimator):
    # One request per batch with step joins: requests are admitted
    # strictly in arrival order, so starts are non-decreasing.
    requests, arrivals = _mix(60)
    report = ContinuousBatchScheduler(
        estimator, SchedulerConfig(max_batch_requests=1)).run(
        requests, arrivals)
    starts = [record.start for record in report.served]
    assert starts == sorted(starts)


def test_request_list_matches_workload_vector(estimator):
    workload = WorkloadVector.sample_mix(SHAPES, 120, seed=3)
    arrivals = arrivals_poisson(120, 0.4, seed=11)
    scheduler = ContinuousBatchScheduler(estimator)
    via_vector = scheduler.run(workload, arrivals)
    via_list = scheduler.run(workload.to_requests(), arrivals)
    assert via_vector.fingerprint() == via_list.fingerprint()


# ----------------------------------------------------------------------
# KV-tier admission
# ----------------------------------------------------------------------
def test_tight_caps_bound_kv_peaks_and_force_demotions(cxl_estimator):
    requests, arrivals = _mix(200)
    caps = KvTierCapacities(4e9, 8e9, 64e9)
    report = ContinuousBatchScheduler(
        cxl_estimator, SchedulerConfig(kv_capacities=caps)).run(
        requests, arrivals)
    assert report.kv_peak_bytes["hbm"] <= caps.hbm_bytes * (1 + 1e-9)
    assert report.kv_peak_bytes["ddr"] <= caps.ddr_bytes * (1 + 1e-9)
    assert report.kv_peak_bytes["cxl"] <= caps.cxl_bytes * (1 + 1e-9)
    assert report.kv_demotions > 0
    assert report.kv_demoted_bytes > 0.0
    assert len(report.served) == 200


def test_kv_pressure_only_delays_never_drops(estimator):
    requests, arrivals = _mix(120)
    spec = estimator.spec
    biggest = max(
        float(spec.kv_cache_bytes(r.batch_size, r.max_context_len))
        for r in requests)
    roomy = ContinuousBatchScheduler(
        estimator, SchedulerConfig(
            kv_capacities=KvTierCapacities.unbounded())).run(requests,
                                                             arrivals)
    # Just enough room for the single largest request: admission
    # serializes under pressure but every request is still served.
    tight = ContinuousBatchScheduler(
        estimator, SchedulerConfig(
            kv_capacities=KvTierCapacities(biggest, 0.0, 0.0))).run(
        requests, arrivals)
    assert len(tight.served) == len(roomy.served) == 120
    assert tight.makespan >= roomy.makespan
    assert tight.occupancy_peak <= roomy.occupancy_peak


def test_request_larger_than_all_tiers_is_a_capacity_error(estimator):
    requests, arrivals = _mix(10)
    with pytest.raises(CapacityError) as excinfo:
        ContinuousBatchScheduler(
            estimator, SchedulerConfig(
                kv_capacities=KvTierCapacities(1e6, 0.0, 0.0))).run(
            requests, arrivals)
    assert excinfo.value.device == "kv-tiers"
    assert excinfo.value.requested > excinfo.value.available


def test_derived_capacities_consult_the_tiering_plan(cxl_estimator):
    """Without explicit budgets a run admits under the §6 budgets of
    ``kv_capacities_from_system``."""
    system = cxl_estimator.system
    weights = float(cxl_estimator.spec.total_param_bytes)
    capacities = kv_capacities_from_system(cxl_estimator.spec, system)
    # §6: weights in CXL, so DDR is all KV and the expander pool is
    # charged for the weights.
    assert capacities.ddr_bytes == float(system.cpu.memory.capacity_bytes)
    assert capacities.cxl_bytes == (
        float(system.cxl_pool.capacity_bytes) - weights)
    # A run without explicit budgets admits under exactly these: the
    # same run with them spelled out is the same report.
    requests, arrivals = _mix(60)
    derived = ContinuousBatchScheduler(cxl_estimator).run(requests,
                                                          arrivals)
    explicit = ContinuousBatchScheduler(
        cxl_estimator, SchedulerConfig(kv_capacities=capacities)).run(
        requests, arrivals)
    assert derived.fingerprint() == explicit.fingerprint()
    assert derived.kv_peak_bytes == explicit.kv_peak_bytes


def test_weights_larger_than_the_cxl_pool_fail_before_serving():
    """opt-175b's weights (325 GiB) overflow two expanders (256 GiB):
    the run raises the one-line §6 capacity error before any step."""
    from repro.telemetry import Telemetry, activate

    system = get_system("spr-a100").with_cxl(n_expanders=2)
    estimator = LiaEstimator(get_model("opt-175b"), system, CONFIG)
    telemetry = Telemetry()
    with activate(telemetry), pytest.raises(CapacityError) as excinfo:
        ContinuousBatchScheduler(estimator).run(
            [InferenceRequest(1, 64, 4)], [0.0])
    message = str(excinfo.value)
    assert "\n" not in message and "weights need" in message
    assert excinfo.value.requested > excinfo.value.available
    assert telemetry.metrics.counter_value(
        "scheduler.iterations", system=system.name,
        model="opt-175b") == 0
    assert not telemetry.tracer.spans


# ----------------------------------------------------------------------
# The step profile
# ----------------------------------------------------------------------
def test_step_profile_interpolates_within_grid_hull(estimator):
    profile = StepProfile(estimator, [1, 8, 16], [128, 512, 1024])
    exact = estimator.estimate(
        InferenceRequest(8, 512, 1)).decode.time
    assert profile.decode_step_time(8, 512) == pytest.approx(exact)
    between = profile.decode_step_time(12, 700)
    lo = profile.decode_step_time(8, 512)
    hi = profile.decode_step_time(16, 1024)
    assert lo <= between <= hi
    # Clamped at the edges, not extrapolated.
    assert (profile.decode_step_time(64, 4096)
            == profile.decode_step_time(16, 1024))
    prefill = profile.prefill_time(InferenceRequest(8, 512, 32))
    assert prefill == pytest.approx(
        estimator.estimate(InferenceRequest(8, 512, 1)).prefill.time)


def test_config_validation_is_a_clean_error():
    with pytest.raises(ConfigurationError):
        SchedulerConfig(max_batch_requests=0)
    with pytest.raises(ConfigurationError):
        SchedulerConfig(join="sometimes")
    with pytest.raises(ConfigurationError):
        SchedulerConfig(cxl_step_penalty=-0.1)
    with pytest.raises(ConfigurationError):
        SchedulerConfig(context_grid_points=1)
    with pytest.raises(ConfigurationError):
        SchedulerConfig(span_cap=-1)


# ----------------------------------------------------------------------
# Fleet + workload traces
# ----------------------------------------------------------------------
def test_continuous_fleet_shards_deterministically(estimator):
    requests, arrivals = _mix(240)
    merged = run_continuous_fleet(estimator, requests, arrivals,
                                  replicas=3)
    again = run_continuous_fleet(estimator, requests, arrivals,
                                 replicas=3)
    assert merged.fingerprint() == again.fingerprint()
    assert len(merged.served) == 240
    solo = run_continuous_fleet(estimator, requests, arrivals,
                                replicas=1)
    assert len(solo.served) == 240
    # Three replicas drain a saturated queue faster than one.
    assert merged.makespan <= solo.makespan
    with pytest.raises(ConfigurationError):
        run_continuous_fleet(estimator, requests, arrivals,
                             replicas=0)


def test_fleet_occupancy_weighs_replicas_by_decode_busy_time(estimator):
    """Round-robin puts the long-step shape on replica 0 and the
    short-step one on replica 1, so per-replica iteration counts are
    the wrong weights for the merged decode-busy-time mean."""
    long_steps, short_steps = (InferenceRequest(8, 1024, 24),
                               InferenceRequest(1, 64, 8))
    requests = [long_steps if i % 2 == 0 else short_steps
                for i in range(40)]
    arrivals = [0.05 * i for i in range(40)]
    config = SchedulerConfig(max_batch_requests=4)
    replicas = [ContinuousBatchScheduler(estimator, config).run(
        requests[replica::2], arrivals[replica::2])
        for replica in range(2)]
    merged = run_continuous_fleet(estimator, requests, arrivals,
                                  replicas=2, scheduler_config=config)
    busy = [report.decode_busy_s for report in replicas]
    assert busy[0] > 5 * busy[1]
    by_time = (math.fsum(report.occupancy_mean * report.decode_busy_s
                         for report in replicas) / math.fsum(busy))
    by_iterations = (sum(report.occupancy_mean * report.iterations
                         for report in replicas)
                     / sum(report.iterations for report in replicas))
    assert merged.occupancy_mean == by_time
    assert merged.occupancy_mean != pytest.approx(by_iterations)
    assert merged.decode_busy_s == math.fsum(busy)


def test_fleet_telemetry_gauges_read_the_merged_report(estimator):
    """Every replica's run sets the gauges from its own report; the
    fleet's gauges must read the merged report, while counters and
    histograms still count each request once."""
    from repro.telemetry import Telemetry, activate

    requests, arrivals = _mix(60)
    telemetry = Telemetry()
    with activate(telemetry):
        merged = run_continuous_fleet(
            estimator, requests, arrivals, replicas=3,
            scheduler_config=SchedulerConfig(max_batch_requests=4))
    metrics = telemetry.metrics
    labels = {"system": estimator.system.name,
              "model": estimator.spec.name}
    expected = {"serving.utilization": merged.utilization,
                "serving.makespan_s": merged.makespan,
                "scheduler.occupancy_mean": merged.occupancy_mean,
                "scheduler.occupancy_peak": float(merged.occupancy_peak)}
    for name, value in expected.items():
        assert metrics.gauge(name, **labels).value == value, name
    for tier, peak in merged.kv_peak_bytes.items():
        assert metrics.gauge("scheduler.kv_peak_bytes", tier=tier,
                             **labels).value == peak, tier
    assert metrics.counter_value("serving.requests", **labels) == 60
    assert metrics.counter_value("scheduler.completions", **labels) == 60
    assert metrics.histogram("serving.latency_s", **labels).count == 60


def test_session_trace_never_deadlocks(estimator):
    from repro.workloads import get_trace

    arrivals = get_trace("sessions").scaled(200).generate()
    workload = WorkloadVector.sample_mix(SHAPES, 200, seed=5)
    report = ContinuousBatchScheduler(estimator).run(workload,
                                                     arrivals)
    assert len(report.served) == 200
    assert report.iterations > 0
    # Under a tight KV budget the same trace still drains fully.
    spec = estimator.spec
    biggest = max(
        float(spec.kv_cache_bytes(r.batch_size, r.max_context_len))
        for r in workload.to_requests())
    squeezed = ContinuousBatchScheduler(
        estimator, SchedulerConfig(
            kv_capacities=KvTierCapacities(biggest, biggest, 0.0))
    ).run(workload, arrivals)
    assert len(squeezed.served) == 200


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_scheduler_emits_counters_gauges_and_spans(estimator):
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    requests, arrivals = _mix(120)
    with activate(telemetry):
        report = ContinuousBatchScheduler(estimator).run(requests,
                                                         arrivals)
    metrics = telemetry.metrics
    labels = {"system": estimator.system.name,
              "model": estimator.spec.name}
    assert metrics.counter_value("scheduler.iterations",
                                 **labels) == report.iterations
    assert metrics.counter_value("scheduler.admissions",
                                 **labels) == report.admissions
    assert metrics.counter_value("scheduler.completions",
                                 **labels) == len(report.served)
    # ``Gauge.labels`` is already the canonical sorted-tuple LabelKey.
    gauges = {(gauge.name, gauge.labels): gauge.value
              for gauge in metrics.gauges()}
    key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    assert gauges[("scheduler.occupancy_mean", key)] == pytest.approx(
        report.occupancy_mean)
    spans = telemetry.tracer.spans_on("scheduler")
    assert spans
    assert len(spans) <= 1024 + 1  # step spans + possible drop note
    assert all(span.name == "decode-step" for span in spans
               if span.name != "dropped-spans")


def test_cxl_run_counts_no_tiering_plan(cxl_estimator):
    """Deriving the KV budgets places no request, so a continuous run
    on a CXL system adds no ``cxl.plans`` or ``cxl.tier_bytes``."""
    from repro.telemetry import Telemetry, activate

    telemetry = Telemetry()
    requests, arrivals = _mix(20)
    with activate(telemetry):
        ContinuousBatchScheduler(cxl_estimator).run(requests, arrivals)
    names = {counter.name for counter in telemetry.metrics.counters()}
    assert "scheduler.iterations" in names
    assert not names & {"cxl.plans", "cxl.tier_bytes"}


def test_occupancy_timeseries_reflects_concurrency(estimator):
    from repro.telemetry.timeseries import (compute_timeseries,
                                            timeseries_from_report)

    def concurrency(report):
        """Per-window mean concurrency: busy seconds over the window."""
        series = compute_timeseries(report.arrivals, report.starts,
                                    report.finishes, n_windows=64)
        return series.grid, series.busy_s / series.grid.window_s

    requests, arrivals = _mix(200)
    report = ContinuousBatchScheduler(estimator).run(requests,
                                                     arrivals)
    grid, occupancy = concurrency(report)
    assert occupancy.shape == (64,)
    assert float(occupancy.max()) > 1.0  # batching happened
    # Exact integral: sum(occupancy * window) == total service time.
    total_service = sum(r.service_time for r in report.served)
    assert float(occupancy.sum() * grid.window_s) == pytest.approx(
        total_service, rel=1e-9)
    # FIFO reports cap at one request in service.
    fifo = ServingSimulator(estimator).run(requests, arrivals)
    __, fifo_occ = concurrency(fifo)
    assert float(fifo_occ.max()) <= 1.0 + 1e-9
    # The generic windowed series consumes the continuous report
    # through the same timeline columns.
    series = timeseries_from_report(report, n_windows=32)
    assert int(series.arrived.sum()) == 200
    assert int(series.finished.sum()) == 200


def test_step_profile_grid_matches_per_point_estimates(estimator,
                                                       cxl_estimator):
    """The profile's one-table grid is the per-point estimate at every
    point, bit for bit."""
    batches, contexts = [1, 4, 16, 32], [64, 256, 1100]
    for model in (estimator, cxl_estimator):
        profile = StepProfile(model, batches, contexts)
        assert profile._decode_grid.tolist() == [
            [model.estimate(InferenceRequest(b, c, 1)).decode.time
             for c in contexts] for b in batches]


def test_continuous_kv_profile_grid_matches_per_point_estimates():
    """The full grid perfbench's continuous-kv workload builds (two CXL
    expanders, max batch 32, its four shapes) is the per-point
    estimate at every point, bit for bit."""
    estimator = LiaEstimator(get_model("opt-30b"),
                             get_system("spr-a100").with_cxl(n_expanders=2),
                             CONFIG)
    shapes = [InferenceRequest(*shape) for shape in
              ((1, 128, 16), (1, 512, 64), (8, 1024, 64), (32, 1024, 32))]
    profile = StepProfile.for_workload(
        estimator, shapes, SchedulerConfig(max_batch_requests=32))
    batches, contexts = profile.batch_sizes, profile.context_lens
    assert len(batches) * len(contexts) == 88
    assert profile._decode_grid.tolist() == [
        [estimator.estimate(InferenceRequest(b, c, 1)).decode.time
         for c in contexts] for b in batches]
