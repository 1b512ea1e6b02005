"""Windowed serving time series, SLO burn-rate monitors, fleet merge.

The contracts under test:

* the vectorized windowing kernel is *exact* on its count channels
  and busy-seconds integral, and bit-identical between the serving
  engine's report and the per-request loop oracle for the same run;
* the unsorted fallback (argsort) equals the sorted fast path;
* :meth:`ServingTimeseries.merge` is the fleet aggregation
  primitive: split == whole, replicas sum to the direct fleet
  computation;
* every fired SLO alert in a faulted run is attributed to an
  overlapping injected :class:`FaultEvent` window — or explicitly to
  organic load.
"""

import numpy as np
import pytest

from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.faults.spec import FaultEvent, FaultKind, FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                           WorkloadVector, arrivals_poisson)
from repro.telemetry.timeseries import (ORGANIC_LOAD, SLOPolicy,
                                        WindowGrid, compute_timeseries,
                                        evaluate_slo, fleet_timeseries,
                                        monitor_report,
                                        timeseries_from_report)
from tests.oracles.fifo_loop import loop_timeseries, run_loop

SHAPE_MIXES = {
    "single": [InferenceRequest(1, 128, 16)],
    "tier1": [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32),
              InferenceRequest(1, 512, 32), InferenceRequest(8, 256, 32)],
    "batched": [InferenceRequest(8, 256, 32), InferenceRequest(16, 128, 16)],
}


@pytest.fixture
def simulator(opt_30b, spr_a100, eval_config):
    return ServingSimulator(LiaEstimator(opt_30b, spr_a100, eval_config))


def _fresh_simulator(simulator):
    return ServingSimulator(simulator.estimator)


def _series_equal(left, right):
    """Bit-identity across every channel, NaN-aware percentiles."""
    assert np.array_equal(left.arrived, right.arrived)
    assert np.array_equal(left.started, right.started)
    assert np.array_equal(left.finished, right.finished)
    assert np.array_equal(left.queue_depth, right.queue_depth)
    assert np.array_equal(left.busy_s, right.busy_s)
    assert set(left.weighted) == set(right.weighted)
    for name in left.weighted:
        assert np.array_equal(left.weighted[name],
                              right.weighted[name])
    for fraction in (0.50, 0.95, 0.99):
        assert np.array_equal(left.percentile(fraction),
                              right.percentile(fraction),
                              equal_nan=True)


# ----------------------------------------------------------------------
# Grid and kernel exactness
# ----------------------------------------------------------------------
def test_window_grid_cover_and_lookup():
    grid = WindowGrid.cover(10.0, n_windows=5)
    assert grid.window_s == pytest.approx(2.0)
    assert grid.edges.shape == (6,)
    assert grid.window_of(0.0) == 0
    assert grid.window_of(1.99) == 0
    assert grid.window_of(2.0) == 1
    # Times at/after the horizon clamp into the last window.
    assert grid.window_of(10.0) == 4
    degenerate = WindowGrid.cover(0.0, n_windows=4)
    assert degenerate.window_s > 0.0


@pytest.mark.parametrize("horizon", [10.0, 0.0])
def test_window_grid_cover_rejects_zero_windows(horizon):
    with pytest.raises(ConfigurationError, match="n_windows must be >= 1"):
        WindowGrid.cover(horizon, n_windows=0)


def test_handcrafted_channels_are_exact():
    # Three back-to-back requests on one always-busy server:
    # arrive 0/1/2, start 0/2/4, finish 2/4/6.
    arrivals = np.array([0.0, 1.0, 2.0])
    starts = np.array([0.0, 2.0, 4.0])
    finishes = np.array([2.0, 4.0, 6.0])
    grid = WindowGrid(t0=0.0, window_s=1.0, n_windows=6)
    series = compute_timeseries(arrivals, starts, finishes, grid=grid)
    assert series.arrived.tolist() == [1, 1, 1, 0, 0, 0]
    assert series.started.tolist() == [1, 0, 1, 0, 1, 0]
    # The finish at t=6 (the horizon edge) lands in the last window.
    assert series.finished.tolist() == [0, 0, 1, 0, 1, 1]
    assert series.queue_depth.tolist() == [1, 2, 2, 2, 1, 0]
    # The server never idles: every window is fully busy.
    np.testing.assert_allclose(series.busy_s, 1.0)
    np.testing.assert_allclose(series.utilization, 1.0)


def test_segment_sums_handle_bounds_that_saturate_early():
    # Regression: when the cumulative bounds hit ``values.size``
    # before the final edge (all events exhausted mid-grid), the old
    # reduceat clamp dropped the last element from the window that
    # consumed it and echoed it into an empty one.
    from repro.telemetry.timeseries import _edge_counts, _segment_sums

    values = np.array([0.5, 1.5, 2.5, 3.5])
    edges = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
    bounds = _edge_counts(values, edges)
    assert bounds.tolist() == [0, 2, 4, 4, 4]
    sums = _segment_sums(values, bounds)
    np.testing.assert_allclose(sums, [2.0, 6.0, 0.0, 0.0])
    # Per-window sums always partition the total.
    assert sums.sum() == pytest.approx(values.sum())
    # All-empty and empty-input degenerate cases.
    np.testing.assert_allclose(
        _segment_sums(values, np.zeros(5, dtype=int)), 0.0)
    np.testing.assert_allclose(
        _segment_sums(np.array([]), bounds * 0), 0.0)


def test_busy_seconds_match_bruteforce_integral(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 200,
                                         seed=5)
    arrivals = arrivals_poisson(200, 0.3, seed=5)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    series = timeseries_from_report(report, n_windows=37)
    edges = series.grid.edges
    expected = np.zeros(series.n_windows)
    for start, finish in zip(report.starts, report.finishes):
        lo = np.maximum(edges[:-1], start)
        hi = np.minimum(edges[1:], finish)
        expected += np.maximum(hi - lo, 0.0)
    np.testing.assert_allclose(series.busy_s, expected, atol=1e-9)


def test_conservation_and_final_drain(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["batched"], 300,
                                         seed=2)
    arrivals = arrivals_poisson(300, 0.4, seed=2)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    series = timeseries_from_report(report, n_windows=64)
    assert series.arrived.sum() == 300
    assert series.started.sum() == 300
    assert series.finished.sum() == 300
    assert series.queue_depth[-1] == 0
    assert (series.queue_depth >= 0).all()
    assert series.tokens is not None
    assert series.tokens.sum() == pytest.approx(
        workload.tokens_per_request().sum())


# ----------------------------------------------------------------------
# Loop oracle vs engine parity, sorted vs unsorted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mix", sorted(SHAPE_MIXES))
@pytest.mark.parametrize("n_requests,rate", [(64, 0.2), (400, 0.21)])
def test_loop_and_vectorized_series_bit_identical(simulator, mix,
                                                  n_requests, rate):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES[mix], n_requests,
                                         seed=7)
    arrivals = arrivals_poisson(n_requests, rate, seed=11)
    loop = run_loop(_fresh_simulator(simulator), workload.to_requests(),
                    arrivals)
    vec = _fresh_simulator(simulator).run(workload, arrivals)
    loop_series = loop_timeseries(loop, n_windows=48)
    vec_series = timeseries_from_report(vec, n_windows=48)
    _series_equal(loop_series, vec_series)
    # Exact bad counts agree too (the SLO substrate).
    threshold = float(np.median(vec.finishes - np.asarray(arrivals)))
    assert np.array_equal(loop_series.bad_counts(threshold),
                          vec_series.bad_counts(threshold))


def test_unsorted_fallback_matches_sorted_path(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 250,
                                         seed=9)
    arrivals = arrivals_poisson(250, 0.25, seed=9)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    grid = WindowGrid.cover(report.makespan, n_windows=40)
    sorted_series = compute_timeseries(
        np.asarray(arrivals), report.starts, report.finishes,
        grid=grid, assume_sorted=True)
    permutation = np.random.default_rng(3).permutation(250)
    shuffled = compute_timeseries(
        np.asarray(arrivals)[permutation],
        report.starts[permutation], report.finishes[permutation],
        grid=grid)
    _series_equal(sorted_series, shuffled)


def test_windowed_percentiles_track_exact_order_statistics(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 500,
                                         seed=1)
    arrivals = arrivals_poisson(500, 0.21, seed=1)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    series = timeseries_from_report(report, n_windows=16)
    assert series.percentile_stride == 1  # 500 < 16 windows x 128
    latencies = report.finishes - np.asarray(arrivals)
    windows = np.minimum(
        np.searchsorted(series.grid.edges, report.finishes,
                        side="right") - 1, series.n_windows - 1)
    estimate = series.percentile(0.95)
    for window in range(series.n_windows):
        sample = np.sort(latencies[windows == window])
        if not sample.size:
            assert np.isnan(estimate[window])
            continue
        exact = sample[max(0, int(np.ceil(0.95 * sample.size)) - 1)]
        # Geometric buckets grow ~2.2%; clamping to the observed
        # range keeps the estimate within a few percent.
        assert estimate[window] == pytest.approx(exact, rel=0.05)


# ----------------------------------------------------------------------
# Merge: the fleet aggregation primitive
# ----------------------------------------------------------------------
def test_merge_of_split_halves_equals_whole(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["single"], 200,
                                         seed=4)
    arrivals = np.asarray(arrivals_poisson(200, 0.3, seed=4))
    report = _fresh_simulator(simulator).run(workload, arrivals)
    grid = WindowGrid.cover(report.makespan, n_windows=32)
    whole = compute_timeseries(arrivals, report.starts,
                               report.finishes, grid=grid)
    even = compute_timeseries(arrivals[0::2], report.starts[0::2],
                              report.finishes[0::2], grid=grid)
    odd = compute_timeseries(arrivals[1::2], report.starts[1::2],
                             report.finishes[1::2], grid=grid)
    assert whole.percentile_stride == 1  # every latency ingested
    merged = even.merge(odd)
    assert np.array_equal(merged.arrived, whole.arrived)
    assert np.array_equal(merged.finished, whole.finished)
    assert np.array_equal(merged.queue_depth, whole.queue_depth)
    np.testing.assert_allclose(merged.busy_s, whole.busy_s,
                               atol=1e-9)
    for fraction in (0.5, 0.95):
        assert np.array_equal(merged.percentile(fraction),
                              whole.percentile(fraction),
                              equal_nan=True)
    assert np.array_equal(merged.bad_counts(1.0),
                          whole.bad_counts(1.0))


def test_merge_rejects_mismatched_grids_and_weights():
    values = np.array([0.0, 1.0, 2.0])
    grid_a = WindowGrid(t0=0.0, window_s=1.0, n_windows=4)
    grid_b = WindowGrid(t0=0.0, window_s=2.0, n_windows=4)
    a = compute_timeseries(values, values, values + 0.5, grid=grid_a)
    b = compute_timeseries(values, values, values + 0.5, grid=grid_b)
    with pytest.raises(ConfigurationError):
        a.merge(b)
    weighted = compute_timeseries(values, values, values + 0.5,
                                  grid=grid_a,
                                  weights={"tokens": values})
    with pytest.raises(ConfigurationError):
        a.merge(weighted)


def test_fleet_timeseries_matches_direct_computation(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 600,
                                         seed=6)
    fleet_sim = MultiReplicaSimulator(simulator.estimator, 3,
                                      dispatch="round-robin")
    report = fleet_sim.run(workload, arrivals_poisson(600, 0.6, seed=6))
    fleet = fleet_timeseries(report, n_windows=40)
    # Direct: one unsorted computation over the interleaved fleet
    # timeline must agree with the per-replica merge.
    arrivals = np.concatenate(
        [np.asarray(sub.arrivals) for sub in report.per_replica])
    starts = np.concatenate(
        [sub.starts for sub in report.per_replica])
    finishes = np.concatenate(
        [sub.finishes for sub in report.per_replica])
    direct = compute_timeseries(arrivals, starts, finishes,
                                grid=fleet.grid)
    assert np.array_equal(fleet.arrived, direct.arrived)
    assert np.array_equal(fleet.started, direct.started)
    assert np.array_equal(fleet.finished, direct.finished)
    assert np.array_equal(fleet.queue_depth, direct.queue_depth)
    np.testing.assert_allclose(fleet.busy_s, direct.busy_s, atol=1e-9)
    assert fleet.n_servers == 3


# ----------------------------------------------------------------------
# SLO burn-rate monitoring and fault attribution
# ----------------------------------------------------------------------
def _synthetic_spike_series(n=400, spike=slice(200, 240)):
    """1 req/s, latency 0.2 s except a 10 s spike mid-run."""
    arrivals = np.arange(n, dtype=np.float64)
    latencies = np.full(n, 0.2)
    latencies[spike] = 10.0
    finishes = arrivals + latencies
    order = np.argsort(finishes, kind="stable")
    grid = WindowGrid(t0=0.0, window_s=4.0, n_windows=100)
    return compute_timeseries(arrivals[order], arrivals[order],
                              finishes[order], grid=grid)


def test_burn_rate_alert_fires_on_spike_and_attributes_fault():
    series = _synthetic_spike_series()
    policy = SLOPolicy(latency_threshold_s=1.0, error_budget=0.02,
                       long_window_s=40.0, short_window_s=8.0,
                       burn_rate_threshold=2.0)
    event = FaultEvent(FaultKind.CPU_PREEMPTION, start=200.0,
                       duration=40.0, magnitude=0.5)
    monitoring = evaluate_slo(series, policy, events=[event],
                              scenario_name="synthetic")
    assert monitoring.total_bad == 40
    assert monitoring.alerts, "the spike must fire an alert"
    for alert in monitoring.alerts:
        assert alert.peak_burn_long >= policy.burn_rate_threshold
        assert alert.peak_burn_short >= policy.burn_rate_threshold
        assert alert.cause == "cpu-preemption"
        primary = alert.attributions[0]
        assert primary.overlap_s > 0.0
        assert primary.event_start_s == 200.0
    # The same alerts with no fault windows are organic load.
    organic = evaluate_slo(series, policy)
    assert organic.alerts
    assert all(a.cause == ORGANIC_LOAD for a in organic.alerts)


def test_alert_far_from_fault_window_stays_organic():
    series = _synthetic_spike_series()
    policy = SLOPolicy(latency_threshold_s=1.0, error_budget=0.02,
                       long_window_s=40.0, short_window_s=8.0,
                       attribution_lookback_s=20.0)
    # A fault window long before the spike (and outside the
    # lookback) must not claim the alert.
    event = FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=0.0,
                       duration=30.0, magnitude=0.5)
    monitoring = evaluate_slo(series, policy, events=[event])
    assert monitoring.alerts
    assert all(a.cause == ORGANIC_LOAD for a in monitoring.alerts)


def test_degraded_run_alerts_attributed_against_injected_scenario(
        simulator):
    # The acceptance criterion: in a faulted scenario every fired
    # alert carries attribution consistent with the injected fault
    # windows — verified against the scenario itself, not the
    # monitor's own bookkeeping.
    scenario = FaultScenario(
        name="midrun-preemption", seed=3,
        events=(FaultEvent(FaultKind.CPU_PREEMPTION, start=200.0,
                           duration=2000.0, magnitude=0.9),))
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 400,
                                         seed=3)
    arrivals = arrivals_poisson(400, 0.2, seed=3)
    report = _fresh_simulator(simulator).run(
        workload.to_requests(), arrivals, scenario=scenario)
    assert report.scenario is scenario
    baseline = _fresh_simulator(simulator).run(
        workload.to_requests(), arrivals)
    threshold = 1.25 * baseline.latency_percentile(0.95)
    policy = SLOPolicy(latency_threshold_s=threshold,
                       error_budget=0.05)
    monitoring = report.monitor(policy, n_windows=64)
    assert monitoring.scenario_name == "midrun-preemption"
    fault_alerts = [a for a in monitoring.alerts
                    if a.cause != ORGANIC_LOAD]
    assert fault_alerts, "a 10x slowdown window must fire alerts"
    lookback = policy.lookback_s(monitoring.timeseries.grid)
    for alert in fault_alerts:
        for attribution in alert.attributions:
            if attribution.cause == ORGANIC_LOAD:
                continue
            (event,) = [e for e in scenario.events
                        if e.kind.value == attribution.cause]
            assert attribution.event_start_s == event.start
            assert attribution.magnitude == event.magnitude
            # The claimed overlap is real: the event window crosses
            # the alert's lookback-extended interval.
            assert event.start < alert.end_s
            assert event.end > alert.start_s - lookback
            assert attribution.overlap_s > 0.0


def test_monitor_report_on_fault_free_run_is_organic(simulator):
    workload = WorkloadVector.sample_mix(SHAPE_MIXES["single"], 200,
                                         seed=8)
    arrivals = arrivals_poisson(200, 0.3, seed=8)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    policy = SLOPolicy(latency_threshold_s=0.5, error_budget=0.05)
    monitoring = monitor_report(report, policy, n_windows=32)
    assert monitoring.scenario_name == ""
    assert monitoring.total_requests == 200
    assert all(a.cause == ORGANIC_LOAD for a in monitoring.alerts)
    document = monitoring.to_dict()
    assert document["total_requests"] == 200
    assert len(document["burn_long"]) == 32


# ----------------------------------------------------------------------
# Exports ride the series
# ----------------------------------------------------------------------
def test_counter_events_are_schema_clean(simulator):
    from repro.telemetry import timeseries_to_counter_events

    workload = WorkloadVector.sample_mix(SHAPE_MIXES["single"], 100,
                                         seed=0)
    arrivals = arrivals_poisson(100, 0.3, seed=0)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    series = timeseries_from_report(report, n_windows=16)
    events = timeseries_to_counter_events(series)
    assert events
    names = {event["name"] for event in events}
    assert "serving.queue_depth" in names
    assert "serving.p95_latency_s" in names
    for event in events:
        assert event["ph"] == "C"
        assert event["ts"] >= 0.0
        for value in event["args"].values():
            assert np.isfinite(value)


def test_csv_and_dashboard_exports(tmp_path, simulator):
    from repro.telemetry import (write_dashboard_html,
                                 write_timeseries_csv)

    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 150,
                                         seed=12)
    arrivals = arrivals_poisson(150, 0.25, seed=12)
    report = _fresh_simulator(simulator).run(workload, arrivals)
    policy = SLOPolicy(latency_threshold_s=1.0, error_budget=0.05)
    monitoring = monitor_report(report, policy, n_windows=24)
    series = monitoring.timeseries

    csv_path = write_timeseries_csv(tmp_path / "series.csv", series,
                                    monitoring=monitoring)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    assert {"window", "queue_depth", "busy_s", "burn_long",
            "alert"} <= set(header)
    assert len(lines) == 2 + series.n_windows

    html_path = write_dashboard_html(tmp_path / "dash.html",
                                     monitoring,
                                     metadata={"seed": 12})
    text = html_path.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "queue depth" in text
    assert "SLO alerts" in text


def test_dashboard_fleet_section_reads_the_scale_out_report(tmp_path,
                                                            simulator):
    import re

    from repro.telemetry import write_dashboard_html
    from repro.telemetry.dashboard import _format_value

    workload = WorkloadVector.sample_mix(SHAPE_MIXES["tier1"], 600,
                                         seed=6)
    report = MultiReplicaSimulator(simulator.estimator, 3).run(
        workload, arrivals_poisson(600, 0.6, seed=6))
    monitoring = monitor_report(report, SLOPolicy(latency_threshold_s=5.0),
                                n_windows=24)
    text = write_dashboard_html(tmp_path / "fleet.html", monitoring,
                                fleet=report).read_text()
    __, found, section = text.partition("<h2>Fleet · 3 replicas")
    assert found
    fleet_p95 = _format_value(report.latency_percentile(0.95))
    assert section.startswith(f" (merged p95 {fleet_p95} s)</h2>")
    table = section.split("</table>", 1)[0]
    rows = re.findall(r"<tr><td>(\d+)</td><td>(\d+)</td>"
                      r"<td>([^<]*) s</td>.*?</span> ([\d.]+)%</td></tr>",
                      table)
    assert [int(row[0]) for row in rows] == [0, 1, 2]
    assert [int(row[1]) for row in rows] == [
        sub.n_served for sub in report.per_replica]
    assert [row[2] for row in rows] == [
        _format_value(sub.latency_percentile(0.95))
        for sub in report.per_replica]
    assert [row[3] for row in rows] == [
        f"{sub.busy_s / report.makespan * 100:.1f}"
        for sub in report.per_replica]
