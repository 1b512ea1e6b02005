"""Piecewise-Lindley FIFO engine under faults: bit-identity with
the loop oracle.

The contract under test is the one the module docstring of
:mod:`repro.serving.piecewise` states: on identical inputs the engine
and the per-request reference loop of ``tests/oracles/fifo_loop.py``
produce bit-identical timelines, drop records, :class:`FaultStats`,
and telemetry rows — across every built-in preset, across
fault-window boundary edge cases, and through the multi-replica
dispatcher.  Alongside ride the slow-path regression pins: the
admission probe's depth counting and backoff accounting, pooled (not
averaged) fleet percentiles, and ``run()`` dispatch.
"""

import math
import random
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import ConfigurationError
from repro.faults.scenarios import get_scenario
from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy)
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import (MultiReplicaSimulator, ServingReport,
                           ServingSimulator,
                           WorkloadVector, arrivals_poisson,
                           lindley_timeline, run_fifo)
from repro.serving import piecewise
from repro.serving.degradation import DegradationController, PlanTable
from repro.serving.piecewise import _apply_stall_ops, _stall_outcomes
from repro.telemetry.runtime import Telemetry, activate
from repro.telemetry.timeseries import (fleet_timeseries,
                                        timeseries_from_report)
from tests.oracles.differentials import (DEGRADED_SHAPES as SHAPES,
                                         assert_parity,
                                         check_preset_parity,
                                         check_unfit_shape, composite,
                                         degraded_presets)
from tests.oracles.fifo_loop import (admit, loop_timeseries,
                                     run_admission_sequential,
                                     run_degraded, transfer_penalty)


@pytest.fixture
def simulator(opt_30b, spr_a100, eval_config):
    return ServingSimulator(LiaEstimator(opt_30b, spr_a100, eval_config))


def _fresh(simulator):
    return ServingSimulator(simulator.estimator)


def _workload(n, seed=0):
    return WorkloadVector.sample_mix(SHAPES, n, seed=seed)


def _run_both(simulator, workload, arrivals, scenario):
    loop = run_degraded(_fresh(simulator), workload.to_requests(),
                        arrivals, scenario)
    vec = run_fifo(simulator.estimator, workload, arrivals, scenario)
    return loop, vec


# ----------------------------------------------------------------------
# Tentpole: every preset is bit-identical across engines (2,000
# requests each: ``lanes/``)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(degraded_presets(1.0)))
def test_presets_bit_identical(simulator, name):
    check_preset_parity(simulator.estimator, name, 300, 2.0, 3, 4)


def _telemetry_rows(telemetry):
    return [row for row in telemetry.metrics.snapshot()
            if str(row["metric"]).startswith(("serving.", "faults."))]


def _span_set(telemetry):
    return sorted((s.name, s.track, s.start, s.finish,
                   tuple(sorted(s.args.items())))
                  for s in telemetry.tracer.spans)


@pytest.mark.parametrize("name", ["pcie-flaky", "gpu-pressure",
                                  "noisy-neighbor"])
def test_preset_telemetry_rows_and_spans_engine_invariant(simulator, name):
    scenario = get_scenario(name)
    workload = _workload(120, seed=5)
    arrivals = arrivals_poisson(120, 2.0, seed=5)
    t_loop, t_vec = Telemetry(), Telemetry()
    with activate(t_loop):
        run_degraded(_fresh(simulator), workload.to_requests(),
                     arrivals, scenario)
    with activate(t_vec):
        run_fifo(simulator.estimator, workload, arrivals, scenario)
    assert _telemetry_rows(t_loop) == _telemetry_rows(t_vec)
    assert _span_set(t_loop) == _span_set(t_vec)


# ----------------------------------------------------------------------
# Segment-boundary carry-over property tests
# ----------------------------------------------------------------------
def test_window_edges_exactly_on_arrivals(simulator):
    """Fault windows opening and closing exactly on arrival
    timestamps — the half-open [start, end) boundary must cut the
    same requests in both engines."""
    arrivals = [0.5 * i for i in range(80)]
    workload = _workload(80, seed=7)
    scenario = FaultScenario(
        name="edge-on-arrival", seed=7,
        events=(
            # Opens exactly at arrivals[20], closes exactly at
            # arrivals[40].
            FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=arrivals[20],
                       duration=arrivals[40] - arrivals[20],
                       magnitude=0.4),
            # A stall window that closes exactly where the next
            # performance window opens.
            FaultEvent(FaultKind.PCIE_STALL, start=arrivals[10],
                       duration=arrivals[20] - arrivals[10],
                       magnitude=0.3),
            FaultEvent(FaultKind.GPU_HBM_PRESSURE, start=arrivals[50],
                       duration=arrivals[60] - arrivals[50],
                       magnitude=0.3),
        ),
        chunks_per_request=6)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)


def test_near_zero_windows_bit_identical(simulator):
    """1e-9-second windows: at most one request can start inside,
    and both engines must agree on whether one does."""
    arrivals = [0.25 * i for i in range(60)]
    workload = _workload(60, seed=11)
    scenario = FaultScenario(
        name="near-zero", seed=11,
        events=(
            FaultEvent(FaultKind.CXL_CONTENTION, start=arrivals[15],
                       duration=1e-9, magnitude=0.5),
            FaultEvent(FaultKind.PCIE_STALL, start=arrivals[30],
                       duration=1e-9, magnitude=1.0),
            FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=7.123456,
                       duration=1e-9, magnitude=0.25),
        ),
        chunks_per_request=4)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)


def test_zero_length_windows_are_unconstructible():
    """Zero- and negative-duration windows fail at construction, so
    neither engine can ever see a degenerate segment."""
    for duration in (0.0, -1.0):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=1.0,
                       duration=duration, magnitude=0.5)


def _fuzz_scenario(seed):
    """Random overlapping windows from several fault kinds."""
    rng = random.Random(seed)
    events = []
    for kind in (FaultKind.PCIE_DOWNSHIFT, FaultKind.GPU_HBM_PRESSURE,
                 FaultKind.CXL_CONTENTION):
        for __ in range(rng.randint(1, 2)):
            start = rng.uniform(0.0, 25.0)
            duration = rng.uniform(0.5, 20.0)
            if kind is FaultKind.GPU_HBM_PRESSURE:
                magnitude = rng.uniform(0.1, 0.5)
            else:
                magnitude = rng.uniform(0.3, 0.9)
            events.append(FaultEvent(kind, start=start,
                                     duration=duration,
                                     magnitude=magnitude))
    events.append(FaultEvent(FaultKind.PCIE_STALL,
                             start=rng.uniform(0.0, 15.0),
                             duration=rng.uniform(1.0, 20.0),
                             magnitude=rng.uniform(0.02, 0.15)))
    return FaultScenario(name=f"fuzz-{seed}", seed=seed,
                         events=tuple(events), chunks_per_request=6)


@pytest.mark.parametrize("seed", range(6))
def test_overlapping_windows_fuzz_bit_identity(simulator, seed):
    """Randomized overlapping windows of mixed kinds: the regime
    segmentation (cuts at every event start/end) must replay the
    loop's per-request signature probing exactly, including backlog
    carried across each segment boundary."""
    rng = random.Random(1000 + seed)
    n = 120
    arrivals = sorted(rng.uniform(0.0, 40.0) for __ in range(n))
    workload = _workload(n, seed=seed)
    scenario = _fuzz_scenario(seed)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)


def test_backlog_carries_across_boundary(simulator):
    """A burst arriving inside a window must push starts past the
    window's end; requests starting after the edge get the healthy
    plan even though they arrived during the fault."""
    arrivals = [0.0] * 30 + [100.0 + i for i in range(5)]
    workload = WorkloadVector.from_requests(
        [InferenceRequest(8, 512, 64)] * 35)
    base_latency = _fresh(simulator).estimator.estimate(
        InferenceRequest(8, 512, 64)).latency
    scenario = FaultScenario(
        name="carry-over", seed=2,
        events=(FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=0.0,
                           duration=base_latency * 3.0,
                           magnitude=0.25),))
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)
    # The window outlives fewer than all 30 burst requests, so some
    # started degraded and some healthy: both plans were exercised.
    assert vec.stats.policy_resolves > 0
    assert vec.stats.policy_resolves < 30


#: HBM pressure that halves the batch-8 shape, a PCIe downshift that
#: moves the halved batch's prefill to the CPU while both are active,
#: and a stall window over both, so the halved plan's chunk count
#: reaches the stall draws.
SHRINK_AND_SHIFT = FaultScenario(
    name="shrink-and-shift", seed=3,
    events=(FaultEvent(FaultKind.GPU_HBM_PRESSURE, start=100.0,
                       duration=900.0, magnitude=0.9),
            FaultEvent(FaultKind.PCIE_DOWNSHIFT, start=400.0,
                       duration=900.0, magnitude=0.3),
            FaultEvent(FaultKind.PCIE_STALL, start=0.0, duration=1500.0,
                       magnitude=0.05)))


def test_resolve_matches_the_oracle_planner():
    """The engine's §5 re-solve (halved batches served as ``pieces``,
    their chunk counts, the policy-shift test against the healthy
    plan) against the oracle's own scalar planner: timelines,
    FaultStats, telemetry rows and every ``shrink:`` span in order."""
    estimator = LiaEstimator(get_model("opt-66b"), get_system("spr-a100"),
                             LiaConfig(enforce_host_capacity=False))
    shapes = [InferenceRequest(1, 128, 8), InferenceRequest(8, 512, 16)]
    workload = WorkloadVector.sample_mix(shapes, 150, seed=1)
    arrivals = arrivals_poisson(150, 0.1, seed=2)
    t_loop, t_vec = Telemetry(), Telemetry()
    with activate(t_loop):
        loop = run_degraded(ServingSimulator(estimator),
                            workload.to_requests(), arrivals,
                            SHRINK_AND_SHIFT)
    with activate(t_vec):
        vec = run_fifo(estimator, workload, arrivals, SHRINK_AND_SHIFT)
    assert_parity(loop, vec)
    assert vec.stats.batch_shrinks > 0 and vec.stats.policy_shifts > 0
    assert vec.stats.transfer_stalls > 0
    shrinks = [[(s.name, s.start, s.args) for s in t.tracer.spans
                if s.name.startswith("shrink:")] for t in (t_loop, t_vec)]
    assert shrinks[0] == shrinks[1] and shrinks[0]
    assert _telemetry_rows(t_loop) == _telemetry_rows(t_vec)
    assert _span_set(t_loop) == _span_set(t_vec)


#: A 64-deep queue that the capacity mix at rho ~ 0.95 saturates.
QUEUE_64 = AdmissionPolicy(max_queue_depth=64, max_deferrals=3)


@pytest.mark.parametrize("block_cap", [16, 64])
@pytest.mark.parametrize("admission", [AdmissionPolicy(), QUEUE_64],
                         ids=["open", "queue64"])
@pytest.mark.parametrize("name", ["gpu-pressure", "composite"])
def test_block_cap_splits_keep_parity(simulator, monkeypatch, name,
                                      admission, block_cap):
    """A finite segment longer than ``_BLOCK_CAP`` requests is served
    in several speculative blocks (and admission blocks and rounds no
    longer than the cap).  At the shipped cap only a 65,537-request
    segment splits, so the cap is shrunk until thousands of requests
    cut every fault window many times; each block's commit must
    continue the loop exactly."""
    monkeypatch.setattr(piecewise, "_BLOCK_CAP", block_cap)
    n = 3000
    workload = _workload(n, seed=5)
    arrivals = arrivals_poisson(n, 0.14, seed=5)
    scenario = replace(get_scenario(name) if name == "gpu-pressure"
                       else composite(arrivals[-1]), admission=admission)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)
    assert vec.n_served + len(vec.dropped) == n


@pytest.mark.parametrize("admission", [AdmissionPolicy(), QUEUE_64],
                         ids=["open", "queue64"])
def test_composite_at_scale_matches_loop(simulator, admission):
    """50,000 requests of perfbench's four-shape capacity mix at
    rho ~ 0.95 under the composite schedule, behind a saturated 64-deep
    queue or none: thousands of stalls, re-solves and sheds, and long
    admission-round stretches, each bit-identical to the loop."""
    n = 50_000
    shapes = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32),
              InferenceRequest(1, 512, 32), InferenceRequest(8, 256, 32)]
    workload = WorkloadVector.sample_mix(shapes, n, seed=0)
    arrivals = arrivals_poisson(n, 0.21, seed=0)
    scenario = replace(composite(arrivals[-1]), admission=admission)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)
    assert vec.stats.transfer_stalls > 0
    assert bool(vec.dropped) == admission.enabled


# ----------------------------------------------------------------------
# The Lindley kernel itself (penalties + free_at carry-in)
# ----------------------------------------------------------------------
def _assert_kernel_matches_scalar_fold(arrivals, services, penalties,
                                      free_at):
    starts, finishes = lindley_timeline(arrivals, services,
                                        penalties=penalties,
                                        free_at=free_at)
    clock = free_at
    for i in range(len(arrivals)):
        start = arrivals[i] if arrivals[i] >= clock else clock
        # The loop's exact two-addition order:
        finish = start + services[i]
        if penalties is not None:
            finish = finish + penalties[i]
        assert starts[i] == start
        assert finishes[i] == finish
        clock = finish


def _kernel_case(rng, gaps, with_penalties, with_free_at):
    n = len(gaps)
    services = np.array([rng.uniform(0.01, 0.4) for __ in range(n)])
    penalties = (np.array([0.0 if rng.random() < 0.5
                           else rng.uniform(0.0, 0.2) for __ in range(n)])
                 if with_penalties else None)
    free_at = rng.uniform(0.0, 2.0) if with_free_at else 0.0
    return np.cumsum(gaps), services, penalties, free_at


@pytest.mark.parametrize("seed", range(4))
def test_lindley_kernel_matches_scalar_fold(seed):
    rng = random.Random(seed)
    gaps = [rng.uniform(0.0, 0.3) for __ in range(200)]
    _assert_kernel_matches_scalar_fold(
        *_kernel_case(rng, gaps, True, True))


@pytest.mark.parametrize("length", [2, 5, 64, 65, 300])
@pytest.mark.parametrize("with_penalties", [False, True])
@pytest.mark.parametrize("with_free_at", [False, True])
def test_lindley_kernel_single_and_few_periods(length, with_penalties,
                                               with_free_at):
    """One busy period (a saturated queue's round) and a few short
    ones both take the per-period scan; a few short periods beside a
    long one keep the lockstep/scan split.  Every mode folds exactly
    as the scalar loop."""
    rng = random.Random(length)
    single = [0.0] * length
    few = ([0.0] * length + [100.0] + [0.001] * (length // 2 + 1)
           + [100.0] + [0.0] * 3)
    mixed = [100.0 if i % 7 == 0 else 0.0 for i in range(70)] + [0.0] * 80
    for gaps in (single, few, mixed):
        _assert_kernel_matches_scalar_fold(
            *_kernel_case(rng, gaps, with_penalties, with_free_at))


# ----------------------------------------------------------------------
# Stall-outcome replication (transfer_penalty == _stall_outcomes)
# ----------------------------------------------------------------------
def test_stall_outcome_replays_transfer_penalty(simulator):
    """One block of draws (one reseeded generator, chunk counts that
    vary) replays the oracle's per-request injector draws."""
    scenario = FaultScenario(
        name="always-stall", seed=13,
        events=(FaultEvent(FaultKind.PCIE_STALL, magnitude=0.3),),
        retry=RetryPolicy(max_retries=2, timeout_s=0.05,
                          backoff_base_s=0.01),
        chunks_per_request=5)
    live = DegradationController(PlanTable(simulator.estimator),
                                 scenario)
    shadow = DegradationController(PlanTable(simulator.estimator),
                                   scenario)
    indices = list(range(40))
    n_chunks = [5 if index % 7 else index % 3 for index in indices]
    outcomes = _stall_outcomes(scenario, 0.3, indices, n_chunks)
    hit = False
    for index, chunks, (expected, ops) in zip(indices, n_chunks,
                                              outcomes):
        penalty = transfer_penalty(live, 2.0, index, chunks)
        assert penalty == expected
        if ops:
            hit = True
            _apply_stall_ops(shadow, index, 2.0, ops)
            # The engine folds the retry delays with the round's other
            # backoff addends, in op order.
            for op in ops:
                if op[0] == "retry":
                    shadow.stats.backoff_seconds += op[4]
    assert hit  # p=0.3 over ~190 chunk draws: stalls certainly occurred
    assert shadow.stats.as_dict() == live.stats.as_dict()


def test_stall_outcome_trivial_cases():
    scenario = FaultScenario(name="s", seed=0)
    assert _stall_outcomes(scenario, 0.0, [5], [8]) == [(0.0, ())]
    assert _stall_outcomes(scenario, 0.5, [5], [0]) == [(0.0, ())]


# ----------------------------------------------------------------------
# Satellite 1: admission-probe regression pins
# ----------------------------------------------------------------------
def _admission_controller(simulator, max_queue_depth,
                          max_deferrals=3):
    scenario = FaultScenario(
        name="adm", seed=5,
        admission=AdmissionPolicy(max_queue_depth=max_queue_depth,
                                  max_deferrals=max_deferrals))
    return DegradationController(PlanTable(simulator.estimator), scenario)


def test_admission_depth_ignores_finished_requests(simulator):
    controller = _admission_controller(simulator, max_queue_depth=1)
    # Three admitted requests, all finished before this arrival:
    # depth 0, admitted immediately, no deferral.
    assert admit(controller, 5.0, 0, [1.0, 2.0, 3.0]) == 5.0
    assert controller.stats.deferred == 0
    assert controller.stats.backoff_seconds == 0.0


def test_admission_finish_exactly_at_probe_counts_as_done(simulator):
    # The probe counts strictly-later finishes (f > effective); a
    # request finishing exactly at the arrival has left the queue.
    controller = _admission_controller(simulator, max_queue_depth=1)
    assert admit(controller, 5.0, 0, [5.0]) == 5.0
    assert controller.stats.deferred == 0


def test_admission_deferral_admits_when_queue_drains(simulator):
    # Depth 1 at arrival, but the pending request finishes during the
    # first backoff: exactly one deferral, then admitted.
    controller = _admission_controller(simulator, max_queue_depth=1)
    effective = admit(controller, 5.0, 0, [5.005])
    assert effective == 5.0 + 0.01
    assert controller.stats.deferred == 1
    assert controller.stats.dropped == 0
    assert controller.stats.backoff_seconds == 0.01


def test_admission_shed_charges_exactly_max_deferrals_backoffs(simulator):
    """The final probe that ends in a shed adds no extra backoff:
    ``backoff_seconds`` counts exactly ``max_deferrals`` delays."""
    controller = _admission_controller(simulator, max_queue_depth=1)
    assert admit(controller, 5.0, 0, [100.0]) is None
    assert controller.stats.deferred == 3
    assert controller.stats.dropped == 1
    # The exact left-to-right fold of the three backoff delays.
    expected = 0.0
    for attempt in range(3):
        expected += 0.01 * 2.0 ** attempt
    assert controller.stats.backoff_seconds == expected


def test_shed_requests_never_inflate_later_probes(simulator):
    """Shed requests never enter the finish list, so queue depth
    counts only admitted-unfinished work: with depth bound 1 and a
    server busy far beyond every backoff horizon, exactly one request
    is served and each of the others sheds after 3 deferrals."""
    n = 12
    requests = [InferenceRequest(8, 512, 64)] * n
    arrivals = [0.0] * n
    scenario = FaultScenario(
        name="front-door", seed=9,
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=3))
    loop = run_degraded(_fresh(simulator), requests, arrivals, scenario)
    assert len(loop.served) == 1
    assert len(loop.dropped) == n - 1
    assert loop.stats.deferred == 3 * (n - 1)
    expected = 0.0
    for __ in range(n - 1):
        for attempt in range(3):
            expected += 0.01 * 2.0 ** attempt
    assert loop.stats.backoff_seconds == expected
    # And the admission-bounded engine reproduces it bit for bit.
    vec = run_fifo(simulator.estimator,
                   WorkloadVector.from_requests(requests), arrivals,
                   scenario)
    assert_parity(loop, vec)


@pytest.mark.parametrize("seed", range(5))
def test_depth_probe_bisect_matches_linear_scan(seed):
    """The binary-search depth count equals the loop's original
    linear scan for any nondecreasing finish list."""
    rng = random.Random(seed)
    finishes = sorted(round(rng.uniform(0.0, 10.0), 3)
                      for __ in range(60))
    for __ in range(200):
        effective = round(rng.uniform(-1.0, 11.0), 3)
        fast = len(finishes) - bisect_right(finishes, effective)
        slow = sum(1 for f in finishes if f > effective)
        assert fast == slow


# ----------------------------------------------------------------------
# Satellite: batched admission probes vs the sequential reference
# ----------------------------------------------------------------------
def _run_admission_kernel(simulator, kernel, workload, arrivals,
                          scenario, idx=None, telemetry=None):
    from repro.serving.simulator import validate_arrivals

    controller = DegradationController(PlanTable(simulator.estimator),
                                       scenario, telemetry)
    trace = validate_arrivals(arrivals)
    out = list(kernel(controller, workload, trace,
                      None if idx is None
                      else np.asarray(idx, dtype=np.int64)))
    if out[0] is None:  # the engine's "every request served"
        out[0] = np.arange(trace.size)
    return out, controller.stats.as_dict()


def _assert_kernels_identical(simulator, workload, arrivals, scenario,
                              idx=None, with_telemetry=False):
    from repro.serving.piecewise import _serve

    outputs = []
    for kernel in (run_admission_sequential, _serve):
        telemetry = Telemetry() if with_telemetry else None
        out, stats = _run_admission_kernel(simulator, kernel, workload,
                                           arrivals, scenario,
                                           idx=idx,
                                           telemetry=telemetry)
        outputs.append((out, stats, telemetry))
    (a, stats_a, tel_a), (b, stats_b, tel_b) = outputs
    assert np.array_equal(a[0], b[0])          # served positions
    assert a[1].tolist() == b[1].tolist()      # starts, bit for bit
    assert a[2].tolist() == b[2].tolist()      # finishes, bit for bit
    assert np.array_equal(a[3], b[3])          # dropped positions
    assert a[4] == b[4]                        # drop reasons
    assert stats_a == stats_b
    if with_telemetry:
        assert _telemetry_rows(tel_a) == _telemetry_rows(tel_b)
        assert _span_set(tel_a) == _span_set(tel_b)
    return stats_a


def test_admission_piecewise_matches_sequential_open_queue(simulator):
    """An under-capacity trace against a deep bound stays on the
    batched attempt-zero path almost everywhere; every surface
    matches the sequential reference."""
    scenario = FaultScenario(
        name="adm-open", seed=4,
        admission=AdmissionPolicy(max_queue_depth=64, max_deferrals=3))
    light = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32)]
    workload = WorkloadVector.sample_mix(light, 400, seed=7)
    arrivals = arrivals_poisson(400, 0.2, seed=7)
    stats = _assert_kernels_identical(simulator, workload, arrivals,
                                      scenario)
    assert stats["dropped"] == 0  # the bound never bites


def test_admission_piecewise_matches_sequential_saturated(simulator):
    """A saturated queue serves in admission rounds (dense deferrals
    and sheds); stats, backoff float folds, and drop order still
    match bit for bit."""
    scenario = FaultScenario(
        name="adm-sat", seed=4,
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=2),
        retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                          backoff_base_s=0.02, backoff_factor=2.0))
    workload = _workload(400, seed=8)
    arrivals = arrivals_poisson(400, 4.0, seed=8)
    stats = _assert_kernels_identical(simulator, workload, arrivals,
                                      scenario)
    assert stats["dropped"] > 100  # genuinely saturated
    assert stats["deferred"] > 100


def test_admission_piecewise_matches_sequential_with_faults(simulator):
    """Admission + segment boundaries + stall draws together: the
    probe batching composes with the Mode A segment machinery,
    telemetry rows and spans included."""
    scenario = FaultScenario(
        name="adm-mixed", seed=6,
        events=(
            FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.05),
            FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE, start=20.0,
                       duration=120.0, magnitude=0.35),
        ),
        retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                          backoff_base_s=0.02, backoff_factor=2.0),
        admission=AdmissionPolicy(max_queue_depth=8, max_deferrals=3))
    workload = _workload(300, seed=9)
    arrivals = arrivals_poisson(300, 2.5, seed=9)
    _assert_kernels_identical(simulator, workload, arrivals, scenario,
                              with_telemetry=True)


def test_admission_piecewise_honors_global_indices(simulator):
    """Replica-sharded calls pass global request indices; RNG draws
    and span names must key on them identically in both kernels."""
    scenario = FaultScenario(
        name="adm-idx", seed=5,
        events=(FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.05),),
        retry=RetryPolicy(max_retries=2, timeout_s=0.05,
                          backoff_base_s=0.01, backoff_factor=2.0),
        admission=AdmissionPolicy(max_queue_depth=4, max_deferrals=2))
    workload = _workload(200, seed=10)
    arrivals = arrivals_poisson(200, 2.0, seed=10)
    idx = list(range(100, 500, 2))  # as a replica shard would pass
    _assert_kernels_identical(simulator, workload, arrivals, scenario,
                              idx=idx, with_telemetry=True)


# ----------------------------------------------------------------------
# Admission rounds vs the sequential reference, drawn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_depth_bound_is_a_threshold_on_the_finish_list(seed):
    """``depth < D`` with ``depth = m - bisect_right(F[:m], e)`` is the
    same test as ``m < D or F[m - D] <= e`` — the identity that fixes
    the next ``D`` admission thresholds before any of them is
    served."""
    rng = random.Random(seed)
    finishes = sorted(rng.choice([1.0, 2.5, 2.5, 4.0])
                      + round(rng.uniform(0.0, 6.0), 1)
                      for __ in range(40))
    probes = finishes + [-1.0, 0.0, 11.0] + [
        round(rng.uniform(0.0, 11.0), 1) for __ in range(40)]
    for m in range(len(finishes) + 1):
        for bound in range(1, m + 3):
            for e in probes:
                bisect_test = m - bisect_right(finishes[:m], e) < bound
                assert bisect_test == (m < bound
                                       or finishes[m - bound] <= e)


#: Shapes for the drawn admission runs: under HBM pressure of
#: magnitude 0.94 the third halves its batch once and the fourth does
#: not fit at B=1, so the unservable cut runs inside rounds.
ROUND_SHAPES = (InferenceRequest(1, 128, 16), InferenceRequest(4, 256, 32),
                InferenceRequest(8, 512, 64), InferenceRequest(1, 2048, 64))
ROUND_ESTIMATOR = LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                               LiaConfig(enforce_host_capacity=False))


@st.composite
def admission_cases(draw):
    n = draw(st.integers(1, 400))
    codes = draw(st.lists(st.integers(0, len(ROUND_SHAPES) - 1),
                          min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.0, 0.01, 0.3, 3.0]))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 4.0]),
                         min_size=n, max_size=n))
    arrivals = (np.cumsum(gaps) * scale).tolist()
    horizon = arrivals[-1] + 60.0
    events = []
    for kind, magnitudes in ((FaultKind.PCIE_STALL, [0.05, 0.3]),
                             (FaultKind.GPU_HBM_PRESSURE, [0.35, 0.94])):
        if draw(st.booleans()):
            start = draw(st.floats(0.0, 1.0)) * horizon
            events.append(FaultEvent(
                kind, start=start,
                duration=draw(st.floats(0.01, 1.0)) * horizon,
                magnitude=draw(st.sampled_from(magnitudes))))
    scenario = FaultScenario(
        name="rounds", seed=draw(st.integers(0, 50)),
        events=tuple(events),
        chunks_per_request=draw(st.sampled_from([0, 3])),
        retry=RetryPolicy(
            max_retries=draw(st.integers(0, 3)),
            timeout_s=draw(st.sampled_from([0.05, 2.0])),
            backoff_base_s=draw(st.sampled_from([0.0, 0.02, 200.0])),
            backoff_factor=draw(st.sampled_from([1.0, 2.0]))),
        admission=AdmissionPolicy(
            max_queue_depth=draw(st.one_of(
                st.sampled_from([1, 2, 3, 8, 16, 64]),
                st.integers(1, 200))),
            max_deferrals=draw(st.integers(0, 4))))
    idx = (None if draw(st.booleans())
           else (np.arange(n, dtype=np.int64) * 3 + 11).tolist())
    return (WorkloadVector(ROUND_SHAPES, np.array(codes, dtype=np.int64)),
            arrivals, scenario, idx, draw(st.booleans()))


def _assert_rounds_match_sequential(workload, arrivals, scenario, idx,
                                    with_telemetry):
    from repro.serving.piecewise import _serve

    outputs = []
    for kernel in (run_admission_sequential, _serve):
        telemetry = Telemetry() if with_telemetry else None
        controller = DegradationController(PlanTable(ROUND_ESTIMATOR),
                                           scenario, telemetry)
        out = list(kernel(controller, workload,
                          np.asarray(arrivals, dtype=np.float64),
                          None if idx is None
                          else np.asarray(idx, dtype=np.int64)))
        if out[0] is None:  # the engine's "every request served"
            out[0] = np.arange(workload.n_requests)
        rows = spans = None
        if telemetry is not None:
            rows = _telemetry_rows(telemetry)
            spans = [(s.name, s.track, s.start, s.finish, s.args)
                     for s in telemetry.tracer.spans]
        outputs.append(([o.tolist() if isinstance(o, np.ndarray) else o
                         for o in out],
                        controller.stats.as_dict(), rows, spans))
    oracle, engine = outputs
    assert engine[0] == oracle[0]  # positions, timelines, drops, reasons
    assert engine[1] == oracle[1]  # FaultStats, float folds included
    assert engine[2] == oracle[2]  # serving.*/faults.* rows
    assert engine[3] == oracle[3]  # spans, in event order
    return oracle[1]


def test_rounds_cut_on_an_unservable_admission():
    """A saturated queue across an HBM-pressure window where one shape
    cannot be served: rounds shed, defer, and drop the unservable
    admission without giving it a slot."""
    n = 300
    workload = WorkloadVector(ROUND_SHAPES,
                              np.arange(n, dtype=np.int64) % 4)
    arrivals = (np.arange(n) * 2.0).tolist()
    scenario = FaultScenario(
        name="rounds-unservable", seed=3,
        events=(FaultEvent(FaultKind.GPU_HBM_PRESSURE, start=20.0,
                           duration=600.0, magnitude=0.94),
                FaultEvent(FaultKind.PCIE_STALL, start=0.0,
                           duration=300.0, magnitude=0.3)),
        chunks_per_request=3,
        retry=RetryPolicy(max_retries=2, timeout_s=0.05,
                          backoff_base_s=0.5, backoff_factor=2.0),
        admission=AdmissionPolicy(max_queue_depth=6, max_deferrals=2))
    stats = _assert_rounds_match_sequential(workload, arrivals, scenario,
                                            None, True)
    assert stats["unservable"] > 0
    assert stats["dropped"] > 0 and stats["deferred"] > 0
    assert stats["transfer_retries"] > 0


def test_rounds_cut_at_a_segment_boundary():
    """Saturated rounds running into stall-window and HBM-pressure
    edges: long stall timeouts push starts past a boundary that the
    latency-only capacity bound lets through, so the round is cut at
    the first start past it and the rest re-enter under the next
    segment's plans and stall probability."""
    n = 400
    workload = WorkloadVector.sample_mix(ROUND_SHAPES[:3], n, seed=4)
    arrivals = arrivals_poisson(n, 0.5, seed=4)
    horizon = arrivals[-1]
    scenario = FaultScenario(
        name="rounds-boundary", seed=2,
        events=(FaultEvent(FaultKind.PCIE_STALL, start=0.1 * horizon,
                           duration=0.4 * horizon, magnitude=0.3),
                FaultEvent(FaultKind.GPU_HBM_PRESSURE,
                           start=0.3 * horizon, duration=0.4 * horizon,
                           magnitude=0.35)),
        chunks_per_request=3,
        retry=RetryPolicy(max_retries=2, timeout_s=2.0,
                          backoff_base_s=0.02, backoff_factor=2.0),
        admission=AdmissionPolicy(max_queue_depth=16, max_deferrals=2))
    stats = _assert_rounds_match_sequential(workload, arrivals, scenario,
                                            None, True)
    assert stats["dropped"] > 0 and stats["transfer_stalls"] > 0


def test_round_probe_exactly_at_a_finish_is_admitted():
    """A burst of one shape with the backoff step equal to its
    service time: every deferred probe lands exactly on a finish
    (both are the same float chain), where the depth test admits."""
    shape = ROUND_SHAPES[0]
    latency = PlanTable(ROUND_ESTIMATOR).estimate((), shape).latency
    n = 60
    workload = WorkloadVector((shape,), np.zeros(n, dtype=np.int64))
    scenario = FaultScenario(
        name="rounds-ties", seed=1,
        retry=RetryPolicy(backoff_base_s=latency, backoff_factor=1.0),
        admission=AdmissionPolicy(max_queue_depth=3, max_deferrals=4))
    stats = _assert_rounds_match_sequential(workload, [0.0] * n,
                                            scenario, None, True)
    # Three admitted at 0 (finishing at s, 2s, 3s), then one each
    # exactly at the probes s, 2s, 3s and 4s; the rest shed.
    assert stats["dropped"] == n - 7
    assert stats["deferred"] == (1 + 2 + 3 + 4) + 4 * (n - 7)


@settings(max_examples=200, deadline=None)
@given(case=admission_cases())
def test_admission_rounds_match_sequential_reference(case):
    _assert_rounds_match_sequential(*case)


# ----------------------------------------------------------------------
# run() dispatch: every FIFO run takes the one engine
# ----------------------------------------------------------------------
def test_run_vectorized_true_is_honored_under_scenario(simulator):
    # The public ``run()`` under a scenario is the engine, and it
    # matches the loop oracle bit for bit on request-list input.
    scenario = get_scenario("gpu-pressure")
    workload = _workload(50, seed=1)
    arrivals = arrivals_poisson(50, 2.0, seed=1)
    vec = _fresh(simulator).run(workload.to_requests(), arrivals,
                                scenario=scenario)
    loop = run_degraded(_fresh(simulator), workload.to_requests(),
                        arrivals, scenario)
    assert_parity(loop, vec)


def test_run_columnar_workload_takes_piecewise_engine(simulator):
    scenario = get_scenario("cxl-contention")
    workload = _workload(50, seed=2)
    arrivals = arrivals_poisson(50, 2.0, seed=2)
    report = _fresh(simulator).run(workload, arrivals,
                                   scenario=scenario)
    assert isinstance(report, ServingReport)
    assert report.stats is not None
    assert report.scenario_name == "cxl-contention"
    listed = _fresh(simulator).run(workload.to_requests(), arrivals,
                                   scenario=scenario)
    assert listed.finishes.tolist() == report.finishes.tolist()


def test_run_auto_vectorize_threshold_applies_to_degraded(simulator):
    # Runs of every size, with or without a scenario, take the same
    # engine.
    scenario = get_scenario("pcie-downshift")
    workload = _workload(10, seed=3)
    arrivals = arrivals_poisson(10, 2.0, seed=3)
    for n in (1, 4, 10):
        requests = workload.to_requests()[:n]
        loop = run_degraded(_fresh(simulator), requests, arrivals[:n],
                            scenario)
        assert_parity(loop, _fresh(simulator).run(
            requests, arrivals[:n], scenario=scenario))
        healthy = _fresh(simulator).run(requests, arrivals[:n])
        assert healthy.stats is None and healthy.dropped_index is None


# ----------------------------------------------------------------------
# Multi-replica degraded dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["gpu-pressure", "pcie-flaky",
                                  "noisy-neighbor"])
def test_fleet_degraded_engines_bit_identical(simulator, name):
    check_preset_parity(simulator.estimator, name, 200, 3.0, 6, 4)


def test_fleet_single_replica_matches_single_server(simulator):
    """k=1 under a scenario is the single-server degraded run, bit
    for bit — the merge is the identity."""
    scenario = get_scenario("gpu-pressure")
    workload = _workload(120, seed=8)
    arrivals = arrivals_poisson(120, 2.0, seed=8)
    fleet = MultiReplicaSimulator(simulator.estimator, 1)
    fleet_report = fleet.run(workload, arrivals, scenario=scenario)
    single = run_fifo(simulator.estimator, workload, arrivals, scenario)
    assert np.array_equal(fleet_report.starts, single.starts)
    assert np.array_equal(fleet_report.finishes, single.finishes)
    assert fleet_report.stats.as_dict() == single.stats.as_dict()


def test_fleet_degraded_error_paths(simulator):
    scenario = get_scenario("gpu-pressure")
    workload = _workload(20, seed=9)
    arrivals = arrivals_poisson(20, 2.0, seed=9)
    least = MultiReplicaSimulator(simulator.estimator, 2,
                                  dispatch="least-loaded")
    with pytest.raises(ConfigurationError, match="round-robin"):
        least.run(workload, arrivals, scenario=scenario)
    # An idle scenario cannot perturb anything, so least-loaded
    # dispatch serves it like a healthy run.
    idle = least.run(workload, arrivals,
                     scenario=FaultScenario(name="idle", seed=1))
    assert idle.stats is None


def test_unfit_shape_raises_before_admission_sheds_it():
    """A shape too large for the healthy platform fails the stream
    with one error at the API boundary, in every engine and the loop
    oracle alike, even when admission would shed its request."""
    check_unfit_shape(2)


# ----------------------------------------------------------------------
# Satellite 2: fleet percentiles pool, never average
# ----------------------------------------------------------------------
def test_scaleout_percentiles_pool_over_all_replicas(simulator):
    workload = _workload(150, seed=10)
    arrivals = arrivals_poisson(150, 1.5, seed=10)
    report = MultiReplicaSimulator(simulator.estimator, 3).run(
        workload, arrivals)
    pooled = np.sort(np.concatenate(
        [sub.latencies for sub in report.per_replica]))
    assert pooled.size == report.n_served
    for fraction in (0.5, 0.9, 0.95, 0.99, 1.0):
        rank = min(pooled.size, max(1, math.ceil(fraction * pooled.size)))
        assert report.latency_percentile(fraction) == \
            float(pooled[rank - 1])
    delays = report.starts - report.arrivals
    assert report.mean_queue_delay == pytest.approx(float(delays.mean()))


def test_degraded_scaleout_percentiles_pool(simulator):
    scenario = get_scenario("noisy-neighbor")
    workload = _workload(200, seed=12)
    arrivals = arrivals_poisson(200, 3.0, seed=12)
    report = MultiReplicaSimulator(simulator.estimator, 3).run(
        workload, arrivals, scenario=scenario)
    assert report.n_dropped > 0  # the preset sheds under this load
    pooled = np.sort(report.latencies)
    rank = min(pooled.size, max(1, math.ceil(0.95 * pooled.size)))
    assert report.latency_percentile(0.95) == float(pooled[rank - 1])
    assert report.n_offered == workload.n_requests
    assert report.drop_rate == report.n_dropped / report.n_offered


# ----------------------------------------------------------------------
# Windowed time-series stay engine-invariant (dropped channel too)
# ----------------------------------------------------------------------
def test_timeseries_engine_invariant_with_drops(simulator):
    scenario = get_scenario("noisy-neighbor")
    workload = _workload(200, seed=14)
    arrivals = arrivals_poisson(200, 3.0, seed=14)
    loop, vec = _run_both(simulator, workload, arrivals, scenario)
    assert_parity(loop, vec)
    series_loop = loop_timeseries(loop, n_windows=24)
    series_vec = timeseries_from_report(vec, n_windows=24)
    for channel in ("arrived", "started", "finished", "queue_depth",
                    "busy_s"):
        assert np.array_equal(getattr(series_loop, channel),
                              getattr(series_vec, channel))
    assert series_loop.dropped is not None
    assert series_vec.dropped is not None
    assert np.array_equal(series_loop.dropped, series_vec.dropped)
    assert int(series_vec.dropped.sum()) == len(loop.dropped)


def test_fleet_timeseries_counts_shed_requests(simulator):
    scenario = get_scenario("noisy-neighbor")
    workload = _workload(200, seed=15)
    arrivals = arrivals_poisson(200, 3.0, seed=15)
    report = MultiReplicaSimulator(simulator.estimator, 3).run(
        workload, arrivals, scenario=scenario)
    series = fleet_timeseries(report, n_windows=16)
    assert series.dropped is not None
    assert int(series.dropped.sum()) == report.n_dropped
