"""The event-to-event scheduler against its per-iteration oracle.

:meth:`ContinuousBatchScheduler.run` folds whole runs of decode steps
between membership events and only counts the Eq. (1) re-solves no
step reads; ``tests/oracles/scheduler_loop.run_loop`` takes one decode
iteration per turn and solves every re-solve on the spot.  Every
report field, the timeline fingerprint, every span and every metric —
``policy.searches{stage=decode}`` included — must agree exactly, over
drawn shapes, arrival traces, batch caps, join modes, span caps and
tight HBM/DDR/CXL budgets that push KV into CXL.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.cxl.residency import KvTierCapacities
from repro.errors import CapacityError
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import scheduler as scheduler_module
from repro.serving.scheduler import (ContinuousBatchScheduler,
                                     SchedulerConfig, StepProfile)
from repro.telemetry import Telemetry
from repro.telemetry.runtime import activate
from tests.oracles.scheduler_loop import LoopProfile, run_loop

SPEC = get_model("opt-30b")
ESTIMATOR = LiaEstimator(SPEC, get_system("spr-a100").with_cxl(2),
                         LiaConfig(enforce_host_capacity=False))

REPORT_FIELDS = ("iterations", "admissions", "occupancy_mean",
                 "occupancy_peak", "policy_resolves", "kv_peak_bytes",
                 "kv_demotions", "kv_demoted_bytes", "server_busy_s",
                 "decode_busy_s")


def _kv_bytes(shape):
    batch, input_len, output_len = shape
    return float(SPEC.kv_cache_bytes(batch, input_len + output_len))


def _serve(run, scheduler, requests, arrivals):
    """Everything one run shows the outside world."""
    telemetry = Telemetry()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # span-cap note
        with activate(telemetry):
            try:
                report = run(scheduler, requests, arrivals)
            except CapacityError as error:
                outcome = ("capacity-error", str(error))
            else:
                outcome = (tuple(getattr(report, name)
                                 for name in REPORT_FIELDS),
                           report.fingerprint())
    searches = telemetry.metrics.counter_value("policy.searches",
                                               stage="decode")
    return (outcome, searches, telemetry.tracer.spans,
            telemetry.metrics.snapshot())


def _engine(scheduler, requests, arrivals):
    return scheduler.run(requests, arrivals)


def assert_matches_oracle(requests, arrivals, config):
    scheduler = ContinuousBatchScheduler(ESTIMATOR, config)
    engine = _serve(_engine, scheduler, requests, arrivals)
    oracle = _serve(run_loop, scheduler, requests, arrivals)
    assert engine[0] == oracle[0]  # report fields + fingerprint
    assert engine[1] == oracle[1]  # policy.searches{stage=decode}
    assert engine[2] == oracle[2]  # spans, drop note included
    assert engine[3] == oracle[3]  # every metric
    return engine


SHAPES = st.tuples(st.sampled_from([1, 2, 8]), st.integers(16, 600),
                   st.integers(1, 24))
GAPS = st.sampled_from([0.0, 0.02, 0.3, 1.0, 4.0, 30.0])
#: HBM/DDR and CXL budgets in units of the largest request's KV
#: bytes: small fast tiers push KV down to CXL.
FAST_TIER_UNITS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
CXL_UNITS = st.sampled_from([0.0, 1.0, 2.5, 6.0])


@st.composite
def cases(draw):
    shapes = draw(st.lists(SHAPES, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1,
                          max_size=30))
    requests = [InferenceRequest(*shapes[i]) for i in picks]
    arrivals = np.cumsum(draw(st.lists(GAPS, min_size=len(picks),
                                       max_size=len(picks)))).tolist()
    capacities = None  # the system's own budgets, one case in four
    if draw(st.integers(0, 3)):
        unit = max(_kv_bytes(shape) for shape in shapes)
        capacities = KvTierCapacities(draw(FAST_TIER_UNITS) * unit,
                                      draw(FAST_TIER_UNITS) * unit,
                                      draw(CXL_UNITS) * unit)
    config = SchedulerConfig(
        max_batch_requests=draw(st.integers(1, 6)),
        join=draw(st.sampled_from(["step", "drain"])),
        kv_capacities=capacities,
        cxl_step_penalty=draw(st.sampled_from([0.0, 0.15, 2.0])),
        context_grid_points=draw(st.sampled_from([2, 3, 8])),
        span_cap=draw(st.sampled_from([0, 1, 5, 1024])))
    return requests, arrivals, config


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_scheduler_matches_per_iteration_oracle(case):
    assert_matches_oracle(*case)


def _spilling_case(join="step", penalty=0.15):
    """Two big prompts that cannot share the tiers, with a small one
    queued behind: the second big head is refused while the first
    runs, and the budgets push part of every big KV into CXL."""
    big, small = (8, 512, 20), (1, 64, 4)
    unit = _kv_bytes(big)
    requests = [InferenceRequest(*shape)
                for shape in (small, big, big, small, small)]
    arrivals = [0.0, 0.01, 0.02, 0.03, 0.5]
    config = SchedulerConfig(
        max_batch_requests=4, join=join, cxl_step_penalty=penalty,
        kv_capacities=KvTierCapacities(0.25 * unit, 0.25 * unit,
                                       unit),
        span_cap=5)
    return requests, arrivals, config


@pytest.mark.parametrize("join", ["step", "drain"])
def test_refused_head_waits_for_a_release(join):
    requests, arrivals, config = _spilling_case(join)
    assert_matches_oracle(requests, arrivals, config)
    report = ContinuousBatchScheduler(ESTIMATOR, config).run(requests,
                                                             arrivals)
    # KV refuses the second big request until the first releases, and
    # the small ones behind it wait their turn (FIFO admission).
    assert report.starts[2] >= report.finishes[1]
    assert report.starts[3] >= report.starts[2]
    assert report.kv_peak_bytes["cxl"] > 0.0


def test_both_resolve_branches_run_and_count(monkeypatch):
    """Spilled KV makes steps read Eq. (1) (solved on the spot); an
    all-HBM batch does not (counted once at the end, never solved).
    Both kinds count as searches and resolves, as in the oracle."""
    on_spot, unread = [], []
    optimal_policy = scheduler_module.optimal_policy
    count_searches = scheduler_module.count_searches

    def spot(*args, **kwargs):
        on_spot.append(args[2:4])
        return optimal_policy(*args, **kwargs)

    def count(stage, config, points):
        unread.append(points)
        return count_searches(stage, config, points)

    monkeypatch.setattr(scheduler_module, "optimal_policy", spot)
    monkeypatch.setattr(scheduler_module, "count_searches", count)
    requests, arrivals, config = _spilling_case()
    (fields, __), searches, *__ = assert_matches_oracle(
        requests, arrivals, config)
    resolves = fields[REPORT_FIELDS.index("policy_resolves")]
    assert on_spot and len(unread) == 1 and unread[0] > 0
    assert len(on_spot) + unread[0] == resolves == searches


@given(batch=st.one_of(st.integers(-2, 80),
                       st.floats(0.5, 70.0, allow_nan=False)),
       contexts=st.lists(st.integers(0, 1300), min_size=1,
                         max_size=20))
@example(batch=8, contexts=[64, 128, 256, 1100, 1200])  # on the axes
@settings(max_examples=60, deadline=None)
def test_decode_step_times_match_the_scalar_scan(batch, contexts):
    profile = StepProfile(ESTIMATOR, [1, 2, 8, 32, 64],
                          [64, 128, 256, 700, 1100])
    oracle = LoopProfile(profile)
    times = profile.decode_step_times(batch, contexts)
    assert times.tolist() == [oracle.decode_step_time(batch, context)
                              for context in contexts]
    assert [profile.decode_step_time(batch, context)
            for context in contexts] == times.tolist()


def test_every_integer_batch_matches_the_scalar_scan():
    """The scheduler's aggregate batch is an int: every one up to past
    the axis end agrees with the oracle's scan bit for bit."""
    profile = StepProfile(ESTIMATOR, [1, 2, 8, 32, 64],
                          [64, 128, 256, 700, 1100])
    oracle = LoopProfile(profile)
    contexts = np.array([1, 64, 100, 700, 900, 1300])
    for batch in range(0, 70):
        times = profile.decode_step_times(batch, contexts).tolist()
        assert times == [oracle.decode_step_time(batch, context)
                         for context in contexts.tolist()], batch


def test_single_point_axes_clamp_everywhere():
    profile = StepProfile(ESTIMATOR, [4], [300])
    oracle = LoopProfile(profile)
    contexts = [1, 300, 5000]
    assert profile.decode_step_times(1, contexts).tolist() == [
        oracle.decode_step_time(1, context) for context in contexts]


def test_prefill_times_come_from_one_batched_call(monkeypatch):
    calls = []
    prefill_times = LiaEstimator.prefill_times

    def counting(self, batch_sizes, input_lens):
        calls.append(len(batch_sizes))
        return prefill_times(self, batch_sizes, input_lens)

    monkeypatch.setattr(LiaEstimator, "prefill_times", counting)
    requests = [InferenceRequest(*shape) for shape in
                ((1, 128, 4), (8, 256, 2), (1, 128, 9), (2, 64, 3))]
    profile = StepProfile.for_workload(ESTIMATOR, requests,
                                       SchedulerConfig())
    assert calls == [3]  # three distinct (B, L_in) prompts
    oracle = LoopProfile(profile)
    for request in requests:
        assert (profile.prefill_time(request)
                == oracle.prefill_time(request))
    assert calls == [3]  # the oracle estimates each shape itself


def test_prefill_capacity_error_is_stored_and_raised_on_use():
    """A prompt shape whose estimate does not fit is stored as its
    error and raised when that prompt's prefill is read."""
    estimator = LiaEstimator(get_model("opt-175b"),
                             get_system("spr-a100").with_cxl(2),
                             LiaConfig())
    huge = InferenceRequest(2048, 2048, 4)
    profile = StepProfile(estimator, [1], [64],
                          prompts=[(1, 64), (2048, 2048)])
    assert profile.prefill_time(InferenceRequest(1, 64, 4)) == (
        estimator.estimate(InferenceRequest(1, 64, 1)).prefill.time)
    with pytest.raises(CapacityError, match="DDR needs") as stored:
        profile.prefill_time(huge)
    with pytest.raises(CapacityError) as direct:
        estimator.estimate(InferenceRequest(2048, 2048, 1))
    assert str(stored.value) == str(direct.value)
