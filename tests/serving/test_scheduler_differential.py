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

import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import terms
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
from tests.oracles.scheduler_cases import (REPORT_FIELDS,
                                           continuous_kv_case, flip_case)
from tests.oracles.scheduler_loop import LoopProfile, run_loop

SPEC = get_model("opt-30b")
ESTIMATOR = LiaEstimator(SPEC, get_system("spr-a100").with_cxl(2),
                         LiaConfig(enforce_host_capacity=False))


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


def assert_matches_oracle(requests, arrivals, config, estimator=ESTIMATOR):
    scheduler = ContinuousBatchScheduler(estimator, config)
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
        kv_capacities=capacities)
    #: The engine's constants, patched in both engine and oracle.
    constants = dict(
        CXL_STEP_PENALTY=draw(st.sampled_from([0.0, 0.15, 2.0])),
        CONTEXT_GRID_POINTS=draw(st.sampled_from([2, 3, 8])),
        DEFAULT_SPAN_CAP=draw(st.sampled_from([0, 1, 5, 1024])))
    return requests, arrivals, config, constants


@settings(max_examples=100, deadline=None)
@given(case=cases())
def test_scheduler_matches_per_iteration_oracle(case):
    requests, arrivals, config, constants = case
    with mock.patch.multiple(scheduler_module, **constants):
        assert_matches_oracle(requests, arrivals, config)


@pytest.mark.parametrize("seed", range(4))
def test_continuous_kv_streams_match_the_oracle(seed):
    """The continuous-kv shapes at 100 requests: opt-30b on spr-a100
    with two CXL expanders, max batch 32, an equal share of each shape
    in seeded order, Poisson arrivals at 0.1/s.  Seeds 0 and 3 spill
    KV to CXL, so steps read Eq. (1) there."""
    scheduler, requests, arrivals = continuous_kv_case(100, seed)
    (fields, __), *__ = assert_matches_oracle(
        requests, arrivals, scheduler.config, scheduler.estimator)
    spilled = fields[REPORT_FIELDS.index("kv_peak_bytes")]["cxl"] > 0.0
    assert spilled == (seed in (0, 3))


def _spilling_case(monkeypatch, join="step"):
    """Two big prompts that cannot share the tiers, with a small one
    queued behind: the second big head is refused while the first
    runs, and the budgets push part of every big KV into CXL.  Five
    step spans are kept, so the drop note fires."""
    monkeypatch.setattr(scheduler_module, "DEFAULT_SPAN_CAP", 5)
    big, small = (8, 512, 20), (1, 64, 4)
    unit = _kv_bytes(big)
    requests = [InferenceRequest(*shape)
                for shape in (small, big, big, small, small)]
    arrivals = [0.0, 0.01, 0.02, 0.03, 0.5]
    config = SchedulerConfig(
        max_batch_requests=4, join=join,
        kv_capacities=KvTierCapacities(0.25 * unit, 0.25 * unit,
                                       unit))
    return requests, arrivals, config


@pytest.mark.parametrize("join", ["step", "drain"])
def test_refused_head_waits_for_a_release(monkeypatch, join):
    requests, arrivals, config = _spilling_case(monkeypatch, join)
    assert_matches_oracle(requests, arrivals, config)
    report = ContinuousBatchScheduler(ESTIMATOR, config).run(requests,
                                                             arrivals)
    # KV refuses the second big request until the first releases, and
    # the small ones behind it wait their turn (FIFO admission).
    assert report.starts[2] >= report.finishes[1]
    assert report.starts[3] >= report.starts[2]
    assert report.kv_peak_bytes["cxl"] > 0.0


def _spy_resolves(monkeypatch):
    """Record the points of every Eq. (1) answer the engine computes
    (a scalar on-spot solve or one checking table), every
    ``count_searches`` call, and every guess check's outcome."""
    solved, counted, checks = [], [], []
    attention_on_cpu = scheduler_module._attention_on_cpu
    count_searches = scheduler_module.count_searches
    verified = scheduler_module._ReadResolves.verified

    def solve(estimator, aggregate, context):
        solved.append(np.size(aggregate) if np.ndim(aggregate) else None)
        return attention_on_cpu(estimator, aggregate, context)

    def count(stage, config, points):
        counted.append(points)
        return count_searches(stage, config, points)

    def check(reads):
        checks.append(verified(reads))
        return checks[-1]

    monkeypatch.setattr(scheduler_module, "_attention_on_cpu", solve)
    monkeypatch.setattr(scheduler_module, "count_searches", count)
    monkeypatch.setattr(scheduler_module._ReadResolves, "verified", check)
    return solved, counted, checks


def test_arrival_at_a_step_end_joins_after_that_step():
    """A head arriving exactly when a decode step ends joins right
    after that step: the oracle admits every arrival at or before the
    clock, so the turn must end on reaching the arrival, not passing
    it."""
    shape = InferenceRequest(1, 64, 8)
    config = SchedulerConfig(max_batch_requests=2,
                             kv_capacities=KvTierCapacities.unbounded())
    telemetry = Telemetry()
    with activate(telemetry):
        ContinuousBatchScheduler(ESTIMATOR, config).run([shape], [0.0])
    steps = [span for span in telemetry.tracer.spans
             if span.name == "decode-step"]
    arrival = steps[2].finish  # the solo run's third step ends here
    assert_matches_oracle([shape, shape], [0.0, arrival], config)
    report = ContinuousBatchScheduler(ESTIMATOR, config).run(
        [shape, shape], [0.0, arrival])
    assert report.starts[1] == arrival


def test_walk_reads_the_axis_end_exactly():
    """At the last grid context a walk reads that grid point, as the
    oracle's clamped scan does, not the bracket below it at weight 1:
    ``a + (b - a)`` need not round to ``b``."""
    profile = StepProfile(ESTIMATOR, [1], [64, 128])
    profile._decode_grid = np.array([[0.7661368727868479,
                                      0.26251833548202747]])
    profile._rows = profile._decode_grid.tolist()
    oracle = LoopProfile(profile)
    walk = profile.decode_steps(1, 126)
    assert [next(walk) for __ in range(4)] == [
        oracle.decode_step_time(1, context) for context in range(126, 130)]


def test_resolves_are_guessed_checked_and_counted_once(monkeypatch):
    """Spilled KV makes steps read Eq. (1): every read is guessed from
    the step profile's grid and checked in one table; an all-HBM batch
    reads nothing.  Every re-solve counts as one search
    in a single count, as many as the oracle's."""
    solved, counted, checks = _spy_resolves(monkeypatch)
    requests, arrivals, config = _spilling_case(monkeypatch)
    (fields, __), searches, *__ = assert_matches_oracle(
        requests, arrivals, config)
    resolves = fields[REPORT_FIELDS.index("policy_resolves")]
    # Engine, then oracle: only the engine calls either spy.
    assert counted == [resolves] and resolves == searches
    assert checks == [True]  # every guess held: one pass
    # One table of every read, the first included; none on the spot.
    assert len(solved) == 1 and solved[0] >= 1
    # Without KV in CXL no step reads Eq. (1): nothing is solved, and
    # every re-solve is still counted.
    del solved[:], counted[:], checks[:]
    unbounded = SchedulerConfig(max_batch_requests=4,
                                kv_capacities=KvTierCapacities.unbounded())
    (fields, __), searches, *__ = assert_matches_oracle(
        requests, arrivals, unbounded)
    resolves = fields[REPORT_FIELDS.index("policy_resolves")]
    assert solved == [] and checks == [True]
    assert counted == [resolves] == [searches] and resolves > 0


@pytest.mark.parametrize("block", [scheduler_module._CHECK_BLOCK, 4])
def test_flip_case_reruns_once_and_matches_the_oracle(monkeypatch, block):
    """On the flip case the step profile's grid guesses some reads
    wrong: the checking tables find the first (in the first table, or
    in the third of four-point ones), one rerun solves every read on
    the spot, and every report field, span and search count equals the
    oracle's."""
    monkeypatch.setattr(scheduler_module, "_CHECK_BLOCK", block)
    solved, counted, checks = _spy_resolves(monkeypatch)
    scheduler, requests, arrivals = flip_case()
    (fields, __), searches, *__ = assert_matches_oracle(
        requests, arrivals, scheduler.config, scheduler.estimator)
    assert checks == [False]
    tables = [points for points in solved if points is not None]
    assert max(tables) <= block
    assert len(tables) == (3 if block == 4 else 1)
    # The checking tables run up to the one holding the first wrong
    # guess; the rerun solves every read on the spot, the first wrong
    # guess (read 11) and past.
    assert solved[:len(tables)] == tables
    rerun = solved[len(tables):]
    assert set(rerun) == {None} and len(rerun) > 11
    assert counted == [fields[REPORT_FIELDS.index("policy_resolves")]]
    assert counted == [searches]


@pytest.mark.parametrize("case, reads, points", [
    (flip_case, 84, 61), (continuous_kv_case, 663, 617)])
def test_checks_score_each_distinct_read_point_once(monkeypatch, case,
                                                    reads, points):
    """A guessing pass scores every distinct ``(aggregate, context)``
    read point once, however often it was read: the flip case reads 84
    times at 61 points, the 5,000-request stream 663 times at 617."""
    solved, __, checks = _spy_resolves(monkeypatch)
    recorded = []
    check = scheduler_module._ReadResolves.verified

    def counted(self):
        recorded.append(len(self.guesses))
        return check(self)

    monkeypatch.setattr(scheduler_module._ReadResolves, "verified", counted)
    scheduler, requests, arrivals = case()
    scheduler.run(requests, arrivals)
    assert recorded == [reads]
    assert [n for n in solved if n is not None] == [points]
    assert checks == [case is continuous_kv_case]


def test_cold_continuous_kv_call_builds_three_term_tables(monkeypatch):
    """A seed-0 continuous-kv call at 100 requests builds its step
    profile's decode grid, its prefill table and one table checking
    its 33 reads, which the decode grid guessed right: no read is
    solved on the spot."""
    tables = []
    layer_terms = terms.layer_terms

    def counted(*args, **kwargs):
        tables.append(args[1])
        return layer_terms(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "layer_terms", None) is layer_terms):
            monkeypatch.setattr(module, "layer_terms", counted)
    solved, __, checks = _spy_resolves(monkeypatch)
    scheduler, requests, arrivals = continuous_kv_case(100, 0)
    scheduler.run(requests, arrivals)
    assert solved == [33] and checks == [True]
    assert [stage.value for stage in tables] == ["decode", "prefill",
                                                 "decode"]


def test_capacity_error_waits_for_its_guesses(monkeypatch):
    """A pass that ends in a capacity error raises it only once its
    guesses are checked, and counts the searches before it once."""
    solved, counted, checks = _spy_resolves(monkeypatch)
    big = (8, 512, 20)
    unit = _kv_bytes(big)
    requests = [InferenceRequest(*shape)
                for shape in ((1, 64, 4), big, big, (64, 2048, 64))]
    config = SchedulerConfig(
        max_batch_requests=4,
        kv_capacities=KvTierCapacities(0.25 * unit, 0.25 * unit, unit))
    (outcome, __), searches, *__ = assert_matches_oracle(
        requests, [0.0, 0.01, 0.02, 0.03], config)
    assert outcome == "capacity-error"
    assert len(checks) == 1 and counted == [searches] and searches > 0


@given(batch=st.one_of(st.integers(-2, 80),
                       st.floats(0.5, 70.0, allow_nan=False)),
       contexts=st.lists(st.integers(0, 1300), min_size=1,
                         max_size=20))
@example(batch=8, contexts=[64, 128, 256, 1100, 1200])  # on the axes
@settings(max_examples=60, deadline=None)
def test_decode_step_time_matches_the_scalar_scan(batch, contexts):
    profile = StepProfile(ESTIMATOR, [1, 2, 8, 32, 64],
                          [64, 128, 256, 700, 1100])
    oracle = LoopProfile(profile)
    assert [profile.decode_step_time(batch, context)
            for context in contexts] == [
        oracle.decode_step_time(batch, context) for context in contexts]


@given(batch=st.integers(0, 70), start=st.integers(-3, 1200),
       steps=st.integers(1, 200))
@example(batch=8, start=60, steps=1100)  # crosses every bracket
@settings(max_examples=60, deadline=None)
def test_decode_steps_walk_matches_the_scalar_scan(batch, start, steps):
    """A turn's walk re-brackets the context incrementally: every step
    of it equals the oracle's one-point scan at that context."""
    profile = StepProfile(ESTIMATOR, [1, 2, 8, 32, 64],
                          [64, 128, 256, 700, 1100])
    oracle = LoopProfile(profile)
    walk = profile.decode_steps(batch, start)
    assert [next(walk) for __ in range(steps)] == [
        oracle.decode_step_time(batch, context)
        for context in range(start, start + steps)]


def test_every_integer_batch_matches_the_scalar_scan():
    """The scheduler's aggregate batch is an int: every one up to past
    the axis end agrees with the oracle's scan bit for bit."""
    profile = StepProfile(ESTIMATOR, [1, 2, 8, 32, 64],
                          [64, 128, 256, 700, 1100])
    oracle = LoopProfile(profile)
    contexts = [1, 64, 100, 700, 900, 1300]
    for batch in range(0, 70):
        assert [profile.decode_step_time(batch, context)
                for context in contexts] == [
            oracle.decode_step_time(batch, context)
            for context in contexts], batch


def test_single_point_axes_clamp_everywhere():
    profile = StepProfile(ESTIMATOR, [4], [300])
    oracle = LoopProfile(profile)
    walk = profile.decode_steps(1, 298)
    assert [next(walk) for __ in range(5)] == [
        oracle.decode_step_time(1, context)
        for context in range(298, 303)]
    assert [profile.decode_step_time(1, context)
            for context in (1, 300, 5000)] == [
        oracle.decode_step_time(1, context) for context in (1, 300, 5000)]


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
