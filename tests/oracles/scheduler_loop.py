"""Per-iteration loop reference for the continuous-batching scheduler.

:meth:`repro.serving.scheduler.ContinuousBatchScheduler.run` advances
from one membership event to the next: each turn walks a whole run of
decode steps, and the Eq. (1) re-solves that steps read take a guessed
answer that one table checks when the run ends.  :func:`run_loop`
serves the same stream one decode iteration at a time, in plain
Python:

* every iteration re-reads the running set, interpolates its step
  time one point at a time (:class:`LoopProfile`, a linear bracket
  scan over the engine's own decode grid) and adds it to the clock;
* every batch-composition change solves Eq. (1) with the scalar
  :func:`~repro.core.optimizer.optimal_policy` right away;
* every admitted shape's prefill time is one ``estimate`` call,
  memoized per shape;
* KV is booked in the per-request ledger of
  ``tests/oracles/kv_ledger.py``, not the engine's per-tier one.

The engine's :class:`~repro.serving.scheduler.ContinuousServingReport`
— timelines, counters, spans and ``policy.searches`` — must agree
with this loop bit for bit
(``tests/serving/test_scheduler_differential.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple, Union

import numpy as np

from repro.core.optimizer import optimal_policy
from repro.cxl.residency import KV_TIERS, kv_capacities_from_system
from repro.errors import CapacityError, ConfigurationError
from repro.models.sublayers import Stage, Sublayer
from repro.models.workload import InferenceRequest
from repro.serving import scheduler as scheduler_module
from repro.serving.scheduler import (ContinuousBatchScheduler,
                                     ContinuousServingReport, StepProfile)
from repro.serving.simulator import validate_arrivals
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.bridge import emit_report
from repro.telemetry.runtime import current as current_telemetry
from repro.telemetry.spans import Span
from tests.oracles.kv_ledger import KvResidency


@dataclass
class _ActiveRequest:
    """One member of the running batch."""

    index: int
    request: InferenceRequest
    arrival: float
    start: float
    steps_done: int = 0

    @property
    def context_len(self) -> int:
        """Context the *next* decode step attends over."""
        return self.request.input_len + self.steps_done

    @property
    def done(self) -> bool:
        return self.steps_done >= self.request.output_len


class LoopProfile:
    """A :class:`StepProfile`'s decode grid read one point at a time,
    plus per-shape prefill estimates on first use."""

    def __init__(self, profile: StepProfile) -> None:
        self.estimator = profile.estimator
        self.batch_sizes = profile.batch_sizes
        self.context_lens = profile.context_lens
        self._decode_grid = profile._decode_grid
        self._prefill_cache: Dict[Tuple[int, int], float] = {}

    @staticmethod
    def _interp(grid: List[int], position: float
                ) -> Tuple[int, int, float]:
        """Bracketing indices + weight, clamped at the grid edges."""
        if position <= grid[0]:
            return 0, 0, 0.0
        if position >= grid[-1]:
            return len(grid) - 1, len(grid) - 1, 0.0
        hi = 1
        while grid[hi] < position:
            hi += 1
        lo = hi - 1
        weight = (position - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, weight

    def decode_step_time(self, batch_size: float,
                         context_len: float) -> float:
        """One decode iteration of an aggregate batch (bilinear)."""
        b_lo, b_hi, wb = self._interp(self.batch_sizes, batch_size)
        c_lo, c_hi, wc = self._interp(self.context_lens, context_len)
        grid = self._decode_grid
        low = grid[b_lo, c_lo] + wc * (grid[b_lo, c_hi]
                                       - grid[b_lo, c_lo])
        high = grid[b_hi, c_lo] + wc * (grid[b_hi, c_hi]
                                        - grid[b_hi, c_lo])
        return float(low + wb * (high - low))

    def prefill_time(self, request: InferenceRequest) -> float:
        """Exact (memoized) prefill latency of one member's prompt."""
        key = (request.batch_size, request.input_len)
        cached = self._prefill_cache.get(key)
        if cached is None:
            probe = InferenceRequest(batch_size=request.batch_size,
                                     input_len=request.input_len,
                                     output_len=1)
            cached = self.estimator.estimate(probe).prefill.time
            self._prefill_cache[key] = cached
        return cached


def run_loop(scheduler: ContinuousBatchScheduler,
             requests: Union[List[InferenceRequest], WorkloadVector],
             arrivals) -> ContinuousServingReport:
    """Serve ``requests`` with ``scheduler``'s estimator and config,
    one decode iteration per turn (the iterative path only: the
    FIFO-degenerate config is the FIFO engine's closed form)."""
    trace = validate_arrivals(arrivals)
    workload = (requests if isinstance(requests, WorkloadVector)
                else WorkloadVector.from_requests(list(requests)))
    if len(workload) != trace.size or not len(workload):
        raise ConfigurationError(
            "requests and arrivals must be non-empty and equal length")
    requests = workload.to_requests()
    arrivals = trace.tolist()
    cfg = scheduler.config
    estimator = scheduler.estimator
    spec = estimator.spec
    system = estimator.system
    lia_config = estimator.config
    telemetry = current_telemetry()

    capacities = cfg.kv_capacities
    if capacities is None:
        capacities = kv_capacities_from_system(spec, system)
    residency = KvResidency(capacities)
    profile = LoopProfile(
        StepProfile.for_workload(estimator, requests, cfg))

    pending: Deque[Tuple[int, InferenceRequest, float]] = deque(
        (i, request, arrival)
        for i, (request, arrival)
        in enumerate(zip(requests, arrivals)))
    running: List[_ActiveRequest] = []
    starts = np.empty(len(requests))
    finishes = np.empty(len(requests))

    clock = 0.0
    iterations = 0
    admissions = 0
    busy_time = 0.0
    prefill_busy = 0.0
    occupancy_time = 0.0
    occupancy_peak = 0
    policy_resolves = 0
    kv_peak = {tier: 0.0 for tier in KV_TIERS}
    members: frozenset = frozenset()
    kv_on_cpu = False
    #: (start, finish, n_running, aggregate_batch) per iteration,
    #: capped at the engine's span cap; the total count feeds the drop
    #: note.
    span_rows: List[Tuple[float, float, int, int]] = []

    while pending or running:
        if not running and pending:
            head_arrival = pending[0][2]
            if clock < head_arrival:
                clock = head_arrival
        can_join = cfg.join == "step" or not running
        admitted: List[_ActiveRequest] = []
        while (pending and can_join
               and len(running) < cfg.max_batch_requests
               and pending[0][2] <= clock):
            index, request, arrival = pending[0]
            kv_bytes = float(spec.kv_cache_bytes(
                request.batch_size, request.max_context_len))
            if not residency.admit(index, kv_bytes):
                if not running:
                    raise CapacityError(
                        f"request {index} "
                        f"(B={request.batch_size}, "
                        f"L={request.max_context_len}) needs "
                        f"{kv_bytes:.3e} KV bytes but the tiers "
                        f"hold {capacities.total_bytes:.3e} "
                        "combined",
                        requested=kv_bytes,
                        available=capacities.total_bytes,
                        device="kv-tiers")
                # Head waits for the batch to drain; later
                # requests wait behind it (FIFO admission).
                break
            pending.popleft()
            entry = _ActiveRequest(index=index, request=request,
                                   arrival=arrival, start=clock)
            running.append(entry)
            admitted.append(entry)
            admissions += 1
        for tier in KV_TIERS:
            used = residency.used(tier)
            if used > kv_peak[tier]:
                kv_peak[tier] = used

        now_members = frozenset(entry.index for entry in running)
        if now_members != members:
            members = now_members
            if running:
                aggregate = sum(entry.request.batch_size
                                for entry in running)
                context = max(entry.context_len
                              for entry in running)
                decision = optimal_policy(
                    spec, Stage.DECODE, aggregate, context,
                    system, lia_config)
                policy_resolves += 1
                kv_on_cpu = any(
                    not decision.policy.on_gpu(sub)
                    for sub in Sublayer if sub.uses_kv_cache)

        # New members prefill before the batch's next decode step
        # (ORCA interleaves prefill iterations; modeled serially).
        for entry in admitted:
            entry.start = clock
            prefill = profile.prefill_time(entry.request)
            clock += prefill
            prefill_busy += prefill

        if not running:
            continue

        iterations += 1
        aggregate = sum(entry.request.batch_size
                        for entry in running)
        context = max(entry.context_len for entry in running)
        step = profile.decode_step_time(aggregate, context)
        penalty = scheduler_module.CXL_STEP_PENALTY
        if kv_on_cpu and penalty > 0.0:
            total_kv = residency.total_used
            if total_kv > 0.0:
                cxl_fraction = residency.used("cxl") / total_kv
                # Observation-2: CPU attention reading CXL-resident
                # KV runs at expander, not DDR, bandwidth.
                step *= 1.0 + penalty * cxl_fraction
        step_start = clock
        clock += step
        busy_time += step
        occupancy_time += step * len(running)
        if len(running) > occupancy_peak:
            occupancy_peak = len(running)
        if len(span_rows) < scheduler_module.DEFAULT_SPAN_CAP:
            span_rows.append((step_start, clock, len(running),
                              aggregate))

        for entry in running:
            entry.steps_done += 1
        finished = [entry for entry in running if entry.done]
        if finished:
            running = [entry for entry in running
                       if not entry.done]
            for entry in finished:
                residency.release(entry.index)
                starts[entry.index] = entry.start
                finishes[entry.index] = clock

    report = ContinuousServingReport(
        workload, trace, starts, finishes,
        iterations=iterations,
        admissions=admissions,
        occupancy_mean=(occupancy_time / busy_time
                        if busy_time > 0.0 else 0.0),
        occupancy_peak=occupancy_peak,
        policy_resolves=policy_resolves,
        kv_peak_bytes=kv_peak,
        kv_demotions=residency.demotions,
        kv_demoted_bytes=residency.demoted_bytes,
        server_busy_s=busy_time + prefill_busy,
        decode_busy_s=busy_time,
    )
    if telemetry is not None:
        labels = {"system": system.name, "model": spec.name}
        extras = [("counter", f"scheduler.{name}", labels, value)
                  for name, value in (
                      ("iterations", iterations),
                      ("admissions", admissions),
                      ("completions", len(requests)),
                      ("policy_resolves", policy_resolves),
                      ("kv_demotions", residency.demotions))]
        extras += [("gauge", "scheduler.occupancy_mean", labels,
                    report.occupancy_mean),
                   ("gauge", "scheduler.occupancy_peak", labels,
                    float(occupancy_peak))]
        extras += [("gauge", "scheduler.kv_peak_bytes",
                    {"tier": tier, **labels}, peak)
                   for tier, peak in kv_peak.items()]
        spans = [[Span("decode-step", "scheduler", start, finish,
                       {"n_running": n_running,
                        "aggregate_batch": aggregate})]
                 for start, finish, n_running, aggregate in span_rows]
        emit_report(telemetry, report, labels, extras, spans, iterations,
                    "scheduler")
    return report
