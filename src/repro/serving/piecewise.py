"""The FIFO serving engine: piecewise-Lindley segments.

Every FIFO run goes through :func:`run_fifo`.  Served one request at a
time, the timeline follows the recurrence
``start_i = max(arrival_i, finish_{i-1})``, ``finish_i = start_i +
latency_i + penalty_i``, with three per-request perturbations under a
fault scenario: a policy re-solve while capacity faults are active, a
stall penalty added to the finish, and (optionally) admission
deferral.  Fault windows are time-bounded *a priori*, so the timeline
splits into segments — :meth:`FaultInjector.regimes` — inside which
the performance signature and stall probability are constant.  Each
segment is one call of the exact array kernel
:func:`~repro.serving.vectorized.lindley_timeline`:

* service times become one gather per segment (plan per distinct
  shape under the segment's signature, scattered onto the block),
* stall penalties become the kernel's ``penalties`` column (the
  two-addition ``(start + latency) + penalty`` fold), and
* queue backlog carries across segment boundaries through the
  kernel's ``free_at`` clamp.

A healthy run has no segments: :func:`serve_healthy` is one kernel
call over the whole stream, and a healthy round-robin replica of
:class:`~repro.serving.replicas.MultiReplicaSimulator` is the same
call over its strided substream.

**Speculation.** A request's *start* — not its arrival — picks its
signature, and backlog can push starts past the segment boundary.
Blocks are therefore computed speculatively under the entry segment's
signature and committed only up to the first request whose start (or
would-be start, for unservable drops) crosses the boundary; the
remainder re-enters the engine under the next segment.  The first
request of a block always starts inside the segment that was chosen
for it, so every commit makes progress.

**Bit-identity with a per-request loop is the contract**: timelines,
``FaultStats``, dropped records, and the ``serving.*``/``faults.*``
telemetry rows equal those of the reference loops in
``tests/oracles/fifo_loop.py``.  All RNG draws key on ``(scenario
seed, global request index)``, and the two float accumulators
(``stall_seconds``, ``backoff_seconds``) fold per event in request
order.  Admission control batches its attempt-zero queue-depth probes
per block, and once the queue is full it serves in admission rounds:
up to ``max_queue_depth`` admissions, and every shed between them, per
array pass (see :func:`_serve`).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.arrays import left_fold
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.faults.injector import FaultSignature
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.degradation import DegradationController, PlanTable
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     validate_stream)
from repro.serving.vectorized import WorkloadVector, lindley_timeline
from repro.telemetry.bridge import (note_dropped_spans,
                                    vectorized_report_to_metrics,
                                    vectorized_report_to_spans)
from repro.telemetry.runtime import current as current_telemetry

#: Speculative block size inside finite segments.  Commits are exact,
#: so the cap only bounds wasted work when backlog pushes starts past
#: a segment boundary early in a block.
_BLOCK_CAP = 1 << 16

#: Starting speculative block size for the admission engine.  The cap
#: doubles after every block free of admission violations and shrinks
#: back toward the observed commit length after one, so wasted
#: speculation stays proportional to committed work when the queue
#: keeps filling up.
_ADMISSION_BLOCK_SEED = 32

_UNSERVABLE_REASON = "does not fit the degraded platform at B=1"
_SHED_REASON = "shed by admission control"

_EMPTY_FLOATS = np.empty(0)
_EMPTY_FLOATS.flags.writeable = False
_EMPTY_INTS = np.empty(0, dtype=np.int64)
_EMPTY_INTS.flags.writeable = False


# ----------------------------------------------------------------------
# Pure stall-outcome replication
# ----------------------------------------------------------------------
def _stall_outcomes(scenario: FaultScenario, probability: float,
                    indices: Sequence[int], n_chunks: Sequence[int]
                    ) -> List[Tuple[float, Tuple[tuple, ...]]]:
    """(penalty, ops) of each request's stalled transfer chunks, with
    the side effects reified as an op list.

    Each stalled chunk costs one timeout, then retries on the
    exponential-backoff schedule; a retry that stalls again costs
    another timeout, and a chunk whose retry budget runs out counts as
    a failure.  The draws are the FIFO oracle's ``chunk_stalls`` /
    ``retry_succeeds`` (``tests/oracles/fifo_loop.py``): the same RNG
    keys, the same number of draws, from one ``random.Random``
    reseeded per key to the state :meth:`FaultScenario.rng_for` gives.
    The penalty accumulates add for add in chunk order, and ops are
    built only for a request that stalled; :func:`_apply_stall_ops`
    applies them in commit order.
    """
    calm: Tuple[float, Tuple[tuple, ...]] = (0.0, ())
    if probability <= 0.0:
        return [calm] * len(indices)
    retry = scenario.retry
    key = scenario.rng_key
    rng = random.Random()
    reseed, draw = rng.seed, rng.random
    outcomes: List[Tuple[float, Tuple[tuple, ...]]] = []
    for index, n in zip(indices, n_chunks):
        reseed(key(index))
        stalled = [chunk for chunk in range(n) if draw() < probability]
        if not stalled:
            outcomes.append(calm)
            continue
        penalty = 0.0
        ops: List[tuple] = []
        for chunk in stalled:
            offset = penalty
            penalty += retry.timeout_s
            ops.append(("stall", chunk, offset))
            recovered = False
            for attempt in range(retry.max_retries):
                delay = retry.backoff_delay(attempt)
                offset = penalty
                penalty += delay
                ops.append(("retry", chunk, attempt, offset, delay))
                reseed(key((index + 1) * 1_000_003 + chunk * 1_009
                           + attempt))
                if draw() >= probability:
                    recovered = True
                    break
                penalty += retry.timeout_s
                ops.append(("retry_stall", chunk, attempt, offset, delay))
            if not recovered:
                ops.append(("failure", chunk))
        outcomes.append((penalty, tuple(ops)))
    return outcomes


def _apply_stall_ops(controller: DegradationController, index: int,
                     start: float, ops: Tuple[tuple, ...]) -> None:
    """Fold one request's stall ops into stats/counters/spans in the
    order the stalls and retries happen.  The retry delays stay out of
    ``backoff_seconds`` (stats and counter): :func:`_account_round`
    folds them with the round's other backoff addends."""
    stats = controller.stats
    timeout = controller.scenario.retry.timeout_s
    for op in ops:
        kind = op[0]
        if kind == "stall":
            __, chunk, offset = op
            stats.transfer_stalls += 1
            controller._count("faults.transfer.stalls")
            at = start + offset
            stats.stall_seconds += timeout
            controller._span(f"stall:req{index}:chunk{chunk}", at,
                             at + timeout, chunk=chunk)
        elif kind == "retry":
            __, chunk, attempt, offset, delay = op
            at = start + offset
            stats.transfer_retries += 1
            controller._count("faults.transfer.retries")
            controller._span(f"backoff:req{index}:chunk{chunk}", at,
                             at + delay, attempt=attempt)
        elif kind == "retry_stall":
            __, chunk, attempt, offset, delay = op
            at = start + offset
            stats.stall_seconds += timeout
            controller._span(f"stall:req{index}:chunk{chunk}",
                             at + delay, at + delay + timeout,
                             chunk=chunk, attempt=attempt)
        else:  # failure
            stats.transfer_failures += 1
            controller._count("faults.transfer.failures")


# ----------------------------------------------------------------------
# Per-signature plan columns
# ----------------------------------------------------------------------
class _PlanColumns:
    """The plans of every workload shape under one fault signature.

    One slot per shape, filled from the call's :class:`PlanTable` with
    the codes a block actually contains, so only shapes that arrive
    while the signature is active are planned; shapes the stream never
    uses start filled.  A shape is planned from its estimate on the
    platform under the signature — the healthy estimate, or under
    faults the policy re-solve on the degraded platform.  A
    :class:`CapacityError` there halves the batch until it fits, and
    the shape is then served as ``pieces`` halved batches back to back;
    a shape that does not fit at B=1 is unservable (``ok`` false).
    """

    __slots__ = ("latency", "n_chunks", "ok", "shifted", "shrinks",
                 "filled")

    def __init__(self, used: np.ndarray) -> None:
        n_shapes = used.size
        self.latency = np.zeros(n_shapes)
        self.n_chunks = np.zeros(n_shapes, dtype=np.int64)
        self.ok = np.ones(n_shapes, dtype=bool)
        self.shifted = np.zeros(n_shapes, dtype=bool)
        self.shrinks = np.zeros(n_shapes, dtype=np.int64)
        self.filled = ~used

    def fill(self, controller: DegradationController,
             shapes: Sequence[InferenceRequest],
             signature: FaultSignature, block_codes: np.ndarray) -> None:
        if self.filled.all():
            return
        present = np.bincount(block_codes, minlength=self.filled.size)
        missing = np.flatnonzero((present > 0) & ~self.filled).tolist()
        if not missing:
            return
        plans = controller.plans
        wanted = [shapes[code] for code in missing]
        # run_fifo has checked every used shape against the healthy
        # platform, so these lookups find estimates.
        healthy = [plans.estimate((), shape) for shape in wanted]
        chunks = controller.scenario.chunks_per_request
        for code, shape, base, estimate in zip(
                missing, wanted, healthy, plans.entries(signature, wanted)):
            self.filled[code] = True
            batch = shape.batch_size
            shrinks = 0
            while isinstance(estimate, CapacityError) and batch > 1:
                batch = (batch + 1) // 2
                shrinks += 1
                estimate, = plans.entries(
                    signature, [replace(shape, batch_size=batch)])
            if isinstance(estimate, CapacityError):
                self.ok[code] = False
                continue
            pieces = math.ceil(shape.batch_size / batch)
            residency = estimate.residency
            streamed = (chunks if chunks > 0 else max(
                1, residency.n_layers - residency.n_resident_layers))
            self.latency[code] = estimate.latency * pieces
            self.n_chunks[code] = streamed * pieces
            self.shrinks[code] = shrinks
            self.shifted[code] = (
                (estimate.prefill_policy, estimate.decode_policy)
                != (base.prefill_policy, base.decode_policy))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def serve_healthy(workload: WorkloadVector, trace: np.ndarray,
                  services: np.ndarray) -> ServingReport:
    """The fault-free FIFO report of a checked stream: one
    :func:`lindley_timeline` call over its healthy ``services``."""
    starts, finishes = lindley_timeline(trace, services)
    return ServingReport(workload, trace, starts, finishes)


def run_fifo(estimator: LiaEstimator,
             requests: Union[Sequence[InferenceRequest], WorkloadVector],
             arrivals: ArrayLike,
             scenario: Optional[FaultScenario] = None,
             span_cap: int = DEFAULT_SPAN_CAP,
             indices: Optional[ArrayLike] = None,
             quiet: bool = False,
             _plans: Optional[PlanTable] = None) -> ServingReport:
    """Serve ``requests`` at ``arrivals`` through the FIFO engine,
    with service times from ``estimator``.

    ``scenario`` injects faults; ``None`` or an idle scenario serves
    the healthy platform (:func:`serve_healthy`) and returns a report
    without drop columns or :class:`FaultStats`.  ``indices`` relabels
    each position with a global request index, so a replica's RNG
    draws and span names match a single-server run over the same
    requests.  ``quiet`` suppresses telemetry (the fleet emits one
    merged view instead).
    Otherwise, under an active
    :class:`~repro.telemetry.runtime.Telemetry`, the run emits the
    ``serving.*``/``faults.*`` metrics
    and per-request spans for the first ``span_cap`` served requests;
    the rest are counted in ``serving.spans_dropped``.  A call that
    runs several replicas or fleet sizes passes its one
    :class:`~repro.serving.degradation.PlanTable` as ``_plans``.
    """
    workload, trace = validate_stream(requests, arrivals)
    idx: Optional[np.ndarray] = None
    if indices is not None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != workload.n_requests:
            raise ConfigurationError(
                "indices and requests must have equal length")
    if scenario is not None and scenario.idle:
        scenario = None
    telemetry = None if quiet else current_telemetry()
    plans = PlanTable(estimator) if _plans is None else _plans
    # A used shape too large for the healthy platform raises its
    # CapacityError before anything is served, whether or not
    # admission control would shed its requests.
    present = len(plans.used_estimates(workload))
    if telemetry is not None:
        # The estimates a per-request loop with a shape memo counts:
        # one computed per distinct shape, one memoized per repeat.
        estimates = telemetry.metrics.counter
        estimates("serving.estimates", result="computed").inc(present)
        if workload.n_requests > present:
            estimates("serving.estimates", result="memoized").inc(
                workload.n_requests - present)
    if scenario is None:
        report = serve_healthy(workload, trace,
                               plans.service_times(workload))
    else:
        controller = DegradationController(plans, scenario, telemetry)
        served_index, starts, finishes, dropped_index, reasons = _serve(
            controller, workload, trace, idx)
        report = ServingReport(
            workload, trace, starts, finishes, served_index=served_index,
            dropped_index=dropped_index, dropped_reasons=reasons,
            stats=controller.stats, scenario=scenario)
    if telemetry is not None:
        system = estimator.system.name
        model = estimator.spec.name
        vectorized_report_to_metrics(report, telemetry.metrics,
                                     system=system, model=model)
        spans, dropped_spans = vectorized_report_to_spans(report,
                                                          cap=span_cap)
        for span in spans:
            telemetry.tracer.add_span(span.name, span.track,
                                      span.start, span.finish,
                                      **span.args)
        if dropped_spans:
            telemetry.metrics.counter(
                "serving.spans_dropped", system=system,
                model=model).inc(dropped_spans)
            note_dropped_spans(telemetry, dropped_spans,
                               report.n_served, component="serving.fifo",
                               cap=span_cap)
        if scenario is not None:
            telemetry.metrics.gauge(
                "faults.dropped_requests",
                scenario=scenario.name).set(report.n_dropped)
    return report


def _serve(controller: DegradationController, workload: WorkloadVector,
           trace: np.ndarray, idx: Optional[np.ndarray]
           ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray,
                      np.ndarray, List[str]]:
    """The piecewise-Lindley block loop, with admission rounds, of a
    run under a fault scenario (a healthy run is :func:`serve_healthy`).

    Returns ``(served positions, starts, finishes, dropped positions,
    drop reasons)``; the served positions are ``None`` when every
    request was served.  A block that covers the whole stream commits
    the kernel's arrays as they are.

    With admission control, every block also batch-probes the
    attempt-zero queue depth of its members.  That probe is pure — a
    request whose depth clears ``max_queue_depth`` at its raw arrival
    is admitted there, and sequential admission (the ``admit``
    reference in ``tests/oracles/fifo_loop.py``) touches no state.  Served finishes are nondecreasing, so two
    ``searchsorted`` passes give every depth: committed finishes
    against the block arrivals, plus the block's own speculative
    finishes (clamped to each member's served-before prefix, which
    holds the earliest finishes).  The block commits up to the first
    request whose probe would defer or shed.

    From that request on the engine serves in **admission rounds**.
    With ``m`` requests served, finish list ``F`` and bound ``D``, a
    probe at time ``e`` sees depth ``m - bisect_right(F, e)``, and
    ``depth < D`` is the same test as ``m < D or F[m - D] <= e``.  The
    next ``D`` admissions ``k = m .. m + D - 1`` therefore face
    thresholds ``T_k = F[k - D]`` that are all committed before any
    of them is served.  A request's probes are the float chain
    ``a, a + d0, (a + d0) + d1, ...``; the last one is nondecreasing
    in the arrival, so the first request that can take slot ``k`` is
    one ``searchsorted`` of ``T_k`` into the last-probe column, and
    the admitted positions are ``k + maximum.accumulate(first - k)``.
    Each is admitted at its first probe ``>= T_k``; every request
    between two admitted ones sheds after ``max_deferrals``
    deferrals.  One :func:`lindley_timeline` call serves the admitted
    requests from ``free_at``, and the round is cut like a block at
    the first start past the segment boundary.  An admitted request
    that is unservable takes no slot, so the round ends on it.
    Rounds repeat until one neither defers nor sheds; then
    speculative blocks resume.
    """
    stats = controller.stats
    scenario = controller.scenario
    shapes = workload.shapes
    codes = workload.codes
    n = trace.size
    admission = scenario.admission
    max_depth = admission.max_queue_depth
    segments = controller.injector.regimes()
    seg_los = [segment[0] for segment in segments]
    used = workload.counts() > 0
    tables: Dict[FaultSignature, _PlanColumns] = {}

    def table_for(signature: FaultSignature) -> _PlanColumns:
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanColumns(used)
        return table

    # Commit buffers, allocated on the first commit that does not
    # cover the whole stream.
    served_starts = served_finishes = _EMPTY_FLOATS
    served_positions = _EMPTY_INTS
    n_served = 0
    dropped_positions: List[int] = []
    dropped_reasons: List[str] = []
    pos = 0
    free_at = 0.0

    def commit(starts: np.ndarray, finishes: np.ndarray,
               positions: Optional[np.ndarray]) -> None:
        """Append served rows; ``positions`` ``None`` means the rows
        sit contiguously from ``pos``."""
        nonlocal served_starts, served_finishes, served_positions
        nonlocal n_served, free_at
        count = starts.size
        if count == n:
            # One block served the whole stream: keep its arrays.
            served_starts, served_finishes = starts, finishes
        else:
            if served_positions.size < n:
                served_starts = np.empty(n)
                served_finishes = np.empty(n)
                served_positions = np.empty(n, dtype=np.int64)
            stop = n_served + count
            served_starts[n_served:stop] = starts
            served_finishes[n_served:stop] = finishes
            served_positions[n_served:stop] = (
                pos + np.arange(count) if positions is None
                else positions)
        n_served += count
        free_at = float(finishes[-1])

    def stall_draws(stall_p: float, positions: np.ndarray,
                    n_chunks: np.ndarray
                    ) -> Tuple[List[Tuple[float, Tuple[tuple, ...]]],
                               np.ndarray]:
        """Stall outcomes and penalty column of the requests at
        stream ``positions``."""
        request_ids = positions if idx is None else idx[positions]
        outcomes = _stall_outcomes(scenario, stall_p, request_ids.tolist(),
                                   n_chunks.tolist())
        penalties = np.fromiter((o[0] for o in outcomes),
                                dtype=np.float64, count=len(outcomes))
        return outcomes, penalties

    adm_cap = n
    delays: List[float] = []
    if max_depth:
        adm_cap = _ADMISSION_BLOCK_SEED
        round_cap = min(max_depth, _BLOCK_CAP)
        delays = [scenario.retry.backoff_delay(attempt)
                  for attempt in range(admission.max_deferrals)]
        # Every request's last admission probe, the same float chain
        # ``admit`` walks.
        last_probe = trace.copy()
        for delay in delays:
            last_probe += delay

    def admission_round() -> bool:
        """Serve one admission round from ``pos``; True when it
        deferred or shed."""
        nonlocal pos
        m = n_served
        # Rounds start at an attempt-zero violation, so m >= max_depth
        # and every threshold is a committed finish.
        thresholds = served_finishes[m - max_depth:
                                     m - max_depth + round_cap]
        ramp = np.arange(thresholds.size)
        first = pos + np.searchsorted(last_probe[pos:], thresholds,
                                      side="left")
        admitted = ramp + np.maximum.accumulate(first - ramp)
        n_admitted = int(np.searchsorted(admitted, n, side="left"))
        admitted = admitted[:n_admitted]
        # Admission probes: each request stops at its first probe at
        # or past its threshold.
        effective = trace[admitted]
        attempts = np.zeros(n_admitted, dtype=np.int64)
        for delay in delays:
            late = effective < thresholds[:n_admitted]
            if not late.any():
                break
            effective[late] += delay
            attempts += late

        served = 0
        unservable = False
        starts = finishes = _EMPTY_FLOATS
        outcomes = None
        if n_admitted:
            e0 = float(effective[0])
            t0 = e0 if e0 >= free_at else free_at
            __, hi, signature, stall_p = segments[
                bisect_right(seg_los, t0) - 1]
            table = table_for(signature)
            adm_codes = codes[admitted]
            table.fill(controller, shapes, signature, adm_codes)
            bad = (_EMPTY_INTS if table.ok.all()
                   else np.flatnonzero(~table.ok[adm_codes]))
            servable = int(bad[0]) if bad.size else n_admitted
            kept = servable
            if math.isfinite(hi) and kept > 1:
                kept = min(kept, _capacity(
                    table.latency[adm_codes[:kept]], hi - t0))
            penalties = None
            if stall_p > 0.0 and kept:
                outcomes, penalties = stall_draws(
                    stall_p, admitted[:kept],
                    table.n_chunks[adm_codes[:kept]])
            starts, finishes = lindley_timeline(
                effective[:kept], table.latency[adm_codes[:kept]],
                penalties=penalties, free_at=free_at)
            served = (int(np.searchsorted(starts, hi, side="left"))
                      if math.isfinite(hi) else kept)
            if served == servable < n_admitted:
                # The first unservable admission is dropped in this
                # segment if it would start inside it.
                backlog = float(finishes[-1]) if served else free_at
                e_u = float(effective[served])
                unservable = (e_u if e_u >= backlog else backlog) < hi
        if unservable:
            end = int(admitted[served]) + 1
        elif served < n_admitted:
            end = int(admitted[served])
        elif n_admitted < thresholds.size:
            end = n  # no request left can take the next slot
        else:
            end = int(admitted[-1]) + 1

        rows = end - pos
        decided = admitted[:served + unservable] - pos
        defers = np.full(rows, admission.max_deferrals, dtype=np.int64)
        defers[decided] = attempts[:decided.size]
        shed = np.ones(rows, dtype=bool)
        shed[decided] = False
        shed_positions = pos + np.flatnonzero(shed)
        committed_finishes = served_finishes[:m]
        if served:
            commit(starts[:served], finishes[:served], admitted[:served])
        _account_round(
            controller, delays, trace[pos:end],
            np.arange(pos, end) if idx is None else idx[pos:end], defers,
            decided[:served], starts[:served],
            table if served and signature else None,
            codes[admitted[:served]],
            None if outcomes is None else outcomes[:served],
            committed_finishes, int(shed_positions.size))
        dropped_positions.extend(shed_positions.tolist())
        dropped_reasons.extend([_SHED_REASON] * shed_positions.size)
        if unservable:
            stats.unservable += 1
            controller._count("faults.unservable")
            dropped_positions.append(end - 1)
            dropped_reasons.append(_UNSERVABLE_REASON)
        pos = end
        return bool(shed_positions.size) or bool(defers.any())

    while pos < n:
        arrival = trace[pos]
        t0 = arrival if arrival >= free_at else free_at
        lo, hi, signature, stall_p = segments[
            bisect_right(seg_los, t0) - 1]
        finite = math.isfinite(hi)
        block_end = n
        if finite:
            block_end = min(int(np.searchsorted(trace, hi, side="left")),
                            pos + _BLOCK_CAP)
        block_end = max(min(block_end, pos + adm_cap), pos + 1)
        block_codes = codes[pos:block_end]
        block_arrivals = trace[pos:block_end]

        table = table_for(signature)
        table.fill(controller, shapes, signature, block_codes)

        # ``None``: every shape of the table is servable.
        ok = None if table.ok.all() else table.ok[block_codes]
        if finite and block_codes.size > 1:
            # Capacity bound: a kept request starts no earlier than
            # ``t0`` plus the latencies of the kept requests before it,
            # so only those whose predecessors' latencies sum to at
            # most ``hi - t0`` can start inside this segment.
            # Trimming the speculative block to them bounds
            # past-the-boundary rework (stall draws, kernel replay)
            # to the idle gaps the sum ignores.  The bound only sizes
            # the block: commits stay exact however it is cut.
            kept_probe = (np.arange(block_codes.size) if ok is None
                          else np.flatnonzero(ok))
            if kept_probe.size > 1:
                capacity = _capacity(
                    table.latency[block_codes[kept_probe]], hi - t0)
                if kept_probe.size > capacity:
                    block_end = pos + int(kept_probe[capacity])
                    block_codes = codes[pos:block_end]
                    block_arrivals = trace[pos:block_end]
                    if ok is not None:
                        ok = ok[:block_end - pos]
        block_len = block_end - pos
        kept: Optional[np.ndarray] = None
        if ok is None or ok.all():
            kept_arrivals = block_arrivals
            kept_codes = block_codes
            drop = _EMPTY_INTS
        else:
            kept = np.flatnonzero(ok)
            drop = np.flatnonzero(~ok)
            kept_arrivals = block_arrivals[kept]
            kept_codes = block_codes[kept]

        outcomes = None
        penalties = None
        if stall_p > 0.0 and kept_arrivals.size:
            outcomes, penalties = stall_draws(
                stall_p,
                pos + (np.arange(kept_arrivals.size, dtype=np.int64)
                       if kept is None else kept),
                table.n_chunks[kept_codes])

        if kept_arrivals.size:
            kept_starts, kept_finishes = lindley_timeline(
                kept_arrivals, table.latency[kept_codes],
                penalties=penalties, free_at=free_at)
        else:
            kept_starts = kept_finishes = _EMPTY_FLOATS

        adm_edge = block_len
        if max_depth:
            # Batched attempt-zero depth probes: admitted-but-
            # unfinished requests at each member's arrival, committed
            # (one global searchsorted) plus the block's own kept
            # finishes before it.
            if kept is None:
                served_before = np.arange(block_len, dtype=np.int64)
            else:
                ok_counts = ok.astype(np.int64)
                served_before = np.cumsum(ok_counts) - ok_counts
            local = np.minimum(
                np.searchsorted(kept_finishes, block_arrivals,
                                side="right"),
                served_before)
            committed_leq = np.searchsorted(
                served_finishes[:n_served], block_arrivals,
                side="right")
            depth = (n_served + served_before) - (committed_leq + local)
            violations = np.flatnonzero(depth >= max_depth)
            if violations.size:
                adm_edge = int(violations[0])

        # First-violation cut: commit only the prefix whose starts (or
        # would-be starts of unservable drops) land in [lo, hi), and
        # stop at the first admission violation.
        seg_cut = block_len
        if finite:
            kept_violation = int(np.searchsorted(kept_starts, hi,
                                                 side="left"))
            if kept is None:
                seg_cut = min(kept_violation, block_len)
            else:
                kept_edge = (int(kept[kept_violation])
                             if kept_violation < kept.size
                             else block_len)
                previous = np.searchsorted(kept, drop) - 1
                backlog = (np.where(previous >= 0,
                                    kept_finishes[previous], free_at)
                           if kept_finishes.size else free_at)
                probe = np.maximum(block_arrivals[drop], backlog)
                drop_violation = int(np.searchsorted(probe, hi,
                                                     side="left"))
                drop_edge = (int(drop[drop_violation])
                             if drop_violation < drop.size
                             else block_len)
                seg_cut = min(kept_edge, drop_edge, block_len)
        cut = min(seg_cut, adm_edge)
        if kept is None:
            kept_cut, drop_cut = cut, 0
        else:
            kept_cut = int(np.searchsorted(kept, cut, side="left"))
            drop_cut = int(np.searchsorted(drop, cut, side="left"))

        if kept_cut:
            offsets = None if kept is None else kept[:kept_cut]
            commit(kept_starts[:kept_cut], kept_finishes[:kept_cut],
                   None if offsets is None else pos + offsets)
            if signature or outcomes is not None:
                # The commit is accounted as an admission round that
                # neither defers nor sheds.
                if outcomes is not None:
                    outcomes = outcomes[:kept_cut]
                _account_round(
                    controller, delays, trace[pos:pos + cut],
                    np.arange(pos, pos + cut) if idx is None
                    else idx[pos:pos + cut],
                    np.zeros(cut, dtype=np.int64),
                    np.arange(kept_cut) if offsets is None else offsets,
                    kept_starts[:kept_cut],
                    table if signature else None, kept_codes[:kept_cut],
                    outcomes, _EMPTY_FLOATS, 0)
        if drop_cut:
            dropped_positions.extend((pos + drop[:drop_cut]).tolist())
            dropped_reasons.extend([_UNSERVABLE_REASON] * drop_cut)
            stats.unservable += drop_cut
            controller._count("faults.unservable", drop_cut)
        pos += cut

        if not max_depth:
            continue
        if adm_edge <= seg_cut and adm_edge < block_len:
            # The cut landed on an admission violation: serve in
            # admission rounds until one neither defers nor sheds.
            while pos < n and admission_round():
                pass
            adm_cap = max(_ADMISSION_BLOCK_SEED, 2 * cut)
        else:
            adm_cap = min(2 * adm_cap, _BLOCK_CAP)

    positions = None if n_served == n else served_positions[:n_served]
    return (positions, served_starts[:n_served],
            served_finishes[:n_served],
            np.array(dropped_positions, dtype=np.int64), dropped_reasons)


def _capacity(latencies: np.ndarray, room: float) -> int:
    """How many back-to-back requests with ``latencies`` can start
    within ``room`` seconds of the first start (a sizing bound: the
    prefix sum ignores idle gaps and rounds as numpy does)."""
    return 1 + int(np.searchsorted(np.cumsum(latencies), room,
                                   side="right"))


def _account_round(controller: DegradationController,
                   delays: Sequence[float], arrivals: np.ndarray,
                   request_ids: np.ndarray, defers: np.ndarray,
                   served_rows: np.ndarray, starts: np.ndarray,
                   resolved: Optional[_PlanColumns], codes: np.ndarray,
                   outcomes: Optional[List[Tuple[float,
                                                 Tuple[tuple, ...]]]],
                   committed_finishes: np.ndarray, n_shed: int) -> None:
    """Fold one admission round's deferrals, sheds and served-request
    events into stats, counters and spans in event order.  A block
    commit is a round that neither defers nor sheds.

    The round's rows are consecutive stream positions; row ``i``
    arrives at ``arrivals[i]`` and defers ``defers[i]`` times, and the
    rows in ``served_rows`` are served from ``starts`` as shapes
    ``codes``, with stall ``outcomes``.  ``resolved`` holds their
    re-solved plans when a fault signature was active (``None``: the
    healthy plans).  ``backoff_seconds`` (stats and counter) is one
    seeded left fold over the round's addends: each row's deferral
    delays, then its stall-retry delays.  ``committed_finishes`` are
    the finishes served before the round (a defer span's ``depth`` arg
    reads them).
    """
    stats = controller.stats
    telemetry = controller.telemetry
    halvings: Optional[List[int]] = None
    if resolved is not None:
        count = int(codes.size)
        stats.policy_resolves += count
        controller._count("faults.policy_resolves", count)
        shifted = int(np.count_nonzero(resolved.shifted[codes]))
        if shifted:
            stats.policy_shifts += shifted
            controller._count("faults.policy_shifts", shifted)
        shrinks = resolved.shrinks[codes]
        total_shrinks = int(shrinks.sum())
        if total_shrinks:
            stats.batch_shrinks += total_shrinks
            controller._count("faults.batch_shrinks", total_shrinks)
            if telemetry is not None:
                halvings = shrinks.tolist()
        stats.degraded_requests += count
    elif outcomes is not None:
        stats.degraded_requests += sum(
            1 for outcome in outcomes if outcome[0] > 0.0)
    n_deferred = int(defers.sum())
    if n_deferred:
        stats.deferred += n_deferred
        controller._count("faults.admission.deferred", n_deferred)
    has_ops = outcomes is not None and any(o[1] for o in outcomes)
    if telemetry is None and not has_ops:
        # No per-event work: the addends are each row's delay prefix.
        first = np.cumsum(defers) - defers
        addends = np.asarray(delays)[np.arange(n_deferred)
                                     - np.repeat(first, defers)]
    else:
        addends = _round_events(controller, delays, arrivals,
                                request_ids, defers, served_rows,
                                starts, halvings, outcomes,
                                committed_finishes)
    if len(addends):
        stats.backoff_seconds = left_fold(stats.backoff_seconds,
                                          addends)
        if telemetry is not None:
            counter = telemetry.metrics.counter("faults.backoff_seconds")
            counter.value = left_fold(counter.value, addends)
    if n_shed:
        stats.dropped += n_shed
        controller._count("faults.admission.dropped", n_shed)


def _round_events(controller: DegradationController,
                  delays: Sequence[float], arrivals: np.ndarray,
                  request_ids: np.ndarray, defers: np.ndarray,
                  served_rows: np.ndarray, starts: np.ndarray,
                  halvings: Optional[List[int]],
                  outcomes: Optional[List[Tuple[float,
                                                Tuple[tuple, ...]]]],
                  committed_finishes: np.ndarray) -> List[float]:
    """Emit a round's per-request events row by row (defer spans, then
    the served request's shrink span and stall ops) and return its
    backoff addends in event order."""
    telemetry = controller.telemetry
    rows = arrivals.size
    served_at = np.full(rows, -1, dtype=np.int64)
    served_at[served_rows] = np.arange(served_rows.size)
    if telemetry is not None and defers.any():
        # Every row's probe ladder and the depth each probe saw: the
        # served count before the row, less the committed finishes at
        # or before the probe (the round's own finishes are all later).
        probes = np.empty((len(delays), rows))
        if len(delays):
            probes[0] = arrivals
            for attempt in range(1, len(delays)):
                np.add(probes[attempt - 1], delays[attempt - 1],
                       out=probes[attempt])
        is_served = (served_at >= 0).astype(np.int64)
        served_before = (committed_finishes.size + np.cumsum(is_served)
                         - is_served)
        depths = (served_before - np.searchsorted(
            committed_finishes, probes, side="right")).tolist()
        probe_rows = probes.tolist()
    start_list = starts.tolist()
    addends: List[float] = []
    for row, (request_id, count, j) in enumerate(zip(
            request_ids.tolist(), defers.tolist(), served_at.tolist())):
        for attempt in range(count):
            delay = delays[attempt]
            addends.append(delay)
            if telemetry is not None:
                at = probe_rows[attempt][row]
                controller._span(f"defer:req{request_id}", at, at + delay,
                                 attempt=attempt,
                                 depth=depths[attempt][row])
        if j < 0:
            continue
        if halvings is not None and halvings[j]:
            controller._span(f"shrink:req{request_id}", start_list[j],
                             start_list[j], halvings=halvings[j])
        if outcomes is not None and outcomes[j][1]:
            ops = outcomes[j][1]
            _apply_stall_ops(controller, request_id, start_list[j], ops)
            addends.extend(op[4] for op in ops if op[0] == "retry")
    return addends
