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

A healthy run is the same engine with zero fault windows: one
infinite segment, hence one kernel call over the whole stream.

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
per block (see :func:`_serve`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import CapacityError, ConfigurationError
from repro.faults.injector import FaultSignature
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.degradation import DegradationController, PlanTable
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     ServingSimulator, validate_arrivals)
from repro.serving.vectorized import WorkloadVector, lindley_timeline
from repro.telemetry.bridge import (note_dropped_spans,
                                    vectorized_report_to_metrics,
                                    vectorized_report_to_spans)

#: Speculative block size inside finite segments.  Commits are exact,
#: so the cap only bounds wasted work when backlog pushes starts past
#: a segment boundary early in a block.
_BLOCK_CAP = 1 << 16

#: Starting speculative block size for the admission engine.  The cap
#: doubles after every block free of admission violations and shrinks
#: back toward the observed commit length when a probe would defer,
#: so wasted speculation stays proportional to committed work even
#: when the queue saturates and probes defer densely.
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
def _stall_outcome(scenario: FaultScenario, probability: float,
                   index: int, n_chunks: int
                   ) -> Tuple[float, Tuple[tuple, ...]]:
    """(penalty, ops) of one request's stalled transfer chunks, with
    the side effects reified as an op list.

    Each stalled chunk costs one timeout, then retries on the
    exponential-backoff schedule; a retry that stalls again costs
    another timeout, and a chunk whose retry budget runs out counts as
    a failure.  The draws are those of
    :meth:`FaultInjector.chunk_stalls` /
    :meth:`FaultInjector.retry_succeeds` (same RNG keys, same number
    of draws), and the penalty accumulates add for add in chunk order.
    Ops are applied in commit order by :func:`_apply_stall_ops`.
    """
    retry = scenario.retry
    if probability <= 0.0 or n_chunks == 0:
        return 0.0, ()
    rng = scenario.rng_for(index)
    stalled = tuple(chunk for chunk in range(n_chunks)
                    if rng.random() < probability)
    if not stalled:
        return 0.0, ()
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
            rng2 = scenario.rng_for(
                (index + 1) * 1_000_003 + chunk * 1_009 + attempt)
            if rng2.random() >= probability:
                recovered = True
                break
            penalty += retry.timeout_s
            ops.append(("retry_stall", chunk, attempt, offset, delay))
        if not recovered:
            ops.append(("failure", chunk))
    return penalty, tuple(ops)


def _apply_stall_ops(controller: DegradationController, index: int,
                     start: float, ops: Tuple[tuple, ...]) -> None:
    """Fold one request's stall ops into stats/counters/spans in the
    order the stalls and retries happen."""
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
            stats.backoff_seconds += delay
            controller._count("faults.transfer.retries")
            controller._count("faults.backoff_seconds", delay)
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

    One slot per shape, filled lazily with the codes a block actually
    contains, so only shapes that arrive while the signature is active
    are resolved.
    """

    __slots__ = ("latency", "n_chunks", "ok", "shifted", "shrinks",
                 "filled")

    def __init__(self, n_shapes: int) -> None:
        self.latency = np.zeros(n_shapes)
        self.n_chunks = np.zeros(n_shapes, dtype=np.int64)
        self.ok = np.ones(n_shapes, dtype=bool)
        self.shifted = np.zeros(n_shapes, dtype=bool)
        self.shrinks = np.zeros(n_shapes, dtype=np.int64)
        self.filled = np.zeros(n_shapes, dtype=bool)

    def fill(self, controller: DegradationController,
             shapes: Sequence[InferenceRequest],
             signature: FaultSignature, block_codes: np.ndarray) -> None:
        if self.filled.all():
            return
        present = np.bincount(block_codes, minlength=self.filled.size)
        missing = np.flatnonzero((present > 0) & ~self.filled)
        for code in missing.tolist():
            # A shape too large for even the *base* platform raises
            # CapacityError here, at that shape's first block (the
            # warm-up swallows it so it surfaces per shape).
            plan = controller._resolve_plan(shapes[code], signature)
            if plan is None:
                self.ok[code] = False
            else:
                self.latency[code] = plan.latency
                self.n_chunks[code] = plan.n_chunks
                self.shifted[code] = plan.policy_shifted
                self.shrinks[code] = plan.shrinks
            self.filled[code] = True


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
#: What a run without faults is served under: no windows, so
#: :meth:`FaultInjector.regimes` is one infinite healthy segment and
#: the whole stream is one :func:`lindley_timeline` call.
_FAULT_FREE = FaultScenario(name="fault-free")


def _warm_base_plans(controller: DegradationController,
                     workload: WorkloadVector) -> _PlanColumns:
    """Plan every shape the stream uses on the healthy platform and
    return the fault-free plan columns.

    Counts the estimates as a per-request loop with a shape memo
    would: ``computed`` per distinct shape, ``memoized`` per repeat.
    Shapes the stream never uses are marked filled (no block can hold
    them); a shape too large for the base platform stays unfilled, so
    its :class:`CapacityError` surfaces at its first block.
    """
    table = _PlanColumns(len(workload.shapes))
    counts = workload.counts().tolist()
    for code, (shape, count) in enumerate(zip(workload.shapes, counts)):
        if count:
            try:
                plan = controller._base_plan(shape)
            except CapacityError:
                continue
            table.latency[code] = plan.latency
            table.n_chunks[code] = plan.n_chunks
        table.filled[code] = True
    present = sum(1 for count in counts if count)
    controller._count("serving.estimates", present, result="computed")
    if workload.n_requests > present:
        controller._count("serving.estimates",
                          workload.n_requests - present,
                          result="memoized")
    return table


def run_fifo(simulator: ServingSimulator, workload: WorkloadVector,
             arrivals: ArrayLike,
             scenario: Optional[FaultScenario] = None,
             span_cap: int = DEFAULT_SPAN_CAP,
             indices: Optional[ArrayLike] = None,
             quiet: bool = False,
             _plans: Optional[PlanTable] = None) -> ServingReport:
    """Serve ``workload`` at ``arrivals`` through the FIFO engine.

    ``scenario`` injects faults; ``None`` or an idle scenario serves
    the healthy platform and returns a report without drop columns or
    :class:`FaultStats`.  ``indices`` relabels each position with a
    global request index, so a replica's RNG draws and span names
    match a single-server run over the same requests.  ``quiet``
    suppresses telemetry (the fleet emits one merged view instead).
    Otherwise the run emits the ``serving.*``/``faults.*`` metrics
    and per-request spans for the first ``span_cap`` served requests;
    the rest are counted in ``serving.spans_dropped``.  A call that
    runs several replicas or fleet sizes passes its one
    :class:`~repro.serving.degradation.PlanTable` as ``_plans``.
    """
    trace = validate_arrivals(arrivals)
    if trace.size != workload.n_requests:
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    idx: Optional[np.ndarray] = None
    if indices is not None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != workload.n_requests:
            raise ConfigurationError(
                "indices and requests must have equal length")
    if scenario is not None and scenario.idle:
        scenario = None
    telemetry = None if quiet else simulator._active_telemetry()
    plans = PlanTable(simulator.estimator) if _plans is None else _plans
    controller = DegradationController(plans, scenario or _FAULT_FREE,
                                       telemetry)
    served_index, starts, finishes, dropped_index, reasons = _serve(
        controller, workload, trace, idx)
    # Without faults nothing is dropped, and the report carries no
    # drop columns or FaultStats.
    faulted = scenario is not None
    report = ServingReport(
        workload, trace, starts, finishes, served_index=served_index,
        dropped_index=dropped_index if faulted else None,
        dropped_reasons=reasons,
        stats=controller.stats if faulted else None, scenario=scenario)
    if telemetry is not None:
        system = simulator.estimator.system.name
        model = simulator.estimator.spec.name
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
    """The piecewise-Lindley block loop.

    Returns ``(served positions, starts, finishes, dropped positions,
    drop reasons)``; the served positions are ``None`` when every
    request was served.  A block that covers the whole stream commits
    the kernel's arrays as they are.

    With admission control, every block also batch-probes the
    attempt-zero queue depth of its members.  That probe is pure — a
    request whose depth clears ``max_queue_depth`` at its raw arrival
    is admitted there and
    :meth:`~repro.serving.degradation.DegradationController.admit`
    touches no state.  Served finishes are nondecreasing, so two
    ``searchsorted`` passes give every depth: committed finishes
    against the block arrivals, plus the block's own speculative
    finishes (clamped to each member's served-before prefix, which
    holds the earliest finishes).  The block commits up to the first
    request whose probe would defer or shed; that request alone takes
    the exact sequential ``admit`` (deferral loop, stats, spans,
    backoff float folds), and batching resumes behind it.
    """
    stats = controller.stats
    scenario = controller.scenario
    shapes = workload.shapes
    codes = workload.codes
    n = trace.size
    max_depth = scenario.admission.max_queue_depth
    segments = controller.injector.regimes()
    seg_los = [segment[0] for segment in segments]
    tables: Dict[FaultSignature, _PlanColumns] = {
        (): _warm_base_plans(controller, workload)}

    def table_for(signature: FaultSignature) -> _PlanColumns:
        table = tables.get(signature)
        if table is None:
            table = tables[signature] = _PlanColumns(len(shapes))
        return table

    # Commit buffers, allocated on the first commit that does not
    # cover the whole stream.
    served_starts = served_finishes = _EMPTY_FLOATS
    served_positions = _EMPTY_INTS
    n_served = 0
    # ``admit``'s binary search over a list of Python floats is ~3x
    # cheaper than over an ndarray view (no per-comparison boxing).
    finishes_list: List[float] = []
    dropped_positions: List[int] = []
    dropped_reasons: List[str] = []

    def buffers() -> None:
        nonlocal served_starts, served_finishes, served_positions
        if served_positions.size < n:
            served_starts = np.empty(n)
            served_finishes = np.empty(n)
            served_positions = np.empty(n, dtype=np.int64)

    probe_code = np.empty(1, dtype=np.int64)
    pos = 0
    free_at = 0.0
    adm_cap = _ADMISSION_BLOCK_SEED if max_depth else n
    seq_run = _ADMISSION_BLOCK_SEED
    # The sequential path indexes one request at a time; Python lists
    # make that ~3x cheaper than ndarray scalar access.
    arrivals_list: List[float] = trace.tolist() if max_depth else []
    codes_list: List[int] = codes.tolist() if max_depth else []

    def serve_slow(position: int) -> None:
        """One request through the exact sequential path — for the
        request at an admission violation (whose probe defers or
        sheds and therefore mutates controller state) and for
        saturated stretches where speculation cannot pay for
        itself."""
        nonlocal free_at, n_served
        arrival = arrivals_list[position]
        index = position if idx is None else int(idx[position])
        effective = controller.admit(arrival, index, finishes_list)
        if effective is None:
            dropped_positions.append(position)
            dropped_reasons.append(_SHED_REASON)
            return
        start = effective if effective >= free_at else free_at
        signature, stall_p = segments[bisect_right(seg_los, start) - 1][2:]
        table = table_for(signature)
        code = codes_list[position]
        if not table.filled[code]:
            probe_code[0] = code
            table.fill(controller, shapes, signature, probe_code)
        if not table.ok[code]:
            stats.unservable += 1
            controller._count("faults.unservable")
            dropped_positions.append(position)
            dropped_reasons.append(_UNSERVABLE_REASON)
            return
        if signature:
            controller._note_plan(bool(table.shifted[code]),
                                  int(table.shrinks[code]), index, start)
        penalty = 0.0
        if stall_p > 0.0:
            penalty, ops = _stall_outcome(scenario, stall_p, index,
                                          int(table.n_chunks[code]))
            if ops:
                _apply_stall_ops(controller, index, start, ops)
        if signature or penalty > 0.0:
            stats.degraded_requests += 1
        finish = start + float(table.latency[code]) + penalty
        buffers()
        served_positions[n_served] = position
        served_starts[n_served] = start
        served_finishes[n_served] = finish
        finishes_list.append(finish)
        n_served += 1
        free_at = finish

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
                elapsed = np.cumsum(table.latency[block_codes[kept_probe]])
                capacity = 1 + int(np.searchsorted(elapsed, hi - t0,
                                                   side="right"))
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
            request_ids = pos + (np.arange(kept_arrivals.size,
                                           dtype=np.int64)
                                 if kept is None else kept)
            if idx is not None:
                request_ids = idx[request_ids]
            outcomes = [
                _stall_outcome(scenario, stall_p, int(rid), int(nch))
                for rid, nch in zip(request_ids.tolist(),
                                    table.n_chunks[kept_codes].tolist())]
            penalties = np.fromiter((o[0] for o in outcomes),
                                    dtype=np.float64,
                                    count=len(outcomes))

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
            if kept_cut == n:
                # One block served the whole stream: keep its arrays.
                served_starts, served_finishes = kept_starts, kept_finishes
            else:
                buffers()
                end = n_served + kept_cut
                served_starts[n_served:end] = kept_starts[:kept_cut]
                served_finishes[n_served:end] = kept_finishes[:kept_cut]
                served_positions[n_served:end] = pos + (
                    np.arange(kept_cut) if offsets is None else offsets)
            n_served += kept_cut
            if max_depth:
                finishes_list.extend(kept_finishes[:kept_cut].tolist())
            free_at = float(kept_finishes[kept_cut - 1])
            if signature or outcomes is not None:
                _account_commit(controller, table, signature,
                                kept_codes[:kept_cut],
                                kept_starts[:kept_cut], outcomes,
                                pos, offsets, idx)
        if drop_cut:
            dropped_positions.extend((pos + drop[:drop_cut]).tolist())
            dropped_reasons.extend([_UNSERVABLE_REASON] * drop_cut)
            stats.unservable += drop_cut
            controller._count("faults.unservable", drop_cut)
        pos += cut

        if not max_depth:
            continue
        if adm_edge <= seg_cut and adm_edge < block_len:
            # The cut landed on an admission violation: that request's
            # probe defers or sheds, so it takes the exact sequential
            # path before batching resumes behind it.
            serve_slow(pos)
            pos += 1
            if cut < _ADMISSION_BLOCK_SEED:
                # Speculation did not pay for itself — the queue is
                # saturated and probes defer densely.  Drain a stretch
                # sequentially, doubling the stretch while saturation
                # persists, so the engine degrades to the sequential
                # path plus a vanishing probing overhead instead of
                # re-speculating per committed request.
                stop = min(n, pos + seq_run)
                while pos < stop:
                    serve_slow(pos)
                    pos += 1
                seq_run = min(2 * seq_run, _BLOCK_CAP)
                adm_cap = _ADMISSION_BLOCK_SEED
            else:
                seq_run = _ADMISSION_BLOCK_SEED
                adm_cap = max(_ADMISSION_BLOCK_SEED, 2 * cut)
        else:
            seq_run = _ADMISSION_BLOCK_SEED
            adm_cap = min(2 * adm_cap, _BLOCK_CAP)

    positions = None if n_served == n else served_positions[:n_served]
    return (positions, served_starts[:n_served],
            served_finishes[:n_served],
            np.array(dropped_positions, dtype=np.int64), dropped_reasons)


def _account_commit(controller: DegradationController,
                    table: _PlanColumns,
                    signature: FaultSignature, codes: np.ndarray,
                    starts: np.ndarray,
                    outcomes: Optional[List[Tuple[float,
                                                  Tuple[tuple, ...]]]],
                    pos: int, offsets: Optional[np.ndarray],
                    idx: Optional[np.ndarray]) -> None:
    """Fold one committed prefix into stats, counters and spans in the
    order a per-request pass would.  The prefix sits at block
    ``offsets`` (``None``: the first ``codes.size`` rows) of the block
    starting at stream position ``pos``."""
    stats = controller.stats
    count = int(codes.size)
    shrinks = None
    if signature:
        stats.policy_resolves += count
        controller._count("faults.policy_resolves", count)
        shifted = int(np.count_nonzero(table.shifted[codes]))
        if shifted:
            stats.policy_shifts += shifted
            controller._count("faults.policy_shifts", shifted)
        shrinks = table.shrinks[codes]
        total_shrinks = int(shrinks.sum())
        if total_shrinks:
            stats.batch_shrinks += total_shrinks
            controller._count("faults.batch_shrinks", total_shrinks)
        stats.degraded_requests += count
        if controller.telemetry is None or not total_shrinks:
            shrinks = None
    elif outcomes is not None:
        stats.degraded_requests += sum(
            1 for outcome in outcomes[:count] if outcome[0] > 0.0)
    if outcomes is None and shrinks is None:
        return
    shrink_counts = shrinks.tolist() if shrinks is not None else None
    start_list = starts.tolist()
    positions = pos + (np.arange(count) if offsets is None else offsets)
    request_ids = positions if idx is None else idx[positions]
    for j, request_id in enumerate(request_ids.tolist()):
        if shrink_counts is not None and shrink_counts[j]:
            controller._span(f"shrink:req{request_id}", start_list[j],
                             start_list[j], halvings=shrink_counts[j])
        if outcomes is not None and outcomes[j][1]:
            _apply_stall_ops(controller, request_id, start_list[j],
                             outcomes[j][1])
