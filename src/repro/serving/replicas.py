"""Multi-replica scale-out over the FIFO serving engine.

The paper's Fig. 10/11 latencies answer "how fast is one box"; a
capacity planner asks "how many boxes".  This module simulates ``k``
independent single-server replicas behind a dispatcher:

* ``round-robin`` — request *i* goes to replica ``i mod k``.  Each
  replica's sub-stream is still sorted by arrival, so every replica
  is one call of the FIFO engine (:mod:`repro.serving.piecewise`),
  with or without a fault scenario; a million healthy requests over
  8 replicas is 8 array scans.
* ``least-loaded`` — each request joins the replica that frees up
  earliest (join-earliest-free, the G/G/k discipline).  The decision
  depends on every earlier finish, so assignment is inherently
  sequential: an O(n log k) heap walk that still avoids per-request
  object churn.

:func:`replicas_needed` binary-searches the smallest fleet meeting a
p95 SLO — the paper-faithful "how many A100 boxes do I need" sweep.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.degradation import PlanTable
from repro.serving.pool import (ShmArrayHandle, SharedWorkload,
                                publish_array, publish_workload, release,
                                release_workload, run_process_sweep,
                                use_pool)
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     ServingSimulator, arrivals_poisson,
                                     validate_arrivals)
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.runtime import Telemetry

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
    from repro.serving.degradation import FaultStats

DISPATCH_POLICIES = ("round-robin", "least-loaded")


@dataclass
class ScaleOutReport:
    """One fleet simulation: merged stats plus per-replica views.

    ``merged`` holds the full timeline in global arrival order, so
    latency percentiles, queue delays, and throughput read exactly
    like a single-server report.  ``utilization`` is normalized by
    the fleet size (busy replica-seconds over ``k * makespan``).
    Under a fault scenario ``merged`` also carries the dropped
    requests, and ``stats`` folds the per-replica :class:`FaultStats`
    in replica-id order (integer counters sum; the two float
    accumulators add in that fixed order); without one ``stats`` and
    ``scenario`` are ``None``.
    """

    merged: ServingReport
    per_replica: Tuple[ServingReport, ...]
    #: The replica id behind each ``per_replica`` entry (replicas
    #: that were offered nothing — possible when k > n — are omitted).
    replica_ids: Tuple[int, ...]
    assignment: np.ndarray
    dispatch: str
    n_replicas: int
    stats: Optional["FaultStats"] = None
    scenario: Optional["FaultScenario"] = None

    @property
    def n_served(self) -> int:
        return self.merged.n_served

    @property
    def makespan(self) -> float:
        return self.merged.makespan

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.merged.throughput_tokens_per_s

    @property
    def mean_queue_delay(self) -> float:
        return self.merged.mean_queue_delay

    def latency_percentile(self, fraction: float) -> float:
        return self.merged.latency_percentile(fraction)

    @property
    def replica_utilizations(self) -> List[float]:
        return [report.utilization for report in self.per_replica]

    @property
    def utilization(self) -> float:
        makespan = self.makespan
        return (self.merged.busy_s / (self.n_replicas * makespan)
                if makespan else 0.0)

    @property
    def scenario_name(self) -> str:
        return self.merged.scenario_name

    @property
    def n_offered(self) -> int:
        return self.merged.n_offered

    @property
    def n_dropped(self) -> int:
        return self.merged.n_dropped

    @property
    def drop_rate(self) -> float:
        return self.merged.drop_rate

    @property
    def dropped(self) -> list:
        return self.merged.dropped


def _fold_stats(per_replica_stats: Sequence["FaultStats"]) -> "FaultStats":
    """Merge per-replica stats in replica-id order."""
    from repro.serving.degradation import FaultStats

    merged = FaultStats()
    for stats in per_replica_stats:
        merged.deferred += stats.deferred
        merged.dropped += stats.dropped
        merged.transfer_stalls += stats.transfer_stalls
        merged.transfer_retries += stats.transfer_retries
        merged.transfer_failures += stats.transfer_failures
        merged.policy_resolves += stats.policy_resolves
        merged.policy_shifts += stats.policy_shifts
        merged.batch_shrinks += stats.batch_shrinks
        merged.unservable += stats.unservable
        merged.backoff_seconds += stats.backoff_seconds
        merged.stall_seconds += stats.stall_seconds
        merged.degraded_requests += stats.degraded_requests
    return merged


class MultiReplicaSimulator:
    """``k`` independent FIFO replicas behind one dispatcher."""

    def __init__(self, estimator: LiaEstimator, n_replicas: int,
                 dispatch: str = "round-robin",
                 telemetry: Optional[Telemetry] = None) -> None:
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}")
        if dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_POLICIES}, "
                f"got {dispatch!r}")
        self.estimator = estimator
        self.n_replicas = n_replicas
        self.dispatch = dispatch
        self._simulator = ServingSimulator(estimator,
                                           telemetry=telemetry)

    # ------------------------------------------------------------------
    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike,
            scenario: Optional["FaultScenario"] = None,
            _plans: Optional[PlanTable] = None) -> ScaleOutReport:
        """Dispatch ``requests`` over the fleet.

        ``scenario`` runs every replica under the fault layer
        (round-robin dispatch only — least-loaded assignment depends
        on every earlier finish, which shedding makes dispatch-order
        ambiguous).  Every replica plans from one
        :class:`~repro.serving.degradation.PlanTable`: the run's own,
        or the ``_plans`` of a search over fleet sizes.
        """
        workload = (requests if isinstance(requests, WorkloadVector)
                    else WorkloadVector.from_requests(requests))
        trace = validate_arrivals(arrivals)
        if trace.size != workload.n_requests:
            raise ConfigurationError(
                "requests and arrivals must have equal length")
        if trace.size == 0:
            raise ConfigurationError(
                "workload must contain requests")
        if scenario is not None and scenario.idle:
            scenario = None
        telemetry = self._simulator._active_telemetry()
        plans = PlanTable(self.estimator) if _plans is None else _plans
        if self.dispatch == "round-robin":
            report = self._run_round_robin(workload, trace, scenario,
                                           plans)
        elif scenario is not None:
            raise ConfigurationError(
                "degraded fleet dispatch supports round-robin only: "
                "least-loaded assignment depends on every earlier "
                "finish, which admission shedding makes "
                "dispatch-order ambiguous")
        else:
            report = self._run_least_loaded(workload, trace, plans)
        if telemetry is not None:
            self._emit_telemetry(report, telemetry)
        return report

    def run_poisson(self, requests: Union[Sequence[InferenceRequest],
                                          WorkloadVector],
                    rate_per_s: float, seed: int = 0,
                    scenario: Optional["FaultScenario"] = None
                    ) -> ScaleOutReport:
        arrivals = arrivals_poisson(len(requests), rate_per_s, seed=seed)
        return self.run(requests, arrivals, scenario=scenario)

    # ------------------------------------------------------------------
    def _run_round_robin(self, workload: WorkloadVector,
                         trace: np.ndarray,
                         scenario: Optional["FaultScenario"],
                         plans: PlanTable) -> ScaleOutReport:
        """Request *i* goes to replica ``i mod k``.

        Each replica serves its substream through the FIFO engine
        with *global* request indices, so every RNG draw (stall
        outcomes, deferral backoff) keys exactly as a single-server
        run over the same requests would.  Replicas run ``quiet``;
        :meth:`run` emits one merged fleet view.  The merge scatters
        each replica's served rows back to their global positions.
        """
        from repro.serving.piecewise import run_fifo

        n = trace.size
        assignment = np.arange(n, dtype=np.int64) % self.n_replicas
        starts = np.empty(n)
        finishes = np.empty(n)
        served = np.zeros(n, dtype=bool)
        replica_ids: List[int] = []
        per_replica: List[ServingReport] = []
        dropped_parts: List[np.ndarray] = []
        reasons: List[str] = []
        for replica in range(min(self.n_replicas, n)):
            index = np.arange(replica, n, self.n_replicas,
                              dtype=np.int64)
            sub = run_fifo(self._simulator, workload.subset(index),
                           trace[index], scenario, indices=index,
                           quiet=True, _plans=plans)
            replica_ids.append(replica)
            per_replica.append(sub)
            if sub.n_dropped:
                index_served = index[sub.served_index]
                dropped_parts.append(index[sub.dropped_index])
                reasons.extend(sub.dropped_reasons)
            else:
                index_served = index
            starts[index_served] = sub.starts
            finishes[index_served] = sub.finishes
            served[index_served] = True
        stats = None
        served_index: Optional[np.ndarray] = None
        dropped_index: Optional[np.ndarray] = None
        if scenario is not None:
            stats = _fold_stats([sub.stats for sub in per_replica
                                 if sub.stats is not None])
            dropped_index = np.empty(0, dtype=np.int64)
        if dropped_parts:
            served_index = np.flatnonzero(served)
            starts = starts[served_index]
            finishes = finishes[served_index]
            dropped_index = np.concatenate(dropped_parts)
            order = np.argsort(dropped_index, kind="stable")
            dropped_index = dropped_index[order]
            reasons = [reasons[i] for i in order.tolist()]
        merged = ServingReport(
            workload, trace, starts, finishes,
            served_index=served_index, dropped_index=dropped_index,
            dropped_reasons=reasons, stats=stats, scenario=scenario)
        return ScaleOutReport(
            merged=merged, per_replica=tuple(per_replica),
            replica_ids=tuple(replica_ids), assignment=assignment,
            dispatch=self.dispatch, n_replicas=self.n_replicas,
            stats=stats, scenario=scenario)

    def _run_least_loaded(self, workload: WorkloadVector,
                          trace: np.ndarray,
                          plans: PlanTable) -> ScaleOutReport:
        """Each request joins the replica that frees up earliest
        (join-earliest-free, the G/G/k discipline)."""
        services = plans.service_times(workload)
        n = trace.size
        starts = np.empty(n)
        finishes = np.empty(n)
        assignment = self._assign_least_loaded(trace, services, starts,
                                               finishes)
        per_replica = []
        replica_ids = []
        for replica in range(self.n_replicas):
            index = np.flatnonzero(assignment == replica)
            if index.size == 0:
                continue
            replica_ids.append(replica)
            per_replica.append(ServingReport(
                workload.subset(index), trace[index], starts[index],
                finishes[index]))
        return ScaleOutReport(
            merged=ServingReport(workload, trace, starts, finishes),
            per_replica=tuple(per_replica),
            replica_ids=tuple(replica_ids), assignment=assignment,
            dispatch=self.dispatch, n_replicas=self.n_replicas)

    # ------------------------------------------------------------------
    def _assign_least_loaded(self, arrivals: np.ndarray,
                             services: np.ndarray, starts: np.ndarray,
                             finishes: np.ndarray) -> np.ndarray:
        """Join-earliest-free assignment; fills the timeline in place.

        Ties break toward the lowest replica id, so the walk is fully
        deterministic.
        """
        n = arrivals.size
        assignment = np.empty(n, dtype=np.int64)
        heap = [(0.0, replica) for replica in range(self.n_replicas)]
        heapq.heapify(heap)
        arrival_list = arrivals.tolist()
        service_list = services.tolist()
        for i in range(n):
            free_at, replica = heapq.heappop(heap)
            arrival = arrival_list[i]
            start = arrival if arrival >= free_at else free_at
            finish = start + service_list[i]
            heapq.heappush(heap, (finish, replica))
            assignment[i] = replica
            starts[i] = start
            finishes[i] = finish
        return assignment

    def _emit_telemetry(self, report: ScaleOutReport,
                        telemetry: Telemetry) -> None:
        from repro.telemetry.bridge import (note_dropped_spans,
                                            vectorized_report_to_metrics,
                                            vectorized_report_to_spans)

        system = self.estimator.system.name
        model = self.estimator.spec.name
        vectorized_report_to_metrics(report.merged, telemetry.metrics,
                                     system=system, model=model)
        telemetry.metrics.gauge(
            "serving.replicas", system=system, model=model).set(
                report.n_replicas)
        for replica, sub_report in zip(report.replica_ids,
                                       report.per_replica):
            telemetry.metrics.gauge(
                "serving.replica_utilization", system=system,
                model=model, replica=str(replica)).set(
                    sub_report.utilization)
        spans, dropped = vectorized_report_to_spans(report.merged)
        assignment = report.assignment.tolist()
        # Span names index the *served* substream; the merged report
        # maps those back to offered positions.
        served_index = report.merged.served_index.tolist()
        for span in spans:
            index = int(span.name[len("request["):-1])
            replica = assignment[served_index[index]]
            track = f"{span.track}[{replica}]"
            telemetry.tracer.add_span(span.name, track, span.start,
                                      span.finish, **span.args)
        if dropped:
            telemetry.metrics.counter(
                "serving.spans_dropped", system=system,
                model=model).inc(dropped)
            note_dropped_spans(telemetry, dropped,
                               report.merged.n_served,
                               component="serving.replicas",
                               cap=DEFAULT_SPAN_CAP)


def fleet_size_summary(report: ScaleOutReport) -> dict:
    """The compact, picklable cross-section of one fleet-size cell.

    Used identically by the in-process path and the
    ``replicas.fleet_size`` worker kernel, so both paths return the
    same dict — including a sha256 fingerprint over the merged finish
    times, the bit-identity witness the process-sweep tests compare.
    """
    import hashlib

    fingerprint = hashlib.sha256(
        np.ascontiguousarray(report.merged.finishes,
                             dtype=np.float64).tobytes()).hexdigest()
    return {
        "n_replicas": report.n_replicas,
        "n_served": report.n_served,
        "p50_s": report.latency_percentile(0.50),
        "p95_s": report.latency_percentile(0.95),
        "p99_s": report.latency_percentile(0.99),
        "mean_queue_delay_s": report.mean_queue_delay,
        "makespan_s": report.makespan,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "utilization": report.utilization,
        "fingerprint": fingerprint,
    }


def _fleet_size_summaries(estimator: LiaEstimator,
                          workload: WorkloadVector, trace: np.ndarray,
                          dispatch: str,
                          counts: Sequence[int]) -> List[dict]:
    """One :func:`fleet_size_summary` per fleet size in ``counts``,
    every size planning from one shared :class:`PlanTable`."""
    plans = PlanTable(estimator)
    return [fleet_size_summary(
        MultiReplicaSimulator(estimator, k, dispatch=dispatch).run(
            workload, trace, _plans=plans)) for k in counts]


def _fleet_size_chunk(model: str, system: str, config: LiaConfig,
                      workload: SharedWorkload,
                      arrivals: ShmArrayHandle, dispatch: str,
                      counts: Sequence[int]) -> List[dict]:
    """:func:`_fleet_size_summaries` in a pool worker: the estimator
    rebuilds from the zoo by name, and the workload codes and arrival
    trace attach zero-copy from shared memory."""
    estimator = LiaEstimator(get_model(model), get_system(system), config)
    return _fleet_size_summaries(estimator, workload.attach(),
                                 arrivals.array(), dispatch, counts)


def sweep_fleet_sizes(estimator: LiaEstimator,
                      requests: Union[Sequence[InferenceRequest],
                                      WorkloadVector],
                      arrivals: Sequence[float],
                      replica_counts: Sequence[int],
                      dispatch: str = "round-robin",
                      processes: int = 0) -> List[dict]:
    """One :func:`fleet_size_summary` per fleet size, in input order.

    Fleet sizes are independent simulations over the *same* workload
    and trace.  In process (``processes=0``, the default) every size
    plans from the call's one
    :class:`~repro.serving.degradation.PlanTable`.  With
    ``processes > 0`` the sizes fan out over the
    :mod:`repro.serving.pool` process pool: the workload's code column
    and the arrival trace publish once into shared memory and reattach
    zero-copy in every worker; segments are released as soon as the
    sweep returns.  Results are bit-identical at any ``processes``.
    """
    workload = (requests if isinstance(requests, WorkloadVector)
                else WorkloadVector.from_requests(requests))
    trace = validate_arrivals(arrivals)
    counts = [int(k) for k in replica_counts]
    if not use_pool(estimator, processes):
        return _fleet_size_summaries(estimator, workload, trace,
                                     dispatch, counts)
    shared = publish_workload(workload)
    handle = publish_array(trace)
    try:
        return run_process_sweep(
            _fleet_size_chunk,
            (estimator.spec.name, estimator.system.name,
             estimator.config, shared, handle, dispatch),
            counts, processes=processes)
    finally:
        release_workload(shared)
        release(handle)


def replicas_needed(estimator: LiaEstimator,
                    requests: Union[Sequence[InferenceRequest],
                                    WorkloadVector],
                    arrivals: Sequence[float], slo_p95_seconds: float,
                    dispatch: str = "round-robin",
                    max_replicas: int = 1024
                    ) -> Tuple[int, ScaleOutReport]:
    """Smallest fleet whose merged p95 meets the SLO.

    Doubles the fleet until feasible, then binary-searches the gap
    (queueing delay shrinks as replicas are added, so p95 is
    monotone in ``k`` for FIFO dispatch).  Raises
    :class:`CapacityError` when even ``max_replicas`` misses the SLO
    — the service time alone exceeds it, so no fleet can help.

    Each fleet size is simulated at most once: the doubling phase can
    land exactly on the answer the binary search would re-derive
    (``max_replicas`` clamps, and power-of-two answers generally), so
    evaluations are memoized per ``k`` for the duration of the call.
    Every fleet size plans from the call's one
    :class:`~repro.serving.degradation.PlanTable`, so each shape is
    estimated once per search.
    """
    if slo_p95_seconds <= 0.0:
        raise ConfigurationError("slo_p95_seconds must be positive")
    workload = (requests if isinstance(requests, WorkloadVector)
                else WorkloadVector.from_requests(requests))
    trace = validate_arrivals(arrivals)
    seen: dict = {}
    plans = PlanTable(estimator)

    def evaluate(k: int) -> Tuple[float, ScaleOutReport]:
        cached = seen.get(k)
        if cached is None:
            report = MultiReplicaSimulator(
                estimator, k, dispatch=dispatch).run(workload, trace,
                                                     _plans=plans)
            cached = seen[k] = (report.latency_percentile(0.95), report)
        return cached

    low = 1
    p95, report = evaluate(low)
    if p95 <= slo_p95_seconds:
        return low, report
    high = low
    while p95 > slo_p95_seconds:
        if high >= max_replicas:
            raise CapacityError(
                f"p95 {p95:.1f}s still exceeds the {slo_p95_seconds:.1f}s "
                f"SLO at {max_replicas} replicas; the per-request "
                "service time alone violates the SLO")
        low = high
        high = min(max_replicas, high * 2)
        p95, report = evaluate(high)
    best = (high, report)
    while high - low > 1:
        mid = (low + high) // 2
        p95, mid_report = evaluate(mid)
        if p95 <= slo_p95_seconds:
            high = mid
            best = (mid, mid_report)
        else:
            low = mid
    return best
