"""Multi-replica scale-out over the FIFO serving engine.

The paper's Fig. 10/11 latencies answer "how fast is one box"; a
capacity planner asks "how many boxes".  :class:`MultiReplicaSimulator`
is the one FIFO fleet engine.  Without a ``chaos`` schedule or an
``autoscaler`` it simulates ``k`` independent single-server replicas
behind a dispatcher:

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

With ``chaos`` or an ``autoscaler`` the fleet runs the control-plane
loop of :mod:`repro.serving.fleet` instead (crashes, breakers,
re-dispatch, scaling) and returns a
:class:`~repro.serving.fleet.FleetReport`.

:func:`replicas_needed` binary-searches the smallest fleet meeting a
p95 SLO — the paper-faithful "how many A100 boxes do I need" sweep.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import fields
from typing import Any, List, Optional, Sequence, Tuple, Union, cast

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.faults.fleet import FleetScenario
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest, _integer
from repro.serving.degradation import FaultStats, PlanTable
from repro.serving.fleet import AutoscalerPolicy, FleetReport, simulate_fleet
from repro.serving.piecewise import serve_fifo, serve_healthy
from repro.serving.simulator import (DEFAULT_SPAN_CAP, ServingReport,
                                     _rank_index, nearest_rank,
                                     validate_stream)
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.bridge import (Extra, emit_report, request_spans,
                                    run_labels)
from repro.telemetry.metrics import StreamingHistogram
from repro.telemetry.runtime import Telemetry
from repro.telemetry.runtime import current as current_telemetry

DISPATCH_POLICIES = ("round-robin", "least-loaded")


class ScaleOutReport(ServingReport):
    """One fleet simulation: the fleet's report plus per-replica views.

    The timeline is the whole fleet's in global arrival order, so
    latency percentiles, queue delays, and throughput read exactly
    like a single-server report.  ``utilization`` is normalized by
    the fleet size (busy replica-seconds over ``k * makespan``).
    Under a fault scenario the report also carries the dropped
    requests, and ``stats`` folds the per-replica :class:`FaultStats`
    in replica-id order (integer counters sum; the two float
    accumulators add in that fixed order).
    """

    def __init__(self, workload: WorkloadVector, arrivals: np.ndarray,
                 starts: np.ndarray, finishes: np.ndarray, *,
                 per_replica: Tuple[ServingReport, ...],
                 replica_ids: Tuple[int, ...], assignment: np.ndarray,
                 dispatch: str, n_replicas: int,
                 **columns: Any) -> None:
        """``columns`` are :class:`ServingReport`'s keywords: the drop
        columns, fault stats and scenario of a degraded run."""
        super().__init__(workload, arrivals, starts, finishes, **columns)
        self.per_replica = per_replica
        #: The replica id behind each ``per_replica`` entry (replicas
        #: that were offered nothing — possible when k > n — are
        #: omitted).
        self.replica_ids = replica_ids
        self.assignment = assignment
        self.dispatch = dispatch
        self.n_replicas = n_replicas

    @property
    def utilization(self) -> float:
        """Busy replica-seconds over ``n_replicas * makespan``."""
        makespan = self.makespan
        return (self.busy_s / (self.n_replicas * makespan)
                if makespan else 0.0)


def _fold_stats(per_replica_stats: Sequence[FaultStats]) -> FaultStats:
    """Merge per-replica stats field by field, in replica-id order."""
    merged = FaultStats()
    for stats in per_replica_stats:
        for item in fields(FaultStats):
            setattr(merged, item.name, getattr(merged, item.name)
                    + getattr(stats, item.name))
    return merged


class MultiReplicaSimulator:
    """``k`` FIFO replicas behind one dispatcher.

    ``chaos`` schedules replica crashes, gray failures and restarts
    under a health-checked dispatcher; ``autoscaler`` lets the fleet
    grow and drain from ``n_replicas``.  With either, :meth:`run`
    returns a :class:`~repro.serving.fleet.FleetReport`; an idle
    ``chaos`` schedule and no autoscaler reproduce the static fleet
    bit for bit.  ``least-loaded`` dispatch is the resilient choice
    under chaos and autoscaling: it drains the backlog stranded on
    loaded replicas through whatever capacity is healthy.
    """

    def __init__(self, estimator: LiaEstimator, n_replicas: int,
                 dispatch: str = "round-robin",
                 chaos: Optional[FleetScenario] = None,
                 autoscaler: Optional[AutoscalerPolicy] = None) -> None:
        n_replicas = _fleet_size("n_replicas", n_replicas)
        if dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"dispatch must be one of {DISPATCH_POLICIES}, "
                f"got {dispatch!r}")
        if autoscaler is not None and autoscaler.min_replicas > n_replicas:
            raise ConfigurationError(
                f"autoscaler.min_replicas ({autoscaler.min_replicas})"
                f" exceeds the initial fleet size ({n_replicas})")
        self.estimator = estimator
        self.n_replicas = n_replicas
        self.dispatch = dispatch
        self.chaos = chaos
        self.autoscaler = autoscaler

    # ------------------------------------------------------------------
    def run(self, requests: Union[Sequence[InferenceRequest],
                                  WorkloadVector],
            arrivals: ArrayLike,
            scenario: Optional[FaultScenario] = None
            ) -> Union[ScaleOutReport, FleetReport]:
        """Dispatch ``requests`` over the fleet.

        ``scenario`` runs every replica under the fault layer
        (round-robin dispatch only — least-loaded assignment depends
        on every earlier finish, which shedding makes dispatch-order
        ambiguous — and not with ``chaos`` or an autoscaler).  Under an
        active telemetry the replicas record their fault events as they
        happen, and the call emits the fleet's report once, its
        per-request spans on the ``server[j]``/``queue[j]`` tracks of
        the replica that served them.
        """
        workload, trace = validate_stream(requests, arrivals)
        telemetry = current_telemetry()
        report = self._run(workload, trace, scenario,
                           PlanTable(self.estimator), telemetry)
        if telemetry is None:
            return report
        labels = run_labels(self.estimator)
        extras: List[Extra]
        if isinstance(report, FleetReport):
            stats = report.stats
            extras = [("gauge", "fleet.replicas", labels,
                       float(report.replica_counts()[-1])),
                      ("gauge", "fleet.replica_seconds", labels,
                       report.replica_seconds)]
            extras += [("counter", "fleet.control",
                        {"event": event, **labels}, value)
                       for event, value in (
                           ("retries", stats.retries), ("drops", stats.drops),
                           ("hedges", stats.hedges),
                           ("ejections", stats.breaker_ejections),
                           ("scale_ups", stats.scale_ups),
                           ("scale_downs", stats.scale_downs)) if value]
            replicas = report.assignment
        else:
            extras = [("gauge", "serving.replicas", labels,
                       report.n_replicas)]
            extras += [("gauge", "serving.replica_utilization",
                        {"replica": str(replica), **labels},
                        sub.utilization) for replica, sub in zip(
                            report.replica_ids, report.per_replica)]
            replicas = report.assignment[report.served_index]
        emit_report(telemetry, report, labels, extras,
                    request_spans(report, replicas, DEFAULT_SPAN_CAP),
                    report.n_served, "serving.replicas")
        return report

    def _run(self, workload: WorkloadVector, trace: np.ndarray,
             scenario: Optional[FaultScenario], plans: PlanTable,
             telemetry: Optional[Telemetry]
             ) -> Union[ScaleOutReport, FleetReport]:
        """:meth:`run` on a stream :func:`validate_stream` already
        checked, before its report is emitted.  Every replica plans
        from ``plans``: the run's own, or the one table of a search
        over fleet sizes; faulted ones record fault events in
        ``telemetry``."""
        if scenario is not None and scenario.idle:
            scenario = None
        controlled = self.chaos is not None or self.autoscaler is not None
        if scenario is not None and controlled:
            raise ConfigurationError(
                f"fault scenario {scenario.name!r} cannot run on a chaos "
                "or autoscaled fleet: its replicas have no fault layer")
        if scenario is not None and self.dispatch != "round-robin":
            raise ConfigurationError(
                "degraded fleet dispatch supports round-robin only: "
                "least-loaded assignment depends on every earlier "
                "finish, which admission shedding makes "
                "dispatch-order ambiguous")
        if controlled:
            return simulate_fleet(
                workload, trace, plans.service_times(workload),
                self.n_replicas, self.dispatch,
                self.chaos or FleetScenario(name="idle"),
                self.autoscaler)
        if self.dispatch == "round-robin":
            return self._run_round_robin(workload, trace, scenario,
                                         plans, telemetry)
        return self._run_least_loaded(workload, trace, plans)

    # ------------------------------------------------------------------
    def _run_round_robin(self, workload: WorkloadVector,
                         trace: np.ndarray,
                         scenario: Optional[FaultScenario],
                         plans: PlanTable,
                         telemetry: Optional[Telemetry]) -> ScaleOutReport:
        """Request *i* goes to replica ``i mod k``.

        A healthy replica is :func:`~repro.serving.piecewise.
        serve_healthy` over its substream: strided views of the
        workload codes and of the fleet's one service-time column, and
        a contiguous copy of its rows of the trace (the replica report
        keeps it, and windowed metrics re-read it).  Under a fault
        scenario each replica runs the FIFO engine with *global*
        request indices, so every RNG draw (stall outcomes, deferral
        backoff) and fault span keys exactly as a single-server run
        over the same requests would.  The split and the merge of
        healthy timelines go block by block (:func:`_split`,
        :func:`_merge`); a faulted replica's rows go back through its
        stride, or, when it dropped requests, to their global positions.
        """
        n = trace.size
        k = self.n_replicas
        live = min(k, n)
        assignment = np.tile(np.arange(live, dtype=np.int64),
                             -(-n // live))[:n]
        starts = np.empty(n)
        finishes = np.empty(n)
        parts = _split(trace, k, live)
        per_replica: List[ServingReport] = []
        if scenario is None:
            services = plans.service_times(workload)
            for replica, arrivals in enumerate(parts):
                rows = slice(replica, None, k)
                per_replica.append(serve_healthy(
                    workload.subset(rows), arrivals, services[rows]))
            _merge([sub.starts for sub in per_replica], k, starts)
            _merge([sub.finishes for sub in per_replica], k, finishes)
            return ScaleOutReport(
                workload, trace, starts, finishes,
                per_replica=tuple(per_replica),
                replica_ids=tuple(range(live)), assignment=assignment,
                dispatch=self.dispatch, n_replicas=k)
        served = np.zeros(n, dtype=bool)
        dropped_parts: List[np.ndarray] = []
        reasons: List[str] = []
        for replica, arrivals in enumerate(parts):
            rows = slice(replica, None, k)
            index = np.arange(replica, n, k, dtype=np.int64)
            sub = serve_fifo(plans, workload.subset(rows), arrivals,
                             scenario, index, telemetry)
            per_replica.append(sub)
            if sub.n_dropped:
                index_served = index[sub.served_index]
                dropped_parts.append(index[sub.dropped_index])
                reasons.extend(sub.dropped_reasons)
                starts[index_served] = sub.starts
                finishes[index_served] = sub.finishes
                served[index_served] = True
            else:
                starts[rows] = sub.starts
                finishes[rows] = sub.finishes
                served[rows] = True
        stats = _fold_stats([sub.stats for sub in per_replica
                             if sub.stats is not None])
        served_index: Optional[np.ndarray] = None
        dropped_index = np.empty(0, dtype=np.int64)
        if dropped_parts:
            served_index = np.flatnonzero(served)
            starts = starts[served_index]
            finishes = finishes[served_index]
            dropped_index = np.concatenate(dropped_parts)
            order = np.argsort(dropped_index, kind="stable")
            dropped_index = dropped_index[order]
            reasons = [reasons[i] for i in order.tolist()]
        return ScaleOutReport(
            workload, trace, starts, finishes,
            per_replica=tuple(per_replica),
            replica_ids=tuple(range(live)), assignment=assignment,
            dispatch=self.dispatch, n_replicas=k,
            served_index=served_index, dropped_index=dropped_index,
            dropped_reasons=reasons, stats=stats, scenario=scenario)

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
            workload, trace, starts, finishes,
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
    monotone in ``k`` for FIFO dispatch).  Each fleet size is
    simulated at most once — the bisection only probes sizes strictly
    between two evaluated ones — and only the best feasible report is
    kept alive between sizes.  Every fleet size plans from the call's
    one :class:`~repro.serving.degradation.PlanTable`, so each shape
    is estimated once per search.

    Under round-robin dispatch a probed size below ``max_replicas``
    is first checked against :func:`backlog_bound`: when the bound's
    p95 already exceeds the SLO by more than the streaming estimate's
    error, the size misses it and is not simulated.  The probes share
    one buffer and count the bounds within that limit instead of
    selecting the p95.  Probes, answer and report are those of
    simulating every probed size.

    Raises :class:`ConfigurationError` for an SLO that is not positive
    (NaN included; ``inf`` accepts any fleet) or a ``max_replicas``
    that is not an integer >= 1, and :class:`CapacityError` when even
    ``max_replicas`` misses the SLO; the message says whether the p95
    service time alone violates it (no fleet can help) or queueing
    does (a larger cap might).
    """
    # Written so that NaN fails; ``inf`` accepts any fleet.
    if not slo_p95_seconds > 0.0:
        raise ConfigurationError(
            f"slo_p95_seconds must be positive, got {slo_p95_seconds}")
    max_replicas = _fleet_size("max_replicas", max_replicas)
    workload, trace = validate_stream(requests, arrivals)
    plans = PlanTable(estimator)
    # A shape that does not fit raises its CapacityError here, as the
    # first simulation would.
    services = (plans.service_times(workload)
                if dispatch == "round-robin" else None)
    # Every probe folds into this one buffer (untouched, so free,
    # when nothing is probed).
    scratch = np.empty(trace.size)
    # A streaming p95 is a bucket midpoint, within one bucket below
    # the order statistic; the second factor covers the rounding of
    # the bucket index.
    bound_limit = slo_p95_seconds * StreamingHistogram.GROWTH ** 2

    def evaluate(k: int) -> Tuple[float, Optional[ScaleOutReport]]:
        """``(p95, report)`` of the k-replica fleet, or ``(inf,
        None)`` when the backlog bound alone shows it misses the
        SLO.  The cap is always simulated: its report explains a
        :class:`CapacityError`."""
        if services is not None and k < max_replicas and _bound_misses(
                trace, services, k, bound_limit, scratch):
            return math.inf, None
        report = cast(ScaleOutReport, MultiReplicaSimulator(
            estimator, k, dispatch=dispatch)._run(workload, trace, None,
                                                  plans, None))
        return report.latency_percentile(0.95), report

    low = high = 1
    p95, report = evaluate(high)
    while p95 > slo_p95_seconds:
        if high >= max_replicas:
            assert report is not None  # the cap is always simulated
            raise CapacityError(_over_slo_message(
                report, p95, slo_p95_seconds, max_replicas))
        low, high = high, min(max_replicas, high * 2)
        del report  # release before the next size runs
        p95, report = evaluate(high)
    assert report is not None  # it met the SLO, so it was simulated
    best = (high, report)
    del report
    while high - low > 1:
        mid = (low + high) // 2
        p95, mid_report = evaluate(mid)
        if p95 <= slo_p95_seconds:
            assert mid_report is not None
            high = mid
            best = (mid, mid_report)
        else:
            low = mid
        del mid_report
    return best


def backlog_bound(arrivals: np.ndarray, services: np.ndarray,
                  n_replicas: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """A lower bound on every request's healthy round-robin latency.

    Replica ``j`` serves requests ``j, j + k, j + 2k, ...``.  Its
    ``r``-th finish is at least the left fold ``c_r = (a_j + S_j) +
    S_{j+k} + ...`` of its service times from its first arrival — the
    backlog it would carry if it never idled — and ``c_r - a`` is at
    most the latency, exactly in floats: the engine computes ``f_r =
    max(a, f_{r-1}) + S``, and ``fl(x + S)`` and ``fl(x - a)`` are
    nondecreasing in ``x``, so ``c_r <= f_r`` holds step by step.  All
    replicas fold at once, as one in-place ``np.add.accumulate`` down
    the columns of the ``(n // k, k)`` matrix of the service times
    (row-major order is arrival order); the last ``n % k`` requests
    add onto the row above them.  ``out`` (``n`` floats or more)
    receives the bound, which is then its first ``n`` entries.
    """
    n = arrivals.size
    k = min(n_replicas, n)
    full = n // k * k
    bound = np.empty(n) if out is None else out[:n]
    bound[:] = services
    bound[:k] += arrivals[:k]
    head = bound[:full].reshape(-1, k)
    np.add.accumulate(head, axis=0, out=head)
    bound[full:] += bound[full - k:n - k]
    bound -= arrivals
    return bound


#: Rows per block when the healthy fleet splits a column into its
#: replicas' substreams and merges their timelines back: a block of
#: every replica's rows stays in cache while each replica's stride
#: visits it.  One strided pass per replica over the whole column
#: measured about 3x slower (1M requests over 8 replicas).
_STRIDE_BLOCK = 8192


def _split(column: np.ndarray, k: int, live: int) -> List[np.ndarray]:
    """``column[j::k]`` of every replica ``j < live``, as contiguous
    copies made block by block."""
    n = column.size
    parts = [np.empty(-(-(n - j) // k)) for j in range(live)]
    for lo in range(0, parts[0].size, _STRIDE_BLOCK):
        hi = lo + _STRIDE_BLOCK
        for j, part in enumerate(parts):
            part[lo:hi] = column[lo * k + j:hi * k:k]
    return parts


def _merge(parts: Sequence[np.ndarray], k: int, out: np.ndarray) -> None:
    """Write ``parts[j]`` to ``out[j::k]`` for every replica, block by
    block (the inverse of :func:`_split`)."""
    for lo in range(0, parts[0].size, _STRIDE_BLOCK):
        hi = lo + _STRIDE_BLOCK
        for j, part in enumerate(parts):
            out[lo * k + j:hi * k:k] = part[lo:hi]


def _bound_misses(arrivals: np.ndarray, services: np.ndarray,
                  n_replicas: int, limit: float,
                  scratch: np.ndarray) -> bool:
    """Whether the nearest-rank p95 of :func:`backlog_bound` exceeds
    ``limit``: the p95 is the ``_rank_index(n, 0.95)``-th smallest
    bound (0-based), so it does exactly when at most that many bounds
    are within ``limit``.  Counting them needs no selection and no
    copy; the bound folds into ``scratch``."""
    bound = backlog_bound(arrivals, services, n_replicas, out=scratch)
    return (int(np.count_nonzero(bound <= limit))
            <= _rank_index(arrivals.size, 0.95))


def _fleet_size(name: str, value: Any) -> int:
    """``value`` as a plain int >= 1: numpy integers are normalized;
    floats, NaN, bools and arrays raise one line naming ``name``."""
    if isinstance(value, np.ndarray):
        raise ConfigurationError(
            f"{name} must be an integer, got {value!r}")
    value = _integer(name, value)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def _over_slo_message(report: ScaleOutReport, p95: float,
                      slo_p95_seconds: float, max_replicas: int) -> str:
    """Why the ``max_replicas`` fleet still misses the SLO."""
    service_p95 = nearest_rank(report.service_times, 0.95)
    head = (f"p95 {p95:.1f}s still exceeds the {slo_p95_seconds:.1f}s "
            f"SLO at the {max_replicas}-replica cap")
    if service_p95 > slo_p95_seconds:
        return (f"{head}; the p95 service time {service_p95:.1f}s alone "
                f"violates the SLO, so no fleet can meet it")
    return (f"{head}; the p95 service time is {service_p95:.1f}s, so "
            f"queueing, not service, misses the SLO: raise max_replicas")
