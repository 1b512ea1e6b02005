"""Per-request loop references for the FIFO serving engine.

:func:`repro.serving.piecewise.run_fifo` serves a whole stream with
array kernels over piecewise-Lindley segments.  The functions here
serve the same stream one request at a time, in plain Python, the way
the recurrence reads on paper:

* :func:`run_loop` — the healthy FIFO queue (``start = max(arrival,
  free_at)``, ``finish = start + service``) with a per-run shape memo;
* :func:`run_degraded` — the same loop under a fault scenario:
  admission control, the policy re-solve/batch-shrink plan, and the
  transfer-stall retry penalty, request by request;
* :class:`Planner` — the §5 re-solve as a scalar loop: one estimate
  per attempt on the degraded platform, halving the batch until it
  fits, with no help from the engine's plan columns;
* :func:`chunk_stalls` / :func:`retry_succeeds` — one request's
  transfer-stall draws, one fresh :func:`rng_for` generator
  per key, which :func:`transfer_penalty` folds and the engine's block
  of draws (``piecewise._stall_outcomes``) must replay;
* :func:`run_admission_sequential` — the fault-injected loop with the
  engine's kernel signature, so a test can run it beside the engine's
  batched depth probes and admission rounds on one controller type;
* :func:`run_fleet_loop` — round-robin replicas of
  :func:`serve_degraded`, merged back into arrival order.

Their reports (:class:`LoopReport`) hold per-request records and fold
every statistic left to right with ``functools.reduce``, so the
engine's columnar :class:`~repro.serving.simulator.ServingReport`
must agree with them bit for bit.  The parity tests and the CI parity
sweep compare against this module.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import InferenceEstimate, LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.faults.injector import (FaultInjector, FaultSignature,
                                   signature_system)
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.degradation import (DegradationController, FaultStats,
                                       PlanTable)
from repro.serving.piecewise import _SHED_REASON, _UNSERVABLE_REASON
from repro.serving.simulator import (DroppedRequest, ServedRequest,
                                     ServingSimulator, validate_arrivals)
from repro.serving.vectorized import WorkloadVector
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import current as current_telemetry
from repro.telemetry.spans import Span


def left_sum(values: Sequence[float]) -> float:
    """``((v0 + v1) + v2) + ...`` — an explicit left fold.

    Python 3.12's ``sum()`` of floats is compensated (Neumaier), so it
    no longer reproduces a scalar loop's running total.
    """
    return functools.reduce(operator.add, values) if values else 0.0


@dataclass
class LoopReport:
    """Per-request records of one loop run, with list statistics."""

    served: List[ServedRequest]
    dropped: List[DroppedRequest] = field(default_factory=list)
    stats: Optional[FaultStats] = None
    scenario: Optional[FaultScenario] = None
    #: Positions of ``served`` / ``dropped`` in the offered stream.
    served_index: List[int] = field(default_factory=list)
    dropped_index: List[int] = field(default_factory=list)
    #: Servers the busy time is shared by (a fleet's replica count).
    n_replicas: int = 1

    @property
    def makespan(self) -> float:
        return max((r.finish for r in self.served), default=0.0)

    @property
    def utilization(self) -> float:
        busy = left_sum([r.finish - r.start for r in self.served])
        return (busy / (self.n_replicas * self.makespan)
                if self.makespan else 0.0)

    @property
    def throughput_tokens_per_s(self) -> float:
        tokens = sum(r.request.total_generated_tokens for r in self.served)
        return tokens / self.makespan if self.makespan else 0.0

    @property
    def mean_queue_delay(self) -> float:
        if not self.served:
            return 0.0
        return (left_sum([r.queue_delay for r in self.served])
                / len(self.served))

    def latency_percentile(self, fraction: float) -> float:
        """Nearest rank: the ``ceil(fraction * n)``-th smallest."""
        ordered = sorted(r.latency for r in self.served)
        rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
        return ordered[rank - 1]

    def summary(self, percentiles: Sequence[float] = (0.50, 0.95, 0.99)
                ) -> dict:
        result = {
            "utilization": self.utilization,
            "mean_queue_delay_s": self.mean_queue_delay,
            "makespan_s": self.makespan,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
        }
        for fraction in percentiles:
            result[f"p{round(fraction * 100)}"] = (
                self.latency_percentile(fraction))
        return result

    @property
    def n_offered(self) -> int:
        return len(self.served) + len(self.dropped)

    @property
    def drop_rate(self) -> float:
        return len(self.dropped) / self.n_offered if self.n_offered else 0.0


# ----------------------------------------------------------------------
# Telemetry, one request at a time
# ----------------------------------------------------------------------
def report_to_metrics(report: LoopReport, metrics: MetricsRegistry,
                      system: str = "", model: str = "") -> None:
    """The ``serving.*`` histograms, counters and gauges, observed per
    request."""
    labels = {}
    if system:
        labels["system"] = system
    if model:
        labels["model"] = model
    queue = metrics.histogram("serving.queue_delay_s", **labels)
    service = metrics.histogram("serving.service_time_s", **labels)
    latency = metrics.histogram("serving.latency_s", **labels)
    requests = metrics.counter("serving.requests", **labels)
    tokens = metrics.counter("serving.generated_tokens", **labels)
    for served in report.served:
        queue.observe(served.queue_delay)
        service.observe(served.finish - served.start)
        latency.observe(served.latency)
        requests.inc()
        tokens.inc(served.request.total_generated_tokens)
    metrics.gauge("serving.utilization", **labels).set(report.utilization)
    metrics.gauge("serving.makespan_s", **labels).set(report.makespan)


def report_to_spans(report: LoopReport) -> List[Span]:
    """A ``queue`` span for every wait and a ``server`` span for every
    service interval, for every served request."""
    spans: List[Span] = []
    for index, served in enumerate(report.served):
        name = f"request[{index}]"
        if served.queue_delay > 0.0:
            spans.append(Span(name=name, track="queue",
                              start=served.arrival, finish=served.start,
                              args={"queue_delay_s": served.queue_delay}))
        spans.append(Span(
            name=name, track="server",
            start=served.start, finish=served.finish,
            args={"batch": served.request.batch_size,
                  "input_len": served.request.input_len,
                  "output_len": served.request.output_len,
                  "latency_s": served.latency}))
    return spans


def _emit(simulator: ServingSimulator, report: LoopReport) -> None:
    telemetry = current_telemetry()
    if telemetry is None:
        return
    report_to_metrics(report, telemetry.metrics,
                      system=simulator.estimator.system.name,
                      model=simulator.estimator.spec.name)
    for span in report_to_spans(report):
        telemetry.tracer.add_span(span.name, span.track, span.start,
                                  span.finish, **span.args)


# ----------------------------------------------------------------------
# The healthy loop
# ----------------------------------------------------------------------
def run_loop(simulator: ServingSimulator,
             requests: Sequence[InferenceRequest],
             arrivals: Sequence[float]) -> LoopReport:
    """Serve ``requests`` one at a time through the FIFO queue."""
    if len(requests) != len(arrivals):
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    validate_arrivals(arrivals)
    telemetry = current_telemetry()
    served: List[ServedRequest] = []
    free_at = 0.0
    latency_by_shape: Dict[InferenceRequest, float] = {}
    for request, arrival in zip(requests, arrivals):
        start = max(arrival, free_at)
        service = latency_by_shape.get(request)
        if service is None:
            service = simulator.estimator.estimate(request).latency
            latency_by_shape[request] = service
            if telemetry is not None:
                telemetry.metrics.counter(
                    "serving.estimates", result="computed").inc()
        elif telemetry is not None:
            telemetry.metrics.counter(
                "serving.estimates", result="memoized").inc()
        finish = start + service
        served.append(ServedRequest(request=request, arrival=arrival,
                                    start=start, finish=finish))
        free_at = finish
    report = LoopReport(served, served_index=list(range(len(served))))
    _emit(simulator, report)
    return report


# ----------------------------------------------------------------------
# The fault-injected loop
# ----------------------------------------------------------------------
def admit(controller: DegradationController, arrival: float, index: int,
          pending_finishes: Sequence[float]) -> Optional[float]:
    """Admission decision for the request arriving at ``arrival``.

    Returns the effective (possibly deferred) arrival time, or
    ``None`` when the request is shed.  Queue depth counts previously
    *admitted* requests still unfinished at the probe time — shed
    requests never enter ``pending_finishes`` and a still-deferred
    request has not been admitted yet, so neither can inflate the
    depth another request probes against.  Each deferral waits one
    exponential-backoff step; the final probe that ends in a shed adds
    no backoff (``backoff_seconds`` counts exactly ``max_deferrals``
    delays for a shed request).

    ``pending_finishes`` is nondecreasing (FIFO finishes are), so the
    probe is a binary search, equal to the linear scan ``sum(1 for f
    in pending_finishes if f > effective)``.
    """
    scenario = controller.scenario
    admission = scenario.admission
    if not admission.enabled:
        return arrival
    stats = controller.stats
    effective = arrival
    for attempt in range(admission.max_deferrals + 1):
        depth = (len(pending_finishes)
                 - bisect_right(pending_finishes, effective))
        if depth < admission.max_queue_depth:
            return effective
        if attempt == admission.max_deferrals:
            break
        delay = scenario.retry.backoff_delay(attempt)
        stats.deferred += 1
        stats.backoff_seconds += delay
        controller._count("faults.admission.deferred")
        controller._count("faults.backoff_seconds", delay)
        controller._span(f"defer:req{index}", effective, effective + delay,
                         attempt=attempt, depth=depth)
        effective += delay
    stats.dropped += 1
    controller._count("faults.admission.dropped")
    return None


@dataclass(frozen=True)
class Plan:
    """How one request is served under a fault signature."""

    latency: float
    n_chunks: int
    shrinks: int
    shifted: bool


class Planner:
    """The §5 policy re-solve, one scalar estimate at a time.

    Under a fault signature a request is re-estimated on the degraded
    platform, so Eq. (1) is searched again there.  If the pressured
    platform cannot hold the batch, the batch is halved until it fits,
    and the request is served as ``pieces`` halved batches back to
    back.  The plan's policies *shift* when they differ from the
    healthy estimate's.  Each (request, signature) plan is computed
    once per run.
    """

    def __init__(self, estimator: LiaEstimator,
                 scenario: FaultScenario) -> None:
        self.scenario = scenario
        self._estimators: Dict[FaultSignature, LiaEstimator] = {
            (): estimator}
        self._plans: Dict[Tuple[InferenceRequest, FaultSignature],
                          Optional[Plan]] = {}

    def estimate(self, signature: FaultSignature,
                 request: InferenceRequest) -> InferenceEstimate:
        """``request`` on the platform under ``signature``; raises its
        :class:`CapacityError` when it does not fit."""
        estimator = self._estimators.get(signature)
        if estimator is None:
            base = self._estimators[()]
            estimator = self._estimators[signature] = LiaEstimator(
                base.spec, signature_system(base.system, signature),
                base.config)
        return estimator.estimate(request)

    def chunks(self, estimate: InferenceEstimate) -> int:
        """Transfer chunks of one pass: the scenario's fixed count, or
        one per streamed (non-resident) layer."""
        if self.scenario.chunks_per_request > 0:
            return self.scenario.chunks_per_request
        residency = estimate.residency
        return max(1, residency.n_layers - residency.n_resident_layers)

    def plan(self, request: InferenceRequest,
             signature: FaultSignature) -> Optional[Plan]:
        """The plan of ``request`` under ``signature``; ``None`` when it
        does not fit the degraded platform even at B=1.  A request too
        large for the healthy platform raises its
        :class:`CapacityError`."""
        key = (request, signature)
        if key not in self._plans:
            self._plans[key] = self._solve(request, signature)
        return self._plans[key]

    def _solve(self, request: InferenceRequest,
               signature: FaultSignature) -> Optional[Plan]:
        healthy = self.estimate((), request)
        if not signature:
            return Plan(healthy.latency, self.chunks(healthy), 0, False)
        batch = request.batch_size
        shrinks = 0
        while True:
            try:
                estimate = self.estimate(
                    signature, replace(request, batch_size=batch))
                break
            except CapacityError:
                if batch == 1:
                    return None
                batch = (batch + 1) // 2
                shrinks += 1
        pieces = math.ceil(request.batch_size / batch)
        return Plan(
            latency=estimate.latency * pieces,
            n_chunks=self.chunks(estimate) * pieces, shrinks=shrinks,
            shifted=(str(estimate.prefill_policy),
                     str(estimate.decode_policy))
            != (str(healthy.prefill_policy), str(healthy.decode_policy)))


def note_plan(controller: DegradationController, plan: Plan, index: int,
              start: float) -> None:
    """Account one request served on a re-solved plan."""
    controller.stats.policy_resolves += 1
    controller._count("faults.policy_resolves")
    if plan.shifted:
        controller.stats.policy_shifts += 1
        controller._count("faults.policy_shifts")
    if plan.shrinks:
        controller.stats.batch_shrinks += plan.shrinks
        controller._count("faults.batch_shrinks", plan.shrinks)
        controller._span(f"shrink:req{index}", start, start,
                         halvings=plan.shrinks)


def rng_for(scenario: FaultScenario, index: int) -> random.Random:
    """A fresh deterministic RNG for decision ``index`` of
    ``scenario``, seeded with :meth:`FaultScenario.rng_key`."""
    if index < 0:
        raise ConfigurationError(f"index must be >= 0, got {index}")
    return random.Random(scenario.rng_key(index))


def chunk_stalls(injector: FaultInjector, time: float, index: int,
                 n_chunks: int) -> Tuple[int, ...]:
    """Indices of the transfer chunks that stall for request ``index``
    when its service starts at ``time``.

    Deterministic in (scenario seed, request index): the draw uses
    :func:`rng_for`, never a shared RNG stream.
    """
    if n_chunks < 0:
        raise ConfigurationError(f"n_chunks must be >= 0, got {n_chunks}")
    probability = injector.stall_probability(time)
    if probability <= 0.0 or n_chunks == 0:
        return ()
    rng = rng_for(injector.scenario, index)
    return tuple(chunk for chunk in range(n_chunks)
                 if rng.random() < probability)


def retry_succeeds(injector: FaultInjector, index: int, chunk: int,
                   attempt: int, time: float) -> bool:
    """Whether retry ``attempt`` of a stalled chunk goes through.

    Derives a fresh deterministic RNG from (request, chunk, attempt)
    so the outcome is stable under any execution order.
    """
    probability = injector.stall_probability(time)
    if probability <= 0.0:
        return True
    rng = rng_for(injector.scenario,
                  (index + 1) * 1_000_003 + chunk * 1_009 + attempt)
    return rng.random() >= probability


def transfer_penalty(controller: DegradationController, start: float,
                     index: int, n_chunks: int) -> float:
    """Extra seconds request ``index`` spends on stalled chunks.

    Each stalled chunk costs one timeout, then retries on the
    exponential-backoff schedule; a retry that stalls again costs
    another timeout.  Chunks whose retry budget runs out are counted
    as failures.
    """
    retry = controller.scenario.retry
    stats = controller.stats
    injector = controller.injector
    stalled = chunk_stalls(injector, start, index, n_chunks)
    penalty = 0.0
    for chunk in stalled:
        stats.transfer_stalls += 1
        controller._count("faults.transfer.stalls")
        at = start + penalty
        penalty += retry.timeout_s
        stats.stall_seconds += retry.timeout_s
        controller._span(f"stall:req{index}:chunk{chunk}", at,
                         at + retry.timeout_s, chunk=chunk)
        recovered = False
        for attempt in range(retry.max_retries):
            delay = retry.backoff_delay(attempt)
            at = start + penalty
            penalty += delay
            stats.transfer_retries += 1
            stats.backoff_seconds += delay
            controller._count("faults.transfer.retries")
            controller._count("faults.backoff_seconds", delay)
            controller._span(f"backoff:req{index}:chunk{chunk}", at,
                             at + delay, attempt=attempt)
            if retry_succeeds(injector, index, chunk, attempt, start):
                recovered = True
                break
            penalty += retry.timeout_s
            stats.stall_seconds += retry.timeout_s
            controller._span(f"stall:req{index}:chunk{chunk}",
                             at + delay, at + delay + retry.timeout_s,
                             chunk=chunk, attempt=attempt)
        if not recovered:
            stats.transfer_failures += 1
            controller._count("faults.transfer.failures")
    return penalty


def run_degraded(simulator: ServingSimulator,
                 requests: Sequence[InferenceRequest],
                 arrivals: Sequence[float],
                 scenario: FaultScenario) -> LoopReport:
    """Serve ``requests`` one at a time under ``scenario``, then emit
    the report's telemetry."""
    report = serve_degraded(simulator, requests, arrivals, scenario,
                            None)
    telemetry = current_telemetry()
    if telemetry is not None:
        distinct = len(set(requests))
        counter = telemetry.metrics.counter
        counter("serving.estimates", result="computed").inc(distinct)
        if len(requests) > distinct:
            counter("serving.estimates", result="memoized").inc(
                len(requests) - distinct)
        _emit(simulator, report)
        telemetry.metrics.gauge(
            "faults.dropped_requests",
            scenario=scenario.name).set(len(report.dropped))
    return report


def serve_degraded(simulator: ServingSimulator,
                   requests: Sequence[InferenceRequest],
                   arrivals: Sequence[float], scenario: FaultScenario,
                   indices: Optional[Sequence[int]]) -> LoopReport:
    """The loop of :func:`run_degraded`, recording only its fault
    events; ``indices`` relabels each position with a global request
    index (RNG keys and span names)."""
    if len(requests) != len(arrivals):
        raise ConfigurationError(
            "requests and arrivals must have equal length")
    trace = validate_arrivals(arrivals)
    # A request too large for the healthy platform raises its
    # CapacityError before anything is served (first occurrence
    # first), even when admission would shed it.
    for request in dict.fromkeys(requests):
        simulator.estimator.estimate(request)
    controller = DegradationController(PlanTable(simulator.estimator),
                                       scenario, current_telemetry())
    served, starts, finishes, dropped, reasons = run_admission_sequential(
        controller, WorkloadVector.from_requests(requests), trace,
        None if indices is None else np.asarray(indices, dtype=np.int64))
    return LoopReport(
        [ServedRequest(request=requests[p], arrival=arrivals[p],
                       start=start, finish=finish)
         for p, start, finish in zip(served.tolist(), starts.tolist(),
                                     finishes.tolist())],
        [DroppedRequest(request=requests[p], arrival=arrivals[p],
                        reason=reason)
         for p, reason in zip(dropped.tolist(), reasons)],
        stats=controller.stats, scenario=scenario,
        served_index=served.tolist(), dropped_index=dropped.tolist())


def run_admission_sequential(controller: DegradationController,
                             workload: WorkloadVector, trace: np.ndarray,
                             idx: Optional[np.ndarray]
                             ) -> Tuple[np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray,
                                        List[str]]:
    """The fault-injected FIFO queue, one request at a time.

    Each request goes through the sequential :func:`admit`, is planned
    by a :class:`Planner` of its own at its start time's signature,
    and draws its stalls through :func:`transfer_penalty`; only the
    estimator comes from ``controller``.  ``idx`` relabels positions
    with global request indices.  Returns ``(served positions, starts,
    finishes, dropped positions, drop reasons)``.
    """
    stats = controller.stats
    injector = controller.injector
    planner = Planner(controller.plans.estimator, controller.scenario)
    requests = workload.to_requests()
    served_positions: List[int] = []
    starts: List[float] = []
    finishes: List[float] = []
    dropped_positions: List[int] = []
    reasons: List[str] = []
    free_at = 0.0
    for position, arrival in enumerate(trace.tolist()):
        index = position if idx is None else int(idx[position])
        effective = admit(controller, arrival, index, finishes)
        if effective is None:
            dropped_positions.append(position)
            reasons.append(_SHED_REASON)
            continue
        start = max(effective, free_at)
        signature = injector.performance_signature(start)
        plan = planner.plan(requests[position], signature)
        if plan is None:
            stats.unservable += 1
            controller._count("faults.unservable")
            dropped_positions.append(position)
            reasons.append(_UNSERVABLE_REASON)
            continue
        if signature:
            note_plan(controller, plan, index, start)
        penalty = transfer_penalty(controller, start, index,
                                   plan.n_chunks)
        if signature or penalty > 0.0:
            stats.degraded_requests += 1
        finish = start + plan.latency + penalty
        served_positions.append(position)
        starts.append(start)
        finishes.append(finish)
        free_at = finish
    return (np.array(served_positions, dtype=np.int64),
            np.array(starts, dtype=np.float64),
            np.array(finishes, dtype=np.float64),
            np.array(dropped_positions, dtype=np.int64), reasons)


# ----------------------------------------------------------------------
# Round-robin fleet of loops
# ----------------------------------------------------------------------
def fold_stats(per_replica: Sequence[FaultStats]) -> FaultStats:
    """Per-replica stats summed in replica-id order."""
    merged = FaultStats()
    for stats in per_replica:
        for key, value in stats.as_dict().items():
            setattr(merged, key, getattr(merged, key) + value)
    return merged


def run_fleet_loop(simulator: ServingSimulator, workload: WorkloadVector,
                   arrivals: Sequence[float], scenario: FaultScenario,
                   n_replicas: int) -> LoopReport:
    """Request *i* to replica ``i mod k``; each replica is
    :func:`serve_degraded` over its substream with global indices, and
    the records merge back into offered order."""
    requests = workload.to_requests()
    arrivals = list(arrivals)
    served: List[Tuple[int, ServedRequest]] = []
    dropped: List[Tuple[int, DroppedRequest]] = []
    stats: List[FaultStats] = []
    for replica in range(min(n_replicas, len(requests))):
        index = list(range(replica, len(requests), n_replicas))
        sub = serve_degraded(simulator, [requests[i] for i in index],
                             [arrivals[i] for i in index], scenario,
                             index)
        served += [(index[p], r)
                   for p, r in zip(sub.served_index, sub.served)]
        dropped += [(index[p], d)
                    for p, d in zip(sub.dropped_index, sub.dropped)]
        assert sub.stats is not None
        stats.append(sub.stats)
    served.sort(key=lambda item: item[0])
    dropped.sort(key=lambda item: item[0])
    return LoopReport(
        served=[record for __, record in served],
        dropped=[record for __, record in dropped],
        stats=fold_stats(stats), scenario=scenario,
        served_index=[position for position, __ in served],
        dropped_index=[position for position, __ in dropped],
        n_replicas=n_replicas)


def loop_timeseries(report: LoopReport, **kwargs):
    """:func:`repro.telemetry.timeseries.compute_timeseries` over the
    per-request records (dropped requests fill the ``dropped``
    channel), for comparison with ``timeseries_from_report``."""
    from repro.telemetry.timeseries import compute_timeseries

    served = report.served
    dropped = ([d.arrival for d in report.dropped]
               if report.stats is not None else None)
    return compute_timeseries(
        np.array([r.arrival for r in served]),
        np.array([r.start for r in served]),
        np.array([r.finish for r in served]),
        weights={"tokens": np.array(
            [float(r.request.total_generated_tokens) for r in served])},
        dropped_arrivals=(np.array(dropped) if dropped is not None
                          else None),
        **kwargs)
