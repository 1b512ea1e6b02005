"""Graceful degradation for the serving simulator.

This module is the reaction half of the fault layer: given a seeded
:class:`~repro.faults.spec.FaultScenario`, the FIFO engine of
:mod:`repro.serving.piecewise` keeps answering requests while the
platform misbehaves, using three mechanisms:

* **Admission control / backpressure** — when the queue is deeper
  than the scenario's bound, arriving requests are deferred with
  exponential client backoff and shed (dropped, counted, reported)
  after too many deferrals.
* **Retry with timeout and exponential backoff** — transfer chunks
  that stall under an active ``pcie-stall`` window each cost a
  timeout, then retry on a backoff schedule until they go through or
  exhaust their budget (a counted chunk failure).
* **Policy re-solve fallback** — while capacity/latency faults are
  active, the request is re-estimated on the *degraded* platform, so
  the §5 policy space is re-searched (FC sublayers shift toward AMX
  when the GPU is pressured) and, if the pressured HBM can no longer
  hold the batch, the batch is halved until it fits (or the request
  is shed at B=1).

Every decision draws from per-request RNGs derived from the scenario
seed, so a degraded run is deterministic across worker counts and
repeat invocations; with an idle scenario the engine reproduces the
fault-free timeline bit for bit.  :class:`DegradationController`
holds the per-run reaction state the engine consults.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core.cache import cached_estimate
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError
from repro.faults.injector import FaultInjector, FaultSignature
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.simulator import ServingSimulator
from repro.telemetry.runtime import Telemetry


@dataclass
class FaultStats:
    """Counters of every degradation event in one run."""

    deferred: int = 0
    dropped: int = 0
    transfer_stalls: int = 0
    transfer_retries: int = 0
    transfer_failures: int = 0
    policy_resolves: int = 0
    policy_shifts: int = 0
    batch_shrinks: int = 0
    unservable: int = 0
    backoff_seconds: float = 0.0
    stall_seconds: float = 0.0
    degraded_requests: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "deferred": self.deferred,
            "dropped": self.dropped,
            "transfer_stalls": self.transfer_stalls,
            "transfer_retries": self.transfer_retries,
            "transfer_failures": self.transfer_failures,
            "policy_resolves": self.policy_resolves,
            "policy_shifts": self.policy_shifts,
            "batch_shrinks": self.batch_shrinks,
            "unservable": self.unservable,
            "backoff_seconds": self.backoff_seconds,
            "stall_seconds": self.stall_seconds,
            "degraded_requests": self.degraded_requests,
        }

    @property
    def total_faults(self) -> int:
        """Total countable fault reactions (the report's headline)."""
        return (self.deferred + self.dropped + self.transfer_stalls
                + self.policy_resolves + self.batch_shrinks
                + self.unservable)


@dataclass(frozen=True)
class _ServicePlan:
    """How one request gets served under a fault signature."""

    latency: float
    n_chunks: int
    shrinks: int
    resolved: bool
    policy_shifted: bool


#: Memo-miss sentinel for the degraded-plan cache, which stores
#: ``None`` for shapes that are unservable under a signature.
_MISSING = object()


class DegradationController:
    """Per-run reaction state: admission, retries, policy re-solve.

    One controller serves one ``run``; it memoizes service plans per
    (request shape, active-fault signature) so repeated shapes inside
    the same fault window re-use one estimate, mirroring the
    fault-free path's shape memoization.
    """

    def __init__(self, simulator: ServingSimulator,
                 scenario: FaultScenario,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.simulator = simulator
        self.scenario = scenario
        self.injector = FaultInjector(scenario)
        self.telemetry = telemetry
        self.stats = FaultStats()
        self._base_plans: Dict[InferenceRequest, _ServicePlan] = {}
        self._degraded_plans: Dict[
            Tuple[InferenceRequest, FaultSignature],
            Optional[_ServicePlan]] = {}
        self._degraded_estimators: Dict[FaultSignature, LiaEstimator] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc(amount)

    def _span(self, name: str, start: float, finish: float,
              **args: object) -> None:
        if self.telemetry is not None:
            self.telemetry.tracer.add_span(name, "faults", start,
                                           finish, **args)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, arrival: float, index: int,
              pending_finishes: Sequence[float]) -> Optional[float]:
        """Admission decision for the request arriving at ``arrival``.

        Returns the effective (possibly deferred) arrival time, or
        ``None`` when the request is shed.  Queue depth counts
        previously *admitted* requests still unfinished at the probe
        time — shed requests never enter ``pending_finishes`` and a
        still-deferred request has not been admitted yet, so neither
        can inflate the depth another request probes against.  Each
        deferral waits one exponential-backoff step; the final probe
        that ends in a shed adds no backoff (``backoff_seconds``
        counts exactly ``max_deferrals`` delays for a shed request).

        ``pending_finishes`` is nondecreasing (FIFO finishes are), so
        the probe is a binary search — the count it returns is
        provably equal to the linear scan ``sum(1 for f in
        pending_finishes if f > effective)`` (regression-tested),
        which is what makes million-request admission-controlled runs
        tractable.
        """
        admission = self.scenario.admission
        if not admission.enabled:
            return arrival
        effective = arrival
        for attempt in range(admission.max_deferrals + 1):
            depth = (len(pending_finishes)
                     - bisect_right(pending_finishes, effective))
            if depth < admission.max_queue_depth:
                return effective
            if attempt == admission.max_deferrals:
                break
            delay = self.scenario.retry.backoff_delay(attempt)
            self.stats.deferred += 1
            self.stats.backoff_seconds += delay
            self._count("faults.admission.deferred")
            self._count("faults.backoff_seconds", delay)
            self._span(f"defer:req{index}", effective, effective + delay,
                       attempt=attempt, depth=depth)
            effective += delay
        self.stats.dropped += 1
        self._count("faults.admission.dropped")
        return None

    # ------------------------------------------------------------------
    # Service planning: policy re-solve + batch shrink
    # ------------------------------------------------------------------
    def _base_plan(self, request: InferenceRequest) -> _ServicePlan:
        plan = self._base_plans.get(request)
        if plan is None:
            estimate = cached_estimate(self.simulator.estimator,
                                       request)
            plan = _ServicePlan(
                latency=estimate.latency,
                n_chunks=self._chunks(estimate),
                shrinks=0, resolved=False, policy_shifted=False)
            self._base_plans[request] = plan
        return plan

    def _chunks(self, estimate) -> int:
        if self.scenario.chunks_per_request > 0:
            return self.scenario.chunks_per_request
        streamed = (estimate.residency.n_layers
                    - estimate.residency.n_resident_layers)
        return max(1, streamed)

    def _degraded_estimator(self,
                            signature: FaultSignature,
                            time: float) -> LiaEstimator:
        estimator = self._degraded_estimators.get(signature)
        if estimator is None:
            base = self.simulator.estimator
            system = self.injector.degraded_system(base.system, time)
            estimator = LiaEstimator(base.spec, system, base.config)
            self._degraded_estimators[signature] = estimator
        return estimator

    def _resolve_plan(self, request: InferenceRequest,
                      signature: FaultSignature,
                      time: float) -> Optional[_ServicePlan]:
        """The memoized (shape, signature) plan, free of stats side
        effects — the engine resolves per segment and accounts in
        bulk.  Under faults the request is re-estimated on the
        degraded platform (policy re-solve); a :class:`CapacityError`
        halves the batch until it fits.  ``None`` (memoized too)
        means the shape does not fit the degraded platform even at
        B=1.
        """
        if not signature:
            return self._base_plan(request)
        key = (request, signature)
        memo = self._degraded_plans.get(key, _MISSING)
        if memo is not _MISSING:
            return memo  # type: ignore[return-value]
        estimator = self._degraded_estimator(signature, time)
        base = self._base_plan_policy(request)
        batch = request.batch_size
        shrinks = 0
        plan: Optional[_ServicePlan] = None
        while True:
            attempt = (request if batch == request.batch_size
                       else replace(request, batch_size=batch))
            try:
                estimate = cached_estimate(estimator, attempt)
            except CapacityError:
                if batch == 1:
                    break
                batch = (batch + 1) // 2
                shrinks += 1
                continue
            pieces = math.ceil(request.batch_size / batch)
            shifted = (str(estimate.decode_policy) != base[1]
                       or str(estimate.prefill_policy) != base[0])
            plan = _ServicePlan(
                latency=estimate.latency * pieces,
                n_chunks=self._chunks(estimate) * pieces,
                shrinks=shrinks, resolved=True,
                policy_shifted=shifted)
            break
        self._degraded_plans[key] = plan
        return plan

    def _base_plan_policy(self,
                          request: InferenceRequest) -> Tuple[str, str]:
        estimate = cached_estimate(self.simulator.estimator, request)
        return str(estimate.prefill_policy), str(estimate.decode_policy)

    def _note_plan(self, plan: _ServicePlan, index: int,
                   start: float) -> None:
        self.stats.policy_resolves += 1
        self._count("faults.policy_resolves")
        if plan.policy_shifted:
            self.stats.policy_shifts += 1
            self._count("faults.policy_shifts")
        if plan.shrinks:
            self.stats.batch_shrinks += plan.shrinks
            self._count("faults.batch_shrinks", plan.shrinks)
            self._span(f"shrink:req{index}", start, start,
                       halvings=plan.shrinks)
