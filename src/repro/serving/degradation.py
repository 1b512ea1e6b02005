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
seed, so a degraded run is deterministic across interpreters (hash
seeds) and repeat invocations; with an idle scenario the engine
reproduces the fault-free timeline bit for bit.
:class:`DegradationController` holds the per-run reaction state the
engine consults, and :class:`PlanTable` the per-call estimates it
plans from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.estimator import InferenceEstimate, LiaEstimator
from repro.errors import CapacityError
from repro.faults.injector import (FaultInjector, FaultSignature,
                                   signature_system)
from repro.faults.spec import FaultScenario
from repro.models.workload import InferenceRequest
from repro.serving.vectorized import WorkloadVector
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
        """Every counter, in field order."""
        return {item.name: getattr(self, item.name)
                for item in fields(self)}

    @property
    def total_faults(self) -> int:
        """Total countable fault reactions (the report's headline)."""
        return (self.deferred + self.dropped + self.transfer_stalls
                + self.policy_resolves + self.batch_shrinks
                + self.unservable)


@dataclass(frozen=True)
class _ServicePlan:
    """How one request gets served under a fault signature.

    ``policies`` are the (prefill, decode) policies it is served with.
    """

    latency: float
    n_chunks: int
    shrinks: int
    resolved: bool
    policy_shifted: bool
    policies: Tuple[str, str]


#: One platform's estimates, by shape.
_Entries = Dict[InferenceRequest, Union[InferenceEstimate, CapacityError]]


class PlanTable:
    """One call's estimates: (fault signature, shape) to the estimate,
    or to the :class:`CapacityError` estimating it raised.

    The top-level serving call creates one — :func:`run_fifo`, one
    :meth:`MultiReplicaSimulator.run` or one :func:`replicas_needed`
    search — and hands it to every
    replica and fleet size it simulates, so the call estimates each
    distinct point once, on one degraded estimator per signature.  A
    signature that leaves the platform as it is (CXL contention on a
    system without CXL) shares the healthy estimates.  The table dies
    with the call: a second call starts cold.
    """

    def __init__(self, estimator: LiaEstimator) -> None:
        self.estimator = estimator
        self._platforms: Dict[FaultSignature,
                              Tuple[LiaEstimator, _Entries]] = {
            (): (estimator, {})}

    def estimate(self, signature: FaultSignature,
                 shape: InferenceRequest) -> InferenceEstimate:
        """``shape`` estimated on the platform under ``signature``;
        raises the point's :class:`CapacityError` at every ask."""
        platform = self._platforms.get(signature)
        if platform is None:
            base = self.estimator
            system = signature_system(base.system, signature)
            platform = self._platforms[signature] = (
                self._platforms[()] if system is base.system
                else (LiaEstimator(base.spec, system, base.config), {}))
        estimator, entries = platform
        entry = entries.get(shape)
        if entry is None:
            try:
                entry = estimator.estimate(shape)
            except CapacityError as error:
                entry = error
            entries[shape] = entry
        if isinstance(entry, CapacityError):
            raise entry.with_traceback(None)
        return entry

    def service_times(self, workload: WorkloadVector) -> np.ndarray:
        """Healthy per-arrival service times: the shapes the stream
        uses, estimated in one batched call, gathered onto the
        arrivals.  The first used shape that does not fit raises its
        :class:`CapacityError`."""
        used = [count > 0 for count in workload.counts().tolist()]
        estimator, entries = self._platforms[()]
        missing = [shape for shape, uses in zip(workload.shapes, used)
                   if uses and shape not in entries]
        if missing:
            entries.update(zip(missing, estimator.estimate_many(missing)))
        latency = np.array(
            [self.estimate((), shape).latency if uses else 0.0
             for shape, uses in zip(workload.shapes, used)])
        return np.take(latency, workload.codes)


class DegradationController:
    """Per-run reaction state: admission, retries, policy re-solve.

    One controller serves one ``run``.  It plans from ``plans``, the
    call's :class:`PlanTable`, and keeps the healthy plan of every
    shape it has served.
    """

    def __init__(self, plans: PlanTable, scenario: FaultScenario,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.plans = plans
        self.scenario = scenario
        self.injector = FaultInjector(scenario)
        self.telemetry = telemetry
        self.stats = FaultStats()
        self._base_plans: Dict[InferenceRequest, _ServicePlan] = {}

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
    # Service planning: policy re-solve + batch shrink
    # ------------------------------------------------------------------
    def _base_plan(self, request: InferenceRequest) -> _ServicePlan:
        plan = self._base_plans.get(request)
        if plan is None:
            estimate = self.plans.estimate((), request)
            plan = self._base_plans[request] = _ServicePlan(
                latency=estimate.latency,
                n_chunks=self._chunks(estimate),
                shrinks=0, resolved=False, policy_shifted=False,
                policies=_policies(estimate))
        return plan

    def _chunks(self, estimate: InferenceEstimate) -> int:
        if self.scenario.chunks_per_request > 0:
            return self.scenario.chunks_per_request
        streamed = (estimate.residency.n_layers
                    - estimate.residency.n_resident_layers)
        return max(1, streamed)

    def _resolve_plan(self, request: InferenceRequest,
                      signature: FaultSignature
                      ) -> Optional[_ServicePlan]:
        """The (shape, signature) plan, free of stats side effects —
        the engine resolves per segment and accounts in bulk.  Under
        faults the request is re-estimated on the degraded platform
        (policy re-solve); a :class:`CapacityError` halves the batch
        until it fits.  ``None`` means the shape does not fit the
        degraded platform even at B=1.
        """
        if not signature:
            return self._base_plan(request)
        base = self._base_plan(request)
        batch = request.batch_size
        shrinks = 0
        while True:
            attempt = (request if batch == request.batch_size
                       else replace(request, batch_size=batch))
            try:
                estimate = self.plans.estimate(signature, attempt)
            except CapacityError:
                if batch == 1:
                    return None
                batch = (batch + 1) // 2
                shrinks += 1
                continue
            pieces = math.ceil(request.batch_size / batch)
            policies = _policies(estimate)
            return _ServicePlan(
                latency=estimate.latency * pieces,
                n_chunks=self._chunks(estimate) * pieces,
                shrinks=shrinks, resolved=True,
                policy_shifted=policies != base.policies,
                policies=policies)


def _policies(estimate: InferenceEstimate) -> Tuple[str, str]:
    return str(estimate.prefill_policy), str(estimate.decode_policy)
