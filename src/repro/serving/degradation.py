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

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
        self._services: Optional[Tuple[WorkloadVector, np.ndarray]] = None

    def entries(self, signature: FaultSignature,
                shapes: Sequence[InferenceRequest]
                ) -> List[Union[InferenceEstimate, CapacityError]]:
        """``shapes`` estimated on the platform under ``signature``, each
        as its estimate or the :class:`CapacityError` estimating it
        raised; the shapes not yet estimated go in one batched call."""
        platform = self._platforms.get(signature)
        if platform is None:
            base = self.estimator
            system = signature_system(base.system, signature)
            platform = self._platforms[signature] = (
                self._platforms[()] if system is base.system
                else (LiaEstimator(base.spec, system, base.config), {}))
        estimator, entries = platform
        missing = [shape for shape in dict.fromkeys(shapes)
                   if shape not in entries]
        if missing:
            entries.update(zip(missing, estimator.estimate_many(missing)))
        return [entries[shape] for shape in shapes]

    def estimate(self, signature: FaultSignature,
                 shape: InferenceRequest) -> InferenceEstimate:
        """``shape`` estimated on the platform under ``signature``;
        raises the point's :class:`CapacityError` at every ask."""
        entry, = self.entries(signature, [shape])
        return _checked(entry)

    def used_estimates(self, workload: WorkloadVector
                       ) -> List[InferenceEstimate]:
        """Healthy estimates of the shapes the stream uses, in
        ``workload.shapes`` order, from one batched call.  The first
        used shape that does not fit raises its
        :class:`CapacityError`."""
        used = np.flatnonzero(workload.counts()).tolist()
        return [_checked(entry) for entry in self.entries(
            (), [workload.shapes[code] for code in used])]

    def service_times(self, workload: WorkloadVector) -> np.ndarray:
        """Healthy per-arrival service times: :meth:`used_estimates`
        gathered onto the arrivals.

        The table keeps the last workload's column, read-only, so a
        search over fleet sizes gathers it once for all of them.
        """
        if self._services is not None and self._services[0] is workload:
            return self._services[1]
        latency = np.zeros(len(workload.shapes))
        latency[np.flatnonzero(workload.counts())] = [
            estimate.latency for estimate in self.used_estimates(workload)]
        times = np.take(latency, workload.codes)
        times.flags.writeable = False
        self._services = (workload, times)
        return times


def _checked(entry: Union[InferenceEstimate, CapacityError]
            ) -> InferenceEstimate:
    """A :class:`PlanTable` entry's estimate; raises its
    :class:`CapacityError`."""
    if isinstance(entry, CapacityError):
        raise entry.with_traceback(None)
    return entry


class DegradationController:
    """Per-run reaction state: admission, retries, policy re-solve.

    One controller serves one ``run``: it holds the run's
    :class:`FaultStats` and fault injector, and ``plans``, the call's
    :class:`PlanTable`; its fault spans and counters go to
    ``telemetry`` as they happen.
    """

    def __init__(self, plans: PlanTable, scenario: FaultScenario,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.plans = plans
        self.scenario = scenario
        self.injector = FaultInjector(scenario)
        self.telemetry = telemetry
        self.stats = FaultStats()

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc(amount)

    def _span(self, name: str, start: float, finish: float,
              **args: object) -> None:
        if self.telemetry is not None:
            self.telemetry.tracer.add_span(name, "faults", start,
                                           finish, **args)
