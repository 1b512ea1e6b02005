"""Exhaustive reference for the fleet-size search.

:func:`repro.serving.replicas.replicas_needed` skips the simulation of
a round-robin fleet size when its backlog bound alone shows the size
misses the SLO.  :func:`replicas_needed_exhaustive` is the same search
without that shortcut: doubling then bisection, every probed size
simulated in full.  Answers, reports and errors must agree with the
library function; the differential tests and the CI capacity-search
step compare against this module.  :func:`fleet_size_summary` is the
cross-section they compare reports by.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.models.workload import InferenceRequest
from repro.serving.degradation import PlanTable
from repro.serving.replicas import (MultiReplicaSimulator, ScaleOutReport,
                                    _over_slo_message)
from repro.serving.simulator import validate_stream
from repro.serving.vectorized import WorkloadVector


def replicas_needed_exhaustive(
        estimator: LiaEstimator,
        requests: Union[Sequence[InferenceRequest], WorkloadVector],
        arrivals: Sequence[float], slo_p95_seconds: float,
        dispatch: str = "round-robin", max_replicas: int = 1024
        ) -> Tuple[int, ScaleOutReport, List[int]]:
    """``(k, report, probed sizes in probe order)``, simulating every
    size the doubling-then-bisection search probes."""
    if slo_p95_seconds <= 0.0:
        raise ConfigurationError("slo_p95_seconds must be positive")
    if max_replicas < 1:
        raise ConfigurationError(
            f"max_replicas must be >= 1, got {max_replicas}")
    workload, trace = validate_stream(requests, arrivals)
    plans = PlanTable(estimator)
    probed: List[int] = []

    def evaluate(k: int) -> Tuple[float, ScaleOutReport]:
        probed.append(k)
        report = MultiReplicaSimulator(
            estimator, k, dispatch=dispatch)._run(workload, trace, None,
                                                  plans)
        return report.latency_percentile(0.95), report

    low = high = 1
    p95, report = evaluate(high)
    while p95 > slo_p95_seconds:
        if high >= max_replicas:
            raise CapacityError(_over_slo_message(
                report, p95, slo_p95_seconds, max_replicas))
        low, high = high, min(max_replicas, high * 2)
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
    return best[0], best[1], probed


def fleet_size_summary(report: ScaleOutReport) -> dict:
    """The compact cross-section of one fleet-size cell.

    Scalars only, plus a sha256 fingerprint over the fleet's finish
    times: the bit-identity witness two searches compare.
    """
    fingerprint = hashlib.sha256(
        np.ascontiguousarray(report.finishes,
                             dtype=np.float64).tobytes()).hexdigest()
    p50, p95, p99 = report.latency_percentiles((0.50, 0.95, 0.99))
    return {
        "n_replicas": report.n_replicas,
        "n_served": report.n_served,
        "p50_s": p50,
        "p95_s": p95,
        "p99_s": p99,
        "mean_queue_delay_s": report.mean_queue_delay,
        "makespan_s": report.makespan,
        "throughput_tokens_per_s": report.throughput_tokens_per_s,
        "utilization": report.utilization,
        "fingerprint": fingerprint,
    }
