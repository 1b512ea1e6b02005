"""Deployment planning: the cheapest system that meets an SLO.

Automates the comparison the paper performs by hand across §7.2, §7.6,
and §7.8: given a representative workload and a set of candidate
systems, estimate each system's p95 latency under the arrival process,
discard those violating the SLO (or whose memory cannot hold the
workload), and rank the survivors by amortized $/hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.config import LiaConfig

if TYPE_CHECKING:
    from repro.faults.spec import FaultScenario
from repro.core.estimator import LiaEstimator
from repro.energy.cost import CostModel
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig, get_system
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import arrivals_poisson


@dataclass(frozen=True)
class PlanChoice:
    """One candidate's evaluation under the workload."""

    system: SystemConfig
    feasible: bool
    p95_latency: float
    usd_per_hour: float
    reason: str = ""

    @property
    def name(self) -> str:
        return self.system.name


def choose_system(spec: ModelSpec, requests: Sequence[InferenceRequest],
                  slo_p95_seconds: float,
                  candidates: Sequence[str] = ("spr-a100", "spr-h100",
                                               "gnr-a100", "gnr-h100"),
                  arrival_rate_per_s: float = 0.01,
                  config: Optional[LiaConfig] = None,
                  seed: int = 0,
                  scenario: Optional["FaultScenario"] = None
                  ) -> List[PlanChoice]:
    """Evaluate candidates; first entry is the recommended system.

    Returns every candidate's :class:`PlanChoice`, feasible ones
    first, sorted by $/hour; infeasible ones (SLO miss or OOM) follow
    with their reasons.

    ``scenario`` plans *robustly*: each candidate is judged on its
    p95 under the given fault scenario (degraded serving loop), so
    the recommendation is the cheapest system that meets the SLO even
    while degraded — the capacity question §6-7 answers for the happy
    path, asked about the unhappy one.
    """
    # Written so that NaN fails.
    if not slo_p95_seconds > 0.0:
        raise ConfigurationError("slo_p95_seconds must be positive")
    if not requests:
        raise ConfigurationError("workload must contain requests")
    config = config or LiaConfig()
    arrivals = arrivals_poisson(len(requests), arrival_rate_per_s,
                                seed=seed)
    choices: List[PlanChoice] = []
    for name in candidates:
        system = get_system(name)
        estimator = LiaEstimator(spec, system, config)
        cost = CostModel(system).usd_per_hour()
        try:
            report = ServingSimulator(estimator).run(
                requests, arrivals, scenario=scenario)
        except CapacityError as error:
            choices.append(PlanChoice(system=system, feasible=False,
                                      p95_latency=float("inf"),
                                      usd_per_hour=cost,
                                      reason=f"OOM: {error}"))
            continue
        if not report.n_served:
            choices.append(PlanChoice(
                system=system, feasible=False,
                p95_latency=float("inf"), usd_per_hour=cost,
                reason="every request shed under the fault scenario"))
            continue
        p95 = report.latency_percentile(0.95)
        if p95 > slo_p95_seconds:
            choices.append(PlanChoice(
                system=system, feasible=False, p95_latency=p95,
                usd_per_hour=cost,
                reason=f"p95 {p95:.1f}s exceeds SLO "
                       f"{slo_p95_seconds:.1f}s"))
            continue
        choices.append(PlanChoice(system=system, feasible=True,
                                  p95_latency=p95, usd_per_hour=cost))
    choices.sort(key=lambda c: (not c.feasible, c.usd_per_hour))
    return choices
