"""The §6 memory-offloading policy: parameters to CXL, KV to DDR.

For throughput-driven large-batch inference, LIA's compute policy
already assigns all parameter-dependent sublayers to the GPU; by
Observation-1, sourcing those PCIe transfers from interleaved CXL
expanders costs nothing.  The KV cache — consumed by CPU-computed
sublayers with ops/byte ~ 1 — stays in DDR (Observation-2).  The
freed DDR capacity either shrinks the memory bill (§8) or buys a
larger batch size at the same DDR footprint (Table 3: up to 1.76x
larger B, up to 1.45x higher throughput).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import LiaConfig
from repro.core.estimator import check_host_capacity, host_memory_usage
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest
from repro.telemetry.runtime import current as current_telemetry


@dataclass(frozen=True)
class CxlTieringPlan:
    """Placement outcome of the §6 policy for one request: weights in
    CXL, KV cache and activations in DDR."""

    ddr_bytes: float
    cxl_bytes: float
    ddr_bytes_without_cxl: float

    @property
    def ddr_savings_fraction(self) -> float:
        """Fraction of DDR usage removed by CXL offloading (the
        'Offloaded Percentage' column of Table 3)."""
        if self.ddr_bytes_without_cxl == 0.0:
            return 0.0
        return 1.0 - self.ddr_bytes / self.ddr_bytes_without_cxl


def plan_tiering(spec: ModelSpec, request: InferenceRequest,
                 system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> CxlTieringPlan:
    """Place one request's data across DDR and CXL pools.

    The placement is :func:`host_memory_usage` under
    :meth:`LiaConfig.with_cxl_weights`; :func:`check_host_capacity`
    raises a :class:`CapacityError` when it does not fit.  Reports the
    DDR savings against ``config``'s own placement.
    """
    if not system.has_cxl:
        raise ConfigurationError(
            f"{system.name} has no CXL expanders; use system.with_cxl()")
    config = config or LiaConfig()
    tiered = host_memory_usage(spec, request, system,
                               config.with_cxl_weights())
    check_host_capacity(tiered, system)
    baseline = host_memory_usage(spec, request, system, config)
    plan = CxlTieringPlan(
        ddr_bytes=tiered.ddr_bytes,
        cxl_bytes=tiered.cxl_bytes,
        ddr_bytes_without_cxl=baseline.ddr_bytes,
    )
    telemetry = current_telemetry()
    if telemetry is not None:
        telemetry.metrics.counter("cxl.tier_bytes", tier="ddr",
                                  system=system.name).inc(plan.ddr_bytes)
        telemetry.metrics.counter("cxl.tier_bytes", tier="cxl",
                                  system=system.name).inc(plan.cxl_bytes)
        telemetry.metrics.counter("cxl.plans",
                                  system=system.name).inc()
    return plan


def adaptive_config(spec: ModelSpec, request: InferenceRequest,
                    system: SystemConfig,
                    config: Optional[LiaConfig] = None) -> LiaConfig:
    """Choose the weight placement the way §6 prescribes.

    The paper stores parameters in CXL "when B is large" — precisely,
    when the optimal decode policy assigns the parameter-dependent
    sublayers (1, 4, 5, 6) to the GPU, so the CPU never streams
    weights and Observation-1's bandwidth parity makes the CXL hop
    free.  Below that threshold the CPU computes parameter sublayers
    and CXL-resident weights would stall AMX (Observation-2), so the
    weights stay in DDR — unless DDR alone cannot hold the request,
    in which case capacity forces the CXL placement.
    """
    from repro.core.optimizer import optimal_policy
    from repro.models.sublayers import Stage, Sublayer

    def count_decision(placement: str, reason: str) -> None:
        # DDR keeps are "hits" on the fast tier; CXL placements are
        # "misses" that the §6 policy proved (or capacity forced) to
        # be free — the telemetry ratio feeds Table 3 analyses.
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter("cxl.placement_decisions",
                                      placement=placement,
                                      reason=reason).inc()

    config = config or LiaConfig()
    if not system.has_cxl:
        count_decision("ddr", "no-cxl")
        return config
    decision = optimal_policy(spec, Stage.DECODE, request.batch_size,
                              request.input_len, system, config)
    param_sublayers_on_gpu = all(
        decision.policy.on_gpu(sub) for sub in Sublayer
        if sub.uses_parameters)
    if param_sublayers_on_gpu:
        count_decision("cxl", "policy")
        return config.with_cxl_weights()
    try:
        check_host_capacity(
            host_memory_usage(spec, request, system, config), system)
    except CapacityError:
        count_decision("cxl", "capacity")
        return config.with_cxl_weights()
    count_decision("ddr", "policy")
    return config
