"""Naive data offloading (DeepSpeed-Inference / Accelerate style, §3.1).

Everything computes on the GPU; weights (and, when the GPU overflows,
KV cache and activations) stream over PCIe every layer.  No compute
offloading, no policy optimization.  This is the configuration behind
Fig. 3's transfer-dominance analysis and the §8 3xV100 alternative.

For multi-GPU data-offload systems (the §8 3xV100 box) the GPUs are
pooled: aggregate compute, memory, and one PCIe link each (aggregate
transfer bandwidth), the most charitable treatment — the paper notes
it even ignores inter-GPU communication.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.baselines.flexgen import FlexGenEstimator, FlexGenSettings
from repro.core.config import LiaConfig
from repro.core.estimator import (EstimateOrError, InferenceEstimate,
                                  only_estimate)
from repro.errors import CapacityError
from repro.hardware.interconnect import Link
from repro.hardware.memory import MemoryDevice
from repro.hardware.roofline import ComputeEngine
from repro.hardware.gpu import GpuSpec
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest


def _pool_gpus(system: SystemConfig) -> SystemConfig:
    """Fold a homogeneous multi-GPU system into one virtual GPU."""
    if system.n_gpus == 1:
        return system
    gpu = system.gpu
    n = system.n_gpus
    pooled_memory = MemoryDevice(
        name=f"{gpu.memory.name}x{n}",
        kind=gpu.memory.kind,
        capacity_bytes=gpu.memory.capacity_bytes * n,
        bandwidth=gpu.memory.bandwidth * n,
        latency=gpu.memory.latency,
        cost_per_gb=gpu.memory.cost_per_gb,
    )
    pooled_engine = ComputeEngine(
        name=f"{gpu.engine.name}x{n}",
        peak_flops=gpu.engine.peak_flops * n,
        mem_bandwidth=pooled_memory.bandwidth,
        efficiency=gpu.engine.efficiency,
        dispatch_overhead=gpu.engine.dispatch_overhead,
    )
    pooled_gpu = GpuSpec(
        name=f"{gpu.name}x{n}", engine=pooled_engine,
        memory=pooled_memory, host_link=gpu.host_link,
        tdp_watts=gpu.tdp_watts * n, price_usd=gpu.price_usd * n)
    pooled_link = Link(f"{system.host_link.name}x{n}",
                       bandwidth=system.host_link.bandwidth * n,
                       setup_latency=system.host_link.setup_latency)
    return SystemConfig(
        name=f"{system.name}-pooled", cpu=system.cpu, gpus=(pooled_gpu,),
        host_link=pooled_link, cxl_devices=system.cxl_devices,
        platform_power_watts=system.platform_power_watts,
        platform_price_usd=system.platform_price_usd)


class DataOffloadEstimator:
    """FlexGen minus compute offloading: pure memory offloading."""

    framework_name = "data-offload"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> None:
        pooled = _pool_gpus(system)
        settings = FlexGenSettings(compute_offload=False)
        self._inner = FlexGenEstimator(spec, pooled, config, settings)
        self.spec = spec
        self.system = pooled

    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """Memory-offloading-only end-to-end estimate: the one-point
        case of :meth:`estimate_many`."""
        return only_estimate(self.estimate_many([request]))

    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """Memory-offloading-only estimates of every request, in
        order, from the inner FlexGen estimator's tables."""
        return [entry if isinstance(entry, CapacityError)
                else replace(entry, framework=self.framework_name)
                for entry in self._inner.estimate_many(requests)]
