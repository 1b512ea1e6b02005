"""Multi-GPU LIA (§8 "Scaling to multi-GPU").

When LIA directs a sublayer to the GPU side, tensor parallelism can
spread it across several GPUs: GPU compute throughput and aggregate
CPU-GPU transfer bandwidth scale with the GPU count, at the price of
two all-reduces per decoder layer over the peer interconnect.  §8
predicts two effects, both reproduced here:

* GPUs handle computation *more frequently* than in the single-GPU
  setup (the decode full-CPU threshold drops with GPU count), and
* communication overhead erodes the scaling, especially when the GPUs
  peer over PCIe rather than NVLink.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.multi_gpu import AllReduceModel
from repro.core.config import LiaConfig
from repro.core.estimator import InferenceEstimate, LiaEstimator, StageBreakdown
from repro.errors import ConfigurationError
from repro.hardware.gpu import GpuSpec
from repro.hardware.interconnect import Link
from repro.hardware.memory import MemoryDevice
from repro.hardware.roofline import ComputeEngine
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.workload import InferenceRequest


def expand_gpu_side(system: SystemConfig, n_gpus: int,
                    peer_link: Optional[Link] = None) -> SystemConfig:
    """A system whose GPU side is an ``n_gpus``-way TP group.

    The group is folded into one virtual GPU with n-fold compute,
    memory, and HBM bandwidth; each GPU keeps its own PCIe link, so
    host transfers also aggregate (weights shard across links).  The
    peer link (for all-reduces) defaults to the base GPU generation's
    natural fabric.
    """
    if n_gpus < 1:
        raise ConfigurationError(f"n_gpus must be >= 1, got {n_gpus}")
    if n_gpus == 1:
        return system
    gpu = system.gpu
    memory = MemoryDevice(
        name=f"{gpu.memory.name}x{n_gpus}",
        kind=gpu.memory.kind,
        capacity_bytes=gpu.memory.capacity_bytes * n_gpus,
        bandwidth=gpu.memory.bandwidth * n_gpus,
        latency=gpu.memory.latency,
        cost_per_gb=gpu.memory.cost_per_gb,
    )
    engine = ComputeEngine(
        name=f"{gpu.engine.name}x{n_gpus}",
        peak_flops=gpu.engine.peak_flops * n_gpus,
        mem_bandwidth=memory.bandwidth,
        efficiency=gpu.engine.efficiency,
        dispatch_overhead=gpu.engine.dispatch_overhead,
    )
    pooled = GpuSpec(name=f"{gpu.name}x{n_gpus}", engine=engine,
                     memory=memory, host_link=gpu.host_link,
                     tdp_watts=gpu.tdp_watts * n_gpus,
                     price_usd=gpu.price_usd * n_gpus)
    host_link = Link(f"{system.host_link.name}x{n_gpus}",
                     bandwidth=system.host_link.bandwidth * n_gpus,
                     setup_latency=system.host_link.setup_latency)
    return SystemConfig(
        name=f"{system.name}-tp{n_gpus}",
        cpu=system.cpu,
        gpus=(pooled,),
        host_link=host_link,
        peer_link=peer_link or system.host_link,
        cxl_devices=system.cxl_devices,
        platform_power_watts=system.platform_power_watts,
        platform_price_usd=system.platform_price_usd,
    )


class MultiGpuLiaEstimator:
    """LIA across an n-way tensor-parallel GPU group.

    Wraps :class:`LiaEstimator` on the pooled system and charges two
    ring all-reduces per decoder layer whenever any sublayer ran on
    the GPU side.
    """

    framework_name = "lia-tp"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 n_gpus: int, config: Optional[LiaConfig] = None,
                 peer_link: Optional[Link] = None) -> None:
        self.spec = spec
        self.n_gpus = n_gpus
        self.system = expand_gpu_side(system, n_gpus, peer_link)
        self.config = config or LiaConfig()
        self._inner = LiaEstimator(spec, self.system, self.config)
        peer = self.system.peer_link if n_gpus > 1 else None
        self.allreduce = AllReduceModel(
            n_ranks=n_gpus,
            bandwidth=peer.bandwidth if peer else 1.0,
            hop_latency=peer.setup_latency if peer else 0.0)

    # ------------------------------------------------------------------
    def _stage_allreduce(self, policy, tokens: int, steps: int) -> float:
        """Two all-reduces per layer for a GPU-participating stage."""
        if self.n_gpus == 1 or policy.all_cpu:
            return 0.0
        act_bytes = tokens * self.spec.d_model * self.spec.bytes_per_param
        per_layer = 2.0 * self.allreduce.time(act_bytes)
        return per_layer * self.spec.n_layers * steps

    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """End-to-end estimate including the TP communication cost."""
        base = self._inner.estimate(request)
        prefill_extra = self._stage_allreduce(
            base.prefill_policy, request.batch_size * request.input_len,
            1)
        decode_extra = self._stage_allreduce(
            base.decode_policy, request.batch_size, request.output_len)
        if prefill_extra == 0.0 and decode_extra == 0.0:
            return base
        prefill = base.prefill + StageBreakdown(
            time=prefill_extra, cpu_compute=0.0, gpu_compute=0.0,
            transfer=prefill_extra)
        decode = base.decode + StageBreakdown(
            time=decode_extra, cpu_compute=0.0, gpu_compute=0.0,
            transfer=decode_extra)
        return InferenceEstimate(
            framework=self.framework_name,
            model=base.model,
            system=base.system,
            request=base.request,
            prefill=prefill,
            decode=decode,
            prefill_policy=base.prefill_policy,
            decode_policy=base.decode_policy,
            residency=base.residency,
            memory=base.memory,
        )
