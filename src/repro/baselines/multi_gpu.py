"""Multi-GPU tensor-parallel baseline (§7.8's DGX-A100).

The paper evaluates 8-way tensor parallelism on a DGX-A100 with
Microsoft's Vidur simulator; this module plays that role.  Weights and
KV cache shard across the GPUs (all resident — no offloading); every
decoder layer performs two ring all-reduces over NVLink (after the
attention output projection and after FC2).  Out-of-memory at large
batch (B = 900 for OPT-175B) is detected exactly as Fig. 14 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.arrays import Real
from repro.core.config import LiaConfig
from repro.core.estimator import (
    EstimateOrError,
    InferenceEstimate,
    MemoryUsage,
    StageBreakdown,
    estimate_each,
    sum_steps,
)
from repro.core.gpu_residency import ResidencyPlan
from repro.core.policy import FULL_GPU
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.roofline import MatmulKind
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage, Sublayer, sublayer_cost
from repro.models.workload import InferenceRequest
from repro.units import ms

#: Per-decoder-layer serving-stack overhead (kernel-launch storms,
#: NCCL synchronization, scheduler ticks) that Vidur models for
#: tensor-parallel execution; it dominates small-batch decoding and is
#: what makes LIA's per-GPU throughput win at B = 1 in Fig. 14.
FRAMEWORK_OVERHEAD_PER_LAYER = ms(1.2)


@dataclass(frozen=True)
class AllReduceModel:
    """Ring all-reduce cost: ``2 (n-1)/n * bytes / bw + (n-1) * lat``."""

    n_ranks: int
    bandwidth: float
    hop_latency: float

    def time(self, num_bytes: float) -> float:
        if self.n_ranks <= 1:
            return 0.0
        steps = self.n_ranks - 1
        volume = 2.0 * steps / self.n_ranks * num_bytes
        return volume / self.bandwidth + steps * self.hop_latency


class TensorParallelEstimator:
    """Analytic model of n-way tensor-parallel inference."""

    framework_name = "tensor-parallel"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> None:
        if system.n_gpus < 2:
            raise ConfigurationError(
                f"{system.name}: tensor parallelism needs >= 2 GPUs")
        if system.peer_link is None:
            raise ConfigurationError(
                f"{system.name}: tensor parallelism needs a peer link")
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()
        self.allreduce = AllReduceModel(
            n_ranks=system.n_gpus,
            bandwidth=system.peer_link.bandwidth,
            hop_latency=system.peer_link.setup_latency)

    # ------------------------------------------------------------------
    def per_gpu_bytes(self, request: InferenceRequest) -> float:
        """Sharded weights + sharded KV + full activations per GPU."""
        n = self.system.n_gpus
        weights = self.spec.total_param_bytes / n
        kv = self.spec.kv_cache_bytes(request.batch_size,
                                      request.max_context_len + 1) / n
        act = self.spec.peak_activation_bytes(request.batch_size,
                                              request.input_len)
        return weights + kv + act

    def _check_memory(self, request: InferenceRequest) -> float:
        per_gpu = self.per_gpu_bytes(request)
        budget = self.system.gpu.memory_capacity * (
            1.0 - self.config.gpu_working_reserve)
        if per_gpu > budget:
            raise CapacityError(
                f"{self.system.name}: tensor-parallel shard needs "
                f"{per_gpu / 2**30:.1f} GiB per GPU, budget "
                f"{budget / 2**30:.1f} GiB",
                requested=per_gpu, available=budget,
                device=self.system.gpu.name)
        return per_gpu

    # ------------------------------------------------------------------
    def _layer_time(self, stage: Stage, batch_size: int,
                    context_len: Real) -> Real:
        """One decoder layer: sharded compute + two all-reduces."""
        gpu = self.system.gpu.engine
        n = self.system.n_gpus
        compute = 0.0
        for sub in Sublayer:
            cost = sublayer_cost(self.spec, sub, stage, batch_size,
                                 context_len)
            kind = MatmulKind.GEMM
            if sub.uses_kv_cache and stage is Stage.DECODE:
                kind = MatmulKind.BATCHED_GEMV
            # Sharded kernels keep the full problem's efficiency (the
            # per-GPU GEMM is still large in N and K): scale time by
            # 1/n rather than re-evaluating the efficiency curve at
            # the sharded FLOP count.
            compute += gpu.matmul_time(cost.flops,
                                       cost.d_x + cost.d_y, kind) / n
        tokens = context_len if stage is Stage.PREFILL else 1
        act_bytes = (batch_size * tokens * self.spec.d_model
                     * self.spec.bytes_per_param)
        return (compute + 2.0 * self.allreduce.time(act_bytes)
                + FRAMEWORK_OVERHEAD_PER_LAYER)

    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """Every request's estimate, in order, or the
        :class:`CapacityError` :meth:`estimate` raises for it."""
        return estimate_each(self, requests)

    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """Tensor-parallel end-to-end estimate (raises on OOM)."""
        per_gpu = self._check_memory(request)
        n_layers = self.spec.n_layers

        prefill_layer = self._layer_time(Stage.PREFILL,
                                         request.batch_size,
                                         request.input_len)
        prefill = StageBreakdown(time=prefill_layer * n_layers,
                                 cpu_compute=0.0,
                                 gpu_compute=prefill_layer * n_layers,
                                 transfer=0.0)
        steps = self._layer_time(Stage.DECODE, request.batch_size,
                                 request.decode_context_lengths()) * n_layers
        decode = sum_steps(StageBreakdown(time=steps, cpu_compute=0.0 * steps,
                                          gpu_compute=steps,
                                          transfer=0.0 * steps))

        memory = MemoryUsage(
            weight_bytes=float(self.spec.total_param_bytes),
            kv_bytes=float(self.spec.kv_cache_bytes(
                request.batch_size, request.max_context_len + 1)),
            activation_bytes=float(self.spec.peak_activation_bytes(
                request.batch_size, request.input_len)),
            ddr_bytes=0.0, cxl_bytes=0.0,
            gpu_bytes=per_gpu * self.system.n_gpus)
        residency = ResidencyPlan(
            granularity="tensor-parallel-shard",
            n_layers=n_layers,
            n_resident_layers=n_layers,
            resident_bytes=float(self.spec.total_param_bytes),
            working_bytes=0.0)
        return InferenceEstimate(
            framework=self.framework_name,
            model=self.spec.name,
            system=self.system.name,
            request=request,
            prefill=prefill,
            decode=decode,
            prefill_policy=FULL_GPU,
            decode_policy=FULL_GPU,
            residency=residency,
            memory=memory,
        )

    def per_gpu_throughput(self, request: InferenceRequest) -> float:
        """Tokens/s divided by GPU count (the Fig. 14 metric)."""
        return self.estimate(request).throughput / self.system.n_gpus
