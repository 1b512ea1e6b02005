"""FlexGen baseline (Sheng et al., ICML 2023), as characterized in §3.

Differences from LIA that this model reproduces:

* **Fixed compute offloading**: only the attention-scoring sublayers
  (2, 3) ever run on the CPU, and only during decode, and only when
  the KV cache does not fit in GPU memory.  The CPU path uses AVX512
  — FlexGen predates AMX-optimized kernels.
* **Sublayer-class GPU caching**: unused GPU memory holds whole
  sublayer classes across all layers (§5.2), a coarser granularity
  than LIA's per-layer packing.
* **Mini-batch overlap in both stages**: decode mini-batching costs
  kernel efficiency (§5.2 cites AttAcc/Duplex; LIA is 1.1-1.3x faster
  at B=900 from avoiding it), modelled as a compute inflation factor.
* **KV placement**: on the GPU while it fits (B=1 in Fig. 3), spilled
  to host memory otherwise (B=32 in Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.arrays import Real
from repro.core.config import LiaConfig
from repro.core.estimator import (
    InferenceEstimate,
    MemoryUsage,
    StageBreakdown,
    check_host_capacity,
    host_memory_usage,
    sum_steps,
)
from repro.core.gpu_residency import (
    gpu_working_set_bytes,
    plan_sublayer_residency,
)
from repro.core.latency import layer_latency
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import FULL_GPU, PARTIAL_CPU, OffloadPolicy
from repro.core.terms import layer_terms, on_cpu_mask, resident_mask
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest

#: Decode compute inflation from mini-batched decoding (§5.2: LIA's
#: whole-batch decode is 1.1-1.3x faster at B=900).
DECODE_MINIBATCH_PENALTY = 1.20


@dataclass(frozen=True)
class FlexGenSettings:
    """Tunables of the FlexGen model."""

    #: CPU engine used for offloaded attention (AVX512: pre-AMX code).
    cpu_engine: str = "avx512"
    #: Whether attention scoring is compute-offloaded at all (§3.2
    #: evaluates FlexGen both with and without it).
    compute_offload: bool = True
    minibatches: int = 2
    decode_compute_penalty: float = DECODE_MINIBATCH_PENALTY

    def __post_init__(self) -> None:
        if self.minibatches < 1:
            raise ConfigurationError(
                f"minibatches must be >= 1, got {self.minibatches}")
        if self.decode_compute_penalty < 1.0:
            raise ConfigurationError(
                "decode_compute_penalty must be >= 1 (mini-batching "
                f"cannot speed kernels up), got "
                f"{self.decode_compute_penalty}")


class FlexGenEstimator:
    """Analytic model of FlexGen on a single-GPU system."""

    framework_name = "flexgen"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None,
                 settings: Optional[FlexGenSettings] = None) -> None:
        self.spec = spec
        self.system = system
        self.settings = settings or FlexGenSettings()
        base = config or LiaConfig()
        self.config = replace(base, cpu_engine=self.settings.cpu_engine,
                              overlap=base.overlap,
                              prefill_minibatches=self.settings.minibatches)

    # ------------------------------------------------------------------
    def kv_fits_gpu(self, request: InferenceRequest) -> bool:
        """True when KV cache + activations fit beside the working set
        (FlexGen keeps them on the GPU then, as in Fig. 3's B=1)."""
        kv = self.spec.kv_cache_bytes(request.batch_size,
                                      request.max_context_len + 1)
        act = self.spec.peak_activation_bytes(request.batch_size,
                                              request.input_len)
        working = gpu_working_set_bytes(
            self.spec, request, self.config,
            gpu_capacity=self.system.gpu.memory_capacity)
        budget = self.system.gpu.memory_capacity * (
            1.0 - self.config.gpu_working_reserve)
        return kv + act + working <= budget

    def decode_policy(self, request: InferenceRequest) -> OffloadPolicy:
        """FlexGen's empirical choice: CPU attention iff the KV cache
        lives on the host and compute offload is enabled."""
        if self.settings.compute_offload and not self.kv_fits_gpu(request):
            return PARTIAL_CPU
        return FULL_GPU

    # ------------------------------------------------------------------
    def _stage_time(self, layer: Layer, stage: Stage) -> Real:
        if not self.config.overlap:
            penalty = 1.0
            if stage is Stage.DECODE:
                penalty = self.settings.decode_compute_penalty
            return serial_layer_time(layer, compute_scale=penalty)
        if stage is Stage.PREFILL:
            return overlapped_layer_time(
                layer, minibatches=self.settings.minibatches)
        # FlexGen mini-batches decoding too, paying the kernel
        # efficiency penalty.
        return overlapped_layer_time(
            layer, minibatches=self.settings.minibatches,
            compute_scale=self.settings.decode_compute_penalty)

    def _stage_breakdown(self, layer: Layer, stage: Stage,
                         count: int = 1) -> StageBreakdown:
        return StageBreakdown(
            time=self._stage_time(layer, stage) * self.spec.n_layers * count,
            cpu_compute=layer.cpu_compute * self.spec.n_layers * count,
            gpu_compute=layer.gpu_compute * self.spec.n_layers * count,
            transfer=layer.transfer * self.spec.n_layers * count)

    # ------------------------------------------------------------------
    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """FlexGen end-to-end estimate for one request."""
        kv_resident = self.kv_fits_gpu(request)
        memory = host_memory_usage(self.spec, request, self.system,
                                   self.config)
        if kv_resident:
            # Host only stores weights; KV/activations stay on GPU.
            memory = MemoryUsage(
                weight_bytes=memory.weight_bytes, kv_bytes=0.0,
                activation_bytes=0.0, ddr_bytes=memory.weight_bytes,
                cxl_bytes=0.0, gpu_bytes=0.0)
        if self.config.enforce_host_capacity:
            check_host_capacity(memory, self.system)

        kv_gpu_bytes = 0.0
        if kv_resident:
            kv_gpu_bytes = float(self.spec.kv_cache_bytes(
                request.batch_size, request.max_context_len + 1))
        residency = plan_sublayer_residency(
            self.spec, self.system, request, self.config,
            extra_reserved_bytes=kv_gpu_bytes)
        gpu_bytes = (residency.resident_bytes + residency.working_bytes
                     + kv_gpu_bytes)
        if gpu_bytes > self.system.gpu.memory_capacity:
            raise CapacityError(
                f"{self.system.name}: FlexGen GPU footprint "
                f"{gpu_bytes / 2**30:.1f} GiB exceeds capacity",
                requested=gpu_bytes,
                available=self.system.gpu.memory_capacity,
                device=self.system.gpu.name)
        memory = replace(memory, gpu_bytes=gpu_bytes)

        prefill_layer = layer_latency(
            self.spec, Stage.PREFILL, FULL_GPU, request.batch_size,
            request.input_len, self.system, self.config,
            resident_sublayers=residency.resident_sublayers,
            kv_resident=kv_resident)
        prefill = self._stage_breakdown(prefill_layer, Stage.PREFILL)

        # Every decode step from one term table, summed in step order.
        decode_policy = self.decode_policy(request)
        decode_terms = layer_terms(
            self.spec, Stage.DECODE, request.batch_size,
            request.decode_context_lengths(), self.system, self.config,
            kv_resident=kv_resident)
        decode_layer = decode_terms.sums(
            on_cpu_mask(decode_policy),
            resident_mask(resident_sublayers=residency.resident_sublayers))
        decode = sum_steps(self._stage_breakdown(decode_layer,
                                                 Stage.DECODE))

        return InferenceEstimate(
            framework=self.framework_name,
            model=self.spec.name,
            system=self.system.name,
            request=request,
            prefill=prefill,
            decode=decode,
            prefill_policy=FULL_GPU,
            decode_policy=decode_policy,
            residency=residency,
            memory=memory,
        )
