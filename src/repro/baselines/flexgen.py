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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import Real
from repro.core.config import LiaConfig
from repro.core.estimator import (
    EstimateOrError,
    InferenceEstimate,
    MemoryUsage,
    StageBreakdown,
    check_host_capacity,
    RequestGrid,
    host_memory_usage,
    only_estimate,
    split_rows,
)
from repro.core.gpu_residency import (
    ResidencyPlan,
    gpu_working_set_bytes,
    plan_sublayer_residency,
)
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import FULL_GPU, PARTIAL_CPU, OffloadPolicy
from repro.core.terms import (check_placement, layer_terms, on_cpu_mask,
                               resident_mask)
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


#: One planned request: its index in the batch, the request, and its
#: memory and sublayer-class residency plans.
_Planned = Tuple[int, InferenceRequest, MemoryUsage, ResidencyPlan]


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
        check_placement(system, self.config)

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
        return self._decode_policy(self.kv_fits_gpu(request))

    def _decode_policy(self, kv_resident: bool) -> OffloadPolicy:
        if self.settings.compute_offload and not kv_resident:
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

    def _stage_breakdown(self, layer: Layer, stage: Stage) -> StageBreakdown:
        """All decoder layers of one step under ``layer``'s rollups."""
        return StageBreakdown(
            time=self._stage_time(layer, stage) * self.spec.n_layers,
            cpu_compute=layer.cpu_compute * self.spec.n_layers,
            gpu_compute=layer.gpu_compute * self.spec.n_layers,
            transfer=layer.transfer * self.spec.n_layers)

    # ------------------------------------------------------------------
    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """FlexGen end-to-end estimate for one request: the one-point
        case of :meth:`estimate_many`."""
        return only_estimate(self.estimate_many([request]))

    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """Estimate every request, in order.

        Requests split by KV home (GPU or host, :meth:`kv_fits_gpu`);
        each group is one prefill term table and one decode table
        with a row per request and a column per decode step.  A
        request whose memory plan overflows gets the
        :class:`CapacityError` that :meth:`estimate` raises.
        """
        entries: List[Optional[EstimateOrError]] = []
        groups: Dict[bool, List[_Planned]] = {False: [], True: []}
        for request in requests:
            kv_resident = self.kv_fits_gpu(request)
            try:
                memory, residency = self._plan(request, kv_resident)
            except CapacityError as error:
                entries.append(error)
                continue
            groups[kv_resident].append(
                (len(entries), request, memory, residency))
            entries.append(None)
        for kv_resident, planned in groups.items():
            if planned:
                for (index, *__), estimate in zip(
                        planned, self._estimate_group(planned,
                                                      kv_resident)):
                    entries[index] = estimate
        return entries  # type: ignore[return-value]

    def _plan(self, request: InferenceRequest, kv_resident: bool
              ) -> Tuple[MemoryUsage, ResidencyPlan]:
        """Memory placement and sublayer-class residency of
        ``request``; raises :class:`CapacityError` when the host pools
        (if enforced) or the GPU footprint overflow."""
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
        return replace(memory, gpu_bytes=gpu_bytes), residency

    def _estimate_group(self, planned: List[_Planned], kv_resident: bool
                        ) -> List[InferenceEstimate]:
        """Estimates of requests that share a KV home."""
        grid = RequestGrid.from_requests(
            [request for __, request, __, __ in planned])
        # Each row's resident sublayer classes.
        resident = np.array([
            resident_mask(resident_sublayers=residency.resident_sublayers)
            for *__, residency in planned])
        prefill_terms = layer_terms(
            self.spec, Stage.PREFILL, *grid.prefill, self.system,
            self.config, kv_resident=kv_resident)
        prefill = self._stage_breakdown(
            prefill_terms.sums(on_cpu_mask(FULL_GPU), resident),
            Stage.PREFILL)

        decode_policy = self._decode_policy(kv_resident)
        decode_terms = layer_terms(
            self.spec, Stage.DECODE, *grid.decode, self.system,
            self.config, kv_resident=kv_resident)
        decode = self._stage_breakdown(
            decode_terms.sums(on_cpu_mask(decode_policy),
                              grid.spread(resident)),
            Stage.DECODE)

        return [
            InferenceEstimate(
                framework=self.framework_name,
                model=self.spec.name,
                system=self.system.name,
                request=request,
                prefill=prefill_row,
                decode=decode_row,
                prefill_policy=FULL_GPU,
                decode_policy=decode_policy,
                residency=residency,
                memory=memory,
            )
            for (__, request, memory, residency), prefill_row, decode_row
            in zip(planned, split_rows(prefill, len(planned)),
                   split_rows(grid.fold_decode(decode), len(planned)))]
