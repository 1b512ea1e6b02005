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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import Real, as_float, where
from repro.core.config import LiaConfig
from repro.core.estimator import (
    EstimateOrError,
    InferenceEstimate,
    MemoryUsage,
    PointPlans,
    RequestTables,
    StageBreakdown,
    check_host_capacity,
    estimate_from_tables,
    host_memory_usage,
    host_overflows,
    only_estimate,
    plan_each,
    split_rows,
)
from repro.core.gpu_residency import (
    RequestLike,
    ResidencyPlan,
    gpu_working_set_bytes,
    plan_sublayer_residency,
)
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import FULL_GPU, PARTIAL_CPU, OffloadPolicy
from repro.core.terms import check_placement, on_cpu_mask, resident_mask
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
        check_placement(system, self.config)

    # ------------------------------------------------------------------
    def kv_fits_gpu(self, request: RequestLike) -> Real:
        """True when KV cache + activations fit beside the working set
        (FlexGen keeps them on the GPU then, as in Fig. 3's B=1).
        Elementwise over the points of a :class:`RequestPoints`."""
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
        """Estimate every request, in order, from one prefill and one
        decode term table (:meth:`estimate_tables`)."""
        return estimate_from_tables(self, requests)

    def estimate_tables(self, tables: RequestTables
                        ) -> List[EstimateOrError]:
        """Estimate the requests of ``tables``, in order.

        Tables built on another CPU engine are read with FlexGen's
        AVX-512 ``comp_cpu``.  Each request keeps its own KV home
        (:meth:`kv_fits_gpu`), which only flips firing masks, so both
        homes share the tables.  A request whose memory plan overflows
        gets the :class:`CapacityError` that :meth:`estimate` raises;
        its table rows are evaluated with the others and dropped.
        """
        tables = tables.read_as(self.spec, self.system, self.config)
        grid, requests = tables.grid, tables.requests
        plans, errors = plan_each(self, grid.points)
        n = len(requests)
        if len(errors) == n:
            return [errors[index] for index in range(n)]
        rows = plans.rows(n)
        kv_resident = self.kv_fits_gpu(grid.points)
        # Each row's resident sublayer classes.
        resident = np.array([
            resident_mask(resident_sublayers=residency.resident_sublayers)
            for __, residency in rows])
        prefill = self._stage_breakdown(
            replace(tables.prefill, kv_resident=kv_resident).sums(
                on_cpu_mask(FULL_GPU), resident),
            Stage.PREFILL)

        decode_policies = [self._decode_policy(home)
                           for home in kv_resident.tolist()]
        decode = self._stage_breakdown(
            replace(tables.decode,
                    kv_resident=grid.spread(kv_resident)).sums(
                grid.spread(np.array([on_cpu_mask(policy)
                                      for policy in decode_policies])),
                grid.spread(resident)),
            Stage.DECODE)

        return [
            errors[index] if index in errors else InferenceEstimate(
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
            for index, (request, (memory, residency), prefill_row,
                        decode_row, decode_policy) in enumerate(zip(
                requests, rows, split_rows(prefill, n),
                split_rows(grid.fold_decode(decode), n), decode_policies))]

    # ------------------------------------------------------------------
    def _plan_points(self, request: RequestLike) -> PointPlans:
        """Memory placement and sublayer-class residency of
        ``request``, and whether its ``estimate`` fails: the host pools
        (if enforced) or the GPU footprint overflow.  Each an array
        over the points of a :class:`RequestPoints`."""
        spec, system, config = self.spec, self.system, self.config
        kv_resident = self.kv_fits_gpu(request)
        memory = host_memory_usage(spec, request, system, config)
        # With the KV cache on the GPU, the host stores only weights.
        memory = MemoryUsage(
            weight_bytes=memory.weight_bytes,
            kv_bytes=where(kv_resident, 0.0, memory.kv_bytes),
            activation_bytes=where(kv_resident, 0.0,
                                   memory.activation_bytes),
            ddr_bytes=where(kv_resident, memory.weight_bytes,
                            memory.ddr_bytes),
            cxl_bytes=where(kv_resident, 0.0, memory.cxl_bytes),
            gpu_bytes=0.0)
        kv_gpu_bytes = where(kv_resident, as_float(spec.kv_cache_bytes(
            request.batch_size, request.max_context_len + 1)), 0.0)
        residency = plan_sublayer_residency(
            spec, system, request, config,
            extra_reserved_bytes=kv_gpu_bytes)
        gpu_bytes = (residency.resident_bytes + residency.working_bytes
                     + kv_gpu_bytes)
        failed = gpu_bytes > system.gpu.memory_capacity
        if config.enforce_host_capacity:
            failed = host_overflows(memory, system) | failed
        return PointPlans(replace(memory, gpu_bytes=gpu_bytes), residency,
                          failed)

    def _plan(self, request: InferenceRequest
              ) -> Tuple[MemoryUsage, ResidencyPlan]:
        """:meth:`_plan_points` of one request; raises
        :class:`CapacityError` when its plan overflows."""
        memory, residency, failed = self._plan_points(request)
        if failed:
            if self.config.enforce_host_capacity:
                check_host_capacity(memory, self.system)
            raise CapacityError(
                f"{self.system.name}: FlexGen GPU footprint "
                f"{memory.gpu_bytes / 2**30:.1f} GiB exceeds capacity",
                requested=memory.gpu_bytes,
                available=self.system.gpu.memory_capacity,
                device=self.system.gpu.name)
        return memory, residency
