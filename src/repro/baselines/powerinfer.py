"""PowerInfer baseline (Song et al. 2023), as characterized in §7.9.

PowerInfer partitions FFN neurons by activation frequency: *hot*
neurons live on the GPU, *cold* neurons on the CPU, with per-layer
PCIe round-trips to merge partial FFN outputs.  The paper's findings
that this model reproduces:

* At B = 1 PowerInfer is competitive but still behind LIA (1.4x).
* Throughput scales poorly with batch size — it was designed for
  consumer GPUs and llama.cpp-style CPU kernels, so batches execute
  in small micro-batches, re-reading the activated cold weights per
  micro-batch (LIA is up to 9x/15x better at B = 64/900).
* Large-batch runs hit CUDA OOM (B = 900 in Fig. 15): hot weights and
  the GPU-resident KV cache exhaust HBM.
* It needs ReLU-sparsified model variants (accuracy caveat) — the
  sparsity assumptions below are what that adaptation buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

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
from repro.core.policy import FULL_GPU, OffloadPolicy
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.roofline import MatmulKind
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage, Sublayer, sublayer_cost
from repro.models.workload import InferenceRequest
from repro.units import us


@dataclass(frozen=True)
class PowerInferSettings:
    """Tunables of the PowerInfer model."""

    #: Fraction of FFN neurons pinned to the GPU.
    hot_fraction: float = 0.08
    #: Fraction of *cold* neurons a decode token activates (after the
    #: ReLU-sparsification model adaptation).
    cold_activation: float = 0.35
    #: Activated cold neurons are scattered rows of the weight
    #: matrices; gathering them achieves only a fraction of DDR
    #: streaming bandwidth.
    sparse_bandwidth_efficiency: float = 0.30
    #: llama.cpp-style micro-batching limit: larger batches re-run the
    #: cold path per micro-batch.
    max_microbatch: int = 8
    #: CPU engine for cold neurons (no AMX-optimized path).
    cpu_engine: str = "avx512"
    #: Per-direction GPU<->CPU synchronization cost per layer.
    sync_latency: float = us(150.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction < 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in (0, 1), got "
                f"{self.hot_fraction}")
        if not 0.0 < self.cold_activation <= 1.0:
            raise ConfigurationError(
                f"cold_activation must be in (0, 1], got "
                f"{self.cold_activation}")
        if not 0.0 < self.sparse_bandwidth_efficiency <= 1.0:
            raise ConfigurationError(
                "sparse_bandwidth_efficiency must be in (0, 1], got "
                f"{self.sparse_bandwidth_efficiency}")
        if self.max_microbatch < 1:
            raise ConfigurationError(
                f"max_microbatch must be >= 1, got "
                f"{self.max_microbatch}")


class PowerInferEstimator:
    """Analytic model of PowerInfer on a single-GPU system."""

    framework_name = "powerinfer"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None,
                 settings: Optional[PowerInferSettings] = None) -> None:
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()
        self.settings = settings or PowerInferSettings()

    # ------------------------------------------------------------------
    def _attention_weight_bytes(self) -> float:
        return float(self.spec.attention_params * self.spec.bytes_per_param)

    def _ffn_weight_bytes(self) -> float:
        return float(self.spec.ffn_params_stored * self.spec.bytes_per_param)

    def gpu_footprint(self, request: InferenceRequest) -> float:
        """HBM bytes PowerInfer pins: attention weights, hot FFN
        neurons, the whole KV cache, and activations."""
        per_layer = (self._attention_weight_bytes()
                     + self.settings.hot_fraction * self._ffn_weight_bytes())
        kv = self.spec.kv_cache_bytes(request.batch_size,
                                      request.max_context_len + 1)
        act = self.spec.peak_activation_bytes(request.batch_size,
                                              request.input_len)
        return per_layer * self.spec.n_layers + kv + act

    def _check_gpu(self, request: InferenceRequest) -> float:
        footprint = self.gpu_footprint(request)
        budget = self.system.gpu.memory_capacity * (
            1.0 - self.config.gpu_working_reserve)
        if footprint > budget:
            raise CapacityError(
                f"{self.system.name}: PowerInfer needs "
                f"{footprint / 2**30:.1f} GiB of HBM (hot weights + KV) "
                f"but only {budget / 2**30:.1f} GiB is available",
                requested=footprint, available=budget,
                device=self.system.gpu.name)
        return footprint

    # ------------------------------------------------------------------
    def _microbatches(self, batch_size: int) -> int:
        return -(-batch_size // self.settings.max_microbatch)

    def _attention_time(self, stage: Stage, batch_size: int,
                        context_len: Real) -> Real:
        """GPU attention with resident weights and KV cache."""
        gpu = self.system.gpu.engine
        total = 0.0
        for sub in (Sublayer.QKV_MAPPING, Sublayer.ATTENTION_SCORE,
                    Sublayer.ATTENTION_CONTEXT,
                    Sublayer.OUTPUT_PROJECTION):
            cost = sublayer_cost(self.spec, sub, stage, batch_size,
                                 context_len)
            kind = MatmulKind.GEMM
            if sub.uses_kv_cache and stage is Stage.DECODE:
                kind = MatmulKind.BATCHED_GEMV
            total += gpu.matmul_time(cost.flops, cost.d_x + cost.d_y, kind)
        return total

    def _ffn_time_decode(self, batch_size: int) -> float:
        """Hot (GPU) + cold (CPU) FFN with per-layer PCIe round trips.

        Each micro-batch re-touches the union of activated cold
        neurons — the scaling bottleneck §7.9 describes.
        """
        gpu = self.system.gpu.engine
        cpu = self.system.cpu.engine(self.settings.cpu_engine)
        link = self.system.host_link
        ffn_bytes = self._ffn_weight_bytes()
        hot_bytes = self.settings.hot_fraction * ffn_bytes
        cold_bytes = (1.0 - self.settings.hot_fraction) * ffn_bytes
        activated_cold = self.settings.cold_activation * cold_bytes
        micro = self._microbatches(batch_size)
        per_micro_b = min(batch_size, self.settings.max_microbatch)

        flops_per_token = 2.0 * self.spec.ffn_params_active
        hot_time = gpu.matmul_time(
            flops_per_token * per_micro_b * self.settings.hot_fraction,
            hot_bytes)
        # Cold neurons are scattered rows gathered from DDR: far below
        # streaming bandwidth.
        cold_time = cpu.matmul_time(
            flops_per_token * per_micro_b * self.settings.cold_activation,
            activated_cold, MatmulKind.GEMM,
            bandwidth_scale=self.settings.sparse_bandwidth_efficiency)
        act_bytes = (per_micro_b * self.spec.d_model
                     * self.spec.bytes_per_param)
        pcie = 2.0 * (link.transfer_time(act_bytes)
                      + self.settings.sync_latency)
        # Hot GPU and cold CPU halves run concurrently; the PCIe merge
        # serializes.
        return micro * (max(hot_time, cold_time) + pcie)

    def _ffn_time_prefill(self, batch_size: int, input_len: int) -> float:
        """Prefill activates nearly all neurons: the cold weights
        stream to the GPU once per layer and the GPU computes densely."""
        gpu = self.system.gpu.engine
        link = self.system.host_link
        ffn_bytes = self._ffn_weight_bytes()
        cold_bytes = (1.0 - self.settings.hot_fraction) * ffn_bytes
        flops = 2.0 * self.spec.ffn_params_active * batch_size * input_len
        compute = gpu.matmul_time(flops, ffn_bytes)
        return compute + link.transfer_time(cold_bytes)

    # ------------------------------------------------------------------
    def estimate_many(self, requests: Sequence[InferenceRequest]
                      ) -> List[EstimateOrError]:
        """Every request's estimate, in order, or the
        :class:`CapacityError` :meth:`estimate` raises for it."""
        return estimate_each(self, requests)

    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """PowerInfer end-to-end estimate (raises CapacityError on the
        large-batch OOMs of Fig. 15)."""
        gpu_bytes = self._check_gpu(request)
        n_layers = self.spec.n_layers

        prefill_gpu = (self._attention_time(Stage.PREFILL,
                                            request.batch_size,
                                            request.input_len)
                       + self._ffn_time_prefill(request.batch_size,
                                                request.input_len))
        cold_stream = self.system.host_link.transfer_time(
            (1.0 - self.settings.hot_fraction) * self._ffn_weight_bytes())
        prefill = StageBreakdown(
            time=prefill_gpu * n_layers,
            cpu_compute=0.0,
            gpu_compute=(prefill_gpu - cold_stream) * n_layers,
            transfer=cold_stream * n_layers)

        attn = self._attention_time(Stage.DECODE, request.batch_size,
                                    request.decode_context_lengths())
        ffn = np.full_like(attn, self._ffn_time_decode(request.batch_size))
        decode = sum_steps(StageBreakdown(
            time=(attn + ffn) * n_layers, cpu_compute=ffn * 0.5 * n_layers,
            gpu_compute=attn * n_layers, transfer=ffn * 0.1 * n_layers))

        weights = float(self.spec.total_param_bytes)
        memory = MemoryUsage(
            weight_bytes=weights,
            kv_bytes=0.0,
            activation_bytes=0.0,
            ddr_bytes=(1.0 - self.settings.hot_fraction) * weights,
            cxl_bytes=0.0,
            gpu_bytes=gpu_bytes)
        residency = ResidencyPlan(
            granularity="neuron",
            n_layers=n_layers,
            n_resident_layers=0,
            resident_bytes=self.settings.hot_fraction
            * self._ffn_weight_bytes() * n_layers,
            working_bytes=0.0)
        return InferenceEstimate(
            framework=self.framework_name,
            model=self.spec.name,
            system=self.system.name,
            request=request,
            prefill=prefill,
            decode=decode,
            prefill_policy=FULL_GPU,
            decode_policy=OffloadPolicy.from_string("000011"),
            residency=residency,
            memory=memory,
        )
