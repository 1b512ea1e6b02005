"""End-to-end inference estimation for the LIA framework.

Mirrors the paper's latency-model methodology (§7): the latency of a
single decoder layer is evaluated separately for the prefill and each
decoding step via Eq. (2) (with overlap per §5.2), multiplied by the
number of decoder layers, and summed.  Optimization-1 splits layers
into a GPU-resident group (no weight streaming; policies re-optimized
with free weights) and a streamed group.

The estimator also performs the memory accounting that drives every
capacity result in the paper: host-side DDR/CXL placement (§6,
Table 3), GPU working-set and residency packing (§5.2), and
out-of-memory detection (Fig. 14's OOM entries).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.gpu_residency import ResidencyPlan, plan_layer_residency
from repro.core.optimizer import search_grid, stage_layer_time
from repro.core.policy import OffloadPolicy
from repro.core.terms import layer_terms, on_cpu_mask, resident_mask
from repro.errors import CapacityError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest


@dataclass(frozen=True)
class StageBreakdown:
    """Wall-clock and per-resource busy time of one stage.

    ``time`` honors the overlap configuration; the busy-time fields
    are serial sums (they feed Table 5 and the energy model); arrays
    over steps until :func:`sum_steps` totals them.
    """

    time: float
    cpu_compute: float
    gpu_compute: float
    transfer: float

    def __add__(self, other: "StageBreakdown") -> "StageBreakdown":
        return StageBreakdown(
            time=self.time + other.time,
            cpu_compute=self.cpu_compute + other.cpu_compute,
            gpu_compute=self.gpu_compute + other.gpu_compute,
            transfer=self.transfer + other.transfer,
        )

    def components(self):
        return (self.time, self.cpu_compute, self.gpu_compute,
                self.transfer)


@dataclass(frozen=True)
class MemoryUsage:
    """Byte-level accounting of one inference run."""

    weight_bytes: float
    kv_bytes: float
    activation_bytes: float
    ddr_bytes: float
    cxl_bytes: float
    gpu_bytes: float

    @property
    def host_bytes(self) -> float:
        return self.ddr_bytes + self.cxl_bytes


@dataclass(frozen=True)
class InferenceEstimate:
    """The result of estimating one request end to end."""

    framework: str
    model: str
    system: str
    request: InferenceRequest
    prefill: StageBreakdown
    decode: StageBreakdown
    prefill_policy: OffloadPolicy
    decode_policy: OffloadPolicy
    residency: ResidencyPlan
    memory: MemoryUsage

    @property
    def latency(self) -> float:
        """End-to-end seconds per query (the Fig. 10 metric)."""
        return self.prefill.time + self.decode.time

    @property
    def throughput(self) -> float:
        """Generated tokens per second (the Fig. 11 metric)."""
        if self.latency == 0.0:
            return 0.0
        return self.request.total_generated_tokens / self.latency

    @property
    def total(self) -> StageBreakdown:
        return self.prefill + self.decode


def host_memory_usage(spec: ModelSpec, request: InferenceRequest,
                      system: SystemConfig,
                      config: LiaConfig) -> MemoryUsage:
    """Place weights, KV cache, and activations into DDR/CXL pools."""
    weights = float(spec.total_param_bytes)
    kv = float(spec.kv_cache_bytes(request.batch_size,
                                   request.input_len + request.output_len))
    activations = float(spec.peak_activation_bytes(request.batch_size,
                                                   request.input_len))
    ddr = 0.0
    cxl = 0.0
    if config.weight_placement is WeightPlacement.CXL:
        cxl += weights
    else:
        ddr += weights
    if config.kv_placement is KvCachePlacement.CXL:
        cxl += kv + activations
    else:
        # Recency-window KV tiering spills the cold fraction to CXL.
        cxl += kv * config.kv_cxl_fraction
        ddr += kv * (1.0 - config.kv_cxl_fraction) + activations
    return MemoryUsage(weight_bytes=weights, kv_bytes=kv,
                       activation_bytes=activations, ddr_bytes=ddr,
                       cxl_bytes=cxl, gpu_bytes=0.0)


def check_host_capacity(memory: MemoryUsage, system: SystemConfig) -> None:
    """Raise :class:`CapacityError` when host pools overflow."""
    ddr_capacity = system.cpu.memory.capacity_bytes
    if memory.ddr_bytes > ddr_capacity:
        raise CapacityError(
            f"{system.name}: DDR needs {memory.ddr_bytes / 2**30:.1f} GiB "
            f"but has {ddr_capacity / 2**30:.1f} GiB",
            requested=memory.ddr_bytes, available=ddr_capacity,
            device=system.cpu.memory.name)
    if memory.cxl_bytes > 0.0:
        cxl_capacity = system.cxl_pool.capacity_bytes
        if memory.cxl_bytes > cxl_capacity:
            raise CapacityError(
                f"{system.name}: CXL needs "
                f"{memory.cxl_bytes / 2**30:.1f} GiB but has "
                f"{cxl_capacity / 2**30:.1f} GiB",
                requested=memory.cxl_bytes, available=cxl_capacity,
                device="cxl-pool")


class LiaEstimator:
    """Analytic twin of the LIA runtime for one (model, system) pair."""

    framework_name = "lia"

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None) -> None:
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()

    # ------------------------------------------------------------------
    def estimate(self, request: InferenceRequest) -> InferenceEstimate:
        """Estimate latency, throughput, and memory for one request."""
        memory, residency = self._plan(request)
        prefill, prefill_policy = self._stage_breakdown(
            Stage.PREFILL, request, np.array([request.input_len]),
            residency)
        decode, decode_policy = self._stage_breakdown(
            Stage.DECODE, request, request.decode_context_lengths(),
            residency)
        return InferenceEstimate(
            framework=self.framework_name,
            model=self.spec.name,
            system=self.system.name,
            request=request,
            prefill=prefill,
            decode=decode,
            prefill_policy=prefill_policy,
            decode_policy=decode_policy,
            residency=residency,
            memory=memory,
        )

    def decode_step_times(self, batch_sizes: Sequence[int],
                          context_lens: Sequence[int]) -> np.ndarray:
        """One decode step's time at every ``(B, L)`` of a grid.

        Entry ``[i, j]`` is
        ``estimate(InferenceRequest(batch_sizes[i], context_lens[j],
        1)).decode.time`` bit for bit, from one broadcast term table:
        each point keeps its own Eq. (1) winners and residency split,
        and the first point (row-major) that ``estimate`` rejects
        raises the same :class:`CapacityError`.
        """
        shape = (len(batch_sizes), len(context_lens))
        plans = [self._plan(InferenceRequest(b, c, 1))[1]
                 for b in batch_sizes for c in context_lens]
        n_resident = np.array(
            [plan.n_resident_layers for plan in plans]).reshape(shape)
        n_streamed = np.array(
            [plan.n_layers for plan in plans]).reshape(shape) - n_resident
        terms = layer_terms(self.spec, Stage.DECODE,
                            np.asarray(batch_sizes)[:, np.newaxis],
                            np.asarray(context_lens), self.system,
                            self.config)
        total = np.zeros(shape)
        for count, weights_resident in ((n_streamed, False),
                                        (n_resident, True)):
            winners = search_grid(terms, self.config,
                                  weights_resident).winners_on_cpu
            layer = terms.sums(winners, resident_mask(weights_resident))
            time = stage_layer_time(layer, Stage.DECODE, self.config)
            # As in _stage_breakdown: an empty group adds nothing.
            total = np.where(count > 0, total + time * count, total)
        return total

    def max_feasible_batch(self, input_len: int, output_len: int,
                           hi: int = 1 << 14) -> int:
        """Largest batch size whose host memory footprint fits — the
        quantity CXL offloading raises in Table 3 and the abstract's
        900 -> 1.6K claim."""
        def fits(batch_size: int) -> bool:
            request = InferenceRequest(batch_size, input_len, output_len)
            try:
                check_host_capacity(
                    host_memory_usage(self.spec, request, self.system,
                                      self.config),
                    self.system)
            except CapacityError:
                return False
            return True

        if not fits(1):
            return 0
        if fits(hi):
            return hi
        low, high = 1, hi
        while high - low > 1:
            mid = (low + high) // 2
            if fits(mid):
                low = mid
            else:
                high = mid
        return low

    # ------------------------------------------------------------------
    def _plan(self, request: InferenceRequest
              ) -> Tuple[MemoryUsage, ResidencyPlan]:
        """Memory placement and GPU residency of ``request``; raises
        :class:`CapacityError` when the host pools (if enforced) or the
        GPU working set overflow."""
        memory = host_memory_usage(self.spec, request, self.system,
                                   self.config)
        if self.config.enforce_host_capacity:
            check_host_capacity(memory, self.system)
        residency = plan_layer_residency(self.spec, self.system, request,
                                         self.config)
        gpu_bytes = residency.resident_bytes + residency.working_bytes
        if gpu_bytes > self.system.gpu.memory_capacity:
            raise CapacityError(
                f"{self.system.name}: GPU working set "
                f"{gpu_bytes / 2**30:.1f} GiB exceeds "
                f"{self.system.gpu.memory_capacity / 2**30:.1f} GiB",
                requested=gpu_bytes,
                available=self.system.gpu.memory_capacity,
                device=self.system.gpu.name)
        return replace(memory, gpu_bytes=gpu_bytes), residency

    def _stage_breakdown(self, stage: Stage, request: InferenceRequest,
                         context_lens: np.ndarray,
                         residency: ResidencyPlan
                         ) -> Tuple[StageBreakdown, OffloadPolicy]:
        """Stage time over every step's ``L`` in ``context_lens``, for
        the streamed and resident layer groups of Optimization-1.  One
        term table covers every step; the policies are chosen on its
        first row, ``L_in`` (the decode policy depends on B, not L —
        §7.1)."""
        terms = layer_terms(self.spec, stage, request.batch_size,
                            context_lens, self.system, self.config)
        first = terms.point(0)
        streamed = search_grid(first, self.config).policy()
        n_resident = residency.n_resident_layers
        steps = StageBreakdown(0.0, 0.0, 0.0, 0.0)
        for count, weights_resident in (
                (residency.n_layers - n_resident, False),
                (n_resident, True)):
            if count == 0:
                continue
            policy = (search_grid(first, self.config, True).policy()
                      if weights_resident else streamed)
            layer = terms.sums(on_cpu_mask(policy),
                               resident_mask(weights_resident))
            time = stage_layer_time(layer, stage, self.config)
            steps = steps + StageBreakdown(
                time=time * count,
                cpu_compute=layer.cpu_compute * count,
                gpu_compute=layer.gpu_compute * count,
                transfer=layer.transfer * count)
        return sum_steps(steps), streamed


def sum_steps(steps: StageBreakdown) -> StageBreakdown:
    """Total a breakdown whose fields are arrays over steps, left to
    right (``np.add.accumulate``) as a per-step loop adds them."""
    def total(values: np.ndarray) -> float:
        return float(np.add.accumulate(values)[-1]) if values.size else 0.0

    return StageBreakdown(*(total(values) for values in steps.components()))
