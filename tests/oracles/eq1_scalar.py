"""Scalar reference for the array-native Eq. (1) search and decode sums.

One policy, one context length, one sublayer at a time: the per-
sublayer Eqs. (4)-(9) evaluation, the 64-candidate Eq. (1) scan, and
the prefill and per-step decode loops of the LIA and FlexGen
estimators, written as plain Python loops over scalar formulas.  The
cost formulas themselves — Table 1 (:func:`sublayer_cost`), the
Eq. (8) roofline (:func:`matmul_time`) and the PCIe link
(:func:`transfer_time`) — are scalar copies kept here, so the library's
one-pass sublayer-axis table is checked against code it does not share.
The library's table-driven path must agree with this module bit for
bit (``tests/core/test_eq1_differential.py``).

FlexGen's memory plan has a scalar reference too
(:func:`flexgen_kv_fits_gpu`, :func:`flexgen_plan`): one request at a
time, its sublayer classes packed by a greedy loop, where the library
plans a request list in one array pass.

Two more references stand for library code that was replaced: the
all-candidate ``(64, *grid, 6)`` masked-product scoring that
``search_grid`` used before its prefix-fold kernel
(:func:`masked_product_scores`), and the §7.1 threshold bisections as
loops of one-point ``optimal_policy`` probes
(:func:`decode_policy_threshold`, :func:`prefill_policy_transition`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Collection, List, Optional, Tuple

import numpy as np

from repro.baselines.flexgen import FlexGenEstimator
from repro.core import optimizer
from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.estimator import (LiaEstimator, MemoryUsage,
                                  StageBreakdown, check_host_capacity,
                                  host_memory_usage)
from repro.core.gpu_residency import (ResidencyPlan, gpu_working_set_bytes,
                                      plan_layer_residency)
from repro.core.latency import LayerLatency, SublayerLatency
from repro.core.optimizer import PolicyDecision, stage_layer_time
from repro.core.overlap import serial_layer_time
from repro.core.policy import FULL_GPU, PARTIAL_CPU, OffloadPolicy
from repro.core.terms import (
    ALL_FIRING,
    ALL_ON_CPU,
    BOUNDARY_SYNC_LATENCY,
    LayerTerms,
    cpu_engine,
    pool_bandwidth,
)
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.interconnect import Link
from repro.hardware.roofline import (
    BATCHED_GEMV_BANDWIDTH_EFFICIENCY,
    ComputeEngine,
    MatmulKind,
)
from repro.hardware.system import SystemConfig
from repro.models.spec import FeedForwardKind, ModelSpec
from repro.models.sublayers import (
    RESIDUAL_SOURCE,
    Stage,
    Sublayer,
    SublayerCost,
)
from repro.models.workload import InferenceRequest


def sublayer_cost(spec: ModelSpec, sublayer: Sublayer, stage: Stage,
                  batch_size: float, seq_len: float) -> SublayerCost:
    """Table 1's ``D_X``, ``D_Y`` and ``C`` of one sublayer at one
    ``(B, L)``."""
    for name, value in (("batch_size", batch_size), ("seq_len", seq_len)):
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")

    b = batch_size * 1.0
    length = seq_len * 1.0
    d = float(spec.d_model)
    kv = float(spec.kv_dim)
    d_ff = float(spec.d_ff)
    e = float(spec.bytes_per_param)
    w = float(spec.bytes_per_weight)
    t = length if stage is Stage.PREFILL else 1.0

    if sublayer is Sublayer.QKV_MAPPING:
        weights = d * (d + 2.0 * kv)
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * weights,
            flops=2.0 * b * t * weights,
            d_out=e * b * t * d,
            d_kv_out=2.0 * e * b * t * kv,
        )
    if sublayer in (Sublayer.ATTENTION_SCORE, Sublayer.ATTENTION_CONTEXT):
        flops = 2.0 * b * t * length * d
        if sublayer is Sublayer.ATTENTION_SCORE:
            d_x = e * b * t * d
            d_out = e * b * spec.n_heads * t * length
        else:
            d_x = e * b * spec.n_heads * t * length
            d_out = e * b * t * d
        return SublayerCost(
            sublayer, stage,
            d_x=d_x,
            d_y=e * b * length * kv,
            flops=flops,
            d_out=d_out,
        )
    if sublayer is Sublayer.OUTPUT_PROJECTION:
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * d * d,
            flops=2.0 * b * t * d * d,
            d_out=e * b * t * d,
        )
    if sublayer is Sublayer.FC1:
        n_in = float(spec.ffn_matrices_in)
        stored = n_in * d * d_ff
        active = stored
        if spec.feed_forward is FeedForwardKind.MOE:
            stored *= spec.n_experts
            active *= spec.top_k_experts
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * stored,
            flops=2.0 * b * t * active,
            d_out=e * b * t * d_ff,
        )
    stored = d * d_ff
    active = stored
    if spec.feed_forward is FeedForwardKind.MOE:
        stored *= spec.n_experts
        active *= spec.top_k_experts
    return SublayerCost(
        sublayer, stage,
        d_x=e * b * t * d_ff,
        d_y=w * stored,
        flops=2.0 * b * t * active,
        d_out=e * b * t * d,
    )


def matmul_time(engine: ComputeEngine, flops: float, bytes_moved: float,
                kind: MatmulKind = MatmulKind.GEMM,
                slow_bytes: float = 0.0,
                slow_bandwidth: float = float("inf")) -> float:
    """The Eq. (8) roofline of one matmul on ``engine``, with the
    efficiency curve's ``pow`` ramp."""
    curve = engine.efficiency
    efficiency = 0.0
    if flops > 0.0:
        ramp = (curve.half_flops / flops) ** 0.5
        efficiency = curve.max_efficiency / (1.0 + ramp)
    achievable = engine.peak_flops * efficiency
    compute_time = flops / (achievable if achievable > 0.0 else 1.0)
    bandwidth = engine.mem_bandwidth * 1.0
    slow_effective = slow_bandwidth
    if kind is MatmulKind.BATCHED_GEMV:
        bandwidth *= BATCHED_GEMV_BANDWIDTH_EFFICIENCY
        slow_effective *= BATCHED_GEMV_BANDWIDTH_EFFICIENCY
    memory_time = (bytes_moved / bandwidth
                   + slow_bytes / min(bandwidth, slow_effective))
    if flops == 0.0 and bytes_moved == 0.0 and slow_bytes == 0.0:
        return 0.0
    return max(compute_time, memory_time) + engine.dispatch_overhead


def transfer_time(link: Link, num_bytes: float,
                  source_bandwidth: float = float("inf")) -> float:
    """Setup latency plus bytes over the slower of the link and the
    data's home memory."""
    if num_bytes == 0.0:
        return 0.0
    return (link.setup_latency
            + num_bytes / min(link.bandwidth, source_bandwidth))


#: The six candidate terms of one sublayer, in ``LayerTerms`` field
#: order: ``(comp_cpu, comp_gpu, load_x, load_y, load_r, store)``.
Terms = Tuple[float, float, float, float, float, float]


def sublayer_terms(spec: ModelSpec, stage: Stage, sub: Sublayer,
                   batch_size: int, context_len: int,
                   system: SystemConfig, config: LiaConfig
                   ) -> Tuple[SublayerCost, float, Terms]:
    """Every Eq. (4)-(9) term of one sublayer at one ``(B, L)``, fired
    or not, with its Table 1 cost and the Eq. (6) residual bytes."""
    cpu = cpu_engine(system, config)
    gpu = system.gpu.engine
    link = system.host_link
    weight_bw = pool_bandwidth(
        system, config.weight_placement is WeightPlacement.CXL,
        "weight_placement")
    kv_bw = pool_bandwidth(
        system, config.kv_placement is KvCachePlacement.CXL,
        "kv_placement")
    ddr_bw = system.cpu.memory.bandwidth
    cost = sublayer_cost(spec, sub, stage, batch_size, context_len)

    # Eq. (4): activation load when crossing the device boundary.
    load_x = (BOUNDARY_SYNC_LATENCY
              + transfer_time(link, cost.d_x, source_bandwidth=kv_bw))
    # Eq. (5)/(7): second-operand load from the weights' or the KV
    # cache's home pool.
    load_y = transfer_time(
        link, cost.d_y,
        source_bandwidth=weight_bw if sub.uses_parameters else kv_bw)
    # Eq. (6): residual operand load.
    tokens = context_len if stage is Stage.PREFILL else 1
    bytes_r = batch_size * tokens * spec.d_model * spec.bytes_per_param
    load_r = 0.0
    if sub in RESIDUAL_SOURCE:
        load_r = (BOUNDARY_SYNC_LATENCY
                  + transfer_time(link, bytes_r, source_bandwidth=kv_bw))

    # Eq. (8): compute on either engine.
    kind = MatmulKind.GEMM
    if sub.uses_kv_cache and stage is Stage.DECODE:
        kind = MatmulKind.BATCHED_GEMV
    slow_bytes = 0.0
    slow_bw = float("inf")
    if sub.uses_parameters and weight_bw < ddr_bw:
        slow_bytes += cost.d_y
        slow_bw = weight_bw
    if sub.uses_kv_cache and kv_bw < ddr_bw:
        slow_bytes += cost.d_y
        slow_bw = kv_bw
    elif (sub.uses_kv_cache and stage is Stage.DECODE
            and config.kv_cxl_fraction > 0.0 and system.has_cxl):
        slow_bytes += cost.d_y * config.kv_cxl_fraction
        slow_bw = system.cxl_pool.bandwidth
    fast_bytes = cost.d_x + cost.d_y - slow_bytes
    comp_cpu = matmul_time(cpu, cost.flops, fast_bytes, kind,
                           slow_bytes=slow_bytes, slow_bandwidth=slow_bw)
    comp_gpu = matmul_time(gpu, cost.flops, cost.d_x + cost.d_y, kind)

    # Eq. (9): KV-cache store to its home memory.
    store = transfer_time(link, cost.d_kv_out, source_bandwidth=kv_bw)
    return cost, bytes_r, (comp_cpu, comp_gpu, load_x, load_y, load_r,
                           store)


def point_terms(spec: ModelSpec, stage: Stage, batch_size: int,
                context_len: int, system: SystemConfig,
                config: LiaConfig) -> List[Terms]:
    """The candidate terms of all six sublayers at one ``(B, L)``: one
    row of ``LayerTerms``' six time tables per sublayer."""
    return [sublayer_terms(spec, stage, sub, batch_size, context_len,
                           system, config)[2] for sub in Sublayer]


def layer_latency(spec: ModelSpec, stage: Stage, policy: OffloadPolicy,
                  batch_size: int, context_len: int,
                  system: SystemConfig, config: LiaConfig,
                  weights_resident: bool = False,
                  resident_sublayers: Collection[Sublayer] = (),
                  kv_resident: bool = False) -> LayerLatency:
    """Eq. (2) for one policy at one ``L``, sublayer by sublayer."""
    parts: List[SublayerLatency] = []
    for sub in Sublayer:
        cost, bytes_r, (comp_cpu, comp_gpu, load_x, load_y, load_r,
                        store) = sublayer_terms(
            spec, stage, sub, batch_size, context_len, system, config)
        i = int(sub)
        on_cpu = policy.on_cpu(sub)

        # Eq. (4): activation load when crossing the device boundary.
        t_load_x = 0.0
        bytes_x = 0.0
        if policy.crosses_boundary(i):
            bytes_x = cost.d_x
            t_load_x = load_x

        # Eq. (5)/(7): second-operand load.
        y_fires = False
        y_prefetchable = False
        if sub.uses_parameters:
            resident = weights_resident or sub in resident_sublayers
            y_fires = y_prefetchable = not on_cpu and not resident
        elif stage is Stage.PREFILL:
            y_fires = not on_cpu and policy.p(1) == 1
        else:
            y_fires = on_cpu != (not kv_resident)
        t_load_y = load_y if y_fires else 0.0
        bytes_y = cost.d_y if y_fires else 0.0

        # Eq. (6): residual operand load.
        source = RESIDUAL_SOURCE.get(sub)
        r_fires = (source is not None
                   and policy.p(i) != policy.p(int(source)))

        # Eq. (9): KV-cache store to its home memory.
        store_fires = (sub is Sublayer.QKV_MAPPING
                       and on_cpu != (not kv_resident))

        parts.append(SublayerLatency(
            sublayer=sub, device=policy.device(sub), cost=cost,
            t_load_x=t_load_x, t_load_y=t_load_y,
            t_load_r=load_r if r_fires else 0.0,
            t_comp=comp_cpu if on_cpu else comp_gpu,
            t_store=store if store_fires else 0.0,
            y_prefetchable=y_prefetchable,
            bytes_x=bytes_x, bytes_y=bytes_y,
            bytes_r=bytes_r if r_fires else 0.0,
            bytes_store=cost.d_kv_out if store_fires else 0.0))
    return LayerLatency(stage=stage, policy=policy,
                        sublayers=tuple(parts))


def candidate_scores(spec: ModelSpec, stage: Stage, batch_size: int,
                     context_len: int, system: SystemConfig,
                     config: LiaConfig, weights_resident: bool = False,
                     kv_resident: bool = False) -> List[float]:
    """The 64 candidates' serial layer latencies at one ``(B, L)``, in
    ``OffloadPolicy.all_policies()`` order: the Eq. (1) objective the
    scan minimizes."""
    return [serial_layer_time(layer_latency(
        spec, stage, policy, batch_size, context_len, system, config,
        weights_resident=weights_resident, kv_resident=kv_resident))
        for policy in OffloadPolicy.all_policies()]


def masked_product_scores(terms: LayerTerms,
                          weights_resident: bool = False) -> np.ndarray:
    """``(64, *grid)`` candidate scores of ``terms`` from one masked
    product per candidate, grid point and sublayer: the 64 on-CPU
    masks and their ``ALL_FIRING`` masks lead the table's grid axes,
    and ``LayerTerms.fired_sums`` folds each candidate's products."""
    shape = ((len(ALL_ON_CPU),) + (1,) * (terms.comp_cpu.ndim - 1)
             + (ALL_ON_CPU.shape[1],))
    fired = ALL_FIRING[terms.stage, terms.kv_resident, weights_resident]
    return np.asarray(serial_layer_time(terms.fired_sums(
        ALL_ON_CPU.reshape(shape),
        tuple(mask.reshape(shape) for mask in fired))))


def _bisect(full_cpu, lo: int, hi: int) -> int:
    """The §7.1 bisection, one probe at a time."""
    if not full_cpu(lo):
        return lo
    if full_cpu(hi):
        return hi
    low, high = lo, hi
    while high - low > 1:
        mid = (low + high) // 2
        if full_cpu(mid):
            low = mid
        else:
            high = mid
    return high


def decode_policy_threshold(spec: ModelSpec, system: SystemConfig,
                            config: LiaConfig, context_len: int = 512,
                            lo: int = 1, hi: int = 4096) -> int:
    """``optimizer.decode_policy_threshold`` as a loop of one-point
    ``optimal_policy`` probes (each counts one search)."""
    return _bisect(
        lambda batch_size: optimizer.optimal_policy(
            spec, Stage.DECODE, batch_size, context_len, system,
            config).policy.all_cpu, lo, hi)


def prefill_policy_transition(spec: ModelSpec, system: SystemConfig,
                              config: LiaConfig, batch_size: int = 1,
                              lo: int = 1, hi: int = 65536) -> int:
    """``optimizer.prefill_policy_transition`` as a loop of one-point
    ``optimal_policy`` probes over L (each counts one search)."""
    return batch_size * _bisect(
        lambda context_len: optimizer.optimal_policy(
            spec, Stage.PREFILL, batch_size, context_len, system,
            config).policy.all_cpu,
        max(lo // batch_size, 1), max(hi // batch_size, 1))


def optimal_policy(spec: ModelSpec, stage: Stage, batch_size: int,
                   context_len: int, system: SystemConfig,
                   config: LiaConfig,
                   weights_resident: bool = False) -> PolicyDecision:
    """Eq. (1) as a scan over the 64 candidates; the first minimum of
    the serial layer latency wins."""
    forced = (config.forced_prefill_policy if stage is Stage.PREFILL
              else config.forced_decode_policy)
    candidates = ([forced] if forced is not None
                  else list(OffloadPolicy.all_policies()))
    best: Optional[PolicyDecision] = None
    for policy in candidates:
        layer = layer_latency(spec, stage, policy, batch_size,
                              context_len, system, config,
                              weights_resident=weights_resident)
        time = serial_layer_time(layer)
        if best is None or time < best.layer_time:
            best = PolicyDecision(stage=stage, policy=policy,
                                  layer_time=time,
                                  build_layer=lambda layer=layer: layer)
    assert best is not None
    return best


def _lia_step(estimator: LiaEstimator, stage: Stage, batch_size: int,
              context_len: int, n_resident: int, n_layers: int,
              streamed: OffloadPolicy,
              resident: OffloadPolicy) -> StageBreakdown:
    """One step: the streamed and resident layer groups, all layers."""
    total = StageBreakdown(0.0, 0.0, 0.0, 0.0)
    for count, policy, weights_resident in (
            (n_layers - n_resident, streamed, False),
            (n_resident, resident, True)):
        if count == 0:
            continue
        layer = layer_latency(
            estimator.spec, stage, policy, batch_size, context_len,
            estimator.system, estimator.config,
            weights_resident=weights_resident)
        time = stage_layer_time(layer, stage, estimator.config)
        total = total + StageBreakdown(
            time=time * count,
            cpu_compute=layer.cpu_compute * count,
            gpu_compute=layer.gpu_compute * count,
            transfer=layer.transfer * count)
    return total


def lia_stages(estimator: LiaEstimator, request: InferenceRequest
               ) -> Tuple[StageBreakdown, StageBreakdown,
                          OffloadPolicy, OffloadPolicy]:
    """``(prefill, decode, prefill policy, decode policy)`` of
    ``estimator.estimate(request)``, the decode stage as a loop over
    steps."""
    spec, system, config = (estimator.spec, estimator.system,
                            estimator.config)
    residency = plan_layer_residency(spec, system, request, config)
    batch = request.batch_size
    policies = {}
    for stage in Stage:
        policies[stage] = tuple(
            optimal_policy(spec, stage, batch, request.input_len, system,
                           config, weights_resident=resident).policy
            for resident in (False, True))
    args = (residency.n_resident_layers, residency.n_layers)
    prefill = StageBreakdown(0.0, 0.0, 0.0, 0.0) + _lia_step(
        estimator, Stage.PREFILL, batch, request.input_len, *args,
        *policies[Stage.PREFILL])
    decode = StageBreakdown(0.0, 0.0, 0.0, 0.0)
    for context_len in request.decode_context_lengths().tolist():
        decode = decode + _lia_step(estimator, Stage.DECODE, batch,
                                    context_len, *args,
                                    *policies[Stage.DECODE])
    return (prefill, decode, policies[Stage.PREFILL][0],
            policies[Stage.DECODE][0])


def flexgen_kv_fits_gpu(estimator: FlexGenEstimator,
                        request: InferenceRequest) -> bool:
    """Whether FlexGen keeps ``request``'s KV cache and activations on
    the GPU: they fit beside the working set."""
    spec, config = estimator.spec, estimator.config
    capacity = estimator.system.gpu.memory_capacity
    kv = spec.kv_cache_bytes(request.batch_size,
                             request.max_context_len + 1)
    act = spec.peak_activation_bytes(request.batch_size, request.input_len)
    working = gpu_working_set_bytes(spec, request, config,
                                    gpu_capacity=capacity)
    return kv + act + working <= capacity * (1.0
                                             - config.gpu_working_reserve)


def flexgen_plan(estimator: FlexGenEstimator, request: InferenceRequest
                 ) -> Tuple[MemoryUsage, ResidencyPlan]:
    """FlexGen's memory placement and sublayer-class residency of one
    request, packing the classes smallest first in a greedy loop;
    raises :class:`CapacityError` when the host pools (if enforced) or
    the GPU footprint overflow."""
    spec, system, config = (estimator.spec, estimator.system,
                            estimator.config)
    kv_resident = flexgen_kv_fits_gpu(estimator, request)
    memory = host_memory_usage(spec, request, system, config)
    if kv_resident:
        # Host only stores weights; KV/activations stay on GPU.
        memory = MemoryUsage(
            weight_bytes=memory.weight_bytes, kv_bytes=0.0,
            activation_bytes=0.0, ddr_bytes=memory.weight_bytes,
            cxl_bytes=0.0, gpu_bytes=0.0)
    if config.enforce_host_capacity:
        check_host_capacity(memory, system)

    kv_gpu_bytes = 0.0
    if kv_resident:
        kv_gpu_bytes = float(spec.kv_cache_bytes(
            request.batch_size, request.max_context_len + 1))
    capacity = system.gpu.memory_capacity
    working = gpu_working_set_bytes(spec, request, config,
                                    gpu_capacity=capacity)
    resident: list = []
    used = 0.0
    if config.gpu_residency:
        available = (capacity * (1.0 - config.gpu_working_reserve)
                     - working - kv_gpu_bytes)
        classes = sorted(
            ((sublayer_cost(spec, sub, Stage.DECODE, 1, 1).d_y
              * spec.n_layers, sub)
             for sub in Sublayer if sub.uses_parameters),
            key=lambda pair: pair[0])
        for size, sub in classes:
            if used + size <= available:
                resident.append(sub)
                used += size
    residency = ResidencyPlan(
        granularity="sublayer-class", n_layers=spec.n_layers,
        n_resident_layers=0, resident_bytes=used, working_bytes=working,
        resident_sublayers=tuple(resident))
    gpu_bytes = used + working + kv_gpu_bytes
    if gpu_bytes > capacity:
        raise CapacityError(
            f"{system.name}: FlexGen GPU footprint "
            f"{gpu_bytes / 2**30:.1f} GiB exceeds capacity",
            requested=gpu_bytes, available=capacity,
            device=system.gpu.name)
    return replace(memory, gpu_bytes=gpu_bytes), residency


def flexgen_prefill(estimator: FlexGenEstimator,
                    request: InferenceRequest) -> StageBreakdown:
    """FlexGen's prefill stage: one full-GPU layer at ``L_in``."""
    layer = layer_latency(
        estimator.spec, Stage.PREFILL, FULL_GPU, request.batch_size,
        request.input_len, estimator.system, estimator.config,
        resident_sublayers=flexgen_plan(
            estimator, request)[1].resident_sublayers,
        kv_resident=flexgen_kv_fits_gpu(estimator, request))
    return estimator._stage_breakdown(layer, Stage.PREFILL)


def flexgen_decode(estimator: FlexGenEstimator,
                   request: InferenceRequest) -> StageBreakdown:
    """FlexGen's decode stage as a loop over steps: CPU attention
    scoring iff the KV cache lives on the host and compute offload is
    enabled."""
    residency = flexgen_plan(estimator, request)[1]
    kv_resident = flexgen_kv_fits_gpu(estimator, request)
    policy = (PARTIAL_CPU if estimator.settings.compute_offload
              and not kv_resident else FULL_GPU)
    decode = StageBreakdown(0.0, 0.0, 0.0, 0.0)
    for context_len in request.decode_context_lengths().tolist():
        layer = layer_latency(
            estimator.spec, Stage.DECODE, policy,
            request.batch_size, context_len, estimator.system,
            estimator.config,
            resident_sublayers=residency.resident_sublayers,
            kv_resident=kv_resident)
        decode = decode + estimator._stage_breakdown(layer, Stage.DECODE)
    return decode
