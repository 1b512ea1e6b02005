"""Scalar reference for the array-native Eq. (1) search and decode sums.

One policy, one context length, one sublayer at a time: the per-
sublayer Eqs. (4)-(9) evaluation, the 64-candidate Eq. (1) scan, and
the prefill and per-step decode loops of the LIA and FlexGen
estimators, written as plain Python loops over scalar calls of the
shared cost formulas (``sublayer_cost``, ``Link.transfer_time``,
``ComputeEngine.matmul_time``).
The library's table-driven path must agree with this module bit for
bit (``tests/core/test_eq1_differential.py``); the estimator benchmark
times it as its slow side.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Tuple

from repro.baselines.flexgen import FlexGenEstimator
from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.estimator import LiaEstimator, StageBreakdown
from repro.core.gpu_residency import plan_layer_residency
from repro.core.latency import LayerLatency, SublayerLatency
from repro.core.optimizer import PolicyDecision, stage_layer_time
from repro.core.overlap import serial_layer_time
from repro.core.policy import FULL_GPU, OffloadPolicy
from repro.core.terms import (
    BOUNDARY_SYNC_LATENCY,
    cpu_engine,
    pool_bandwidth,
)
from repro.hardware.roofline import MatmulKind
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import (
    RESIDUAL_SOURCE,
    Stage,
    Sublayer,
    sublayer_cost,
)
from repro.models.workload import InferenceRequest


def layer_latency(spec: ModelSpec, stage: Stage, policy: OffloadPolicy,
                  batch_size: int, context_len: int,
                  system: SystemConfig, config: LiaConfig,
                  weights_resident: bool = False,
                  resident_sublayers: Collection[Sublayer] = (),
                  kv_resident: bool = False) -> LayerLatency:
    """Eq. (2) for one policy at one ``L``, sublayer by sublayer."""
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

    parts: List[SublayerLatency] = []
    for sub in Sublayer:
        cost = sublayer_cost(spec, sub, stage, batch_size, context_len)
        i = int(sub)
        on_cpu = policy.on_cpu(sub)

        # Eq. (4): activation load when crossing the device boundary.
        t_load_x = 0.0
        bytes_x = 0.0
        if policy.crosses_boundary(i):
            bytes_x = cost.d_x
            t_load_x = (BOUNDARY_SYNC_LATENCY
                        + link.transfer_time(cost.d_x,
                                             source_bandwidth=kv_bw))

        # Eq. (5)/(7): second-operand load.
        t_load_y = 0.0
        bytes_y = 0.0
        y_prefetchable = False
        if sub.uses_parameters:
            resident = weights_resident or sub in resident_sublayers
            if not on_cpu and not resident:
                bytes_y = cost.d_y
                t_load_y = link.transfer_time(
                    cost.d_y, source_bandwidth=weight_bw)
                y_prefetchable = True
        elif stage is Stage.PREFILL:
            if not on_cpu and policy.p(1) == 1:
                bytes_y = cost.d_y
                t_load_y = link.transfer_time(
                    cost.d_y, source_bandwidth=kv_bw)
        else:
            kv_on_cpu = not kv_resident
            if on_cpu != kv_on_cpu:
                bytes_y = cost.d_y
                t_load_y = link.transfer_time(
                    cost.d_y, source_bandwidth=kv_bw)

        # Eq. (6): residual operand load.
        t_load_r = 0.0
        bytes_r = 0.0
        source = RESIDUAL_SOURCE.get(sub)
        if source is not None and policy.p(i) != policy.p(int(source)):
            tokens = context_len if stage is Stage.PREFILL else 1
            bytes_r = (batch_size * tokens * spec.d_model
                       * spec.bytes_per_param)
            t_load_r = (BOUNDARY_SYNC_LATENCY
                        + link.transfer_time(bytes_r,
                                             source_bandwidth=kv_bw))

        # Eq. (8): compute on the chosen engine.
        kind = MatmulKind.GEMM
        if sub.uses_kv_cache and stage is Stage.DECODE:
            kind = MatmulKind.BATCHED_GEMV
        if on_cpu:
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
            t_comp = cpu.matmul_time(cost.flops, fast_bytes, kind,
                                     slow_bytes=slow_bytes,
                                     slow_bandwidth=slow_bw)
        else:
            t_comp = gpu.matmul_time(cost.flops, cost.d_x + cost.d_y,
                                     kind)

        # Eq. (9): KV-cache store to its home memory.
        t_store = 0.0
        bytes_store = 0.0
        kv_home_is_cpu = not kv_resident
        if sub is Sublayer.QKV_MAPPING and on_cpu != kv_home_is_cpu:
            bytes_store = cost.d_kv_out
            t_store = link.transfer_time(cost.d_kv_out,
                                         source_bandwidth=kv_bw)

        parts.append(SublayerLatency(
            sublayer=sub, device=policy.device(sub), cost=cost,
            t_load_x=t_load_x, t_load_y=t_load_y, t_load_r=t_load_r,
            t_comp=t_comp, t_store=t_store,
            y_prefetchable=y_prefetchable,
            bytes_x=bytes_x, bytes_y=bytes_y, bytes_r=bytes_r,
            bytes_store=bytes_store))
    return LayerLatency(stage=stage, policy=policy,
                        sublayers=tuple(parts))


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


def flexgen_prefill(estimator: FlexGenEstimator,
                    request: InferenceRequest) -> StageBreakdown:
    """FlexGen's prefill stage: one full-GPU layer at ``L_in``."""
    layer = layer_latency(
        estimator.spec, Stage.PREFILL, FULL_GPU, request.batch_size,
        request.input_len, estimator.system, estimator.config,
        resident_sublayers=estimator.estimate(
            request).residency.resident_sublayers,
        kv_resident=estimator.kv_fits_gpu(request))
    return estimator._stage_breakdown(layer, Stage.PREFILL)


def flexgen_decode(estimator: FlexGenEstimator,
                   request: InferenceRequest) -> StageBreakdown:
    """FlexGen's decode stage as a loop over steps."""
    estimate = estimator.estimate(request)
    kv_resident = estimator.kv_fits_gpu(request)
    decode = StageBreakdown(0.0, 0.0, 0.0, 0.0)
    for context_len in request.decode_context_lengths().tolist():
        layer = layer_latency(
            estimator.spec, Stage.DECODE, estimate.decode_policy,
            request.batch_size, context_len, estimator.system,
            estimator.config,
            resident_sublayers=estimate.residency.resident_sublayers,
            kv_resident=kv_resident)
        decode = decode + estimator._stage_breakdown(layer, Stage.DECODE)
    return decode
