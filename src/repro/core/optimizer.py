"""The algorithm front-end (C1): optimal compute-offloading search.

LIA solves Eq. (1) by exhaustive enumeration of the 64 policy vectors
for each stage, scoring each with the Eq. (2) layer-latency model
(including overlap when enabled, since the runtime will execute with
overlap).  The search is instantaneous — six binary decisions — and
re-runs whenever ``(B, L)`` changes, which is how Fig. 9's policy maps
are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import Real
from repro.core.cache import OPTIMAL_POLICY_CACHE, cache_token
from repro.core.config import LiaConfig
from repro.core.latency import LayerLatency, policy_layer
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import OffloadPolicy
from repro.core.terms import (ALL_ON_CPU, ALL_POLICIES, layer_terms,
                               on_cpu_mask, resident_mask)
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.telemetry.runtime import current as current_telemetry


@dataclass(frozen=True)
class PolicyDecision:
    """The winning policy for one (stage, B, L) point."""

    stage: Stage
    policy: OffloadPolicy
    layer_time: float
    layer: LayerLatency


def stage_layer_time(layer: Layer, stage: Stage,
                     config: LiaConfig) -> Real:
    """Per-layer latency under the configured execution scheme."""
    if not config.overlap:
        return serial_layer_time(layer)
    if stage is Stage.PREFILL:
        return overlapped_layer_time(layer,
                                     minibatches=config.prefill_minibatches)
    # LIA decodes the whole batch at once (§5.2 Optimization-2).
    return overlapped_layer_time(layer, minibatches=1)


def optimal_policy(spec: ModelSpec, stage: Stage, batch_size: int,
                   context_len: int, system: SystemConfig,
                   config: LiaConfig,
                   weights_resident: bool = False) -> PolicyDecision:
    """Solve Eq. (1): the policy minimizing decoder-layer latency.

    All 64 candidates are scored at once from one
    :func:`~repro.core.terms.layer_terms` table; the first minimum
    wins, as in a scan over ``OffloadPolicy.all_policies()``.  Honors
    ``config.forced_*_policy`` so the ablation harness can pin
    FlexGen's fixed policy.
    """
    forced = (config.forced_prefill_policy if stage is Stage.PREFILL
              else config.forced_decode_policy)
    candidates: Sequence[OffloadPolicy] = ALL_POLICIES
    on_cpu = ALL_ON_CPU
    if forced is not None:
        candidates = (forced,)
        on_cpu = on_cpu_mask(forced)[np.newaxis]

    telemetry = current_telemetry()
    if telemetry is not None:
        # Fig. 9 sweep accounting: how many Eq. (1) searches were
        # requested and how many candidate policies each one scores
        # (logical counts — cache hits are tracked separately under
        # ``cache.hits{cache=optimal_policy}``).
        telemetry.metrics.counter("policy.searches",
                                  stage=stage.value).inc()
        telemetry.metrics.counter("policy.evaluations",
                                  stage=stage.value).inc(len(candidates))

    def search() -> PolicyDecision:
        terms = layer_terms(spec, stage, batch_size, context_len, system,
                            config)
        # Eq. (1)/(2) scores the *serial* layer latency; overlap is an
        # execution-time optimization, not part of the objective —
        # that is what keeps Fig. 9's B=1 decode region full-CPU.
        times = np.asarray(serial_layer_time(
            terms.sums(on_cpu, resident_mask(weights_resident))))
        best = int(np.argmin(times))
        policy = candidates[best]
        return PolicyDecision(
            stage=stage, policy=policy, layer_time=float(times[best]),
            layer=policy_layer(terms, policy, weights_resident))

    if not config.cache_enabled:
        return search()
    key = (cache_token(spec), cache_token(system), config, stage,
           batch_size, context_len, weights_resident)
    return OPTIMAL_POLICY_CACHE.get_or_compute(key, search)


def policy_map(spec: ModelSpec, stage: Stage, batch_sizes: Sequence[int],
               context_lens: Sequence[int], system: SystemConfig,
               config: LiaConfig,
               workers: Optional[int] = None,
               processes: Optional[int] = None
               ) -> Dict[Tuple[int, int], OffloadPolicy]:
    """Fig. 9: the optimal policy over a (B, L) grid.

    Returns ``{(batch_size, context_len): policy}``.  Grid points are
    independent Eq. (1) searches, so they fan out over the sweep
    runner — process-parallel via the ``policy_map`` kernel when
    ``processes``/``REPRO_SWEEP_PROCESSES`` asks for it and the spec
    and system rebuild from the zoo by name, thread-parallel
    otherwise; the result is deterministic regardless of ``workers``
    or ``processes``.
    """
    from repro.experiments.kernels import zoo_resolvable
    from repro.experiments.parallel import KernelCall
    from repro.experiments.runner import run_sweep

    points = [(batch_size, context_len) for batch_size in batch_sizes
              for context_len in context_lens]
    if zoo_resolvable(spec, system):
        policies = run_sweep(
            KernelCall("policy_map",
                       (spec.name, system.name, stage, config)),
            points, workers=workers, processes=processes)
        return dict(zip(points, policies))
    decisions = run_sweep(
        lambda point: optimal_policy(spec, stage, point[0], point[1],
                                     system, config),
        points, workers=workers)
    return {point: decision.policy
            for point, decision in zip(points, decisions)}


def decode_policy_threshold(spec: ModelSpec, system: SystemConfig,
                            config: LiaConfig, context_len: int = 512,
                            lo: int = 1, hi: int = 4096) -> int:
    """The batch size where the decode policy stops being full-CPU.

    §7.1 reports this threshold at B = 858 for OPT-175B on SPR-A100
    and shows it is independent of L.  Found by bisection on "policy
    is full-CPU".
    """
    def full_cpu(batch_size: int) -> bool:
        decision = optimal_policy(spec, Stage.DECODE, batch_size,
                                  context_len, system, config)
        return decision.policy.all_cpu

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


def prefill_policy_transition(spec: ModelSpec, system: SystemConfig,
                              config: LiaConfig, batch_size: int = 1,
                              lo: int = 1, hi: int = 65536) -> int:
    """The B*L product where prefill flips away from full-CPU (§7.1
    reports BL ~ 850 for OPT-175B on SPR-A100).  Searches over L for a
    fixed B.

    Every return path yields a consistent ``B * L`` product for an L
    actually probed (the bounds floor to ``max(lo // B, 1)`` and
    ``max(hi // B, 1)``), so for non-divisible batch sizes the result
    is always a multiple of ``batch_size`` and never exceeds ``hi``
    (unless ``hi < batch_size``, where ``B * 1`` is the smallest
    representable product).
    """
    def full_cpu(context_len: int) -> bool:
        decision = optimal_policy(spec, Stage.PREFILL, batch_size,
                                  context_len, system, config)
        return decision.policy.all_cpu

    lo_len = max(lo // batch_size, 1)
    hi_len = max(hi // batch_size, 1)
    if not full_cpu(lo_len):
        return lo_len * batch_size
    if full_cpu(hi_len):
        return hi_len * batch_size
    low, high = lo_len, hi_len
    while high - low > 1:
        mid = (low + high) // 2
        if full_cpu(mid):
            low = mid
        else:
            high = mid
    return high * batch_size
