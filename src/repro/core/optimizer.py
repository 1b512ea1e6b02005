"""The algorithm front-end (C1): optimal compute-offloading search.

LIA solves Eq. (1) by exhaustive enumeration of the 64 policy vectors
for each stage, scoring each with the Eq. (2) layer-latency model
(including overlap when enabled, since the runtime will execute with
overlap).  The search is instantaneous — six binary decisions — and
re-runs whenever ``(B, L)`` changes, which is how Fig. 9's policy maps
are produced.  :func:`search_grid` solves it at every point of one
term table, a single ``(B, L)`` or a whole grid; :func:`optimal_policy`
is its one-point case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arrays import Real
from repro.core.config import LiaConfig
from repro.core.latency import LayerLatency, policy_layer
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import OffloadPolicy
from repro.core.terms import (ALL_ON_CPU, ALL_POLICIES, LayerTerms, Mask,
                               layer_terms, on_cpu_mask, resident_mask)
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import NUM_SUBLAYERS, Stage
from repro.telemetry.runtime import current as current_telemetry


@dataclass(frozen=True, eq=False)
class PolicyDecision:
    """The winning policy for one (stage, B, L) point.

    ``layer``, the winner's per-sublayer view, is built by
    ``build_layer`` on first read: most callers (the scheduler's
    re-solves, the Fig. 9 threshold bisections) read only ``policy``.
    Equality and hashing cover ``(stage, policy, layer_time, layer)``,
    as for a frozen dataclass of those four fields.
    """

    stage: Stage
    policy: OffloadPolicy
    layer_time: float
    build_layer: Callable[[], LayerLatency] = field(repr=False)

    @cached_property
    def layer(self) -> LayerLatency:
        return self.build_layer()

    def _key(self) -> Tuple[Stage, OffloadPolicy, float, LayerLatency]:
        return (self.stage, self.policy, self.layer_time, self.layer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyDecision):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class PolicyGrid:
    """Eq. (1) solved at every grid point of one term table."""

    candidates: Tuple[OffloadPolicy, ...]
    #: ``(k, 6)`` on-CPU masks of ``candidates``.
    on_cpu: Mask
    #: Index into ``candidates`` of each point's winner.
    best: np.ndarray
    #: Each winner's serial layer latency, the Eq. (1) objective.
    layer_time: np.ndarray

    def policy(self, index: Tuple[int, ...] = ()) -> OffloadPolicy:
        """The winner at grid ``index`` (a 0-d grid's only point by
        default)."""
        return self.candidates[int(self.best[index])]

    @property
    def winners_on_cpu(self) -> Mask:
        """The ``(..., 6)`` on-CPU mask of every point's winner."""
        return self.on_cpu[self.best]


def _forced_policy(stage: Stage,
                   config: LiaConfig) -> Optional[OffloadPolicy]:
    """The policy ``config`` pins for ``stage``, if any."""
    return (config.forced_prefill_policy if stage is Stage.PREFILL
            else config.forced_decode_policy)


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


def search_grid(terms: LayerTerms, config: LiaConfig,
                weights_resident: bool = False) -> PolicyGrid:
    """Solve Eq. (1) at every grid point of ``terms``.

    Every candidate — the 64 policies, or the one
    ``config.forced_*_policy`` pins so the ablation harness can fix
    FlexGen's policy — is scored at every point by one masked gather;
    each point's first minimum wins, as in a scan over
    ``OffloadPolicy.all_policies()``.
    """
    forced = _forced_policy(terms.stage, config)
    candidates: Tuple[OffloadPolicy, ...] = ALL_POLICIES
    on_cpu = ALL_ON_CPU
    if forced is not None:
        candidates = (forced,)
        on_cpu = on_cpu_mask(forced)[np.newaxis]
    # Candidates lead, ahead of the table's grid axes.
    grid_ndim = terms.comp_cpu.ndim - 1
    stack = on_cpu.reshape((len(candidates),) + (1,) * grid_ndim
                           + (NUM_SUBLAYERS,))
    # Eq. (1)/(2) scores the *serial* layer latency; overlap is an
    # execution-time optimization, not part of the objective — that
    # is what keeps Fig. 9's B=1 decode region full-CPU.
    times = np.asarray(serial_layer_time(
        terms.sums(stack, resident_mask(weights_resident))))
    best = np.argmin(times, axis=0)
    return PolicyGrid(
        candidates=candidates, on_cpu=on_cpu, best=best,
        layer_time=np.take_along_axis(times, best[np.newaxis], 0)[0])


def _count_searches(stage: Stage, config: LiaConfig, points: int) -> None:
    """Fig. 9 sweep accounting: ``points`` Eq. (1) searches requested,
    and the candidate policies each one scores."""
    telemetry = current_telemetry()
    if telemetry is None:
        return
    telemetry.metrics.counter("policy.searches",
                              stage=stage.value).inc(points)
    telemetry.metrics.counter("policy.evaluations",
                              stage=stage.value).inc(
        points * (len(ALL_POLICIES)
                  if _forced_policy(stage, config) is None else 1))


def optimal_policy(spec: ModelSpec, stage: Stage, batch_size: int,
                   context_len: int, system: SystemConfig,
                   config: LiaConfig,
                   weights_resident: bool = False) -> PolicyDecision:
    """Solve Eq. (1): the policy minimizing decoder-layer latency.

    The one-point case of :func:`search_grid`.
    """
    _count_searches(stage, config, 1)
    terms = layer_terms(spec, stage, batch_size, context_len, system,
                        config)
    grid = search_grid(terms, config, weights_resident)
    policy = grid.policy()
    return PolicyDecision(
        stage=stage, policy=policy, layer_time=float(grid.layer_time),
        build_layer=partial(policy_layer, terms, policy,
                            weights_resident))


def policy_map(spec: ModelSpec, stage: Stage, batch_sizes: Sequence[int],
               context_lens: Sequence[int], system: SystemConfig,
               config: LiaConfig
               ) -> Dict[Tuple[int, int], OffloadPolicy]:
    """Fig. 9: the optimal policy over a (B, L) grid.

    Returns ``{(batch_size, context_len): policy}`` in row-major grid
    order.  One term table over ``(B[:, None], L[None, :])`` and one
    :func:`search_grid` call solve every point; the telemetry counts
    one search per point, as for per-point :func:`optimal_policy`.
    """
    batches = np.asarray(batch_sizes)
    lengths = np.asarray(context_lens)
    terms = layer_terms(spec, stage, batches[:, np.newaxis],
                        lengths[np.newaxis, :], system, config)
    grid = search_grid(terms, config)
    _count_searches(stage, config, batches.size * lengths.size)
    return {(int(batch_size), int(context_len)): grid.policy((i, j))
            for i, batch_size in enumerate(batches)
            for j, context_len in enumerate(lengths)}


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
