"""The algorithm front-end (C1): optimal compute-offloading search.

LIA solves Eq. (1) by exhaustive enumeration of the 64 policy vectors
for each stage, scoring each with the serial Eq. (2) layer latency.
The search is instantaneous — six binary decisions — and re-runs
whenever ``(B, L)`` changes, which is how Fig. 9's policy maps are
produced.  :func:`search_grid` solves it at every point of one term
table, a single ``(B, L)`` or a whole grid; :func:`optimal_policy` is
its one-point case.  :func:`candidate_scores` scores the 64 candidates
by folding the sublayers left to right over the policy bits, so
candidates that share a bit prefix share their partial sums.  The
§7.1 threshold bisections solve their probes in tables too: each table
holds every midpoint the next few halvings could visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.arrays import Real
from repro.core.config import LiaConfig
from repro.core.latency import LayerLatency, policy_layer
from repro.core.overlap import Layer, overlapped_layer_time, serial_layer_time
from repro.core.policy import OffloadPolicy
from repro.core.terms import (ALL_FIRING, ALL_ON_CPU, ALL_POLICIES,
                               LayerTerms, Mask, layer_terms, on_cpu_mask,
                               resident_mask)
from repro.errors import ConfigurationError
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import NUM_SUBLAYERS, Stage
from repro.telemetry.runtime import current as current_telemetry


@dataclass(frozen=True, eq=False)
class PolicyDecision:
    """The winning policy for one (stage, B, L) point.

    ``layer``, the winner's per-sublayer view, is built by
    ``build_layer`` on first read: most callers read only ``policy``.
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


@dataclass(frozen=True, eq=False)
class PolicyGrid:
    """Eq. (1) solved at every grid point of one term table.

    ``layer_time``, each winner's score, is taken on first read: a
    forced policy wins without being scored, and most callers read
    only the winners.
    """

    candidates: Tuple[OffloadPolicy, ...]
    #: ``(k, 6)`` on-CPU masks of ``candidates``.
    on_cpu: Mask
    #: Index into ``candidates`` of each point's winner.
    best: np.ndarray
    score: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def layer_time(self) -> np.ndarray:
        """Each winner's serial layer latency, the Eq. (1) objective."""
        return self.score()

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


#: One sublayer's share of a firing mask in :func:`candidate_scores`:
#: ``None`` where it never fires, ``True`` where it always does, else
#: 0.0/1.0 over the policy bits it varies on (length 1 on the others).
_Select = Union[None, bool, np.ndarray]
#: The candidate axes: one per policy bit, ``p_1`` first, so C order
#: over them is ``OffloadPolicy.all_policies()`` order.
_BITS = (2,) * NUM_SUBLAYERS


def _fold_plans() -> Dict[Tuple[Stage, bool, bool],
                          Tuple[Tuple[_Select, ...], ...]]:
    """Per ``ALL_FIRING`` key, the on-CPU, on-GPU and five firing masks
    of the 64 candidates, each cut per sublayer to the bits it varies
    on (:data:`_Select`).  Masks shared by several keys are cut once."""
    masks = [ALL_ON_CPU, ~ALL_ON_CPU] + [
        mask for fired in ALL_FIRING.values() for mask in fired]
    seen: Dict[bytes, int] = {}
    index = [seen.setdefault(mask.tobytes(), len(seen)) for mask in masks]
    # (distinct mask, sublayer, candidate).
    table = np.stack([masks[index.index(i)].T for i in range(len(seen))])
    # Candidates c and c ^ (32 >> k) differ in bit k alone.
    flip = np.arange(64) ^ (32 >> np.arange(NUM_SUBLAYERS))[:, np.newaxis]
    varies = (np.take(table, flip, axis=-1)
              != table[:, :, np.newaxis]).any(axis=-1)
    bits = table.reshape(table.shape[:2] + _BITS + (1,)).astype(float)
    cuts = (slice(0, 1), slice(None))

    def cut(i: int, j: int, some: bool, every: bool) -> _Select:
        if not some:
            return None
        if every:
            return True
        return bits[i, j][tuple(cuts[k] for k in varies[i, j].tolist())]

    rows = [tuple(cut(i, j, some, every) for j, (some, every)
                  in enumerate(zip(*flags)))
            for i, flags in enumerate(zip(table.any(axis=-1).tolist(),
                                          table.all(axis=-1).tolist()))]
    return {key: tuple(rows[index[i]] for i in
                       (0, 1, *range(2 + 5 * n, 7 + 5 * n)))
            for n, key in enumerate(ALL_FIRING)}


_FOLD_PLANS = _fold_plans()


def _select(column: np.ndarray, fires: _Select) -> Optional[np.ndarray]:
    """``column * mask`` (``None`` for an all-0.0 product), as
    :meth:`LayerTerms.fired_sums` multiplies: ``t * 1.0 == t`` and
    ``t * 0.0 == 0.0`` for the finite times >= 0 of a term table."""
    if fires is None:
        return None
    if fires is True:
        return column
    return column * fires


def _add(total: Optional[np.ndarray],
         term: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``total + term``, where ``None`` is an exact 0.0 (adding 0.0 to
    a sum of times >= 0 leaves it unchanged)."""
    if total is None:
        return term
    if term is None:
        return total
    return total + term


def _fold(products: Iterable[Optional[np.ndarray]]
          ) -> Optional[np.ndarray]:
    """The left-to-right sum of ``products`` (``None`` is 0.0)."""
    return reduce(_add, products, None)


def candidate_scores(terms: LayerTerms,
                     weights_resident: bool = False) -> np.ndarray:
    """The Eq. (1) objective of all 64 candidates at every grid point
    of ``terms``: a ``(64, *grid)`` table, candidates in
    ``OffloadPolicy.all_policies()`` order.

    Folds the sublayers left to right over a ``(2,) * 6 + (N,)``
    broadcast of the policy bits.  Sublayer ``j``'s terms vary only
    with the bits their firing masks vary on: ``p_j``, plus at most
    ``p_{j-1}`` (``p_0 = p_6``), its residual source's bit and ``p_1``
    (prefill's KV load).  So each partial sum is computed once per
    distinct bit prefix, not once per candidate.  Every candidate sees
    the same products and adds, in the same order, as
    :meth:`LayerTerms.fired_sums` with ``ALL_FIRING``, and the
    objective is :func:`serial_layer_time`'s: every score is
    bit-identical to the scalar scan's.
    """
    on_cpu, on_gpu, fires_x, fires_y, fires_r, fires_store, prefetch = (
        _FOLD_PLANS[terms.stage, terms.kv_resident, weights_resident])
    grid = terms.comp_cpu.shape[:-1]
    points = int(np.prod(grid))
    # (sublayer, point) views of the six time tables.
    comp_cpu, comp_gpu, load_x, load_y, load_r, store = (
        table.reshape(points, NUM_SUBLAYERS).T
        for table in (terms.comp_cpu, terms.comp_gpu, terms.load_x,
                      terms.load_y, terms.load_r, terms.store))
    cpu = _fold(map(_select, comp_cpu, on_cpu))
    gpu = _fold(map(_select, comp_gpu, on_gpu))
    # Every candidate's compute differs, so ``total`` is a fresh table
    # over every candidate axis, and the transfer sums are added to it
    # in place; the compute folds are freed before those are built.
    assert cpu is not None and gpu is not None
    total = cpu + gpu
    del cpu, gpu
    transfer: Optional[np.ndarray] = None
    prefetchable: Optional[np.ndarray] = None
    for j in range(NUM_SUBLAYERS):
        t_load_y = _select(load_y[j], fires_y[j])
        t_load = _add(_add(_select(load_x[j], fires_x[j]), t_load_y),
                      _select(load_r[j], fires_r[j]))
        transfer = _add(transfer, _add(t_load, _select(store[j],
                                                       fires_store[j])))
        if t_load_y is not None:
            prefetchable = _add(prefetchable,
                                _select(t_load_y, prefetch[j]))
    # serial_layer_time: compute + dependent + prefetchable transfer.
    assert transfer is not None
    if prefetchable is None:
        total += transfer
    else:
        total += transfer - prefetchable
        total += prefetchable
    return total.reshape((len(ALL_POLICIES),) + grid)


def search_grid(terms: LayerTerms, config: LiaConfig,
                weights_resident: bool = False) -> PolicyGrid:
    """Solve Eq. (1) at every grid point of ``terms``.

    The 64 policies are scored at every point
    (:func:`candidate_scores`), and each point's first minimum wins, as
    in a scan over ``OffloadPolicy.all_policies()``.  A policy
    ``config.forced_*_policy`` pins (so the ablation harness can fix
    FlexGen's) wins everywhere, and is scored only if its
    ``layer_time`` is read.  Eq. (1)/(2) scores the *serial*
    layer latency; overlap is an execution-time optimization, not part
    of the objective — that is what keeps Fig. 9's B=1 decode region
    full-CPU.
    """
    forced = _forced_policy(terms.stage, config)
    if forced is None:
        times = candidate_scores(terms, weights_resident)
        # The minimum is the first minimum's own value; taken now, so
        # the (64, ...) table is freed on return.
        return PolicyGrid(candidates=ALL_POLICIES, on_cpu=ALL_ON_CPU,
                          best=np.argmin(times, axis=0),
                          score=partial(np.asarray, times.min(axis=0)))
    on_cpu = on_cpu_mask(forced)[np.newaxis]
    return PolicyGrid(
        candidates=(forced,), on_cpu=on_cpu,
        best=np.zeros(terms.comp_cpu.shape[:-1], dtype=np.intp),
        score=partial(_scored, terms, on_cpu[0], weights_resident))


def _scored(terms: LayerTerms, on_cpu: Mask,
            weights_resident: bool) -> np.ndarray:
    """The Eq. (1) objective of one policy at every point of
    ``terms``."""
    return np.asarray(serial_layer_time(terms.sums(
        on_cpu, resident_mask(weights_resident))))


def count_searches(stage: Stage, config: LiaConfig, points: int) -> None:
    """Fig. 9 sweep accounting: ``points`` Eq. (1) searches requested,
    and the candidate policies each one scores.  A caller that skips a
    search whose answer nobody reads still counts it here."""
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
    count_searches(stage, config, 1)
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
    count_searches(stage, config, batches.size * lengths.size)
    return {(int(batch_size), int(context_len)): grid.policy((i, j))
            for i, batch_size in enumerate(batches)
            for j, context_len in enumerate(lengths)}


#: Halvings whose midpoints one probe table holds: 2**6 - 1 points.
_PROBE_DEPTH = 6


def _midpoints(low: int, high: int, depth: int) -> List[int]:
    """Every midpoint the next ``depth`` halvings of ``(low, high)``
    could visit."""
    if depth == 0 or high - low <= 1:
        return []
    mid = (low + high) // 2
    return ([mid] + _midpoints(low, mid, depth - 1)
            + _midpoints(mid, high, depth - 1))


def _bisect(full_cpu: Callable[[np.ndarray], List[bool]], lo: int,
            hi: int) -> Tuple[int, int]:
    """``(answer, probes)`` of the bisection that returns ``lo`` where
    ``lo`` is not full-CPU, ``hi`` where ``hi`` is, and else the first
    point of the halving walk's final ``(low, high]`` bracket.

    ``full_cpu`` answers a table of points at once.  Each table holds
    every midpoint the next :data:`_PROBE_DEPTH` halvings could visit
    (the first one ``lo`` and ``hi`` too), and the walk takes the same
    halvings as a one-probe-at-a-time loop, so the answer is the
    loop's even where ``full_cpu`` is not monotone.  ``probes`` counts
    the points the walk reads, the loop's searches.
    """
    answers: Dict[int, bool] = {}

    def solve(points: List[int]) -> None:
        answers.update(zip(points, full_cpu(np.array(points))))

    solve([lo, hi] + _midpoints(lo, hi, _PROBE_DEPTH))
    if not answers[lo]:
        return lo, 1
    if answers[hi]:
        return hi, 2
    low, high, probes = lo, hi, 2
    while high - low > 1:
        mid = (low + high) // 2
        if mid not in answers:
            solve(_midpoints(low, high, _PROBE_DEPTH))
        probes += 1
        if answers[mid]:
            low = mid
        else:
            high = mid
    return high, probes


def _full_cpu(spec: ModelSpec, stage: Stage, batch_size: Real,
              context_len: Real, system: SystemConfig,
              config: LiaConfig) -> List[bool]:
    """Whether the Eq. (1) winner is full-CPU at each point of one
    table (one of ``batch_size`` and ``context_len`` an array)."""
    terms = layer_terms(spec, stage, batch_size, context_len, system,
                        config)
    return search_grid(terms, config).winners_on_cpu.all(axis=-1).tolist()


def _check_bounds(lo: int, hi: int) -> None:
    if lo > hi:
        raise ConfigurationError(f"lo must be <= hi, got lo={lo}, hi={hi}")


def decode_policy_threshold(spec: ModelSpec, system: SystemConfig,
                            config: LiaConfig, context_len: int = 512,
                            lo: int = 1, hi: int = 4096) -> int:
    """The batch size where the decode policy stops being full-CPU.

    §7.1 reports this threshold at B = 858 for OPT-175B on SPR-A100
    and shows it is independent of L.  Found by bisection on "policy
    is full-CPU" (:func:`_bisect`), one Eq. (1) search counted per
    probe.  Raises :class:`ConfigurationError` when ``lo > hi``.
    """
    _check_bounds(lo, hi)
    threshold, probes = _bisect(
        lambda batch_sizes: _full_cpu(spec, Stage.DECODE, batch_sizes,
                                      context_len, system, config),
        lo, hi)
    count_searches(Stage.DECODE, config, probes)
    return threshold


def prefill_policy_transition(spec: ModelSpec, system: SystemConfig,
                              config: LiaConfig, batch_size: int = 1,
                              lo: int = 1, hi: int = 65536) -> int:
    """The B*L product where prefill flips away from full-CPU (§7.1
    reports BL ~ 850 for OPT-175B on SPR-A100).  Searches over L for a
    fixed B, by the same bisection as :func:`decode_policy_threshold`.

    Every return path yields a consistent ``B * L`` product for an L
    actually probed (the bounds floor to ``max(lo // B, 1)`` and
    ``max(hi // B, 1)``), so for non-divisible batch sizes the result
    is always a multiple of ``batch_size`` and never exceeds ``hi``
    (unless ``hi < batch_size``, where ``B * 1`` is the smallest
    representable product).  Raises :class:`ConfigurationError` when
    ``batch_size < 1`` or ``lo > hi``.
    """
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}")
    _check_bounds(lo, hi)
    length, probes = _bisect(
        lambda context_lens: _full_cpu(spec, Stage.PREFILL, batch_size,
                                       context_lens, system, config),
        max(lo // batch_size, 1), max(hi // batch_size, 1))
    count_searches(Stage.PREFILL, config, probes)
    return length * batch_size
