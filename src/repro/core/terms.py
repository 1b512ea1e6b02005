"""The per-sublayer term table of Eqs. (4)-(9).

At one ``(stage, B, L)`` every Eq. (2) term is fixed; a policy only
picks which fire (CPU or GPU compute, and each PCIe load or store).
:func:`layer_terms` evaluates every candidate term in one broadcast
pass over a trailing sublayer axis: the Table 1 costs arrive as
``(..., 6)`` arrays, and what differs between sublayers (matmul kind,
slow memory tier, second-operand home, residual input) enters as
constant ``(6,)`` vectors.  :meth:`LayerTerms.sums` scores one policy,
or a stack of them, by a masked gather; the Eq. (1) search scores all
64 with :func:`~repro.core.optimizer.candidate_scores`.  ``B`` and
``L`` may be arrays that broadcast together (one ``L`` per decode
step, or a whole ``(B, L)`` grid), so a decode stage or a step-time
profile is one table.  The KV cache's home (host or GPU) only
flips firing masks, and the CPU engine enters only the ``comp_cpu``
column (:func:`cpu_compute`), so frameworks that differ in just those
read one table.  Sums fold the sublayers left to right, as
:class:`~repro.core.latency.LayerLatency` adds them, and an unfired
term adds an exact 0.0: results are bit-identical to evaluating one
policy at one ``(B, L)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Dict, Tuple, Union

import numpy as np

from repro.arrays import Real, expand_to
from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError
from repro.hardware.roofline import ComputeEngine
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import (KV_STORE_SUBLAYERS, NUM_SUBLAYERS,
                                    RESIDUAL_SOURCE, USES_KV_CACHE,
                                    USES_PARAMETERS, Stage, Sublayer,
                                    SublayerCosts, sublayer_costs)
from repro.units import us

#: Boolean ``(..., 6)`` masks and float64 ``(..., 6)`` term tables.
Mask = np.ndarray
Table = np.ndarray

#: The time-table fields of :class:`LayerTerms`, in field order.
_TIME_FIELDS = ("comp_cpu", "comp_gpu", "load_x", "load_y", "load_r",
                "store")

#: Device-boundary synchronization cost charged per cross-device
#: activation/residual hand-off: stream synchronization, host-side
#: dispatch, and cache-coherence settling.  It keeps near-tie policy
#: comparisons honest — ping-ponging a sublayer across PCIe for a
#: marginal compute win never pays in the real runtime.
BOUNDARY_SYNC_LATENCY = us(100.0)

#: Column of :math:`p_{i-1}` for each sublayer (:math:`p_0 = p_6`).
_PREVIOUS = np.roll(np.arange(NUM_SUBLAYERS), 1)
#: Column of each sublayer's Eq. (6) residual source; a sublayer
#: without one points at itself, so its term never fires.
_RESIDUAL = np.array([int(RESIDUAL_SOURCE.get(sub, sub)) - 1
                      for sub in Sublayer])
#: Sublayers with an Eq. (6) residual input (4 and 6).
_HAS_RESIDUAL: Mask = np.array([sub in RESIDUAL_SOURCE for sub in Sublayer])
#: No sublayer: prefill runs every matmul as a GEMM.
_NO_SUBLAYER: Mask = np.zeros(NUM_SUBLAYERS, dtype=bool)

#: The 64 Eq. (1) candidates in ``OffloadPolicy.all_policies()`` order,
#: and their on-CPU masks as one ``(64, 6)`` array.
ALL_POLICIES: Tuple[OffloadPolicy, ...] = tuple(OffloadPolicy.all_policies())
ALL_ON_CPU: Mask = np.array([policy.bits for policy in ALL_POLICIES],
                            dtype=bool)
# Shared by every caller in the process: read-only.
for _mask in (_HAS_RESIDUAL, _NO_SUBLAYER, ALL_ON_CPU):
    _mask.setflags(write=False)


def on_cpu_mask(policy: OffloadPolicy) -> Mask:
    """``p`` as a boolean array: True where the sublayer runs on the CPU."""
    return np.array(policy.bits, dtype=bool)


def resident_mask(weights_resident: bool = False,
                  resident_sublayers: Collection[Sublayer] = ()) -> Mask:
    """Parameter sublayers whose weights already sit in GPU memory:
    all of them in a resident layer (LIA's Optimization-1), or the
    listed sublayer classes (FlexGen's coarser packing)."""
    return USES_PARAMETERS & np.array(
        [weights_resident or sub in resident_sublayers for sub in Sublayer])


def firing(stage: Stage, kv_resident: Union[bool, Mask], on_cpu: Mask,
           resident: Mask) -> Tuple[Mask, ...]:
    """Masks of the Eq. (4), (5)/(7), (6) and (9) terms that fire
    under ``on_cpu`` (a ``(6,)`` policy, or any stack of them) with
    ``resident`` weights and the KV cache in GPU memory where
    ``kv_resident`` holds (a bool, or a mask over the grid points),
    and of the prefetchable weight loads."""
    if isinstance(kv_resident, np.ndarray):
        kv_resident = kv_resident[..., np.newaxis]
    on_gpu = ~on_cpu
    if stage is Stage.PREFILL:
        # Eq. (7), made consistent with the Eq. (9) store: the fresh
        # K/V exist on sublayer 1's device and (after the store) at
        # their host home, so a transfer is needed only when a GPU
        # consumer faces CPU-generated KV.
        kv_load = on_gpu & on_cpu[..., :1]
    else:
        # Decode: the KV cache is fetched from its home memory.
        kv_load = on_cpu == kv_resident
    streamed = USES_PARAMETERS & on_gpu & ~resident
    return (on_cpu != on_cpu[..., _PREVIOUS],
            np.where(USES_PARAMETERS, streamed, kv_load),
            on_cpu != on_cpu[..., _RESIDUAL],
            KV_STORE_SUBLAYERS & (on_cpu == kv_resident),
            streamed)


#: :func:`firing` of all 64 candidates at once, for every ``(stage,
#: kv_resident, weights_resident)``: the masks an Eq. (1) search
#: scores with.
ALL_FIRING: Dict[Tuple[Stage, bool, bool], Tuple[Mask, ...]] = {
    (stage, kv_resident, weights_resident): firing(
        stage, kv_resident, ALL_ON_CPU, resident_mask(weights_resident))
    for stage in Stage for kv_resident in (False, True)
    for weights_resident in (False, True)}
for _masks in ALL_FIRING.values():
    for _mask in _masks:
        _mask.setflags(write=False)


def fold(values: Table) -> Table:
    """Sum the last (sublayer) axis left to right, as a scalar loop
    does; ``np.sum``'s pairwise order could differ in the last place."""
    total = values[..., 0]
    for column in range(1, NUM_SUBLAYERS):
        total = total + values[..., column]
    return total


def cpu_engine(system: SystemConfig, config: LiaConfig) -> ComputeEngine:
    """The configured CPU matmul engine.  CPUs without it (e.g. Grace
    has SVE2, not AMX) fall back to their best matmul engine."""
    if config.cpu_engine in system.cpu.engines:
        return system.cpu.engine(config.cpu_engine)
    return system.cpu.best_engine


def pool_bandwidth(system: SystemConfig, on_cxl: bool,
                   placement: str) -> float:
    """Streaming bandwidth of the host pool that ``placement``
    (``"weight_placement"`` or ``"kv_placement"``) selects."""
    if not on_cxl:
        return system.cpu.memory.bandwidth
    if not system.has_cxl:
        raise ConfigurationError(
            f"{system.name}: {placement}=CXL but the system has no CXL "
            "expanders (use system.with_cxl())")
    return system.cxl_pool.bandwidth


def host_bandwidths(system: SystemConfig,
                    config: LiaConfig) -> Tuple[float, float]:
    """Streaming bandwidths of the weights' and the KV cache's host
    pools; raises :class:`ConfigurationError` when ``config`` places
    either on CXL and ``system`` has no CXL expanders."""
    return (pool_bandwidth(
                system, config.weight_placement is WeightPlacement.CXL,
                "weight_placement"),
            pool_bandwidth(
                system, config.kv_placement is KvCachePlacement.CXL,
                "kv_placement"))


def check_placement(system: SystemConfig, config: LiaConfig) -> None:
    """Raise :class:`ConfigurationError` when ``config`` places weights
    or KV cache on CXL and ``system`` has no CXL expanders."""
    host_bandwidths(system, config)


@dataclass(frozen=True)
class LayerSums:
    """The serial rollups of :class:`~repro.core.latency.LayerLatency`,
    one entry per candidate policy and grid point."""

    cpu_compute: Table
    gpu_compute: Table
    transfer: Table
    prefetchable_transfer: Table

    @property
    def compute(self) -> Table:
        return self.cpu_compute + self.gpu_compute

    @property
    def dependent_transfer(self) -> Table:
        return self.transfer - self.prefetchable_transfer


@dataclass(frozen=True)
class LayerTerms:
    """Every candidate term of Eqs. (4)-(9) at one ``(stage, B, L)``.

    Times are ``(..., 6)`` arrays, sublayers last, after the grid axes
    of ``B`` and ``L`` broadcast together; ``costs`` (the same shape)
    and ``bytes_r`` (the Eq. (6) residual size, grid axes only) are the
    Table 1 sizes behind them.
    """

    stage: Stage
    #: The KV cache lives in GPU memory (FlexGen at B=1), not host
    #: memory: flips the Eq. (5) decode loads and the Eq. (9) store.
    #: A bool, or a mask over the grid points (FlexGen's requests each
    #: have their own KV home).  Only the firing masks read it.
    kv_resident: Union[bool, Mask]
    costs: SublayerCosts
    bytes_r: Real
    comp_cpu: Table
    comp_gpu: Table
    load_x: Table
    load_y: Table
    load_r: Table
    store: Table

    def point(self, index: Union[int, np.ndarray]) -> "LayerTerms":
        """The time tables at ``index`` of the first grid axis, an int
        or an array of them (``costs`` and ``bytes_r`` keep the whole
        grid's sizes)."""
        return replace(self, **{name: getattr(self, name)[index]
                                for name in _TIME_FIELDS})

    def firing(self, on_cpu: Mask, resident: Mask) -> Tuple[Mask, ...]:
        """:func:`firing` on this table's stage and KV home, for a
        policy stack that broadcasts against the tables."""
        return firing(self.stage, self.kv_resident, on_cpu, resident)

    def sums(self, on_cpu: Mask, resident: Mask) -> LayerSums:
        """Serial totals per policy of the stack and per grid point."""
        if on_cpu.ndim == self.comp_cpu.ndim:
            # One policy per grid point: lay the masks out column by
            # column, as the tables are, so every select is contiguous.
            on_cpu = np.asfortranarray(on_cpu)
        return self.fired_sums(on_cpu, self.firing(on_cpu, resident))

    def fired_sums(self, on_cpu: Mask, fired: Tuple[Mask, ...]
                   ) -> LayerSums:
        """:meth:`sums` with the stack's :meth:`firing` masks given.

        Every table entry is a finite time >= 0 (``sublayer_costs``
        admits only finite ``B`` and ``L``), so multiplying by a mask
        selects exactly as ``np.where(mask, table, 0.0)`` does —
        ``t * 1.0 == t`` and ``t * 0.0 == 0.0`` — at a fraction of the
        cost on large grids.
        """
        load_x, load_y, load_r, store, prefetchable = fired
        t_load_y = self.load_y * load_y
        t_load = self.load_x * load_x + t_load_y + self.load_r * load_r
        return LayerSums(
            cpu_compute=fold(self.comp_cpu * on_cpu),
            gpu_compute=fold(self.comp_gpu * ~on_cpu),
            transfer=fold(t_load + self.store * store),
            prefetchable_transfer=fold(t_load_y * prefetchable))


def _slow_tier(stage: Stage, system: SystemConfig, config: LiaConfig,
               weight_bw: float, kv_bw: float
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. (8) on the CPU: operands in a tier slower than DDR (CXL)
    stream at that tier's bandwidth.  Returns, per sublayer, the share
    of ``D_Y`` in the slow tier and the tier's bandwidth (``inf`` where
    the share is 0.0)."""
    share = np.zeros(NUM_SUBLAYERS)
    bandwidth = np.full(NUM_SUBLAYERS, float("inf"))
    ddr_bw = system.cpu.memory.bandwidth
    if weight_bw < ddr_bw:
        share[USES_PARAMETERS] = 1.0
        bandwidth[USES_PARAMETERS] = weight_bw
    if kv_bw < ddr_bw:
        share[USES_KV_CACHE] = 1.0
        bandwidth[USES_KV_CACHE] = kv_bw
    elif (stage is Stage.DECODE and config.kv_cxl_fraction > 0.0
            and system.has_cxl):
        # Recency-window tiering: the cold prefix of the cache streams
        # from CXL, the hot tail from DDR.
        share[USES_KV_CACHE] = config.kv_cxl_fraction
        bandwidth[USES_KV_CACHE] = system.cxl_pool.bandwidth
    return share, bandwidth


def cpu_compute(costs: SublayerCosts, system: SystemConfig,
                config: LiaConfig) -> Real:
    """The Eq. (8) CPU compute time of every sublayer at every point of
    ``costs``, on the engine ``config`` selects (:func:`cpu_engine`).

    It is the only term of a :class:`LayerTerms` table that depends on
    the CPU engine: a framework on another engine (FlexGen's AVX-512)
    reads a shared table with this column recomputed from its
    ``costs``.
    """
    weight_bw, kv_bw = host_bandwidths(system, config)
    gemv = USES_KV_CACHE if costs.stage is Stage.DECODE else _NO_SUBLAYER
    slow_share, slow_bw = _slow_tier(costs.stage, system, config,
                                     weight_bw, kv_bw)
    slow_bytes = costs.d_y * slow_share if slow_share.any() else 0.0
    return cpu_engine(system, config).matmul_time(
        costs.flops, costs.d_x + costs.d_y - slow_bytes, gemv,
        slow_bytes=slow_bytes, slow_bandwidth=slow_bw)


def layer_terms(spec: ModelSpec, stage: Stage, batch_size: Real,
                context_len: Real, system: SystemConfig,
                config: LiaConfig, kv_resident: bool = False
                ) -> LayerTerms:
    """Evaluate every term of Eqs. (4)-(9) at one ``(stage, B, L)``.

    ``context_len`` is ``L`` — the prompt length in prefill, the KV
    length while decoding.  ``batch_size`` and ``context_len`` may be
    arrays; the tables then have shape
    ``np.broadcast_shapes(shape(B), shape(L)) + (6,)``.  One broadcast
    pass builds each table from the :func:`sublayer_costs` arrays and
    constant per-sublayer vectors, with no loop over sublayers.  Raises
    :class:`ConfigurationError` for a ``B`` or ``L`` that is not finite
    and >= 1, or a CXL placement on a system without CXL.
    """
    link = system.host_link
    weight_bw, kv_bw = host_bandwidths(system, config)
    costs = sublayer_costs(spec, stage, batch_size, context_len)
    gemv = USES_KV_CACHE if stage is Stage.DECODE else _NO_SUBLAYER
    # Eq. (6): the residual is the d_m-wide hidden state, regardless
    # of the sublayer's own input width.
    tokens = context_len if stage is Stage.PREFILL else 1
    bytes_r = batch_size * tokens * spec.d_model * spec.bytes_per_param
    load_r = (BOUNDARY_SYNC_LATENCY
              + link.transfer_time(bytes_r, source_bandwidth=kv_bw))
    return LayerTerms(
        stage, kv_resident, costs, bytes_r,
        comp_cpu=cpu_compute(costs, system, config),
        comp_gpu=system.gpu.engine.matmul_time(
            costs.flops, costs.d_x + costs.d_y, gemv),
        load_x=(BOUNDARY_SYNC_LATENCY
                + link.transfer_time(costs.d_x, source_bandwidth=kv_bw)),
        load_y=link.transfer_time(
            costs.d_y, source_bandwidth=np.where(USES_PARAMETERS,
                                                 weight_bw, kv_bw)),
        load_r=expand_to(np.where(_HAS_RESIDUAL,
                                  np.asarray(load_r)[..., np.newaxis], 0.0),
                         costs.flops.shape),
        store=link.transfer_time(costs.d_kv_out, source_bandwidth=kv_bw))
