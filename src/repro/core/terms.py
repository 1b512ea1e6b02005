"""The per-sublayer term table of Eqs. (4)-(9).

At one ``(stage, B, L)`` every Eq. (2) term is fixed; a policy only
picks which fire (CPU or GPU compute, and each PCIe load or store).
:func:`layer_terms` evaluates every candidate term once into ``(..., 6)``
arrays, and :meth:`LayerTerms.sums` scores one policy, or all 64 at
once, by a masked gather.  ``B`` and ``L`` may be arrays that
broadcast together (one ``L`` per decode step, or a whole ``(B, L)``
grid), so a decode stage or a step-time profile is one table.  Sums
fold the sublayers left to right, as
:class:`~repro.core.latency.LayerLatency` adds them, and an unfired
term adds an exact 0.0: results are bit-identical to evaluating one
policy at one ``(B, L)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, List, Tuple, Union

import numpy as np

from repro.arrays import Real
from repro.core.config import KvCachePlacement, LiaConfig, WeightPlacement
from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError
from repro.hardware.roofline import ComputeEngine, MatmulKind
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import (NUM_SUBLAYERS, RESIDUAL_SOURCE, Stage,
                                    Sublayer, SublayerCost, sublayer_cost)
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

#: Sublayers whose second operand is model weights (1, 4, 5, 6).
USES_PARAMETERS: Mask = np.array([sub.uses_parameters for sub in Sublayer])
#: Column of :math:`p_{i-1}` for each sublayer (:math:`p_0 = p_6`).
_PREVIOUS = np.roll(np.arange(NUM_SUBLAYERS), 1)
#: Column of each sublayer's Eq. (6) residual source; a sublayer
#: without one points at itself, so its term never fires.
_RESIDUAL = np.array([int(RESIDUAL_SOURCE.get(sub, sub)) - 1
                      for sub in Sublayer])

#: The 64 Eq. (1) candidates in ``OffloadPolicy.all_policies()`` order,
#: and their on-CPU masks as one ``(64, 6)`` array.
ALL_POLICIES: Tuple[OffloadPolicy, ...] = tuple(OffloadPolicy.all_policies())
ALL_ON_CPU: Mask = np.array([policy.bits for policy in ALL_POLICIES],
                            dtype=bool)
# Shared by every caller in the process: read-only.
USES_PARAMETERS.setflags(write=False)
ALL_ON_CPU.setflags(write=False)


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


def check_placement(system: SystemConfig, config: LiaConfig) -> None:
    """Raise :class:`ConfigurationError` when ``config`` places weights
    or KV cache on CXL and ``system`` has no CXL expanders."""
    pool_bandwidth(system, config.weight_placement is WeightPlacement.CXL,
                   "weight_placement")
    pool_bandwidth(system, config.kv_placement is KvCachePlacement.CXL,
                   "kv_placement")


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
    of ``B`` and ``L`` broadcast together; ``costs`` and ``bytes_r``
    (the Eq. (6) residual size) are the Table 1 sizes behind them.
    """

    stage: Stage
    #: The KV cache lives in GPU memory (FlexGen at B=1), not host
    #: memory: flips the Eq. (5) decode loads and the Eq. (9) store.
    kv_resident: bool
    costs: Tuple[SublayerCost, ...]
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
        """Masks of the Eq. (4), (5)/(7), (6) and (9) terms that fire
        under ``on_cpu`` (a ``(6,)`` policy, or any stack of them that
        broadcasts against the tables) with ``resident`` weights, and
        of the prefetchable weight loads."""
        on_gpu = ~on_cpu
        if self.stage is Stage.PREFILL:
            # Eq. (7), made consistent with the Eq. (9) store: the
            # fresh K/V exist on sublayer 1's device and (after the
            # store) at their host home, so a transfer is needed only
            # when a GPU consumer faces CPU-generated KV.
            kv_load = on_gpu & on_cpu[..., :1]
        else:
            # Decode: the KV cache is fetched from its home memory.
            kv_load = on_cpu == self.kv_resident
        streamed = USES_PARAMETERS & on_gpu & ~resident
        return (on_cpu != on_cpu[..., _PREVIOUS],
                np.where(USES_PARAMETERS, streamed, kv_load),
                on_cpu != on_cpu[..., _RESIDUAL],
                on_cpu == self.kv_resident,
                streamed)

    def sums(self, on_cpu: Mask, resident: Mask) -> LayerSums:
        """Serial totals per policy of the stack and per grid point."""
        load_x, load_y, load_r, store, prefetchable = self.firing(
            on_cpu, resident)
        t_load_y = np.where(load_y, self.load_y, 0.0)
        t_load = (np.where(load_x, self.load_x, 0.0) + t_load_y
                  + np.where(load_r, self.load_r, 0.0))
        return LayerSums(
            cpu_compute=fold(np.where(on_cpu, self.comp_cpu, 0.0)),
            gpu_compute=fold(np.where(on_cpu, 0.0, self.comp_gpu)),
            transfer=fold(t_load + np.where(store, self.store, 0.0)),
            prefetchable_transfer=fold(
                np.where(prefetchable, t_load_y, 0.0)))


def layer_terms(spec: ModelSpec, stage: Stage, batch_size: Real,
                context_len: Real, system: SystemConfig,
                config: LiaConfig, kv_resident: bool = False
                ) -> LayerTerms:
    """Evaluate every term of Eqs. (4)-(9) at one ``(stage, B, L)``.

    ``context_len`` is ``L`` — the prompt length in prefill, the KV
    length while decoding.  ``batch_size`` and ``context_len`` may be
    arrays; the tables then have shape
    ``np.broadcast_shapes(shape(B), shape(L)) + (6,)``.  Raises
    :class:`ConfigurationError` for ``B < 1``, ``L < 1``, or a CXL
    placement on a system without CXL.
    """
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
    costs = tuple(sublayer_cost(spec, sub, stage, batch_size, context_len)
                  for sub in Sublayer)
    # Eq. (6): the residual is the d_m-wide hidden state, regardless
    # of the sublayer's own input width.
    tokens = context_len if stage is Stage.PREFILL else 1
    bytes_r = batch_size * tokens * spec.d_model * spec.bytes_per_param
    load_r = (BOUNDARY_SYNC_LATENCY
              + link.transfer_time(bytes_r, source_bandwidth=kv_bw))

    # One list per time field of LayerTerms, in field order.
    columns: List[List[Real]] = [[] for _ in range(6)]
    for sub, cost in zip(Sublayer, costs):
        kind = MatmulKind.GEMM
        if sub.uses_kv_cache and stage is Stage.DECODE:
            kind = MatmulKind.BATCHED_GEMV
        # Eq. (8) on the CPU: operands in a tier slower than DDR (CXL)
        # stream at that tier's bandwidth.
        slow_bytes: Real = 0.0
        slow_bw = float("inf")
        if sub.uses_parameters and weight_bw < ddr_bw:
            slow_bytes += cost.d_y
            slow_bw = weight_bw
        if sub.uses_kv_cache and kv_bw < ddr_bw:
            slow_bytes += cost.d_y
            slow_bw = kv_bw
        elif (sub.uses_kv_cache and stage is Stage.DECODE
                and config.kv_cxl_fraction > 0.0 and system.has_cxl):
            # Recency-window tiering: the cold prefix of the cache
            # streams from CXL, the hot tail from DDR.
            slow_bytes += cost.d_y * config.kv_cxl_fraction
            slow_bw = system.cxl_pool.bandwidth
        fast_bytes = cost.d_x + cost.d_y - slow_bytes
        y_bw = weight_bw if sub.uses_parameters else kv_bw
        values: Tuple[Real, ...] = (
            cpu.matmul_time(cost.flops, fast_bytes, kind,
                            slow_bytes=slow_bytes, slow_bandwidth=slow_bw),
            gpu.matmul_time(cost.flops, cost.d_x + cost.d_y, kind),
            BOUNDARY_SYNC_LATENCY
            + link.transfer_time(cost.d_x, source_bandwidth=kv_bw),
            link.transfer_time(cost.d_y, source_bandwidth=y_bw),
            load_r if sub in RESIDUAL_SOURCE else 0.0,
            link.transfer_time(cost.d_kv_out, source_bandwidth=kv_bw))
        for column, value in zip(columns, values):
            column.append(value)

    grid = np.broadcast_shapes(np.shape(batch_size), np.shape(context_len))
    tables = []
    for column in columns:
        table = np.empty(grid + (NUM_SUBLAYERS,))
        for index, value in enumerate(column):
            table[..., index] = value  # lower-rank terms broadcast
        tables.append(table)
    return LayerTerms(stage, kv_resident, costs, bytes_r, *tables)
