"""Decoder-layer latency model — Equations (2) through (9) of §5.1.

For a policy vector ``p`` the latency of one decoder layer is

.. math::

    T(p) = \\sum_{i=1}^{6} (T_{i,load}(p) + T_{i,comp}(p)
            + T_{i,store}(p)),

with load time split into the activation (:math:`X_i`), the weights or
KV cache (:math:`Y_i`), and the residual operand (:math:`R_i`).

Two conventions, documented in DESIGN.md §1:

* The paper's Eqs. (5), (8), (9) have their conditions flipped
  relative to its own p_i = 1 ⇒ CPU convention; we implement the
  physically consistent version (weights cross PCIe when the consumer
  is the GPU, etc.).
* Eq. (6) charges the residual transfer at the *residual operand's*
  size (``B·t·d_m`` elements).  The FC2 input ``D_X6`` is 4x wider
  than its residual; we move only the residual.

Memory tiering (§6) enters in two places: the *source bandwidth* of
PCIe weight transfers (a slow CXL pool can throttle the link,
Observation-1) and a slow-tier term in CPU compute (Observation-2's
degradation, which the roofline reproduces).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Collection, Iterable, Tuple, cast

import numpy as np

from repro.core.config import LiaConfig
from repro.core.policy import Device, OffloadPolicy
from repro.core.terms import (LayerTerms, layer_terms, on_cpu_mask,
                               resident_mask)
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage, Sublayer, SublayerCost


def _fold(values: Iterable[float]) -> float:
    """Left-to-right sum, the order :func:`repro.core.terms.fold`
    reproduces (from Python 3.12, ``sum`` of floats is compensated)."""
    return functools.reduce(operator.add, values, 0)


@dataclass(frozen=True)
class SublayerLatency:
    """Latency decomposition of one sublayer under a policy."""

    sublayer: Sublayer
    device: Device
    cost: SublayerCost
    t_load_x: float
    t_load_y: float
    t_load_r: float
    t_comp: float
    t_store: float
    #: True when ``t_load_y`` is a weight transfer that a prefetcher
    #: could issue ahead of time (Optimization-2 overlap).
    y_prefetchable: bool
    #: Bytes actually moved over PCIe by each term (zero when the
    #: corresponding condition of Eqs. (4)-(9) does not fire) — the
    #: basis of §7.2's transfer-reduction accounting.
    bytes_x: float = 0.0
    bytes_y: float = 0.0
    bytes_r: float = 0.0
    bytes_store: float = 0.0

    @property
    def t_load(self) -> float:
        return self.t_load_x + self.t_load_y + self.t_load_r

    @property
    def total(self) -> float:
        return self.t_load + self.t_comp + self.t_store

    @property
    def transfer_bytes(self) -> float:
        """All PCIe bytes this sublayer moves."""
        return (self.bytes_x + self.bytes_y + self.bytes_r
                + self.bytes_store)


@dataclass(frozen=True)
class LayerLatency:
    """Latency of one decoder layer: per-sublayer parts and rollups."""

    stage: Stage
    policy: OffloadPolicy
    sublayers: Tuple[SublayerLatency, ...]

    @property
    def total(self) -> float:
        """Serial (non-overlapped) layer latency, Eq. (2)."""
        return _fold(s.total for s in self.sublayers)

    @property
    def cpu_compute(self) -> float:
        return _fold(s.t_comp for s in self.sublayers
                     if s.device is Device.CPU)

    @property
    def gpu_compute(self) -> float:
        return _fold(s.t_comp for s in self.sublayers
                     if s.device is Device.GPU)

    @property
    def compute(self) -> float:
        return self.cpu_compute + self.gpu_compute

    @property
    def transfer(self) -> float:
        """All PCIe time: loads plus stores."""
        return _fold(s.t_load + s.t_store for s in self.sublayers)

    @property
    def prefetchable_transfer(self) -> float:
        """Weight transfers that overlap can hide (next-layer
        prefetch)."""
        return _fold(s.t_load_y for s in self.sublayers
                     if s.y_prefetchable)

    @property
    def dependent_transfer(self) -> float:
        """Transfers on the intra-layer critical path (activations,
        residuals, KV movement)."""
        return self.transfer - self.prefetchable_transfer

    @property
    def transfer_bytes(self) -> float:
        """Total PCIe bytes the layer moves (§7.2's metric)."""
        return _fold(s.transfer_bytes for s in self.sublayers)


def policy_layer(terms: LayerTerms, policy: OffloadPolicy,
                 weights_resident: bool = False,
                 resident_sublayers: Collection[Sublayer] = ()
                 ) -> LayerLatency:
    """The per-sublayer view of ``policy`` on a scalar-``L`` term table
    (see :func:`layer_latency` for the residency flags)."""
    fired = terms.firing(on_cpu_mask(policy), resident_mask(
        weights_resident, resident_sublayers))
    # One row per sublayer: its six terms, then the five masks as 0/1.
    rows = np.stack((terms.comp_cpu, terms.comp_gpu, terms.load_x,
                     terms.load_y, terms.load_r, terms.store) + fired,
                    axis=-1).tolist()
    parts = tuple(
        SublayerLatency(
            sublayer=sub, device=policy.device(sub), cost=cost,
            t_load_x=x if fires_x else 0.0,
            t_load_y=y if fires_y else 0.0,
            t_load_r=r if fires_r else 0.0,
            t_comp=comp_cpu if on_cpu else comp_gpu,
            t_store=store if fires_store else 0.0,
            y_prefetchable=bool(prefetchable),
            bytes_x=cost.d_x if fires_x else 0.0,
            bytes_y=cost.d_y if fires_y else 0.0,
            bytes_r=cast(float, terms.bytes_r) if fires_r else 0.0,
            bytes_store=cost.d_kv_out if fires_store else 0.0)
        for sub, cost, on_cpu, (comp_cpu, comp_gpu, x, y, r, store, fires_x,
                                fires_y, fires_r, fires_store, prefetchable)
        in zip(Sublayer, map(terms.costs.column, Sublayer), policy.bits,
               rows))
    return LayerLatency(stage=terms.stage, policy=policy, sublayers=parts)


def layer_latency(spec: ModelSpec, stage: Stage, policy: OffloadPolicy,
                  batch_size: int, context_len: int,
                  system: SystemConfig, config: LiaConfig,
                  weights_resident: bool = False,
                  resident_sublayers: Collection[Sublayer] = (),
                  kv_resident: bool = False) -> LayerLatency:
    """Latency of one decoder layer under ``policy`` (Eq. 2).

    ``context_len`` is the attention span ``L``: the prompt length in
    prefill, or the current KV-cache length during decoding.  With
    ``weights_resident=True`` the layer's weights already sit in GPU
    memory (LIA's Optimization-1) and GPU-computed parameter sublayers
    skip their PCIe weight loads; ``resident_sublayers`` grants the
    same per sublayer class (FlexGen's coarser packing).  With
    ``kv_resident=True`` the KV cache's home is GPU memory instead of
    host memory (FlexGen at B=1, §3), flipping the direction of the
    Eq. (5) decode KV loads and the Eq. (9) store.  The terms come from
    :func:`~repro.core.terms.layer_terms`.
    """
    terms = layer_terms(spec, stage, batch_size, context_len, system,
                        config, kv_resident=kv_resident)
    return policy_layer(terms, policy, weights_resident,
                        resident_sublayers)
