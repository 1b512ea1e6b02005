"""Framework configuration: optimization toggles and memory placement.

``LiaConfig`` collects every knob the evaluation exercises: the two
performance optimizations (for the Table 4 ablation), the CPU engine
selection (AMX vs AVX512, for the Fig. 4/5 comparisons), the prefill
mini-batch count, and the §6 memory-offloading placement of weights
and KV cache across DDR and CXL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError


class WeightPlacement(enum.Enum):
    """Where model parameters live on the host side (§6)."""

    DDR = "ddr"
    #: LIA's memory-offloading policy: all parameters in CXL memory.
    CXL = "cxl"


class KvCachePlacement(enum.Enum):
    """Where the KV cache and activations live on the host side."""

    DDR = "ddr"
    #: The "oblivious" placement §6 Observation-2 warns against.
    CXL = "cxl"


@dataclass(frozen=True)
class LiaConfig:
    """LIA framework configuration.

    The defaults reproduce the full framework; the ablation benches
    flip individual fields (Table 4) and the CXL study switches
    ``weight_placement`` (Table 3).
    """

    #: Optimization-1: pack whole decoder layers into unused GPU memory.
    gpu_residency: bool = True
    #: Optimization-2: overlap computation with CPU-GPU transfers.
    overlap: bool = True
    #: Mini-batches for prefill overlap (FlexGen-style split, §5.2).
    prefill_minibatches: int = 2
    #: CPU matmul engine: "amx" (LIA/IPEX) or "avx512" (FlexGen-era).
    cpu_engine: str = "amx"
    #: Host-side placement of model parameters.
    weight_placement: WeightPlacement = WeightPlacement.DDR
    #: Host-side placement of KV cache and activations.
    kv_placement: KvCachePlacement = KvCachePlacement.DDR
    #: Recency-window KV tiering (extension, see cxl.tiering): the
    #: oldest ``kv_cxl_fraction`` of each sequence's KV cache lives in
    #: CXL while the hot tail stays in DDR.  0.0 disables it; only
    #: meaningful with ``kv_placement=DDR`` on a CXL-equipped system.
    kv_cxl_fraction: float = 0.0
    #: Force fixed policies instead of optimizing (ablation row
    #: "w/ FlexGen's policy" uses PARTIAL_CPU for both stages).
    forced_prefill_policy: Optional[OffloadPolicy] = None
    forced_decode_policy: Optional[OffloadPolicy] = None
    #: GPU memory reserved for working buffers (fraction of capacity)
    #: before Optimization-1 packs resident layers.
    gpu_working_reserve: float = 0.10
    #: When False, host-memory overflow does not raise; the estimator
    #: keeps going analytically — the paper's starred "latency model"
    #: data points beyond the 512 GB testbed (§7 "Memory constraints
    #: and latency model").
    enforce_host_capacity: bool = True
    #: Memoize Eq. (1) results and whole estimates in the
    #: process-global LRU caches of :mod:`repro.core.cache`.  Results
    #: are bit-identical either way.
    cache_enabled: bool = True

    def __post_init__(self) -> None:
        if self.prefill_minibatches < 1:
            raise ConfigurationError(
                "prefill_minibatches must be >= 1, got "
                f"{self.prefill_minibatches}")
        if not 0.0 <= self.gpu_working_reserve < 1.0:
            raise ConfigurationError(
                "gpu_working_reserve must be in [0, 1)")
        if not 0.0 <= self.kv_cxl_fraction <= 1.0:
            raise ConfigurationError(
                "kv_cxl_fraction must be in [0, 1], got "
                f"{self.kv_cxl_fraction}")

    # ------------------------------------------------------------------
    # Convenience variants used by the benches
    # ------------------------------------------------------------------
    def without_gpu_residency(self) -> "LiaConfig":
        """Table 4 row 'No Optimization-1'."""
        return replace(self, gpu_residency=False)

    def without_overlap(self) -> "LiaConfig":
        """Table 4 row 'No Optimization-2'."""
        return replace(self, overlap=False)

    def with_forced_policy(self, prefill: OffloadPolicy,
                           decode: OffloadPolicy) -> "LiaConfig":
        """Pin both stage policies (Table 4 row "w/ FlexGen's policy")."""
        return replace(self, forced_prefill_policy=prefill,
                       forced_decode_policy=decode)

    def with_cxl_weights(self) -> "LiaConfig":
        """§6's memory-offloading policy: weights in CXL, KV in DDR."""
        return replace(self, weight_placement=WeightPlacement.CXL,
                       kv_placement=KvCachePlacement.DDR)

    def with_all_cxl(self) -> "LiaConfig":
        """The oblivious all-in-CXL placement (Observation-2)."""
        return replace(self, weight_placement=WeightPlacement.CXL,
                       kv_placement=KvCachePlacement.CXL)

    def with_kv_window(self, cxl_fraction: float) -> "LiaConfig":
        """Recency-window KV tiering: the coldest ``cxl_fraction`` of
        the cache spills to CXL (extension study)."""
        return replace(self, kv_cxl_fraction=cxl_fraction)

    def without_cache(self) -> "LiaConfig":
        """Disable Eq. (1) and estimate memoization."""
        return replace(self, cache_enabled=False)
