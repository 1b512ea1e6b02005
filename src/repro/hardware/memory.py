"""Memory devices: DDR subsystems, GPU HBM stacks, and CXL expanders.

Bandwidth figures are *effective* (achievable by streaming workloads),
matching the numbers the paper quotes: 260 GB/s for the SPR DDR5-4800
subsystem, ~17 GB/s per Samsung CXL Type-3 expander, and so on.  CXL
latency is DDR latency plus the 140-170 ns penalty reported by Sun et
al. (MICRO 2023), which the paper cites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.units import gb_per_s, gib, ns


class MemoryKind(enum.Enum):
    """Memory technology classes with distinct cost/latency behaviour."""

    DDR = "ddr"
    HBM = "hbm"
    CXL = "cxl"


@dataclass(frozen=True)
class MemoryDevice:
    """One memory pool: capacity, streaming bandwidth, and load latency."""

    name: str
    kind: MemoryKind
    capacity_bytes: float
    bandwidth: float
    latency: float
    #: Approximate cost per decimal GB in USD, for the §8 cost study.
    cost_per_gb: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0.0:
            raise ConfigurationError(f"{self.name}: capacity must be > 0")
        if self.bandwidth <= 0.0:
            raise ConfigurationError(f"{self.name}: bandwidth must be > 0")
        if self.latency < 0.0:
            raise ConfigurationError(f"{self.name}: latency must be >= 0")

    def transfer_time(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` from this device."""
        if num_bytes < 0.0:
            raise ConfigurationError("num_bytes must be >= 0")
        if num_bytes == 0.0:
            return 0.0
        return self.latency + num_bytes / self.bandwidth

    @property
    def total_cost(self) -> float:
        """Purchase cost of this pool in USD."""
        return self.cost_per_gb * self.capacity_bytes / 1e9

    def with_bandwidth_scale(self, scale: float) -> "MemoryDevice":
        """A contended copy of this pool (fault injection).

        ``scale`` in (0, 1] is the bandwidth fraction left to this
        workload — e.g. a co-tenant streaming from the same CXL
        expander.  Scale 1.0 returns ``self`` unchanged.
        """
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(
                f"{self.name}: bandwidth scale must be in (0, 1], "
                f"got {scale}")
        if scale == 1.0:
            return self
        return MemoryDevice(name=f"{self.name}!x{scale:g}",
                            kind=self.kind,
                            capacity_bytes=self.capacity_bytes,
                            bandwidth=self.bandwidth * scale,
                            latency=self.latency,
                            cost_per_gb=self.cost_per_gb)

    def with_reserved_fraction(self, fraction: float) -> "MemoryDevice":
        """A pressured copy with part of the capacity reserved away.

        ``fraction`` in [0, 1) models another tenant's allocation (or
        fragmentation) shrinking the pool; bandwidth is untouched.
        Fraction 0.0 returns ``self`` unchanged.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(
                f"{self.name}: reserved fraction must be in [0, 1), "
                f"got {fraction}")
        if fraction == 0.0:
            return self
        return MemoryDevice(name=f"{self.name}!r{fraction:g}",
                            kind=self.kind,
                            capacity_bytes=self.capacity_bytes
                            * (1.0 - fraction),
                            bandwidth=self.bandwidth,
                            latency=self.latency,
                            cost_per_gb=self.cost_per_gb)


def interleave(devices: Sequence[MemoryDevice],
               name: str = "") -> MemoryDevice:
    """Page-granularity NUMA interleaving across identical-kind pools.

    Bandwidth adds, capacity adds, and latency is the worst member's.
    This models §6 Observation-1: interleaving two 17 GB/s CXL
    expanders yields ~34 GB/s, enough to saturate a PCIe 4.0 GPU link.
    """
    if not devices:
        raise ConfigurationError("cannot interleave zero devices")
    kinds = {d.kind for d in devices}
    if len(kinds) != 1:
        raise ConfigurationError(
            f"cannot interleave mixed memory kinds: {sorted(k.value for k in kinds)}")
    return MemoryDevice(
        name=name or "+".join(d.name for d in devices),
        kind=devices[0].kind,
        capacity_bytes=sum(d.capacity_bytes for d in devices),
        bandwidth=sum(d.bandwidth for d in devices),
        latency=max(d.latency for d in devices),
        cost_per_gb=(sum(d.total_cost for d in devices)
                     / sum(d.capacity_bytes for d in devices) * 1e9),
    )


#: Baseline DDR5 load-to-use latency.
_DDR_LATENCY = ns(90)
#: Extra latency of CXL memory over DDR (Sun et al., MICRO '23).
_CXL_EXTRA_LATENCY = ns(155)

#: $/GB figures from the paper's §8 cost discussion: a DDR-only memory
#: system costs $11.25/GB while a half-DDR/half-CXL system costs
#: $5.60/GB, implying roughly $11.25 for DDR and ~$1.2/GB for the
#: repurposed-DDR4 CXL expanders (including the controller).
DDR_COST_PER_GB = 11.25
CXL_COST_PER_GB = 1.20
HBM_COST_PER_GB = 110.0


def ddr_subsystem(name: str, channels: int, mt_per_s: int,
                  capacity_gib: float,
                  efficiency: float = 0.85) -> MemoryDevice:
    """Build a DDR5 subsystem from channel count and transfer rate.

    E.g. the SPR system's 8 x DDR5-4800 channels give 307 GB/s
    theoretical and ~260 GB/s effective at the default efficiency.
    """
    if channels < 1:
        raise ConfigurationError("channels must be >= 1")
    theoretical = channels * mt_per_s * 8 * 1e6  # 8 bytes per transfer
    return MemoryDevice(
        name=name,
        kind=MemoryKind.DDR,
        capacity_bytes=gib(capacity_gib),
        bandwidth=theoretical * efficiency,
        latency=_DDR_LATENCY,
        cost_per_gb=DDR_COST_PER_GB,
    )


def hbm_stack(name: str, capacity_gib: float,
              bandwidth_gb_s: float) -> MemoryDevice:
    """GPU HBM pool with the quoted effective bandwidth."""
    return MemoryDevice(
        name=name,
        kind=MemoryKind.HBM,
        capacity_bytes=gib(capacity_gib),
        bandwidth=gb_per_s(bandwidth_gb_s),
        latency=ns(110),
        cost_per_gb=HBM_COST_PER_GB,
    )


def cxl_expander(name: str = "cxl-expander") -> MemoryDevice:
    """One Samsung-style 128 GiB CXL Type-3 expander built from DDR4
    modules.

    The 17 GB/s per-device bandwidth and the latency penalty match the
    figures used in §6 (Fig. 8a interleaves two such devices).
    """
    return MemoryDevice(
        name=name,
        kind=MemoryKind.CXL,
        capacity_bytes=gib(128),
        bandwidth=gb_per_s(17.0),
        latency=_DDR_LATENCY + _CXL_EXTRA_LATENCY,
        cost_per_gb=CXL_COST_PER_GB,
    )
