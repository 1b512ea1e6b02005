"""Interconnect links: PCIe generations, NVLink, and Grace-Hopper C2C.

A :class:`Link` models unidirectional transfer time as fixed setup
latency plus bytes over effective bandwidth.  Effective bandwidth is
the theoretical rate times a protocol efficiency, calibrated so that
transferring OPT-175B's ~325 GB of parameters over PCIe 5.0 takes the
~5 seconds the paper's footnote 2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arrays import Real, lowest, minimum, where
from repro.errors import ConfigurationError
from repro.units import gb_per_s, us


@dataclass(frozen=True)
class Link:
    """A point-to-point interconnect between two devices."""

    name: str
    bandwidth: float
    #: Per-transfer setup latency (driver + DMA setup).
    setup_latency: float = us(10.0)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0.0:
            raise ConfigurationError(f"{self.name}: bandwidth must be > 0")
        if self.setup_latency < 0.0:
            raise ConfigurationError(
                f"{self.name}: setup_latency must be >= 0")

    def transfer_time(self, num_bytes: Real,
                      source_bandwidth: Real = float("inf")) -> Real:
        """Time to move ``num_bytes`` across the link.

        ``source_bandwidth`` caps the achievable rate when the data's
        home memory is slower than the link — the mechanism behind §6
        Observation-1 (a single 17 GB/s CXL expander throttles a
        32 GB/s PCIe 4.0 transfer; two interleaved expanders do not).
        ``num_bytes`` may be an array; on a ``(..., 6)`` sublayer
        table, ``source_bandwidth`` may be a ``(6,)`` vector, one home
        per sublayer.
        """
        least = lowest(num_bytes)
        if not least >= 0.0:
            raise ConfigurationError("num_bytes must be >= 0")
        rate = minimum(self.bandwidth, source_bandwidth)
        # Moving nothing takes no time, not even the setup.
        return where(least == 0.0 and num_bytes == 0.0, 0.0,
                     self.setup_latency + num_bytes / rate)

    def effective_rate(self, num_bytes: float,
                       source_bandwidth: float = float("inf")) -> float:
        """Achieved bytes/s for a transfer of the given size (Fig. 8a)."""
        time = self.transfer_time(num_bytes, source_bandwidth)
        if time == 0.0:
            return 0.0
        return num_bytes / time

    def degraded(self, bandwidth_scale: float,
                 extra_setup_latency: float = 0.0) -> "Link":
        """A degraded copy of this link (fault injection).

        ``bandwidth_scale`` in (0, 1] models a generation downshift —
        a retrained PCIe Gen5 x16 running at Gen4 rates is scale 0.5 —
        and ``extra_setup_latency`` adds per-transfer overhead (e.g.
        replayed TLPs).  Scale 1.0 with zero extra latency returns
        ``self`` unchanged, preserving fault-free bit-identity.
        """
        if not 0.0 < bandwidth_scale <= 1.0:
            raise ConfigurationError(
                f"{self.name}: bandwidth_scale must be in (0, 1], "
                f"got {bandwidth_scale}")
        if extra_setup_latency < 0.0:
            raise ConfigurationError(
                f"{self.name}: extra_setup_latency must be >= 0")
        if bandwidth_scale == 1.0 and extra_setup_latency == 0.0:
            return self
        return Link(name=f"{self.name}!x{bandwidth_scale:g}",
                    bandwidth=self.bandwidth * bandwidth_scale,
                    setup_latency=self.setup_latency
                    + extra_setup_latency)


#: x16 links per generation, with 92 % protocol efficiency.
_PCIE_EFFICIENCY = 0.92

LINK_ZOO: Dict[str, Link] = {
    "pcie3": Link("pcie3-x16", bandwidth=gb_per_s(16.0) * _PCIE_EFFICIENCY),
    "pcie4": Link("pcie4-x16", bandwidth=gb_per_s(32.0) * _PCIE_EFFICIENCY),
    "pcie5": Link("pcie5-x16", bandwidth=gb_per_s(64.0) * _PCIE_EFFICIENCY),
    #: NVLink 3 between A100s in a DGX (per-GPU aggregate).
    "nvlink3": Link("nvlink3", bandwidth=gb_per_s(600.0),
                    setup_latency=us(5.0)),
    #: Grace-Hopper NVLink-C2C: 900 GB/s CPU-GPU bandwidth (§8; the
    #: paper's "7x PCIe 5.0" compares against PCIe's 128 GB/s
    #: bidirectional figure).
    "nvlink-c2c": Link("nvlink-c2c", bandwidth=gb_per_s(900.0),
                       setup_latency=us(3.0)),
}


def get_link(name: str) -> Link:
    """Look up a link by name ('pcie4', 'pcie5', 'nvlink-c2c', ...)."""
    try:
        return LINK_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(LINK_ZOO))
        raise ConfigurationError(
            f"unknown link {name!r}; known links: {known}") from None
