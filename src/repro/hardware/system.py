"""Full system configurations: CPU + GPU(s) + host link + CXL devices.

The zoo covers every platform the paper evaluates or discusses:
SPR-A100 / SPR-H100 (Table 2), GNR-A100 / GNR-H100 (§7.6), the
Grace-Hopper superchip (§8), the DGX-A100 multi-GPU baseline (§7.8),
and the 3xV100 + low-end-CPU alternative (§8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.hardware.cpu import CpuSpec, get_cpu
from repro.hardware.gpu import GpuSpec, get_gpu
from repro.hardware.interconnect import Link, get_link
from repro.hardware.memory import MemoryDevice, cxl_expander, interleave


@dataclass(frozen=True)
class SystemConfig:
    """A complete inference platform.

    ``gpus`` lists identical GPUs; single-GPU systems (the paper's
    focus) have exactly one entry.  ``cxl_devices`` lists attached CXL
    Type-3 expanders; they are empty unless CXL offloading is enabled.
    """

    name: str
    cpu: CpuSpec
    gpus: Tuple[GpuSpec, ...]
    host_link: Link
    #: GPU-to-GPU link for multi-GPU systems (None for single GPU).
    peer_link: Link = None
    cxl_devices: Tuple[MemoryDevice, ...] = ()
    #: Static platform power (fans, board, drives) in watts.
    platform_power_watts: float = 200.0
    #: Chassis/board/PSU cost excluded from CPU/GPU/memory prices.
    platform_price_usd: float = 3000.0

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigurationError(f"{self.name}: needs >= 1 GPU")
        if len({g.name for g in self.gpus}) != 1:
            raise ConfigurationError(
                f"{self.name}: GPUs must be identical")
        if len(self.gpus) > 1 and self.peer_link is None:
            raise ConfigurationError(
                f"{self.name}: multi-GPU system needs a peer link")

    # ------------------------------------------------------------------
    @property
    def gpu(self) -> GpuSpec:
        """The (first) GPU; single-GPU systems use this accessor."""
        return self.gpus[0]

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    @property
    def has_cxl(self) -> bool:
        return bool(self.cxl_devices)

    @property
    def cxl_pool(self) -> MemoryDevice:
        """All CXL expanders page-interleaved into one pool (§6)."""
        if not self.cxl_devices:
            raise ConfigurationError(f"{self.name}: no CXL devices")
        return interleave(self.cxl_devices, name=f"{self.name}-cxl")

    @property
    def tdp_watts(self) -> float:
        """System thermal design power used by the energy model."""
        return (self.cpu.tdp_watts
                + sum(g.tdp_watts for g in self.gpus)
                + self.platform_power_watts)

    @property
    def price_usd(self) -> float:
        """Total system price: CPU + GPUs + DDR + CXL + platform."""
        memory_cost = self.cpu.memory.total_cost
        cxl_cost = sum(d.total_cost for d in self.cxl_devices)
        return (self.cpu.price_usd
                + sum(g.price_usd for g in self.gpus)
                + memory_cost + cxl_cost + self.platform_price_usd)

    def with_cxl(self, n_expanders: int = 2) -> "SystemConfig":
        """A copy of this system with CXL expanders attached."""
        devices = tuple(cxl_expander(f"{self.name}-cxl{i}")
                        for i in range(n_expanders))
        return SystemConfig(
            name=f"{self.name}+cxl{n_expanders}",
            cpu=self.cpu, gpus=self.gpus, host_link=self.host_link,
            peer_link=self.peer_link, cxl_devices=devices,
            platform_power_watts=self.platform_power_watts,
            platform_price_usd=self.platform_price_usd)


def _single_gpu(name: str, cpu_name: str, gpu_name: str) -> SystemConfig:
    cpu = get_cpu(cpu_name)
    gpu = get_gpu(gpu_name)
    return SystemConfig(name=name, cpu=cpu, gpus=(gpu,),
                        host_link=get_link(gpu.host_link))


# ----------------------------------------------------------------------
# Zoo
# ----------------------------------------------------------------------
SPR_A100 = _single_gpu("spr-a100", "spr", "a100")
SPR_H100 = _single_gpu("spr-h100", "spr", "h100")
GNR_A100 = _single_gpu("gnr-a100", "gnr", "a100")
GNR_H100 = _single_gpu("gnr-h100", "gnr", "h100")

#: Grace-Hopper superchip: weak CPU, 900 GB/s C2C CPU-GPU link (§8).
GH200 = _single_gpu("gh200", "grace", "h100-gh")

#: DGX-A100: 8 x A100-80GB, 8-way tensor parallel over NVLink (§7.8).
DGX_A100 = SystemConfig(
    name="dgx-a100",
    cpu=get_cpu("lowend-cpu"),
    gpus=tuple(get_gpu("a100-80gb") for _ in range(8)),
    host_link=get_link("pcie4"),
    peer_link=get_link("nvlink3"),
    platform_power_watts=1000.0,
    platform_price_usd=25000.0,
)

#: 3 x V100 + low-end CPU, the §8 cost-alternative (data offload only).
V100_X3 = SystemConfig(
    name="3xv100",
    cpu=get_cpu("lowend-cpu"),
    gpus=tuple(get_gpu("v100") for _ in range(3)),
    host_link=get_link("pcie3"),
    peer_link=get_link("pcie3"),
)

SYSTEM_ZOO: Dict[str, SystemConfig] = {
    system.name: system
    for system in (SPR_A100, SPR_H100, GNR_A100, GNR_H100, GH200,
                   DGX_A100, V100_X3)
}


def get_system(name: str) -> SystemConfig:
    """Look up a system by name ('spr-a100', 'gnr-h100', ...)."""
    try:
        return SYSTEM_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(SYSTEM_ZOO))
        raise ConfigurationError(
            f"unknown system {name!r}; known systems: {known}") from None
