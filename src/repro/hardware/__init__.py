"""Hardware substrate: calibrated performance models of the CPUs, GPUs,
memories, and interconnects the paper evaluates on.

These replace the physical SPR/GNR Xeons, NVIDIA GPUs, PCIe links, and
CXL expanders (see DESIGN.md §1).  All numbers are either vendor specs
or calibrated against measurements the paper itself reports.
"""

from repro.hardware.roofline import ComputeEngine, EfficiencyCurve, MatmulKind
from repro.hardware.cpu import CPU_ZOO, CpuSpec, get_cpu
from repro.hardware.gpu import GPU_ZOO, GpuSpec, get_gpu
from repro.hardware.memory import (
    MemoryDevice,
    MemoryKind,
    cxl_expander,
    ddr_subsystem,
    hbm_stack,
)
from repro.hardware.interconnect import LINK_ZOO, Link, get_link
from repro.hardware.system import SYSTEM_ZOO, SystemConfig, get_system

__all__ = [
    "ComputeEngine",
    "EfficiencyCurve",
    "MatmulKind",
    "CPU_ZOO",
    "CpuSpec",
    "get_cpu",
    "GPU_ZOO",
    "GpuSpec",
    "get_gpu",
    "MemoryDevice",
    "MemoryKind",
    "cxl_expander",
    "ddr_subsystem",
    "hbm_stack",
    "LINK_ZOO",
    "Link",
    "get_link",
    "SYSTEM_ZOO",
    "SystemConfig",
    "get_system",
]
