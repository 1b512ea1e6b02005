"""CPU models: AMX- and AVX512-equipped Xeons plus comparison CPUs.

Peak AMX throughput follows the architecture: each core's TMUL retires
16x16x32 BF16 tile FMAs for 1024 FLOP/cycle, so a 40-core SPR at
2.2 GHz peaks at 90.1 TFLOPS — the figure §4.1 quotes.  AVX512 (with
FP16 FMA on two 512-bit ports) retires 128 FLOP/cycle, 8x less, again
matching §4.1.  Efficiency curves are calibrated to the measured
numbers the paper reports: ~20 TFLOPS for SPR-AMX, ~40 TFLOPS for
GNR-AMX, ~4.4 TFLOPS for AVX512, and 199 GFLOPS SPR GEMV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.hardware.memory import MemoryDevice, ddr_subsystem
from repro.hardware.roofline import ComputeEngine, EfficiencyCurve
from repro.units import ghz, tflops, us

#: BF16 FLOP per cycle per core for each instruction-set engine.
AMX_FLOPS_PER_CYCLE = 1024
AVX512_FLOPS_PER_CYCLE = 128


@dataclass(frozen=True)
class CpuSpec:
    """A CPU socket (or multi-socket node) with its compute engines.

    ``engines`` maps engine names ("amx", "avx512", ...) to calibrated
    :class:`ComputeEngine` instances sharing the CPU's DDR bandwidth.
    """

    name: str
    cores: int
    clock_hz: float
    memory: MemoryDevice
    engines: Dict[str, ComputeEngine]
    sockets: int = 1
    tdp_watts: float = 350.0
    #: Street price used by the §7.8/§8 cost study.
    price_usd: float = 10000.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"{self.name}: cores must be >= 1")
        if not self.engines:
            raise ConfigurationError(f"{self.name}: needs >= 1 engine")

    @property
    def best_engine(self) -> ComputeEngine:
        """The engine with the highest measured peak (AMX if present)."""
        return max(self.engines.values(),
                   key=lambda e: e.measured_peak_flops())

    def engine(self, name: str) -> ComputeEngine:
        """Look up an engine by name ('amx', 'avx512', 'sve2')."""
        try:
            return self.engines[name]
        except KeyError:
            known = ", ".join(sorted(self.engines))
            raise ConfigurationError(
                f"{self.name} has no engine {name!r}; has: {known}"
            ) from None


def _make_xeon(name: str, cores: int, clock_ghz: float,
               memory: MemoryDevice, amx_max_eff: float,
               avx_max_eff: float, sockets: int = 1,
               tdp_watts: float = 350.0,
               price_usd: float = 10000.0) -> CpuSpec:
    """Construct an AMX-equipped Xeon with both AMX and AVX512 engines."""
    clock = ghz(clock_ghz)
    total_cores = cores * sockets
    amx_peak = total_cores * clock * AMX_FLOPS_PER_CYCLE
    avx_peak = total_cores * clock * AVX512_FLOPS_PER_CYCLE
    engines = {
        "amx": ComputeEngine(
            name=f"{name}-amx",
            peak_flops=amx_peak,
            mem_bandwidth=memory.bandwidth,
            # AMX libraries are young: utilization saturates low (§4.1
            # footnote 4) and ramps over moderate problem sizes.
            efficiency=EfficiencyCurve(max_efficiency=amx_max_eff,
                                       half_flops=2e10),
            dispatch_overhead=us(2.0),
        ),
        "avx512": ComputeEngine(
            name=f"{name}-avx512",
            peak_flops=avx_peak,
            mem_bandwidth=memory.bandwidth,
            efficiency=EfficiencyCurve(max_efficiency=avx_max_eff,
                                       half_flops=1e10),
            dispatch_overhead=us(2.0),
        ),
    }
    return CpuSpec(name=name, cores=total_cores, clock_hz=clock,
                   memory=memory, engines=engines, sockets=sockets,
                   tdp_watts=tdp_watts * sockets,
                   price_usd=price_usd * sockets)


def _make_grace(name: str = "grace") -> CpuSpec:
    """NVIDIA Grace (§8): SVE2 engine, 6.91 TFLOPS peak.

    The memory pool's ``bandwidth`` is the NVLink-C2C fabric rate the
    paper's analytical model feeds into its transfer terms (900 GB/s
    CPU-to-GPU); the CPU cores themselves stream LPDDR5X at ~435 GB/s,
    which is what the SVE2 engine sees.  SVE2 lacks AMX-class matrix
    units, so its achievable matmul efficiency is low — §8 calls the
    Grace CPU's compute throughput "30x lower than GNR".
    """
    memory = MemoryDevice(
        name="grace-lpddr5x",
        kind=ddr_subsystem("tmp", 1, 4800, 1).kind,
        capacity_bytes=480 * 2**30,
        bandwidth=900e9,
        latency=ddr_subsystem("tmp", 1, 4800, 1).latency,
        cost_per_gb=11.25,
    )
    engines = {
        "sve2": ComputeEngine(
            name=f"{name}-sve2",
            peak_flops=tflops(6.91),
            mem_bandwidth=512e9 * 0.85,
            efficiency=EfficiencyCurve(max_efficiency=0.35,
                                       half_flops=1e11),
            dispatch_overhead=us(2.0),
        ),
    }
    return CpuSpec(name=name, cores=72, clock_hz=ghz(3.1), memory=memory,
                   engines=engines, tdp_watts=250.0, price_usd=8000.0)


def _make_lowend(name: str = "lowend-cpu") -> CpuSpec:
    """A pre-AMX low-end server CPU for the §8 3xV100 comparison."""
    memory = ddr_subsystem(f"{name}-ddr4", channels=6, mt_per_s=3200,
                           capacity_gib=512, efficiency=0.80)
    engines = {
        "avx512": ComputeEngine(
            name=f"{name}-avx512",
            peak_flops=tflops(4.0),
            mem_bandwidth=memory.bandwidth,
            efficiency=EfficiencyCurve(max_efficiency=0.40,
                                       half_flops=5e10),
            dispatch_overhead=us(2.0),
        ),
    }
    return CpuSpec(name=name, cores=24, clock_hz=ghz(2.4), memory=memory,
                   engines=engines, tdp_watts=165.0, price_usd=2000.0)


# ----------------------------------------------------------------------
# Zoo
# ----------------------------------------------------------------------
#: 4th-gen Xeon Platinum 8460H (Table 2): 40 cores, 8 x DDR5-4800
#: (260 GB/s effective), AMX measured ~20 TFLOPS (90.1 peak x 0.222).
SPR = _make_xeon(
    "spr",
    cores=40,
    clock_ghz=2.2,
    memory=ddr_subsystem("spr-ddr5", channels=8, mt_per_s=4800,
                         capacity_gib=512, efficiency=0.847),
    amx_max_eff=0.222,
    avx_max_eff=0.39,
    tdp_watts=350.0,
    price_usd=9500.0,
)

#: 6th-gen Xeon (GNR): 128 cores, 12 x DDR5-5600 (~440 GB/s effective),
#: AMX measured ~40 TFLOPS.  GEMV improves ~70 % over SPR (§4.2).
GNR = _make_xeon(
    "gnr",
    cores=128,
    clock_ghz=2.0,
    memory=ddr_subsystem("gnr-ddr5", channels=12, mt_per_s=5600,
                         capacity_gib=768, efficiency=0.82),
    amx_max_eff=0.157,  # 262 TFLOPS peak -> ~41 TFLOPS measured
    avx_max_eff=0.39,
    tdp_watts=500.0,
    price_usd=17800.0,
)

#: Two-socket GNR: §4.1 reports a further 1.8x GEMM throughput.
GNR_2S = _make_xeon(
    "gnr-2s",
    cores=128,
    clock_ghz=2.0,
    memory=ddr_subsystem("gnr2s-ddr5", channels=24, mt_per_s=5600,
                         capacity_gib=1536, efficiency=0.82),
    amx_max_eff=0.145,  # NUMA effects: 1.8x one socket, not 2.0x
    avx_max_eff=0.36,
    sockets=2,
    tdp_watts=500.0,
    price_usd=17800.0,
)

GRACE = _make_grace()
LOWEND = _make_lowend()

CPU_ZOO: Dict[str, CpuSpec] = {
    cpu.name: cpu for cpu in (SPR, GNR, GNR_2S, GRACE, LOWEND)
}


def get_cpu(name: str) -> CpuSpec:
    """Look up a CPU spec by name ('spr', 'gnr', ...)."""
    try:
        return CPU_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(CPU_ZOO))
        raise ConfigurationError(
            f"unknown CPU {name!r}; known CPUs: {known}") from None
