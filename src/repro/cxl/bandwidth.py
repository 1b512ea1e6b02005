"""The Fig. 8 CXL characterization.

Figure 8(a): achieved CPU-to-GPU transfer bandwidth as a function of
data size, for DDR-sourced transfers and for CXL-sourced transfers
with one or more interleaved expanders.  Above ~300 MB per sublayer,
two interleaved 17 GB/s expanders saturate a PCIe 4.0 link just like
DDR does (Observation-1).

Figure 8(b): AMX compute throughput for sublayers 1 (weights x
activations) and 2 (activations x KV cache) when the second operand
lives in CXL, normalized to DDR placement.  The degradation follows
the roofline: sublayer 2's ops/byte is ~1, so it slows by nearly the
bandwidth ratio (up to ~82 % in the paper); sublayer 1 becomes
compute-bound as B (or B x L) grows, shrinking the penalty toward
~11 % (Observation-2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.hardware.interconnect import Link
from repro.hardware.memory import MemoryDevice, cxl_expander, interleave
from repro.hardware.roofline import ComputeEngine, MatmulKind
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage, Sublayer, sublayer_cost


def transfer_bandwidth_series(
        link: Link, sizes_bytes: Sequence[float],
        ddr: MemoryDevice) -> Dict[str, List[float]]:
    """Fig. 8(a): achieved link bandwidth (bytes/s) per source pool.

    Returns ``{"ddr": [...], "cxl-x1": [...], "cxl-x2": [...]}``,
    one value per entry of ``sizes_bytes``.
    """
    if not sizes_bytes:
        raise ConfigurationError("sizes_bytes must be non-empty")
    series: Dict[str, List[float]] = {
        "ddr": [link.effective_rate(size, ddr.bandwidth)
                for size in sizes_bytes],
    }
    for count in (1, 2):
        pool = interleave([cxl_expander(f"cxl{i}") for i in range(count)],
                          name=f"cxl-x{count}")
        series[f"cxl-x{count}"] = [
            link.effective_rate(size, pool.bandwidth)
            for size in sizes_bytes]
    return series


def _sublayer_time(engine: ComputeEngine, spec: ModelSpec,
                   sublayer: Sublayer, stage: Stage, batch_size: int,
                   seq_len: int, slow_bandwidth: float) -> float:
    """AMX time for one sublayer with the Y operand in a slow tier
    (pass ``float('inf')`` for the all-DDR reference)."""
    cost = sublayer_cost(spec, sublayer, stage, batch_size, seq_len)
    kind = MatmulKind.GEMM
    if sublayer.uses_kv_cache and stage is Stage.DECODE:
        kind = MatmulKind.BATCHED_GEMV
    if slow_bandwidth == float("inf"):
        return engine.matmul_time(cost.flops, cost.d_x + cost.d_y, kind)
    return engine.matmul_time(cost.flops, cost.d_x, kind,
                              slow_bytes=cost.d_y,
                              slow_bandwidth=slow_bandwidth)


def cpu_throughput_degradation(
        system: SystemConfig, spec: ModelSpec,
        sublayer: Sublayer, stage: Stage,
        batch_sizes: Sequence[int], seq_len: int) -> List[float]:
    """Fig. 8(b): CXL-placed AMX throughput normalized to DDR placement.

    Returns one ratio in (0, 1] per batch size; 1.0 means no
    degradation.  ``system`` must carry CXL expanders.
    """
    engine = system.cpu.engine("amx")
    cxl_bw = system.cxl_pool.bandwidth
    ratios: List[float] = []
    for batch_size in batch_sizes:
        ddr_time = _sublayer_time(engine, spec, sublayer, stage,
                                  batch_size, seq_len, float("inf"))
        cxl_time = _sublayer_time(engine, spec, sublayer, stage,
                                  batch_size, seq_len, cxl_bw)
        ratios.append(ddr_time / cxl_time)
    return ratios
