"""Roofline-style compute-time model shared by every compute engine.

The model follows the additive decomposition the paper itself uses in
Eq. (8): the time of a matrix multiplication is the memory time (bytes
moved over the device's memory bandwidth) plus the compute time (FLOPs
over the achievable throughput) plus a fixed per-call dispatch
overhead.  Achievable throughput saturates with problem size through a
:class:`EfficiencyCurve`, which reproduces the measured behaviour of
Figure 5: engines reach their measured peak only for large GEMMs, and
GPUs lose ground at small sizes because of kernel-launch overhead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.arrays import (Real, everywhere, lowest, maximum, minimum,
                          square_root, where)
from repro.errors import ConfigurationError


class MatmulKind(enum.Enum):
    """Access-pattern classes with different bandwidth efficiency."""

    #: Large dense GEMM; streams operands at near-peak bandwidth.
    GEMM = "gemm"
    #: Batched skinny GEMV (attention scoring); strided access over
    #: many small matrices reaches only part of peak bandwidth.
    BATCHED_GEMV = "batched_gemv"


#: Fraction of peak memory bandwidth reached by batched-GEMV access
#: patterns.  Calibrated so that SPR-AMX GEMV lands at the paper's
#: measured 199 GFLOPS (= 0.765 x 260 GB/s at 1 FLOP/byte).
BATCHED_GEMV_BANDWIDTH_EFFICIENCY = 0.765

#: A matmul's access pattern, or a boolean array that is True where it
#: is a batched GEMV (one entry per sublayer of a cost table).
Kind = Union[MatmulKind, np.ndarray]


def _gemv_scaled(kind: Kind, bandwidth: Real) -> Real:
    """``bandwidth``, scaled by the batched-GEMV efficiency where
    ``kind`` is a batched GEMV."""
    gemv = kind if isinstance(kind, np.ndarray) else (
        kind is MatmulKind.BATCHED_GEMV)
    return where(gemv, bandwidth * BATCHED_GEMV_BANDWIDTH_EFFICIENCY,
                 bandwidth)


@dataclass(frozen=True)
class EfficiencyCurve:
    """Saturating fraction-of-peak curve:
    ``eff(f) = max / (1 + sqrt(half/f))``.

    ``half_flops`` is the problem size (in FLOP) at which the engine
    reaches half of its asymptotic efficiency ``max_efficiency``.  The
    square-root decay matches measured GEMM ramps better than a
    hyperbolic one: small problems lose parallelism gradually (tile
    tails, wave quantization) rather than paying a fixed startup.
    """

    max_efficiency: float
    half_flops: float

    def __post_init__(self) -> None:
        if not 0.0 < self.max_efficiency <= 1.0:
            raise ConfigurationError(
                f"max_efficiency must be in (0, 1], got "
                f"{self.max_efficiency}")
        if self.half_flops < 0.0:
            raise ConfigurationError(
                f"half_flops must be >= 0, got {self.half_flops}")

    def __call__(self, flops: Real) -> Real:
        """Fraction of peak at ``flops``, a float or an array (e.g. a
        ``(..., 6)`` sublayer table); zero FLOPs give 0.0."""
        # With ``half_flops == 0`` the ramp is exactly 0.0: flat curve.
        positive = everywhere(flops > 0.0)
        ramp = square_root(self.half_flops / where(positive, flops, 1.0))
        return where(positive, self.max_efficiency / (1.0 + ramp), 0.0)


@dataclass(frozen=True)
class ComputeEngine:
    """A matrix-multiplication engine: AMX, AVX512, or a GPU's SMs.

    ``peak_flops`` is the theoretical dense half-precision throughput;
    ``mem_bandwidth`` the bandwidth of the memory that feeds the engine
    (DDR for CPU engines, HBM for GPUs) in bytes/s; ``dispatch_overhead``
    the fixed cost of one kernel/loop-nest invocation in seconds.
    """

    name: str
    peak_flops: float
    mem_bandwidth: float
    efficiency: EfficiencyCurve
    dispatch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_flops <= 0.0:
            raise ConfigurationError(
                f"{self.name}: peak_flops must be positive")
        if self.mem_bandwidth <= 0.0:
            raise ConfigurationError(
                f"{self.name}: mem_bandwidth must be positive")
        if self.dispatch_overhead < 0.0:
            raise ConfigurationError(
                f"{self.name}: dispatch_overhead must be >= 0")

    # ------------------------------------------------------------------
    def effective_bandwidth(self, kind: Kind = MatmulKind.GEMM,
                            bandwidth_scale: float = 1.0) -> Real:
        """Bandwidth achievable for the given access pattern.

        ``bandwidth_scale`` lets callers model operands resident in a
        slower tier (e.g. CXL memory), per §6's Observation-2.
        """
        return _gemv_scaled(kind, self.mem_bandwidth * bandwidth_scale)

    def matmul_time(self, flops: Real, bytes_moved: Real,
                    kind: Kind = MatmulKind.GEMM,
                    bandwidth_scale: float = 1.0,
                    slow_bytes: Real = 0.0,
                    slow_bandwidth: Real = float("inf")) -> Real:
        """Execution time of one matmul, Eq. (8) style.

        ``bytes_moved`` is the operand traffic served by the engine's
        own memory (``D_X + D_Y`` in the paper's notation).  When part
        of the operands lives in a slower tier — §6's CXL case — pass
        that part as ``slow_bytes`` with the tier's ``slow_bandwidth``;
        the degradation of Fig. 8(b) then emerges from the roofline:
        memory-bound sublayers (ops/byte ~ 1) slow down by the
        bandwidth ratio, compute-bound ones barely notice.  The byte
        and FLOP counts may be arrays; on a ``(..., 6)`` sublayer
        table, ``kind`` may be a ``(6,)`` batched-GEMV mask and
        ``slow_bandwidth`` a ``(6,)`` vector, one entry per sublayer.
        """
        least_flops = lowest(flops)
        if not (least_flops >= 0.0 and lowest(bytes_moved) >= 0.0
                and lowest(slow_bytes) >= 0.0):
            raise ConfigurationError(
                "flops and byte counts must be non-negative")
        # Efficiency is zero only at zero FLOPs, whose time is 0.0;
        # zero slow bytes would add an exact 0.0, so none is added.
        achievable = self.peak_flops * self.efficiency(flops)
        compute_time = flops / where(everywhere(achievable > 0.0),
                                     achievable, 1.0)
        bandwidth = self.effective_bandwidth(kind, bandwidth_scale)
        memory_time = bytes_moved / bandwidth
        if isinstance(slow_bytes, np.ndarray) or slow_bytes != 0.0:
            memory_time = memory_time + slow_bytes / minimum(
                bandwidth, _gemv_scaled(kind, slow_bandwidth))
        # Classic roofline: execution is limited by the slower of the
        # compute pipeline and the memory system (they overlap within
        # one kernel), plus the fixed dispatch cost.
        # Only a matmul with zero FLOPs and bytes is idle.
        idle = least_flops == 0.0 and (
            (flops == 0.0) & (bytes_moved == 0.0) & (slow_bytes == 0.0))
        return where(idle, 0.0, maximum(compute_time, memory_time)
                     + self.dispatch_overhead)

    def matmul_throughput(self, flops: float, bytes_moved: float,
                          kind: MatmulKind = MatmulKind.GEMM,
                          bandwidth_scale: float = 1.0,
                          slow_bytes: float = 0.0,
                          slow_bandwidth: float = float("inf")) -> float:
        """Achieved FLOP/s for one matmul (used by the Fig. 5 bench)."""
        time = self.matmul_time(flops, bytes_moved, kind, bandwidth_scale,
                                slow_bytes, slow_bandwidth)
        if time == 0.0:
            return 0.0
        return flops / time

    def measured_peak_flops(self) -> float:
        """Asymptotic achievable throughput (peak x max efficiency)."""
        return self.peak_flops * self.efficiency.max_efficiency
