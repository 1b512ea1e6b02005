"""Unit helpers and constants used throughout the library.

All internal computations use SI base units: bytes, seconds, FLOP, watts.
The helpers below exist so that hardware specifications can be written in
the units vendors quote (GB/s, TFLOPS, ns, GHz) without sprinkling powers
of ten through the code.
"""

from __future__ import annotations

# Decimal prefixes (vendors quote bandwidth and FLOPS in decimal units).
KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

# Binary prefixes (memory capacities are quoted in binary units).
KIB = 1024
MIB = 1024**2
GIB = 1024**3
TIB = 1024**4

#: Bytes per element for the numeric formats that appear in the paper.
BYTES_PER_BF16 = 2
BYTES_PER_FP16 = 2
BYTES_PER_FP32 = 4
BYTES_PER_INT8 = 1

#: Seconds in an hour, used by the cost model.
SECONDS_PER_HOUR = 3600.0
HOURS_PER_YEAR = 24.0 * 365.0


def gb_per_s(value: float) -> float:
    """Convert a bandwidth quoted in GB/s to bytes/second."""
    return value * GIGA


def mb(value: float) -> float:
    """Convert a size quoted in decimal megabytes to bytes."""
    return value * MEGA


def gib(value: float) -> float:
    """Convert a capacity quoted in GiB to bytes."""
    return value * GIB


def tflops(value: float) -> float:
    """Convert a throughput quoted in TFLOPS to FLOP/second."""
    return value * TERA


def ghz(value: float) -> float:
    """Convert a frequency quoted in GHz to Hz."""
    return value * GIGA


def ns(value: float) -> float:
    """Convert a latency quoted in nanoseconds to seconds."""
    return value * 1e-9


def us(value: float) -> float:
    """Convert a latency quoted in microseconds to seconds."""
    return value * 1e-6


def ms(value: float) -> float:
    """Convert a latency quoted in milliseconds to seconds."""
    return value * 1e-3
