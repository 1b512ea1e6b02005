"""Roofline compute-time model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.roofline import (
    BATCHED_GEMV_BANDWIDTH_EFFICIENCY,
    ComputeEngine,
    EfficiencyCurve,
    MatmulKind,
)


@pytest.fixture
def engine():
    return ComputeEngine(
        name="test",
        peak_flops=100e12,
        mem_bandwidth=200e9,
        efficiency=EfficiencyCurve(max_efficiency=0.5, half_flops=1e10),
        dispatch_overhead=1e-6,
    )


def test_efficiency_half_point():
    curve = EfficiencyCurve(max_efficiency=0.4, half_flops=1e9)
    assert curve(1e9) == pytest.approx(0.2)


def test_efficiency_monotone_and_bounded():
    curve = EfficiencyCurve(max_efficiency=0.5, half_flops=1e10)
    values = [curve(f) for f in (1e6, 1e8, 1e10, 1e12, 1e15)]
    assert values == sorted(values)
    assert all(0.0 < v <= 0.5 for v in values)
    assert curve(0.0) == 0.0


def test_efficiency_validation():
    with pytest.raises(ConfigurationError):
        EfficiencyCurve(max_efficiency=0.0, half_flops=1.0)
    with pytest.raises(ConfigurationError):
        EfficiencyCurve(max_efficiency=1.5, half_flops=1.0)
    with pytest.raises(ConfigurationError):
        EfficiencyCurve(max_efficiency=0.5, half_flops=-1.0)


def test_memory_bound_time(engine):
    # ops/byte ~ 0: pure memory time plus overhead.
    time = engine.matmul_time(flops=1.0, bytes_moved=200e9)
    assert time == pytest.approx(1.0 + 1e-6, rel=1e-6)


def test_compute_bound_time(engine):
    # Huge flops, no bytes: time ~ flops / (peak * max_eff).
    time = engine.matmul_time(flops=1e16, bytes_moved=1.0)
    assert time == pytest.approx(1e16 / (100e12 * 0.5), rel=0.02)


def test_roofline_takes_max(engine):
    mem_only = engine.matmul_time(flops=0.0, bytes_moved=2e9)
    both = engine.matmul_time(flops=1e3, bytes_moved=2e9)
    assert both == pytest.approx(mem_only, rel=1e-6)


def test_batched_gemv_bandwidth_penalty(engine):
    gemm = engine.matmul_time(0.0, 1e9, MatmulKind.GEMM)
    gemv = engine.matmul_time(0.0, 1e9, MatmulKind.BATCHED_GEMV)
    expected = ((1e9 / (200e9 * BATCHED_GEMV_BANDWIDTH_EFFICIENCY))
                + 1e-6)
    assert gemv == pytest.approx(expected, rel=1e-9)
    assert gemv > gemm


def test_slow_tier_term(engine):
    fast = engine.matmul_time(0.0, 1e9)
    split = engine.matmul_time(0.0, 0.0, slow_bytes=1e9,
                               slow_bandwidth=20e9)
    # Slow tier at 1/10th bandwidth is 10x slower.
    assert split == pytest.approx((fast - 1e-6) * 10 + 1e-6, rel=1e-6)


def test_slow_tier_capped_by_engine_bandwidth(engine):
    # A "slow" tier faster than the engine's own memory cannot help.
    native = engine.matmul_time(0.0, 1e9)
    via_fast_tier = engine.matmul_time(0.0, 0.0, slow_bytes=1e9,
                                       slow_bandwidth=1e15)
    assert via_fast_tier == pytest.approx(native, rel=1e-9)


def test_zero_work_is_free(engine):
    assert engine.matmul_time(0.0, 0.0) == 0.0
    assert engine.matmul_throughput(0.0, 0.0) == 0.0


def test_negative_inputs_rejected(engine):
    with pytest.raises(ConfigurationError):
        engine.matmul_time(-1.0, 0.0)
    with pytest.raises(ConfigurationError):
        engine.matmul_time(0.0, -1.0)


@pytest.mark.parametrize("nan", [float("nan"), np.array([1.0, float("nan")])])
def test_nan_inputs_rejected(engine, nan):
    for args in ((nan, 0.0), (0.0, nan)):
        with pytest.raises(ConfigurationError):
            engine.matmul_time(*args)
    with pytest.raises(ConfigurationError):
        engine.matmul_time(0.0, 0.0, slow_bytes=nan)


def test_sublayer_vectors_match_scalar_calls(engine):
    """A ``(6,)`` batched-GEMV mask and slow-tier bandwidth vector give
    each column of a ``(..., 6)`` table the scalar call's time, bit for
    bit."""
    flops = np.array([[0.0, 1e3, 1e9, 1e12, 5e8, 2e10],
                      [7e6, 0.0, 3e11, 1.0, 4e9, 8e13]])
    bytes_moved = np.array([[0.0, 2e3, 1e9, 1e6, 0.0, 4e8],
                            [1e9, 0.0, 5e6, 3e9, 2e7, 1e3]])
    slow_bytes = np.array([[0.0, 1e3, 0.0, 5e8, 2e9, 0.0],
                           [0.0, 0.0, 1e8, 0.0, 3e6, 2e9]])
    gemv = np.array([False, True, True, False, True, False])
    slow_bandwidth = np.array([np.inf, 50e9, 300e9, 20e9, np.inf, 1e9])
    table = engine.matmul_time(flops, bytes_moved, gemv,
                               slow_bytes=slow_bytes,
                               slow_bandwidth=slow_bandwidth)
    kinds = [MatmulKind.BATCHED_GEMV if g else MatmulKind.GEMM
             for g in gemv]
    expected = [[engine.matmul_time(flops[i, j], bytes_moved[i, j],
                                    kinds[j], slow_bytes=slow_bytes[i, j],
                                    slow_bandwidth=slow_bandwidth[j])
                 for j in range(6)] for i in range(2)]
    assert table.tolist() == expected


def test_measured_peak(engine):
    assert engine.measured_peak_flops() == pytest.approx(50e12)


def test_throughput_saturates_at_measured_peak(engine):
    tput = engine.matmul_throughput(1e17, 1e3)
    assert tput <= engine.measured_peak_flops()
    assert tput == pytest.approx(engine.measured_peak_flops(), rel=0.01)
