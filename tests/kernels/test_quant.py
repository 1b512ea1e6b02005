"""BF16 rounding semantics."""

import numpy as np
import pytest

from repro.inference.transformer import bf16_matmul_reference, bf16_round


def test_bf16_representable_values_unchanged():
    # Values with <= 8 mantissa bits are exactly representable.
    values = np.array([0.0, 1.0, -2.5, 0.15625, 1024.0], dtype=np.float32)
    assert np.array_equal(bf16_round(values), values)


def test_rounding_drops_low_mantissa_bits():
    # 1 + 2^-20 is not representable in BF16; rounds back to 1.
    value = np.array([1.0 + 2.0**-20], dtype=np.float32)
    assert bf16_round(value)[0] == 1.0


def test_round_to_nearest_even():
    # Exactly halfway between two BF16 values: ties to even mantissa.
    # 1.0 + 2^-8 is the next BF16 after 1.0; halfway is 1 + 2^-9.
    halfway = np.array([1.0 + 2.0**-9], dtype=np.float32)
    rounded = bf16_round(halfway)[0]
    assert rounded == 1.0  # even mantissa wins


def test_rounding_error_bounded():
    rng = np.random.default_rng(0)
    values = rng.normal(0, 10, 1000).astype(np.float32)
    rounded = bf16_round(values)
    rel = np.abs(rounded - values) / np.abs(values)
    # BF16 has 8 mantissa bits: relative error <= 2^-8.
    assert rel.max() <= 2.0**-8


def test_idempotent():
    rng = np.random.default_rng(1)
    values = rng.normal(0, 1, 100).astype(np.float32)
    once = bf16_round(values)
    assert np.array_equal(bf16_round(once), once)


def test_nan_preserved():
    values = np.array([np.nan, 1.0], dtype=np.float32)
    rounded = bf16_round(values)
    assert np.isnan(rounded[0])
    assert rounded[1] == 1.0


def test_shape_preserved():
    values = np.zeros((3, 4, 5), dtype=np.float32)
    assert bf16_round(values).shape == (3, 4, 5)


def test_matmul_reference_rounds_inputs():
    a = np.array([[1.0 + 2.0**-20]], dtype=np.float32)
    b = np.array([[1.0]], dtype=np.float32)
    # The tiny perturbation disappears in BF16.
    assert bf16_matmul_reference(a, b)[0, 0] == 1.0


def test_matmul_reference_accumulates_fp32():
    # Summing 256 copies of 1.0 stays exact in FP32 accumulation.
    a = np.ones((1, 256), dtype=np.float32)
    b = np.ones((256, 1), dtype=np.float32)
    assert bf16_matmul_reference(a, b)[0, 0] == 256.0
