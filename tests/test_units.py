"""Unit-conversion helpers."""

import pytest

from repro import units


def test_bandwidth_conversion():
    assert units.gb_per_s(64) == 64e9


def test_capacity_conversions():
    assert units.gib(1) == 2**30
    assert units.mb(300) == 300e6


def test_throughput_conversions():
    assert units.tflops(90.1) == 90.1e12


def test_time_conversions():
    assert units.ns(150) == pytest.approx(150e-9)
    assert units.us(8) == pytest.approx(8e-6)
    assert units.ms(1.2) == pytest.approx(0.0012)


def test_data_format_sizes():
    assert units.BYTES_PER_BF16 == 2
    assert units.BYTES_PER_FP16 == 2
    assert units.BYTES_PER_FP32 == 4
    assert units.BYTES_PER_INT8 == 1


def test_calendar_constants():
    assert units.SECONDS_PER_HOUR == 3600.0
    assert units.HOURS_PER_YEAR == 24 * 365
