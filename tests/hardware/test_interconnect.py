"""Interconnect links."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.interconnect import LINK_ZOO, Link, get_link
from repro.models.zoo import get_model


def test_pcie_generations_double():
    assert (get_link("pcie4").bandwidth
            == pytest.approx(2 * get_link("pcie3").bandwidth))
    assert (get_link("pcie5").bandwidth
            == pytest.approx(2 * get_link("pcie4").bandwidth))


def test_opt175b_transfer_time_matches_footnote2():
    # §1 footnote 2: OPT-175B's parameters take ~5 s over PCIe 5.0.
    spec = get_model("opt-175b")
    time = get_link("pcie5").transfer_time(spec.total_param_bytes)
    assert 4.5 <= time <= 7.0


def test_grace_hopper_link_7x_pcie5():
    # §8: 900 GB/s, "7x a x16 PCIe 5.0 link" counting PCIe's
    # bidirectional 128 GB/s; against the unidirectional effective
    # rate the ratio is ~15x.
    c2c = get_link("nvlink-c2c")
    pcie5 = get_link("pcie5")
    assert 6.0 <= c2c.bandwidth / (2 * pcie5.bandwidth) <= 8.5


def test_small_transfers_dominated_by_setup():
    link = get_link("pcie4")
    tiny = link.effective_rate(1024)
    large = link.effective_rate(1e9)
    assert tiny < 0.01 * large


def test_effective_rate_capped_by_source():
    link = get_link("pcie4")
    throttled = link.effective_rate(1e9, source_bandwidth=10e9)
    assert throttled < 10.1e9
    assert throttled == pytest.approx(10e9, rel=0.01)


def test_zero_transfer_is_free():
    assert get_link("pcie4").transfer_time(0) == 0.0


def test_negative_transfer_rejected():
    with pytest.raises(ConfigurationError):
        get_link("pcie4").transfer_time(-1)


@pytest.mark.parametrize("nan", [float("nan"), np.array([1.0, float("nan")])])
def test_nan_transfer_rejected(nan):
    with pytest.raises(ConfigurationError):
        get_link("pcie4").transfer_time(nan)


def test_source_bandwidth_vector_matches_scalar_calls():
    """A ``(6,)`` source-bandwidth vector (one home per sublayer) gives
    each column the scalar call's time, bit for bit."""
    link = get_link("pcie4")
    num_bytes = np.array([[0.0, 1e3, 5e9, 2e6, 1.0, 3e10]] * 2)
    num_bytes[1] *= 3.0
    source = np.array([np.inf, 10e9, 17e9, 260e9, 1e9, 29.44e9])
    table = link.transfer_time(num_bytes, source_bandwidth=source)
    assert table.tolist() == [
        [link.transfer_time(row[j], source_bandwidth=source[j])
         for j in range(6)] for row in num_bytes]


def test_link_validation():
    with pytest.raises(ConfigurationError):
        Link("bad", bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        Link("bad", bandwidth=1.0, setup_latency=-1.0)


def test_unknown_link_raises():
    with pytest.raises(ConfigurationError, match="unknown link"):
        get_link("pcie6")


def test_zoo_contains_all_generations():
    for name in ("pcie3", "pcie4", "pcie5", "nvlink3", "nvlink-c2c"):
        assert name in LINK_ZOO
