"""System configurations."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.system import SYSTEM_ZOO, SystemConfig, get_system
from repro.hardware.cpu import get_cpu
from repro.hardware.gpu import get_gpu
from repro.hardware.interconnect import get_link


def test_table2_systems_exist():
    for name in ("spr-a100", "spr-h100", "gnr-a100", "gnr-h100",
                 "gh200", "dgx-a100", "3xv100"):
        assert name in SYSTEM_ZOO


def test_spr_a100_composition():
    system = get_system("spr-a100")
    assert system.cpu.name == "spr"
    assert system.gpu.name == "a100"
    assert system.host_link.name == "pcie4-x16"
    assert system.n_gpus == 1
    assert not system.has_cxl


def test_spr_h100_uses_pcie5():
    assert get_system("spr-h100").host_link.name == "pcie5-x16"


def test_dgx_has_8_gpus_and_nvlink():
    dgx = get_system("dgx-a100")
    assert dgx.n_gpus == 8
    assert dgx.peer_link.name == "nvlink3"
    assert sum(g.memory_capacity for g in dgx.gpus) == 8 * 80 * 2**30


def test_with_cxl_attaches_expanders():
    system = get_system("spr-a100").with_cxl(n_expanders=2)
    assert system.has_cxl
    assert system.cxl_pool.bandwidth == pytest.approx(34e9)
    assert system.cxl_pool.capacity_bytes > 0


def test_cxl_pool_requires_devices():
    with pytest.raises(ConfigurationError, match="no CXL"):
        __ = get_system("spr-a100").cxl_pool


def test_dgx_costs_about_10x_single_gpu_system():
    # §7.8: GNR-A100 is ~10 % the cost of a DGX-A100.
    dgx = get_system("dgx-a100")
    gnr = get_system("gnr-a100")
    assert 3.0 <= dgx.price_usd / gnr.price_usd <= 8.0


def test_tdp_includes_all_components():
    system = get_system("spr-a100")
    assert system.tdp_watts == pytest.approx(
        system.cpu.tdp_watts + system.gpu.tdp_watts
        + system.platform_power_watts)


def test_multi_gpu_needs_peer_link():
    with pytest.raises(ConfigurationError, match="peer link"):
        SystemConfig(name="bad", cpu=get_cpu("spr"),
                     gpus=(get_gpu("a100"), get_gpu("a100")),
                     host_link=get_link("pcie4"))


def test_mixed_gpus_rejected():
    with pytest.raises(ConfigurationError, match="identical"):
        SystemConfig(name="bad", cpu=get_cpu("spr"),
                     gpus=(get_gpu("a100"), get_gpu("h100")),
                     host_link=get_link("pcie4"),
                     peer_link=get_link("nvlink3"))


def test_unknown_system_raises():
    with pytest.raises(ConfigurationError, match="unknown system"):
        get_system("spr-b200")
