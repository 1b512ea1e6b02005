"""§6 memory-offloading policy."""

import pytest

from repro.core.config import LiaConfig
from repro.cxl.tiering import CxlTieringPlan, plan_tiering
from repro.errors import CapacityError, ConfigurationError
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


@pytest.fixture
def cxl_system(spr_a100):
    return spr_a100.with_cxl(n_expanders=2)


def test_plan_moves_weights_only(opt_30b, cxl_system):
    request = InferenceRequest(900, 32, 32)
    plan = plan_tiering(opt_30b, request, cxl_system)
    assert plan.cxl_bytes == pytest.approx(opt_30b.total_param_bytes)
    assert plan.ddr_bytes < plan.ddr_bytes_without_cxl


def test_table3_offloaded_percentage(opt_30b, cxl_system):
    # Table 3: ~43 % of DDR usage moves to CXL at L_out=32, shrinking
    # to ~14 % at L_out=256 (KV grows with output length).
    short = plan_tiering(opt_30b, InferenceRequest(900, 32, 32),
                         cxl_system)
    long = plan_tiering(opt_30b, InferenceRequest(900, 32, 256),
                        cxl_system)
    assert 0.3 <= short.ddr_savings_fraction <= 0.55
    assert 0.08 <= long.ddr_savings_fraction <= 0.25
    assert long.ddr_savings_fraction < short.ddr_savings_fraction


def test_requires_cxl_system(opt_30b, spr_a100):
    with pytest.raises(ConfigurationError, match="no CXL"):
        plan_tiering(opt_30b, InferenceRequest(64, 32, 32), spr_a100)


def test_ddr_overflow_is_a_one_line_capacity_error(opt_30b, cxl_system):
    # The weights leave DDR, but KV for B=8000 at 2K tokens does not
    # fit the 512 GiB that remain.
    with pytest.raises(CapacityError, match="DDR needs") as excinfo:
        plan_tiering(opt_30b, InferenceRequest(8000, 2000, 48),
                     cxl_system)
    assert "\n" not in str(excinfo.value)
    assert excinfo.value.device == cxl_system.cpu.memory.name
    assert excinfo.value.requested > excinfo.value.available


def test_cxl_overflow_is_a_one_line_capacity_error(spr_a100):
    # opt-175b's 325 GiB of weights overflow two 128 GiB expanders.
    system = spr_a100.with_cxl(n_expanders=2)
    with pytest.raises(CapacityError, match="CXL needs") as excinfo:
        plan_tiering(get_model("opt-175b"), InferenceRequest(1, 32, 32),
                     system)
    assert "\n" not in str(excinfo.value)
    assert excinfo.value.requested > excinfo.value.available


def test_savings_fraction_zero_baseline():
    plan = CxlTieringPlan(ddr_bytes=0.0, cxl_bytes=1.0,
                          ddr_bytes_without_cxl=0.0)
    assert plan.ddr_savings_fraction == 0.0


def test_adaptive_config_follows_decode_policy(opt_30b, cxl_system,
                                               eval_config):
    from repro.core.config import WeightPlacement
    from repro.cxl.tiering import adaptive_config

    small = adaptive_config(opt_30b, InferenceRequest(1, 256, 32),
                            cxl_system, eval_config)
    assert small.weight_placement is WeightPlacement.DDR
    # Above the decode threshold the parameter sublayers run on the
    # GPU, so the weights move to CXL.
    large = adaptive_config(opt_30b, InferenceRequest(2048, 256, 32),
                            cxl_system, eval_config)
    assert large.weight_placement is WeightPlacement.CXL


def test_adaptive_config_forced_by_capacity(opt_30b, cxl_system):
    from repro.core.config import LiaConfig, WeightPlacement
    from repro.cxl.tiering import adaptive_config

    # Below the policy threshold but KV too big for DDR alone:
    # capacity forces the CXL placement.
    request = InferenceRequest(400, 2000, 16)
    config = adaptive_config(opt_30b, request, cxl_system, LiaConfig())
    assert config.weight_placement is WeightPlacement.CXL


def test_adaptive_config_noop_without_cxl(opt_30b, spr_a100):
    from repro.core.config import LiaConfig, WeightPlacement
    from repro.cxl.tiering import adaptive_config

    config = adaptive_config(opt_30b, InferenceRequest(2048, 256, 32),
                             spr_a100, LiaConfig())
    assert config.weight_placement is WeightPlacement.DDR
