"""Optimization-1: GPU weight residency (§5.2)."""

import pytest

from repro.core.config import LiaConfig
from repro.core.gpu_residency import (
    _class_bytes,
    plan_layer_residency,
    plan_sublayer_residency,
)
from repro.models.sublayers import Sublayer
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


@pytest.fixture
def request_b1():
    return InferenceRequest(1, 2016, 32)


def test_paper_opt30b_example(opt_30b, spr_a100, request_b1):
    """§5.2: OPT-30B at B=1 on a 40 GB A100 — LIA stores ~62 % of
    decoder layers (~1.2 GB per layer)."""
    plan = plan_layer_residency(opt_30b, spr_a100, request_b1,
                                LiaConfig())
    per_layer_gb = opt_30b.layer_param_bytes / 1e9
    assert per_layer_gb == pytest.approx(1.23, abs=0.1)
    assert 0.5 <= plan.n_resident_layers / plan.n_layers <= 0.75
    assert plan.resident_bytes <= spr_a100.gpu.memory_capacity


def test_layer_plan_finer_than_sublayer_plan(opt_30b, spr_a100,
                                             request_b1):
    """§5.2: layer granularity uses GPU capacity better than
    FlexGen's sublayer-class granularity."""
    config = LiaConfig()
    lia = plan_layer_residency(opt_30b, spr_a100, request_b1, config)
    flexgen = plan_sublayer_residency(opt_30b, spr_a100, request_b1,
                                      config)
    assert lia.resident_bytes >= flexgen.resident_bytes


def test_disabled_residency_is_empty(opt_30b, spr_a100, request_b1):
    config = LiaConfig(gpu_residency=False)
    plan = plan_layer_residency(opt_30b, spr_a100, request_b1, config)
    assert plan.n_resident_layers == 0
    assert plan.resident_bytes == 0.0
    flexgen = plan_sublayer_residency(opt_30b, spr_a100, request_b1,
                                      config)
    assert flexgen.resident_sublayers == ()


def test_residency_shrinks_with_batch(opt_30b, spr_a100):
    config = LiaConfig()
    small = plan_layer_residency(opt_30b, spr_a100,
                                 InferenceRequest(1, 256, 32), config)
    large = plan_layer_residency(opt_30b, spr_a100,
                                 InferenceRequest(512, 256, 32), config)
    assert large.n_resident_layers <= small.n_resident_layers


def test_large_model_fewer_layers_resident(opt_30b, opt_175b, spr_a100):
    # §7.2: with OPT-175B fewer decoder layers fit on the GPU.
    config = LiaConfig(enforce_host_capacity=False)
    request = InferenceRequest(1, 256, 32)
    small = plan_layer_residency(opt_30b, spr_a100, request, config)
    big = plan_layer_residency(opt_175b, spr_a100, request, config)
    assert (big.n_resident_layers / big.n_layers
            < small.n_resident_layers / small.n_layers)


def test_sublayer_class_bytes(opt_30b):
    d = opt_30b.d_model
    n = opt_30b.n_layers
    class_bytes = _class_bytes(opt_30b)
    assert class_bytes[int(Sublayer.QKV_MAPPING) - 1] == 6 * d * d * n
    assert class_bytes[int(Sublayer.FC1) - 1] == 8 * d * d * n
    assert class_bytes[int(Sublayer.ATTENTION_SCORE) - 1] == 0.0


def test_sublayer_plan_packs_smallest_first(opt_30b, spr_a100,
                                            request_b1):
    plan = plan_sublayer_residency(opt_30b, spr_a100, request_b1,
                                   LiaConfig())
    if plan.resident_sublayers:
        # The smallest parameter class (output projection) packs first.
        assert Sublayer.OUTPUT_PROJECTION in plan.resident_sublayers


def test_extra_reserved_bytes_shrink_plan(opt_30b, spr_a100, request_b1):
    config = LiaConfig()
    free = plan_sublayer_residency(opt_30b, spr_a100, request_b1, config)
    squeezed = plan_sublayer_residency(
        opt_30b, spr_a100, request_b1, config,
        extra_reserved_bytes=20 * 2**30)
    assert squeezed.resident_bytes <= free.resident_bytes
