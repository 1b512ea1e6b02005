"""W8A16 quantization transform."""

import pytest

from repro.errors import ConfigurationError
from repro.models.quantize import quantize_weights
from repro.models.sublayers import Stage, Sublayer, sublayer_cost


def test_weights_halve_activations_unchanged(opt_30b):
    int8 = quantize_weights(opt_30b)
    assert int8.name == "opt-30b-int8"
    assert int8.total_param_bytes * 2 == opt_30b.total_param_bytes
    assert int8.bytes_per_param == opt_30b.bytes_per_param


def test_kv_cache_unchanged(opt_30b):
    int8 = quantize_weights(opt_30b)
    assert int8.kv_cache_bytes(4, 128) == opt_30b.kv_cache_bytes(4, 128)
    assert int8.peak_activation_bytes(4, 128) == \
        opt_30b.peak_activation_bytes(4, 128)


def test_sublayer_costs_reflect_weight_width(opt_30b):
    int8 = quantize_weights(opt_30b)
    for sub in Sublayer:
        bf16_cost = sublayer_cost(opt_30b, sub, Stage.DECODE, 4, 128)
        int8_cost = sublayer_cost(int8, sub, Stage.DECODE, 4, 128)
        assert int8_cost.d_x == bf16_cost.d_x
        assert int8_cost.flops == bf16_cost.flops
        if sub.uses_parameters:
            assert int8_cost.d_y * 2 == bf16_cost.d_y
        else:
            assert int8_cost.d_y == bf16_cost.d_y  # KV stays BF16


def test_architecture_preserved(opt_30b):
    int8 = quantize_weights(opt_30b)
    assert int8.layer_params == opt_30b.layer_params
    assert int8.d_model == opt_30b.d_model


def test_double_quantization_rejected(opt_30b):
    int8 = quantize_weights(opt_30b)
    with pytest.raises(ConfigurationError, match="not shrink"):
        quantize_weights(int8)


def test_quantized_inference_is_faster(opt_30b, spr_a100, eval_config):
    from repro.core.estimator import LiaEstimator
    from repro.models.workload import InferenceRequest

    request = InferenceRequest(1, 256, 32)
    bf16 = LiaEstimator(opt_30b, spr_a100, eval_config).estimate(request)
    int8 = LiaEstimator(quantize_weights(opt_30b), spr_a100,
                        eval_config).estimate(request)
    # OPT-30B in INT8 (30 GB) fits entirely in the A100's HBM, so the
    # gain exceeds the naive 2x weight-streaming bound.
    assert 1.2 <= bf16.latency / int8.latency <= 5.0
    assert int8.residency.n_resident_layers > \
        bf16.residency.n_resident_layers
