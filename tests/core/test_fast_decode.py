"""Array decode summation vs the exact per-step loop.

The estimator sums every decode step from one term table, as arrays
over the context length, folded in step order by
:func:`~repro.core.estimator.sum_steps`.  It must equal the per-step
loop of ``tests/oracles/eq1_scalar.py`` exactly on every model/system/
shape combination, and degenerate spans must be exact.
"""

import numpy as np
import pytest

from repro.core.cache import clear_caches
from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator, StageBreakdown, sum_steps
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from tests.oracles import eq1_scalar


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _assert_exact(estimator: LiaEstimator, request: InferenceRequest):
    estimate = estimator.estimate(request)
    prefill, decode, _, decode_policy = eq1_scalar.lia_stages(estimator,
                                                              request)
    assert estimate.decode == decode
    assert estimate.prefill == prefill
    assert estimate.decode_policy == decode_policy
    assert estimate.latency == prefill.time + decode.time


class TestClosedFormSummation:
    """:func:`sum_steps` folds per-step arrays exactly as a loop does."""

    def test_affine_function_is_exact(self):
        lengths = np.arange(10, 501)
        steps = StageBreakdown(time=3.0 * lengths + 7.0,
                               cpu_compute=2.0 * lengths,
                               gpu_compute=0.5 * lengths + 1.0,
                               transfer=0.0 * lengths)
        total = sum_steps(steps)
        expected = StageBreakdown(0.0, 0.0, 0.0, 0.0)
        for length in lengths.tolist():
            expected = expected + StageBreakdown(
                3.0 * length + 7.0, 2.0 * length, 0.5 * length + 1.0, 0.0)
        assert total == expected
        assert all(type(value) is float for value in total.components())

    def test_empty_span_is_zero(self):
        empty = np.zeros(0)
        total = sum_steps(StageBreakdown(empty, empty, empty, empty))
        assert total == StageBreakdown(0.0, 0.0, 0.0, 0.0)


class TestFastVsExactEstimates:
    @pytest.mark.parametrize("model,system_name", [
        ("opt-6.7b", "spr-a100"),
        ("opt-30b", "spr-a100"),
        ("opt-66b", "spr-h100"),
        ("opt-175b", "spr-a100"),
        ("opt-175b", "spr-h100"),
    ])
    @pytest.mark.parametrize("batch,input_len,output_len", [
        (1, 32, 16),
        (1, 256, 512),
        (16, 128, 64),
        (64, 512, 32),
    ])
    def test_property_fast_matches_exact(self, model, system_name,
                                         batch, input_len, output_len):
        estimator = LiaEstimator(get_model(model), get_system(system_name),
                                 LiaConfig(enforce_host_capacity=False))
        _assert_exact(estimator,
                      InferenceRequest(batch, input_len, output_len))

    def test_single_decode_step(self):
        estimator = LiaEstimator(get_model("opt-30b"),
                                 get_system("spr-a100"),
                                 LiaConfig(enforce_host_capacity=False))
        _assert_exact(estimator, InferenceRequest(1, 64, 1))

    def test_cxl_configuration(self):
        """The array path must also hold under CXL weight placement."""
        system = get_system("spr-a100").with_cxl(n_expanders=2)
        config = LiaConfig(enforce_host_capacity=False).with_cxl_weights()
        estimator = LiaEstimator(get_model("opt-175b"), system, config)
        _assert_exact(estimator, InferenceRequest(8, 128, 128))


class TestConfigValidation:
    def test_without_cache(self):
        config = LiaConfig()
        assert config.cache_enabled
        assert not config.without_cache().cache_enabled
