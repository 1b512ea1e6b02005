"""Tensor-parallel DGX baseline (§7.8 / Fig. 14)."""

import pytest

from repro.baselines.multi_gpu import (
    AllReduceModel,
    TensorParallelEstimator,
)
from repro.core.estimator import LiaEstimator
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest


@pytest.fixture
def dgx():
    return get_system("dgx-a100")


def test_allreduce_ring_formula():
    model = AllReduceModel(n_ranks=8, bandwidth=600e9, hop_latency=5e-6)
    time = model.time(8e6)
    expected = 2 * 7 / 8 * 8e6 / 600e9 + 7 * 5e-6
    assert time == pytest.approx(expected)
    assert AllReduceModel(1, 600e9, 5e-6).time(8e6) == 0.0


def test_requires_multiple_gpus(opt_175b, spr_a100):
    with pytest.raises(ConfigurationError, match=">= 2 GPUs"):
        TensorParallelEstimator(opt_175b, spr_a100)


def test_weights_shard_across_gpus(opt_175b, dgx):
    estimator = TensorParallelEstimator(opt_175b, dgx)
    request = InferenceRequest(1, 256, 32)
    per_gpu = estimator.per_gpu_bytes(request)
    assert per_gpu >= opt_175b.total_param_bytes / 8
    assert per_gpu < opt_175b.total_param_bytes / 4


def test_estimate_runs_at_small_batch(opt_175b, dgx):
    estimate = TensorParallelEstimator(opt_175b, dgx).estimate(
        InferenceRequest(1, 256, 32))
    assert estimate.framework == "tensor-parallel"
    assert estimate.total.cpu_compute == 0.0
    assert estimate.throughput > 0.0


def test_oom_at_b900(opt_175b, dgx):
    # Fig. 14: the DGX cannot hold OPT-175B's KV cache at B=900.
    estimator = TensorParallelEstimator(opt_175b, dgx)
    with pytest.raises(CapacityError):
        estimator.estimate(InferenceRequest(900, 256, 32))


def test_lia_wins_per_gpu_at_b1(opt_175b, dgx, gnr_a100, eval_config):
    # Fig. 14: LIA achieves 1.4-1.8x higher per-GPU throughput at B=1.
    request = InferenceRequest(1, 256, 32)
    lia = LiaEstimator(opt_175b, gnr_a100, eval_config).estimate(request)
    dgx_est = TensorParallelEstimator(opt_175b, dgx).estimate(request)
    ratio = lia.throughput / (dgx_est.throughput / 8)
    assert 1.1 <= ratio <= 2.2


def test_dgx_competitive_at_b64(opt_175b, dgx, gnr_a100, eval_config):
    # Fig. 14: at B=64 the DGX catches up (paper: ~1.4x ahead).
    request = InferenceRequest(64, 256, 32)
    lia = LiaEstimator(opt_175b, gnr_a100, eval_config).estimate(request)
    dgx_est = TensorParallelEstimator(opt_175b, dgx).estimate(request)
    ratio = lia.throughput / (dgx_est.throughput / 8)
    assert 0.5 <= ratio <= 1.3


def test_more_gpus_do_not_slow_decode(opt_175b, dgx):
    # Sanity: the 8-way shard beats a hypothetical 2-way shard in
    # per-step latency (compute shrinks faster than all-reduce grows
    # at these sizes).
    from repro.models.sublayers import Stage
    est = TensorParallelEstimator(opt_175b, dgx)
    eight = est._layer_time(Stage.PREFILL, 64, 512)
    assert eight > 0.0
