"""Policy optimization (§5.1 / Fig. 9)."""

import pytest

from repro.core.config import LiaConfig
from repro.core.latency import layer_latency
from repro.core.optimizer import (
    decode_policy_threshold,
    optimal_policy,
    policy_map,
    prefill_policy_transition,
)
from repro.core.overlap import serial_layer_time
from repro.errors import ConfigurationError
from repro.core.policy import (
    FULL_CPU,
    FULL_GPU,
    PARTIAL_CPU,
    OffloadPolicy,
)
from repro.models.sublayers import Stage


def test_decode_b1_full_cpu(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.DECODE, 1, 256, spr_a100,
                              eval_config)
    assert decision.policy == FULL_CPU


def test_decode_large_batch_partial_cpu(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.DECODE, 1400, 256,
                              spr_a100, eval_config)
    assert decision.policy == PARTIAL_CPU


def test_prefill_small_bl_full_cpu(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.PREFILL, 1, 32, spr_a100,
                              eval_config)
    assert decision.policy == FULL_CPU


def test_prefill_large_bl_full_gpu(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.PREFILL, 64, 1024,
                              spr_a100, eval_config)
    assert decision.policy == FULL_GPU


def test_optimum_beats_every_policy(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.DECODE, 64, 512, spr_a100,
                              eval_config)
    for policy in OffloadPolicy.all_policies():
        layer = layer_latency(opt_175b, Stage.DECODE, policy, 64, 512,
                              spr_a100, eval_config)
        assert decision.layer_time <= serial_layer_time(layer) + 1e-12


def test_forced_policy_respected(opt_175b, spr_a100, eval_config):
    config = eval_config.with_forced_policy(PARTIAL_CPU, PARTIAL_CPU)
    for stage in Stage:
        decision = optimal_policy(opt_175b, stage, 1, 32, spr_a100,
                                  config)
        assert decision.policy == PARTIAL_CPU


def test_resident_weights_prefer_gpu(opt_175b, spr_a100, eval_config):
    decision = optimal_policy(opt_175b, Stage.DECODE, 1, 256, spr_a100,
                              eval_config, weights_resident=True)
    # With free weights the GPU handles all parameter sublayers.
    for i in (1, 4, 5, 6):
        assert decision.policy.p(i) == 0


def test_decode_threshold_in_paper_range(opt_175b, spr_a100,
                                         eval_config):
    # §7.1 reports B = 858 on SPR-A100; the reproduction lands in the
    # same few-hundred region.
    threshold = decode_policy_threshold(opt_175b, spr_a100, eval_config)
    assert 300 <= threshold <= 1400


def test_decode_threshold_independent_of_l(opt_175b, spr_a100,
                                           eval_config):
    # §7.1: the decode policy depends on B, not L.
    thresholds = {
        decode_policy_threshold(opt_175b, spr_a100, eval_config,
                                context_len=length)
        for length in (64, 256, 1024)}
    assert len(thresholds) == 1


def test_prefill_transition_bl_in_paper_range(opt_175b, spr_a100,
                                              eval_config):
    # §7.1: BL ~ 850 on SPR-A100.
    transition = prefill_policy_transition(opt_175b, spr_a100,
                                           eval_config)
    assert 300 <= transition <= 1600


def test_h100_prefers_gpu_policies_more(opt_175b, spr_a100, spr_h100,
                                        eval_config):
    # §7.1 "Impact of GPU capability": H100 shifts the decode
    # threshold down (GPU-centric policies over a wider region).
    a100_threshold = decode_policy_threshold(opt_175b, spr_a100,
                                             eval_config)
    h100_threshold = decode_policy_threshold(opt_175b, spr_h100,
                                             eval_config)
    assert h100_threshold <= a100_threshold


def test_h100_still_uses_full_cpu_at_b1(opt_175b, spr_h100, eval_config):
    # §7.1: LIA remains effective on H100 systems — it still picks the
    # CPU-centric policy for small requests.
    decision = optimal_policy(opt_175b, Stage.DECODE, 1, 256, spr_h100,
                              eval_config)
    assert decision.policy == FULL_CPU


def test_policy_map_covers_grid(opt_175b, spr_a100, eval_config):
    grid = policy_map(opt_175b, Stage.DECODE, (1, 1400), (64, 512),
                      spr_a100, eval_config)
    assert set(grid) == {(1, 64), (1, 512), (1400, 64), (1400, 512)}
    assert grid[(1, 64)] == FULL_CPU
    assert grid[(1400, 64)] == PARTIAL_CPU


@pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
def test_policy_map_grid_matches_per_point_searches(opt_175b, spr_a100,
                                                    eval_config, stage):
    """One grid search equals a per-point Eq. (1) search at every point
    (row-major order), and counts one search per point."""
    from repro.telemetry import Telemetry, activate

    batches, lengths = (1, 16, 180, 900, 1400), (32, 512, 2048)
    grid_telemetry, point_telemetry = Telemetry(), Telemetry()
    with activate(grid_telemetry):
        grid = policy_map(opt_175b, stage, batches, lengths, spr_a100,
                          eval_config)
    with activate(point_telemetry):
        expected = {(b, length): optimal_policy(
            opt_175b, stage, b, length, spr_a100, eval_config).policy
            for b in batches for length in lengths}
    assert list(grid.items()) == list(expected.items())
    assert (grid_telemetry.metrics.snapshot()
            == point_telemetry.metrics.snapshot())


def test_policy_map_rejects_bad_grid(opt_175b, spr_a100, eval_config):
    with pytest.raises(ConfigurationError,
                       match="batch_size must be >= 1, got 0"):
        policy_map(opt_175b, Stage.DECODE, (0, 16), (64,), spr_a100,
                   eval_config)


def test_moe_prefers_cpu_fc_sublayers(gnr_a100, eval_config):
    """§7.1 adaptability: as experts grow, the FC sublayers' ops/byte
    collapses and LIA moves them to the CPU alongside attention."""
    from repro.models.zoo import get_model
    dense = get_model("opt-30b")
    moe = get_model("opt-moe-16x30b")
    batch, length = 256, 256
    dense_policy = optimal_policy(dense, Stage.DECODE, batch, length,
                                  gnr_a100, eval_config).policy
    moe_policy = optimal_policy(moe, Stage.DECODE, batch, length,
                                gnr_a100, eval_config).policy
    # The MoE model offloads at least as many FC sublayers to the CPU.
    dense_fc_cpu = dense_policy.p(5) + dense_policy.p(6)
    moe_fc_cpu = moe_policy.p(5) + moe_policy.p(6)
    assert moe_fc_cpu >= dense_fc_cpu


def test_grace_hopper_all_gpu(opt_175b, eval_config):
    # §8: with a 450 GB/s-per-direction C2C link every sublayer goes
    # to the GPU.
    from repro.hardware.system import get_system
    gh200 = get_system("gh200")
    for stage in Stage:
        decision = optimal_policy(opt_175b, stage, 64, 256, gh200,
                                  eval_config)
        assert decision.policy == FULL_GPU


def test_prefill_transition_consistent_units_batch3(opt_175b, spr_a100,
                                                    eval_config):
    # Regression: with batch_size=3 the early-return paths used to mix
    # context lengths with B*L products.  Every path must now return a
    # multiple of batch_size that brackets the actual policy flip.
    product = prefill_policy_transition(opt_175b, spr_a100, eval_config,
                                        batch_size=3)
    assert product % 3 == 0
    assert product <= 65536
    length = product // 3
    decision_at = optimal_policy(opt_175b, Stage.PREFILL, 3, length,
                                 spr_a100, eval_config)
    decision_before = optimal_policy(opt_175b, Stage.PREFILL, 3,
                                     length - 1, spr_a100, eval_config)
    assert not decision_at.policy.all_cpu
    assert decision_before.policy.all_cpu


def test_prefill_transition_scales_with_batch(opt_175b, spr_a100,
                                              eval_config):
    # The flip happens near a constant B*L product (Fig. 9): the
    # products reported for B=1 and B=3 agree to a few percent.  (The
    # old unit-mixing bug made the B=3 result off by ~3x.)
    b1 = prefill_policy_transition(opt_175b, spr_a100, eval_config,
                                   batch_size=1)
    b3 = prefill_policy_transition(opt_175b, spr_a100, eval_config,
                                   batch_size=3)
    assert abs(b1 - b3) / b1 < 0.05


def test_prefill_transition_degenerate_bounds(opt_175b, spr_a100,
                                              eval_config):
    # hi < batch_size collapses both bounds to L=1; the result is the
    # smallest representable product, not a unit-mixed value.
    product = prefill_policy_transition(opt_175b, spr_a100, eval_config,
                                        batch_size=900, lo=1, hi=512)
    assert product == 900


def test_policy_counters_count_every_search(opt_30b, spr_a100):
    """policy.searches counts calls, one per repeat of a point."""
    from repro.telemetry import Telemetry, activate

    config = LiaConfig(enforce_host_capacity=False)
    telemetry = Telemetry()
    with activate(telemetry):
        optimal_policy(opt_30b, Stage.DECODE, 4, 64, spr_a100, config)
        optimal_policy(opt_30b, Stage.DECODE, 4, 64, spr_a100, config)
    assert telemetry.metrics.counter_value(
        "policy.searches", stage="decode") == 2
    assert telemetry.metrics.counter_value(
        "policy.evaluations", stage="decode") == 128
