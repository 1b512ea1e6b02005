"""Table 1 cost formulas, checked symbol-for-symbol for OPT models."""

import pytest

from repro.errors import ConfigurationError
from repro.models.sublayers import (
    KV_STORE_SUBLAYERS,
    RESIDUAL_SOURCE,
    Stage,
    Sublayer,
    sublayer_cost,
    sublayer_costs,
)
from repro.models.zoo import get_model

B, L = 4, 128


@pytest.fixture
def spec():
    return get_model("opt-175b")


def d(spec):
    return spec.d_model


# ----------------------------------------------------------------------
# Prefill rows of Table 1 (BF16: the leading 2 is bytes/element).
# ----------------------------------------------------------------------
def test_prefill_qkv_mapping(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.QKV_MAPPING, Stage.PREFILL, B, L)
    assert cost.d_x == 2 * B * L * dm
    assert cost.d_y == 6 * dm**2
    assert cost.flops == 6 * B * L * dm**2
    assert cost.d_kv_out == 4 * B * L * dm  # K and V, 2 bytes each


def test_prefill_attention_score(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.ATTENTION_SCORE, Stage.PREFILL,
                         B, L)
    assert cost.d_x == 2 * B * L * dm
    assert cost.d_y == 2 * B * L * dm
    assert cost.flops == 2 * B * L**2 * dm


def test_prefill_attention_context(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.ATTENTION_CONTEXT, Stage.PREFILL,
                         B, L)
    assert cost.d_y == 2 * B * L * dm
    assert cost.flops == 2 * B * L**2 * dm


def test_prefill_output_projection(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.OUTPUT_PROJECTION, Stage.PREFILL,
                         B, L)
    assert cost.d_x == 2 * B * L * dm
    assert cost.d_y == 2 * dm**2
    assert cost.flops == 2 * B * L * dm**2


def test_prefill_fc1(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.FC1, Stage.PREFILL, B, L)
    assert cost.d_x == 2 * B * L * dm
    assert cost.d_y == 8 * dm**2
    assert cost.flops == 8 * B * L * dm**2


def test_prefill_fc2(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.FC2, Stage.PREFILL, B, L)
    assert cost.d_x == 8 * B * L * dm  # the 4x-wide FC1 output
    assert cost.d_y == 8 * dm**2
    assert cost.flops == 8 * B * L * dm**2


# ----------------------------------------------------------------------
# Decode rows of Table 1.
# ----------------------------------------------------------------------
def test_decode_qkv_mapping(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.QKV_MAPPING, Stage.DECODE, B, L)
    assert cost.d_x == 2 * B * dm
    assert cost.d_y == 6 * dm**2
    assert cost.flops == 6 * B * dm**2


def test_decode_attention_sublayers(spec):
    dm = d(spec)
    for sub in (Sublayer.ATTENTION_SCORE, Sublayer.ATTENTION_CONTEXT):
        cost = sublayer_cost(spec, sub, Stage.DECODE, B, L)
        assert cost.d_y == 2 * B * L * dm
        assert cost.flops == 2 * B * L * dm


def test_decode_fc_sublayers(spec):
    dm = d(spec)
    fc1 = sublayer_cost(spec, Sublayer.FC1, Stage.DECODE, B, L)
    fc2 = sublayer_cost(spec, Sublayer.FC2, Stage.DECODE, B, L)
    assert fc1.d_x == 2 * B * dm
    assert fc2.d_x == 8 * B * dm
    assert fc1.d_y == fc2.d_y == 8 * dm**2
    assert fc1.flops == fc2.flops == 8 * B * dm**2


def test_decode_output_projection(spec):
    dm = d(spec)
    cost = sublayer_cost(spec, Sublayer.OUTPUT_PROJECTION, Stage.DECODE,
                         B, L)
    assert cost.d_x == 2 * B * dm
    assert cost.d_y == 2 * dm**2
    assert cost.flops == 2 * B * dm**2


# ----------------------------------------------------------------------
# Structural behaviour
# ----------------------------------------------------------------------
def test_parameter_vs_kv_classification():
    params = {s for s in Sublayer if s.uses_parameters}
    kv = {s for s in Sublayer if s.uses_kv_cache}
    assert kv == {Sublayer.ATTENTION_SCORE, Sublayer.ATTENTION_CONTEXT}
    assert params | kv == set(Sublayer)
    assert not params & kv


def test_residual_sources():
    assert RESIDUAL_SOURCE[Sublayer.OUTPUT_PROJECTION] is \
        Sublayer.QKV_MAPPING
    assert RESIDUAL_SOURCE[Sublayer.FC2] is Sublayer.OUTPUT_PROJECTION
    assert Sublayer.FC1 not in RESIDUAL_SOURCE


def test_decode_attention_ops_per_byte_is_one(spec):
    # §6 Observation-2 rests on this: ops/byte of sublayer 2 stays ~1
    # regardless of B or L.
    for batch, length in ((1, 64), (64, 64), (900, 2048)):
        cost = sublayer_cost(spec, Sublayer.ATTENTION_SCORE,
                             Stage.DECODE, batch, length)
        assert cost.ops_per_byte == pytest.approx(1.0, abs=0.05)


def _heatmap(spec, batch_size, seq_len):
    """Fig. 1's {stage: {sublayer name: ops/byte}}."""
    return {stage.value: {sub.name: sublayer_cost(spec, sub, stage,
                                                  batch_size,
                                                  seq_len).ops_per_byte
                          for sub in Sublayer}
            for stage in Stage}


def test_heatmap_range_matches_paper(spec):
    # Fig. 1: ops/byte spans ~1 to tens of thousands at L=512, B=180.
    heatmap = _heatmap(spec, 180, 512)
    values = [v for row in heatmap.values() for v in row.values()]
    assert min(values) == pytest.approx(1.0, abs=0.05)
    assert max(values) > 10_000


def test_prefill_heatmap_extremes(spec):
    # §4 picks FC1 (most compute-intensive) and QK^T in decode (most
    # memory-intensive) as the extremes.
    heatmap = _heatmap(spec, 180, 512)
    prefill = heatmap[Stage.PREFILL.value]
    decode = heatmap[Stage.DECODE.value]
    assert max(prefill, key=prefill.get) == "FC1"
    lowest = min(decode, key=decode.get)
    assert lowest in ("ATTENTION_SCORE", "ATTENTION_CONTEXT")
    assert decode[lowest] < 1.05


def test_moe_fc_costs_scale_with_experts():
    dense = get_model("opt-30b")
    moe = get_model("opt-moe-8x30b")
    dense_fc1 = sublayer_cost(dense, Sublayer.FC1, Stage.DECODE, B, L)
    moe_fc1 = sublayer_cost(moe, Sublayer.FC1, Stage.DECODE, B, L)
    # 8 experts stored, top-2 active.
    assert moe_fc1.d_y == 8 * dense_fc1.d_y
    assert moe_fc1.flops == 2 * dense_fc1.flops
    # §7.1: MoE slashes the FC sublayers' ops/byte.
    assert moe_fc1.ops_per_byte < dense_fc1.ops_per_byte


def test_gqa_kv_costs_shrink():
    llama = get_model("llama2-70b")
    cost = sublayer_cost(llama, Sublayer.ATTENTION_SCORE, Stage.DECODE,
                         B, L)
    # KV operand is kv_dim-wide, 8x smaller than d_model for Llama 2.
    assert cost.d_y == 2 * B * L * llama.kv_dim
    assert llama.kv_dim * 8 == llama.d_model


@pytest.mark.parametrize("model", ["opt-30b", "llama2-70b", "opt-moe-8x30b"])
@pytest.mark.parametrize("stage", list(Stage))
def test_kv_store_sublayers_are_the_kv_bytes(model, stage):
    # The Eq. (9) store fires only on KV_STORE_SUBLAYERS: exactly the
    # columns with KV bytes to store.
    costs = sublayer_costs(get_model(model), stage, B, L)
    assert ((costs.d_kv_out != 0.0) == KV_STORE_SUBLAYERS).all()


def test_invalid_inputs_rejected(spec):
    with pytest.raises(ConfigurationError):
        sublayer_cost(spec, Sublayer.FC1, Stage.DECODE, 0, 16)
    with pytest.raises(ConfigurationError):
        sublayer_cost(spec, Sublayer.FC1, Stage.DECODE, 1, 0)
