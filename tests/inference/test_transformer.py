"""Functional transformer numerics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.inference.transformer import (
    TinyTransformer,
    gelu,
    layer_norm,
    softmax,
)
from repro.models.zoo import get_model
from tests.oracles.transformer_reference import forward_reference


@pytest.fixture
def model(tiny_spec):
    return TinyTransformer(tiny_spec, seed=0)


def test_layer_norm_normalizes():
    x = np.random.default_rng(0).normal(3, 5, (4, 16)).astype(np.float32)
    gamma = np.ones(16, dtype=np.float32)
    beta = np.zeros(16, dtype=np.float32)
    normed = layer_norm(x, gamma, beta)
    np.testing.assert_allclose(normed.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(normed.std(axis=-1), 1.0, atol=1e-2)


def test_softmax_rows_sum_to_one():
    x = np.random.default_rng(0).normal(0, 10, (3, 7)).astype(np.float32)
    probs = softmax(x)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)
    assert (probs >= 0).all()


def test_softmax_stable_for_large_inputs():
    probs = softmax(np.array([[1e4, 1e4 - 1.0]], dtype=np.float32))
    assert np.isfinite(probs).all()


def test_gelu_fixed_points():
    assert gelu(np.array([0.0]))[0] == 0.0
    assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
    assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)


def test_deterministic_weights(tiny_spec):
    a = TinyTransformer(tiny_spec, seed=42)
    b = TinyTransformer(tiny_spec, seed=42)
    np.testing.assert_array_equal(a.layers[0].w_qkv, b.layers[0].w_qkv)
    c = TinyTransformer(tiny_spec, seed=43)
    assert not np.array_equal(a.layers[0].w_qkv, c.layers[0].w_qkv)


def test_layer_weight_bytes_match_table1(tiny_spec, model):
    d = tiny_spec.d_model
    # 12 d^2 weights at 2 bytes each per layer.
    assert model.layers[0].nbytes_bf16 == 2 * (
        3 * d * d + d * d + d * tiny_spec.d_ff + tiny_spec.d_ff * d)


def test_causal_masking(model):
    # The first token's output must not depend on later tokens.
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.spec.vocab_size, (1, 8))
    logits_full = forward_reference(model, tokens)
    tokens_changed = tokens.copy()
    tokens_changed[0, -1] = (tokens[0, -1] + 1) % model.spec.vocab_size
    logits_changed = forward_reference(model, tokens_changed)
    np.testing.assert_array_equal(logits_full[:, 0, :],
                                  logits_changed[:, 0, :])
    assert not np.array_equal(logits_full[:, -1, :],
                              logits_changed[:, -1, :])


def test_forward_shapes(model):
    tokens = np.zeros((2, 5), dtype=np.int64)
    logits = forward_reference(model, tokens)
    assert logits.shape == (2, 5, model.spec.vocab_size)
    assert np.isfinite(logits).all()


def test_embed_rejects_overflow(model):
    tokens = np.zeros((1, model.spec.max_seq_len + 1), dtype=np.int64)
    with pytest.raises(ConfigurationError):
        model.embed(tokens)


def test_embed_rejects_1d(model):
    with pytest.raises(ConfigurationError):
        model.embed(np.zeros(4, dtype=np.int64))


def test_moe_model_rejected():
    with pytest.raises(ConfigurationError, match="MoE"):
        TinyTransformer(get_model("opt-moe-8x30b"))


def test_llama_tiny_gqa_swiglu_runs():
    spec = get_model("llama-tiny")
    model = TinyTransformer(spec, seed=0)
    # GQA: KV projection is kv_dim-wide, half the query width here.
    assert model.layers[0].w_qkv.shape == (64, 64 + 2 * spec.kv_dim)
    # SwiGLU: FC1 packs gate + up projections.
    assert model.layers[0].w_fc1.shape == (64, 2 * spec.d_ff)
    tokens = np.arange(10, dtype=np.int64).reshape(2, 5)
    logits = forward_reference(model, tokens)
    assert logits.shape == (2, 5, spec.vocab_size)
    assert np.isfinite(logits).all()


def test_llama_tiny_causal(tiny_spec):
    model = TinyTransformer(get_model("llama-tiny"), seed=1)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.spec.vocab_size, (1, 6))
    logits = forward_reference(model, tokens)
    changed = tokens.copy()
    changed[0, -1] = (tokens[0, -1] + 1) % model.spec.vocab_size
    logits_changed = forward_reference(model, changed)
    np.testing.assert_array_equal(logits[:, 0, :],
                                  logits_changed[:, 0, :])
