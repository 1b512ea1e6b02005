"""Cooperative engine: policy invariance and traffic fidelity."""

import numpy as np
import pytest

from repro.core.policy import (
    FULL_CPU,
    FULL_GPU,
    PARTIAL_CPU,
    OffloadPolicy,
)
from repro.inference.engine import CooperativeEngine
from repro.inference.transformer import TinyTransformer
from repro.models.sublayers import Stage, Sublayer, sublayer_cost
from tests.oracles.transformer_reference import forward_reference


@pytest.fixture
def model(tiny_spec):
    return TinyTransformer(tiny_spec, seed=0)


def _generate(model, prefill, decode, prompt=None, new_tokens=4,
              resident=None):
    rng = np.random.default_rng(0)
    if prompt is None:
        prompt = rng.integers(0, model.spec.vocab_size, (2, 6))
    engine = CooperativeEngine(model, prefill, decode,
                               resident_layers=resident)
    return engine.generate(prompt, new_tokens)


def test_policy_invariance_of_tokens(model):
    """The paper's correctness premise: offloading never changes
    outputs."""
    reference = _generate(model, FULL_CPU, FULL_CPU)
    for prefill, decode in ((FULL_GPU, FULL_GPU),
                            (FULL_GPU, PARTIAL_CPU),
                            (FULL_CPU, FULL_GPU),
                            (PARTIAL_CPU, PARTIAL_CPU)):
        other = _generate(model, prefill, decode)
        np.testing.assert_array_equal(reference.tokens, other.tokens)
        np.testing.assert_allclose(reference.logits, other.logits,
                                   rtol=1e-5, atol=1e-6)


def test_policy_invariance_all_64_policies_first_token(model):
    rng = np.random.default_rng(1)
    prompt = rng.integers(0, model.spec.vocab_size, (1, 4))
    reference = None
    for policy in OffloadPolicy.all_policies():
        result = _generate(model, policy, policy, prompt=prompt,
                           new_tokens=1)
        if reference is None:
            reference = result.tokens
        np.testing.assert_array_equal(result.tokens, reference)


def test_matches_reference_forward(model):
    """Prefill+decode with KV caching equals a full-context forward."""
    rng = np.random.default_rng(2)
    prompt = rng.integers(0, model.spec.vocab_size, (1, 5))
    result = _generate(model, FULL_GPU, FULL_CPU, prompt=prompt,
                       new_tokens=3)
    # Replay: full forward over prompt + generated prefix must predict
    # the same next token at each step.
    sequence = prompt.copy()
    for step in range(3):
        logits = forward_reference(model, sequence)
        expected = logits[:, -1, :].argmax(axis=-1)
        assert expected[0] == result.tokens[0, step]
        sequence = np.concatenate([sequence, expected[:, None]], axis=1)


def test_full_cpu_generates_no_pcie_traffic(model):
    result = _generate(model, FULL_CPU, FULL_CPU)
    assert result.pcie_bytes == 0


def test_full_gpu_weight_traffic_matches_table1(model):
    spec = model.spec
    prompt = np.zeros((1, 4), dtype=np.int64)
    result = _generate(model, FULL_GPU, FULL_GPU, prompt=prompt,
                       new_tokens=2)
    by_label = result.transfers.bytes_by_label()
    # Per layer per forward pass, each parameter sublayer moves D_Y.
    passes = 2  # one prefill + one decode step
    for sub, weight in (("QKV_MAPPING", "w_qkv"),
                        ("OUTPUT_PROJECTION", "w_out"),
                        ("FC1", "w_fc1"), ("FC2", "w_fc2")):
        for layer in range(spec.n_layers):
            label = f"weights:L{layer}:{sub}"
            expected = 2 * getattr(model.layers[layer], weight).size
            assert by_label[label] == expected * passes


def test_kv_store_traffic_matches_eq9(model):
    spec = model.spec
    prompt = np.zeros((1, 4), dtype=np.int64)
    result = _generate(model, FULL_GPU, FULL_CPU, prompt=prompt,
                       new_tokens=1)
    by_label = result.transfers.bytes_by_label()
    # Prefill on GPU: each layer stores D_KV = 2 * e * B * L * d back.
    expected = sublayer_cost(spec, Sublayer.QKV_MAPPING, Stage.PREFILL,
                             1, 4).d_kv_out
    for layer in range(spec.n_layers):
        assert by_label[f"kv-store:L{layer}"] == expected


def test_kv_load_traffic_for_gpu_attention(model):
    """Decode with attention on GPU fetches the whole KV history —
    exactly the Eq. (5) traffic compute-offloading avoids."""
    prompt = np.zeros((1, 4), dtype=np.int64)
    gpu_attn = OffloadPolicy.from_string("100111")
    result = _generate(model, FULL_CPU, gpu_attn, prompt=prompt,
                       new_tokens=2)
    labels = result.transfers.bytes_by_label()
    assert any(label.startswith("kv-load") for label in labels)


def test_resident_layers_skip_weight_traffic(model):
    prompt = np.zeros((1, 4), dtype=np.int64)
    resident = list(range(model.spec.n_layers))
    result = _generate(model, FULL_GPU, FULL_GPU, prompt=prompt,
                       new_tokens=2, resident=resident)
    labels = result.transfers.bytes_by_label()
    assert not any(label.startswith("weights:") for label in labels)


def test_partial_policy_crosses_boundary_for_activations(model):
    prompt = np.zeros((1, 4), dtype=np.int64)
    result = _generate(model, PARTIAL_CPU, PARTIAL_CPU, prompt=prompt,
                       new_tokens=1)
    labels = result.transfers.bytes_by_label()
    # Attention scoring on CPU, neighbours on GPU: activations cross.
    assert any(label.startswith("act:") for label in labels)


def test_gqa_policy_invariance():
    from repro.models.zoo import get_model

    llama = TinyTransformer(get_model("llama-tiny"), seed=0)
    rng = np.random.default_rng(3)
    prompt = rng.integers(0, llama.spec.vocab_size, (2, 5))
    reference = None
    for prefill, decode in ((FULL_CPU, FULL_CPU),
                            (FULL_GPU, FULL_GPU),
                            (FULL_GPU, PARTIAL_CPU)):
        engine = CooperativeEngine(llama, prefill, decode)
        result = engine.generate(prompt, 3)
        if reference is None:
            reference = result.tokens
        np.testing.assert_array_equal(result.tokens, reference)


def test_generate_validation(model):
    engine = CooperativeEngine(model, FULL_CPU, FULL_CPU)
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        engine.generate(np.zeros(4, dtype=np.int64), 1)
    with pytest.raises(ConfigurationError):
        engine.generate(np.zeros((1, 4), dtype=np.int64), 0)
