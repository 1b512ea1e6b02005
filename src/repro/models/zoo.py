"""The model zoo: every model the paper evaluates or discusses.

Shapes follow the published architecture tables: OPT (Zhang et al.
2022, Table 1), Llama 2 (Touvron et al. 2023), Chinchilla (Hoffmann et
al. 2022), and Bloom (Le Scao et al. 2023).  The ``opt-moe-*`` entries
are the synthetic Mixture-of-Experts variants used in the §7.1
"Adaptability to other models" discussion.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.models.spec import AttentionKind, FeedForwardKind, ModelSpec


def _opt(name: str, n_layers: int, d_model: int,
         n_heads: int) -> ModelSpec:
    """OPT family: multi-head attention, dense 4x FFN, vocab 50272."""
    return ModelSpec(
        name=name,
        n_layers=n_layers,
        d_model=d_model,
        n_heads=n_heads,
        d_ff=4 * d_model,
        vocab_size=50272,
    )


MODEL_ZOO: Dict[str, ModelSpec] = {}


def _register(spec: ModelSpec) -> ModelSpec:
    if spec.name in MODEL_ZOO:
        raise ConfigurationError(f"duplicate model name: {spec.name}")
    MODEL_ZOO[spec.name] = spec
    return spec


# ----------------------------------------------------------------------
# OPT family (§7 main evaluation)
# ----------------------------------------------------------------------
OPT_6_7B = _register(_opt("opt-6.7b", n_layers=32, d_model=4096, n_heads=32))
OPT_13B = _register(_opt("opt-13b", n_layers=40, d_model=5120, n_heads=40))
OPT_30B = _register(_opt("opt-30b", n_layers=48, d_model=7168, n_heads=56))
OPT_66B = _register(_opt("opt-66b", n_layers=64, d_model=9216, n_heads=72))
OPT_175B = _register(_opt("opt-175b", n_layers=96, d_model=12288,
                          n_heads=96))

# ----------------------------------------------------------------------
# Generalizability models (§7.7) and PowerInfer comparison (§7.9)
# ----------------------------------------------------------------------
LLAMA2_70B = _register(ModelSpec(
    name="llama2-70b",
    n_layers=80,
    d_model=8192,
    n_heads=64,
    n_kv_heads=8,
    d_ff=28672,
    vocab_size=32000,
    max_seq_len=4096,
    attention=AttentionKind.GROUPED_QUERY,
    feed_forward=FeedForwardKind.SWIGLU,
))

CHINCHILLA_70B = _register(ModelSpec(
    name="chinchilla-70b",
    n_layers=80,
    d_model=8192,
    n_heads=64,
    d_ff=4 * 8192,
    vocab_size=32000,
    max_seq_len=2048,
))

BLOOM_176B = _register(ModelSpec(
    name="bloom-176b",
    n_layers=70,
    d_model=14336,
    n_heads=112,
    d_ff=4 * 14336,
    vocab_size=250880,
    max_seq_len=2048,
))

# ----------------------------------------------------------------------
# Synthetic MoE variants for the §7.1 policy-diversity discussion.
# Stored FFN weights scale with n_experts; active compute with top-k.
# ----------------------------------------------------------------------
OPT_MOE_8X30B = _register(ModelSpec(
    name="opt-moe-8x30b",
    n_layers=48,
    d_model=7168,
    n_heads=56,
    d_ff=4 * 7168,
    vocab_size=50272,
    max_seq_len=2048,
    feed_forward=FeedForwardKind.MOE,
    n_experts=8,
    top_k_experts=2,
))

OPT_MOE_16X30B = _register(ModelSpec(
    name="opt-moe-16x30b",
    n_layers=48,
    d_model=7168,
    n_heads=56,
    d_ff=4 * 7168,
    vocab_size=50272,
    max_seq_len=2048,
    feed_forward=FeedForwardKind.MOE,
    n_experts=16,
    top_k_experts=2,
))

#: A tiny configuration for the functional numpy engine and the test
#: suite; shares OPT's architecture but runs in milliseconds.
OPT_TINY = _register(ModelSpec(
    name="opt-tiny",
    n_layers=2,
    d_model=64,
    n_heads=4,
    d_ff=256,
    vocab_size=128,
    max_seq_len=64,
))

#: Tiny Llama-style twin: grouped-query attention + SwiGLU, so the
#: functional engine also covers the §7.7 architecture family.
LLAMA_TINY = _register(ModelSpec(
    name="llama-tiny",
    n_layers=2,
    d_model=64,
    n_heads=4,
    n_kv_heads=2,
    d_ff=96,
    vocab_size=128,
    max_seq_len=64,
    attention=AttentionKind.GROUPED_QUERY,
    feed_forward=FeedForwardKind.SWIGLU,
))


def get_model(name: str) -> ModelSpec:
    """Look up a model spec by name, e.g. ``get_model("opt-175b")``."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_ZOO))
        raise ConfigurationError(
            f"unknown model {name!r}; known models: {known}") from None
