"""Functional decoder-only transformer (OPT architecture, numpy).

Implements the exact sublayer structure of Fig. 1: pre-layer-norm
attention (QKV mapping, attention scoring, attention context, output
projection with residual) followed by a pre-layer-norm FFN (FC1 with
GELU, FC2 with residual).  Layer norm, softmax, and residuals are
"fused" with their adjacent GEMM sublayers, matching the paper's note
that these low-ops/byte operations never move independently.

All GEMMs run through :func:`bf16_matmul_reference` (BF16 operands,
FP32 accumulation), the numerical contract AMX and tensor cores share
— which is why compute placement cannot change outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.models.spec import FeedForwardKind, ModelSpec


def bf16_round(values: np.ndarray) -> np.ndarray:
    """Round an FP32 array to the nearest BF16-representable values.

    BF16 is FP32 with the bottom 16 mantissa bits dropped; numpy has
    no native bfloat16, so this rounds the raw bit pattern to nearest
    even on bit 16, the rounding mode AMX and tensor cores implement.
    The result is float32 (the values are exactly representable in
    BF16).
    """
    as_f32 = np.ascontiguousarray(values, dtype=np.float32)
    bits = as_f32.view(np.uint32)
    # Round-to-nearest-even: add 0x7FFF plus the LSB of the kept part.
    lsb = (bits >> 16) & 1
    rounded = bits + 0x7FFF + lsb
    truncated = (rounded & 0xFFFF0000).astype(np.uint32)
    result = truncated.view(np.float32).copy()
    # Preserve NaNs (the bit trick can flush NaN payloads oddly).
    nan_mask = np.isnan(as_f32)
    if nan_mask.any():
        result[nan_mask] = np.float32("nan")
    return result.reshape(values.shape)


def bf16_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference BF16 matmul: BF16 inputs, FP32 accumulation.

    This is the numerical contract shared by AMX's TMUL and NVIDIA
    tensor cores, so CPU- and GPU-computed sublayers agree bit-for-bit
    in the functional engine.
    """
    a16 = bf16_round(a).astype(np.float32)
    b16 = bf16_round(b).astype(np.float32)
    return a16 @ b16


def layer_norm(x: np.ndarray, gamma: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """Standard layer normalization in FP32."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mean) / np.sqrt(var + 1e-5) + beta


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU, as used by OPT."""
    return 0.5 * x * (1.0 + np.tanh(
        np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU/Swish, the gate activation of SwiGLU (Llama-style FFNs)."""
    return x / (1.0 + np.exp(-x))


@dataclass
class DecoderWeights:
    """Weights of one decoder layer (BF16-representable FP32)."""

    w_qkv: np.ndarray
    b_qkv: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    w_fc1: np.ndarray
    b_fc1: np.ndarray
    w_fc2: np.ndarray
    b_fc2: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    @property
    def nbytes_bf16(self) -> int:
        """BF16 bytes of the GEMM weights (matches Table 1's D_Y)."""
        return 2 * (self.w_qkv.size + self.w_out.size + self.w_fc1.size
                    + self.w_fc2.size)


class TinyTransformer:
    """A complete, runnable decoder-only model with deterministic
    weights.

    Covers the architectures the cost model supports: OPT-style MHA
    with a dense GELU FFN, and Llama-style grouped-query attention
    with a SwiGLU FFN.  Intended for small specs (``opt-tiny``,
    ``llama-tiny``); the functional engine executes its sublayers on
    simulated devices.  Weight init is seeded, so two instances with
    the same spec and seed are identical.
    """

    def __init__(self, spec: ModelSpec, seed: int = 0) -> None:
        if spec.feed_forward is FeedForwardKind.MOE:
            raise ConfigurationError(
                "TinyTransformer does not implement MoE routing")
        self.spec = spec
        rng = np.random.default_rng(seed)
        scale = 0.02

        def init(*shape: int) -> np.ndarray:
            return bf16_round(rng.normal(0.0, scale,
                                         shape).astype(np.float32))

        d = spec.d_model
        kv = spec.kv_dim
        # SwiGLU's FC1 packs the gate and up projections side by side.
        fc1_width = spec.ffn_matrices_in * spec.d_ff
        self.embedding = init(spec.vocab_size, d)
        self.pos_embedding = init(spec.max_seq_len, d)
        self.final_ln_gamma = np.ones(d, dtype=np.float32)
        self.final_ln_beta = np.zeros(d, dtype=np.float32)
        self.layers: List[DecoderWeights] = []
        for _ in range(spec.n_layers):
            self.layers.append(DecoderWeights(
                w_qkv=init(d, d + 2 * kv),
                b_qkv=np.zeros(d + 2 * kv, dtype=np.float32),
                w_out=init(d, d),
                b_out=np.zeros(d, dtype=np.float32),
                w_fc1=init(d, fc1_width),
                b_fc1=np.zeros(fc1_width, dtype=np.float32),
                w_fc2=init(spec.d_ff, d),
                b_fc2=np.zeros(d, dtype=np.float32),
                ln1_gamma=np.ones(d, dtype=np.float32),
                ln1_beta=np.zeros(d, dtype=np.float32),
                ln2_gamma=np.ones(d, dtype=np.float32),
                ln2_beta=np.zeros(d, dtype=np.float32),
            ))

    # ------------------------------------------------------------------
    # Sublayer primitives (device-agnostic math; the engine decides
    # where each one runs and moves operands accordingly).
    # ------------------------------------------------------------------
    def embed(self, tokens: np.ndarray, position_offset: int = 0
              ) -> np.ndarray:
        """Token + position embedding for a (batch, seq) id array."""
        if tokens.ndim != 2:
            raise ConfigurationError(
                f"tokens must be (batch, seq), got {tokens.shape}")
        positions = np.arange(tokens.shape[1]) + position_offset
        if positions.max() >= self.spec.max_seq_len:
            raise ConfigurationError("sequence exceeds max_seq_len")
        return (self.embedding[tokens]
                + self.pos_embedding[positions][None, :, :])

    def qkv_mapping(self, hidden: np.ndarray, layer: int
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sublayer 1 with the fused pre-attention layer norm."""
        w = self.layers[layer]
        normed = layer_norm(hidden, w.ln1_gamma, w.ln1_beta)
        qkv = bf16_matmul_reference(normed, w.w_qkv) + w.b_qkv
        d = self.spec.d_model
        kv = self.spec.kv_dim
        return (qkv[..., :d], qkv[..., d:d + kv],
                qkv[..., d + kv:])

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """Split a (B, T, h*d_h) tensor into (B, h, T, d_h) heads.

        KV tensors carry ``n_kv_heads`` heads; under grouped-query
        attention they are repeated to cover every query head.
        """
        batch, seq, width = x.shape
        d_head = self.spec.d_head
        heads = width // d_head
        split = x.reshape(batch, seq, heads,
                          d_head).transpose(0, 2, 1, 3)
        if heads != self.spec.n_heads:
            repeat = self.spec.n_heads // heads
            split = np.repeat(split, repeat, axis=1)
        return split

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, n_heads, seq, d_head = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq,
                                               n_heads * d_head)

    def attention_scores(self, queries: np.ndarray, keys: np.ndarray,
                         causal: bool) -> np.ndarray:
        """Sublayer 2 (Q x K^T) with the fused scale + softmax.

        ``queries`` covers the *new* tokens only; ``keys`` the full
        history, so a causal mask is offset by the history length.
        """
        q = self._split_heads(queries)
        k = self._split_heads(keys)
        scores = bf16_matmul_reference(q, k.transpose(0, 1, 3, 2))
        scores = scores / np.sqrt(self.spec.d_head)
        if causal:
            n_new, n_total = q.shape[2], k.shape[2]
            offset = n_total - n_new
            mask = np.triu(np.ones((n_new, n_total), dtype=bool),
                           k=offset + 1)
            scores = np.where(mask, -1e9, scores)
        return softmax(scores)

    def attention_context(self, scores: np.ndarray,
                          values: np.ndarray) -> np.ndarray:
        """Sublayer 3 (S x V), heads merged back to d_model."""
        v = self._split_heads(values)
        context = bf16_matmul_reference(scores, v)
        return self._merge_heads(context)

    def output_projection(self, context: np.ndarray, residual: np.ndarray,
                          layer: int) -> np.ndarray:
        """Sublayer 4 with its fused residual add."""
        w = self.layers[layer]
        projected = bf16_matmul_reference(context, w.w_out) + w.b_out
        return projected + residual

    def fc1(self, hidden: np.ndarray, layer: int) -> np.ndarray:
        """Sublayer 5 with the fused pre-FFN layer norm and its
        activation: GELU for dense FFNs, SiLU-gated for SwiGLU."""
        w = self.layers[layer]
        normed = layer_norm(hidden, w.ln2_gamma, w.ln2_beta)
        projected = bf16_matmul_reference(normed, w.w_fc1) + w.b_fc1
        if self.spec.feed_forward is FeedForwardKind.SWIGLU:
            gate = projected[..., :self.spec.d_ff]
            up = projected[..., self.spec.d_ff:]
            return silu(gate) * up
        return gelu(projected)

    def fc2(self, ffn_hidden: np.ndarray, residual: np.ndarray,
            layer: int) -> np.ndarray:
        """Sublayer 6 with its fused residual add."""
        w = self.layers[layer]
        out = bf16_matmul_reference(ffn_hidden, w.w_fc2) + w.b_fc2
        return out + residual

    def lm_head(self, hidden: np.ndarray) -> np.ndarray:
        """Final layer norm + tied-embedding projection to logits."""
        normed = layer_norm(hidden, self.final_ln_gamma,
                            self.final_ln_beta)
        return bf16_matmul_reference(normed, self.embedding.T)

