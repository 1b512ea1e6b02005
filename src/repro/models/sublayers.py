"""Per-sublayer data-size and FLOP cost tables (paper Table 1).

A decoder layer has six GEMM/GEMV sublayers, indexed 1..6 exactly as in
the paper's offloading vector :math:`p = (p_1, ..., p_6)`:

====  ==================  =========================================
  i   Name                Operation
====  ==================  =========================================
  1   QKV mapping         ``X @ W_qkv``  (also emits the KV cache)
  2   Attention score     ``Q @ K^T``    (uses the KV cache)
  3   Attention context   ``S @ V``      (uses the KV cache)
  4   Output projection   ``A @ W_o`` (+ residual from sublayer 1's
                          input)
  5   FC1                 ``X @ W_1`` (wide)
  6   FC2                 ``H @ W_2`` (+ residual from sublayer 4's
                          output)
====  ==================  =========================================

For each sublayer and stage the table gives ``D_X`` (first operand
bytes, the activation), ``D_Y`` (second operand bytes, weights or KV
cache), and ``C`` (FLOP count).  For the OPT family these reduce to the
exact Table 1 expressions; the general forms also cover grouped-query
attention, SwiGLU, and MoE feed-forward networks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.arrays import Real, lowest
from repro.errors import ConfigurationError
from repro.models.spec import FeedForwardKind, ModelSpec

#: Number of GEMM/GEMV sublayers per decoder layer.
NUM_SUBLAYERS = 6


class Stage(enum.Enum):
    """Inference stage: prefill (Sum) or decoding (Gen)."""

    PREFILL = "prefill"
    DECODE = "decode"


class Sublayer(enum.IntEnum):
    """Sublayer indices, 1-based to match the paper's notation."""

    QKV_MAPPING = 1
    ATTENTION_SCORE = 2
    ATTENTION_CONTEXT = 3
    OUTPUT_PROJECTION = 4
    FC1 = 5
    FC2 = 6

    @property
    def uses_parameters(self) -> bool:
        """True for sublayers whose second operand is model weights
        (1, 4, 5, 6); false for the KV-cache sublayers (2, 3)."""
        return self not in (Sublayer.ATTENTION_SCORE,
                            Sublayer.ATTENTION_CONTEXT)

    @property
    def uses_kv_cache(self) -> bool:
        """True for the attention scoring sublayers (2, 3)."""
        return not self.uses_parameters


#: Sublayers whose residual input comes from an earlier sublayer, as in
#: Eq. (6): sublayer 4 adds the attention-block input (placed with
#: sublayer 1) and sublayer 6 adds sublayer 4's output.
RESIDUAL_SOURCE: Dict[Sublayer, Sublayer] = {
    Sublayer.OUTPUT_PROJECTION: Sublayer.QKV_MAPPING,
    Sublayer.FC2: Sublayer.OUTPUT_PROJECTION,
}


@dataclass(frozen=True)
class SublayerCost:
    """Data sizes (bytes) and compute count (FLOP) of one sublayer."""

    sublayer: Sublayer
    stage: Stage
    #: First operand (activation / hidden state) size in bytes.
    d_x: float
    #: Second operand (weights or KV cache) size in bytes.
    d_y: float
    #: FLOP count of the matrix multiplication.
    flops: float
    #: Output size in bytes (becomes the next sublayer's ``d_x``).
    d_out: float
    #: Bytes of KV cache *generated* by this sublayer (sublayer 1 only).
    d_kv_out: float = 0.0

    @property
    def ops_per_byte(self) -> float:
        """Arithmetic intensity: FLOP per byte of operand traffic."""
        total_bytes = self.d_x + self.d_y
        if total_bytes == 0:
            return 0.0
        return self.flops / total_bytes

    @property
    def is_gemv_like(self) -> bool:
        """Memory-bound heuristic used by microbenchmark selection."""
        return self.ops_per_byte < 4.0


def sublayer_cost(spec: ModelSpec, sublayer: Sublayer, stage: Stage,
                  batch_size: Real, seq_len: Real) -> SublayerCost:
    """Compute Table 1's ``D_X``, ``D_Y``, and ``C`` for one sublayer.

    ``seq_len`` is the *context length* ``L``: the input token length
    during prefill, and the number of tokens already in the KV cache
    during decoding.  ``batch_size`` is ``B``.  Either may be an array
    (e.g. every decode step's ``L``); the size fields then are arrays
    where they depend on it.

    For OPT models these reproduce Table 1 exactly, e.g. prefill FC1:
    ``D_X = 2 B L d_m``, ``D_Y = 8 d_m^2``, ``C = 8 B L d_m^2``.
    """
    for name, value in (("batch_size", batch_size), ("seq_len", seq_len)):
        low = lowest(value)
        if low < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {low}")

    b = batch_size * 1.0
    length = seq_len * 1.0
    d = float(spec.d_model)
    kv = float(spec.kv_dim)
    d_ff = float(spec.d_ff)
    # Activation/KV element width vs stored-weight width (they differ
    # under W8A16 quantization, see repro.models.quantize).
    e = float(spec.bytes_per_param)
    w = float(spec.bytes_per_weight)
    # Tokens processed this step: the whole prompt in prefill, one per
    # sequence in decoding.
    t = length if stage is Stage.PREFILL else 1.0

    if sublayer is Sublayer.QKV_MAPPING:
        weights = d * (d + 2.0 * kv)
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * weights,
            flops=2.0 * b * t * weights,
            d_out=e * b * t * d,
            d_kv_out=2.0 * e * b * t * kv,
        )
    if sublayer in (Sublayer.ATTENTION_SCORE, Sublayer.ATTENTION_CONTEXT):
        # Q (or S) against the K (or V) cache.  The cache covers the
        # full context length L in both stages; output of the score
        # sublayer is the B x n_h x t x L score matrix, folded back to
        # a d-wide context by sublayer 3.
        flops = 2.0 * b * t * length * d
        if sublayer is Sublayer.ATTENTION_SCORE:
            d_x = e * b * t * d
            d_out = e * b * spec.n_heads * t * length
        else:
            d_x = e * b * spec.n_heads * t * length
            d_out = e * b * t * d
        return SublayerCost(
            sublayer, stage,
            d_x=d_x,
            d_y=e * b * length * kv,
            flops=flops,
            d_out=d_out,
        )
    if sublayer is Sublayer.OUTPUT_PROJECTION:
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * d * d,
            flops=2.0 * b * t * d * d,
            d_out=e * b * t * d,
        )
    if sublayer is Sublayer.FC1:
        n_in = float(spec.ffn_matrices_in)
        stored = n_in * d * d_ff
        active = stored
        if spec.feed_forward is FeedForwardKind.MOE:
            stored *= spec.n_experts
            active *= spec.top_k_experts
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d,
            d_y=w * stored,
            flops=2.0 * b * t * active,
            d_out=e * b * t * d_ff,
        )
    if sublayer is Sublayer.FC2:
        stored = d * d_ff
        active = stored
        if spec.feed_forward is FeedForwardKind.MOE:
            stored *= spec.n_experts
            active *= spec.top_k_experts
        return SublayerCost(
            sublayer, stage,
            d_x=e * b * t * d_ff,
            d_y=w * stored,
            flops=2.0 * b * t * active,
            d_out=e * b * t * d,
        )
    raise ConfigurationError(f"unknown sublayer: {sublayer!r}")


def decoder_layer_costs(spec: ModelSpec, stage: Stage, batch_size: int,
                        seq_len: int) -> List[SublayerCost]:
    """Costs of all six sublayers of one decoder layer, in order."""
    return [sublayer_cost(spec, s, stage, batch_size, seq_len)
            for s in Sublayer]


def ops_per_byte_heatmap(spec: ModelSpec, batch_size: int,
                         seq_len: int) -> Dict[str, Dict[str, float]]:
    """Arithmetic-intensity heatmap of Figure 1.

    Returns ``{stage name: {sublayer name: ops/byte}}`` for the given
    batch size and input token length.  For OPT-175B at L=512, B=180
    the values range from ~1 (attention scoring in decode) to tens of
    thousands (FC sublayers in prefill), as the paper reports.
    """
    heatmap: Dict[str, Dict[str, float]] = {}
    for stage in Stage:
        row = {}
        for sub in Sublayer:
            cost = sublayer_cost(spec, sub, stage, batch_size, seq_len)
            row[sub.name] = cost.ops_per_byte
        heatmap[stage.value] = row
    return heatmap
