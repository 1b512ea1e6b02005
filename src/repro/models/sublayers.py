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
:func:`sublayer_costs` evaluates all six sublayers at once, as
``(..., 6)`` arrays; :func:`sublayer_cost` reads one of its columns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.arrays import Real, expand_to
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


#: Masks over the trailing sublayer axis: the sublayers whose second
#: operand is model weights (1, 4, 5, 6), and the KV-cache ones (2, 3).
USES_PARAMETERS = np.array([sub.uses_parameters for sub in Sublayer])
USES_KV_CACHE = ~USES_PARAMETERS
#: The sublayers that emit KV cache, the Eq. (9) store: QKV mapping
#: alone.  Every other column of ``d_kv_out`` is 0.0.
KV_STORE_SUBLAYERS = np.array([sub is Sublayer.QKV_MAPPING
                               for sub in Sublayer])
_SCORE = np.array([sub is Sublayer.ATTENTION_SCORE for sub in Sublayer])
_CONTEXT = np.array([sub is Sublayer.ATTENTION_CONTEXT for sub in Sublayer])
# Shared by every caller in the process: read-only.
for _mask in (USES_PARAMETERS, USES_KV_CACHE, KV_STORE_SUBLAYERS,
              _SCORE, _CONTEXT):
    _mask.setflags(write=False)

#: Column of each sublayer's successor (sublayer 6 -> 1).
_NEXT = np.roll(np.arange(NUM_SUBLAYERS), -1)
#: The :class:`SublayerCost` size fields, in field order.
_COST_FIELDS = ("d_x", "d_y", "flops", "d_out", "d_kv_out")


@dataclass(frozen=True)
class SublayerCosts:
    """Table 1 for all six sublayers at once: ``(..., 6)`` float64
    arrays, the grid axes of ``B`` and ``L`` first and sublayers last
    (fields as in :class:`SublayerCost`)."""

    stage: Stage
    d_x: np.ndarray
    d_y: np.ndarray
    flops: np.ndarray
    d_kv_out: np.ndarray

    @property
    def d_out(self) -> np.ndarray:
        """Output bytes: each sublayer's output is the next one's input
        (sublayer 6 feeds the next layer's sublayer 1), with the same
        Table 1 product."""
        return self.d_x[..., _NEXT]

    def column(self, sublayer: Sublayer) -> SublayerCost:
        """One sublayer's costs: floats on a one-point table, grid
        arrays otherwise."""
        values = [getattr(self, name)[..., int(sublayer) - 1]
                  for name in _COST_FIELDS]
        if self.flops.ndim == 1:
            values = [value.item() for value in values]
        return SublayerCost(sublayer, self.stage, *values)


def _check_size(name: str, value: Real) -> None:
    """Raise :class:`ConfigurationError` unless every entry of
    ``value`` is finite and >= 1."""
    low = high = value
    if isinstance(value, np.ndarray):
        if not value.size:
            return
        low, high = value.min().item(), value.max().item()
    for bound in (low, high):
        if not math.isfinite(bound):
            raise ConfigurationError(f"{name} must be finite, got {bound}")
    if low < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {low}")


def _spread(value: Real, shape: Tuple[int, ...]) -> Real:
    """``value * 1.0``, an array spread over a ``shape`` table.

    The table is Fortran-ordered — each sublayer's column contiguous —
    and results computed from it keep that order, so the broadcasts
    against ``(6,)`` vectors run along whole columns."""
    if not isinstance(value, np.ndarray):
        return value * 1.0
    table = np.empty(shape, order="F")
    table[...] = value[..., np.newaxis]
    return table


def sublayer_costs(spec: ModelSpec, stage: Stage, batch_size: Real,
                   seq_len: Real) -> SublayerCosts:
    """Table 1's ``D_X``, ``D_Y`` and ``C`` of all six sublayers.

    ``seq_len`` is the *context length* ``L``: the input token length
    during prefill, and the number of tokens already in the KV cache
    during decoding.  ``batch_size`` is ``B``.  Either may be an array
    (e.g. every decode step's ``L``); the fields then have shape
    ``np.broadcast_shapes(shape(B), shape(L)) + (6,)``.  Every field is
    one product over the sublayer axis: each factor holds one entry per
    sublayer, and a sublayer with a shorter product gets exact ``1.0``
    factors, so each element keeps the operation order of its own
    Table 1 formula.  Raises :class:`ConfigurationError` unless every
    ``B`` and ``L`` is finite and >= 1.

    For OPT models these reproduce Table 1 exactly, e.g. prefill FC1:
    ``D_X = 2 B L d_m``, ``D_Y = 8 d_m^2``, ``C = 8 B L d_m^2``.
    """
    _check_size("batch_size", batch_size)
    _check_size("seq_len", seq_len)

    shape = np.broadcast(batch_size, seq_len).shape + (NUM_SUBLAYERS,)
    b = _spread(batch_size, shape)
    length = _spread(seq_len, shape)
    d = float(spec.d_model)
    kv = float(spec.kv_dim)
    d_ff = float(spec.d_ff)
    heads = float(spec.n_heads)
    # Activation/KV element width vs stored-weight width (they differ
    # under W8A16 quantization, see repro.models.quantize).
    e = float(spec.bytes_per_param)
    w = float(spec.bytes_per_weight)
    # Tokens processed this step: the whole prompt in prefill, one per
    # sequence in decoding.
    t = length if stage is Stage.PREFILL else 1.0

    qkv_weights = d * (d + 2.0 * kv)
    # Feed-forward weights: stored (all experts) and active (top-k).
    stored = [float(spec.ffn_matrices_in) * d * d_ff, d * d_ff]
    active = list(stored)
    if spec.feed_forward is FeedForwardKind.MOE:
        stored = [size * spec.n_experts for size in stored]
        active = [size * spec.top_k_experts for size in active]

    # Sublayers 2 and 3 run Q (or S) against the K (or V) cache over the
    # full context L in both stages; sublayer 3's input is the
    # B x n_h x t x L score matrix, which it folds back to d.
    # (A 0.0 below is a placeholder that np.where never selects.)
    eb = e * b
    flops = (((2.0 * b) * t)
             * np.where(USES_KV_CACHE, length,
                        (qkv_weights, 0.0, 0.0, d, active[0], active[1]))
             * np.array((1.0, d, d, d, 1.0, 1.0)))
    d_x = (eb * np.where(_CONTEXT, heads, t)
           * np.where(_CONTEXT, t, (d, d, 0.0, d, d, d_ff))
           * np.where(_CONTEXT, length, 1.0))
    d_y = (np.where(USES_KV_CACHE, eb, w)
           * np.where(USES_KV_CACHE, length,
                      (qkv_weights, 0.0, 0.0, d, stored[0], stored[1]))
           * np.array((1.0, kv, kv, d, 1.0, 1.0)))
    # Only KV_STORE_SUBLAYERS emit KV cache; decode's depends on B
    # alone.
    d_kv_out = expand_to(
        ((np.where(KV_STORE_SUBLAYERS, 2.0 * e, 0.0) * b) * t)
        * np.where(KV_STORE_SUBLAYERS, kv, 1.0), shape)
    return SublayerCosts(stage, d_x=d_x, d_y=d_y, flops=flops,
                         d_kv_out=d_kv_out)


def sublayer_cost(spec: ModelSpec, sublayer: Sublayer, stage: Stage,
                  batch_size: Real, seq_len: Real) -> SublayerCost:
    """Table 1's ``D_X``, ``D_Y`` and ``C`` for one sublayer: one
    column of :func:`sublayer_costs` (see there for the arguments)."""
    return sublayer_costs(spec, stage, batch_size, seq_len).column(sublayer)


def decoder_layer_costs(spec: ModelSpec, stage: Stage, batch_size: int,
                        seq_len: int) -> List[SublayerCost]:
    """Costs of all six sublayers of one decoder layer, in order."""
    costs = sublayer_costs(spec, stage, batch_size, seq_len)
    return [costs.column(sub) for sub in Sublayer]


def ops_per_byte_heatmap(spec: ModelSpec, batch_size: int,
                         seq_len: int) -> Dict[str, Dict[str, float]]:
    """Arithmetic-intensity heatmap of Figure 1.

    Returns ``{stage name: {sublayer name: ops/byte}}`` for the given
    batch size and input token length.  For OPT-175B at L=512, B=180
    the values range from ~1 (attention scoring in decode) to tens of
    thousands (FC sublayers in prefill), as the paper reports.
    """
    return {stage.value: {
        cost.sublayer.name: cost.ops_per_byte
        for cost in decoder_layer_costs(spec, stage, batch_size, seq_len)}
        for stage in Stage}
