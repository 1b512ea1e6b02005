"""LLM model descriptions: architecture specs, the model zoo, and the
per-sublayer data-size / FLOP cost tables from Table 1 of the paper."""

from repro.models.spec import AttentionKind, FeedForwardKind, ModelSpec
from repro.models.sublayers import (
    NUM_SUBLAYERS,
    Stage,
    Sublayer,
    SublayerCost,
    SublayerCosts,
    decoder_layer_costs,
    ops_per_byte_heatmap,
    sublayer_cost,
    sublayer_costs,
)
from repro.models.quantize import quantize_weights, weight_compression_ratio
from repro.models.workload import (
    InferenceRequest,
    TraceKind,
    azure_trace_lengths,
    make_request,
    sweep_requests,
)
from repro.models.zoo import MODEL_ZOO, get_model, list_models

__all__ = [
    "AttentionKind",
    "FeedForwardKind",
    "ModelSpec",
    "NUM_SUBLAYERS",
    "Stage",
    "Sublayer",
    "SublayerCost",
    "SublayerCosts",
    "decoder_layer_costs",
    "ops_per_byte_heatmap",
    "sublayer_cost",
    "sublayer_costs",
    "quantize_weights",
    "weight_compression_ratio",
    "InferenceRequest",
    "TraceKind",
    "azure_trace_lengths",
    "make_request",
    "sweep_requests",
    "MODEL_ZOO",
    "get_model",
    "list_models",
]
