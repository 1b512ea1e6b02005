"""LLM model descriptions: architecture specs, the model zoo, and the
per-sublayer data-size / FLOP cost tables from Table 1 of the paper."""

from repro.models.spec import AttentionKind, FeedForwardKind, ModelSpec
from repro.models.sublayers import (
    NUM_SUBLAYERS,
    Stage,
    Sublayer,
    SublayerCost,
    SublayerCosts,
    sublayer_cost,
    sublayer_costs,
)
from repro.models.quantize import quantize_weights
from repro.models.workload import (
    InferenceRequest,
    azure_trace_lengths,
    make_request,
)
from repro.models.zoo import MODEL_ZOO, get_model

__all__ = [
    "AttentionKind",
    "FeedForwardKind",
    "ModelSpec",
    "NUM_SUBLAYERS",
    "Stage",
    "Sublayer",
    "SublayerCost",
    "SublayerCosts",
    "sublayer_cost",
    "sublayer_costs",
    "quantize_weights",
    "InferenceRequest",
    "azure_trace_lengths",
    "make_request",
    "MODEL_ZOO",
    "get_model",
]
