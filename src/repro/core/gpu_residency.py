"""Optimization-1: packing weights into unused GPU memory (§5.2).

LIA packs **whole decoder layers** into whatever GPU memory the
working buffers leave free; resident layers never stream weights over
PCIe.  FlexGen instead packs **one sublayer class across all layers**
at a time (e.g. all output projections), a coarser granularity that
wastes the capacity remainder — §5.2's OPT-30B example: LIA places
62 % of layers with 35 GB while FlexGen places 58 % of sublayers with
32 GB on a 40 GB A100.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple, Union

import numpy as np

from repro.arrays import Real, as_int, maximum, minimum
from repro.core.config import LiaConfig
from repro.hardware.system import SystemConfig
from repro.models.spec import ModelSpec
from repro.models.sublayers import (USES_PARAMETERS, Stage, Sublayer,
                                    sublayer_costs)
from repro.models.workload import InferenceRequest, RequestPoints

#: One request, or many as the aligned arrays of a RequestPoints.
RequestLike = Union[InferenceRequest, RequestPoints]


@dataclass(frozen=True)
class ResidencyPlan:
    """How much of the model lives permanently in GPU memory."""

    #: "layer" (LIA) or "sublayer-class" (FlexGen).
    granularity: str
    n_layers: int
    n_resident_layers: int
    resident_bytes: float
    working_bytes: float
    #: FlexGen only: which sublayer classes are resident everywhere.
    resident_sublayers: Tuple[Sublayer, ...] = ()



#: Prefill activations and streamed KV slices are chunked to bounded
#: fractions of HBM — the pipeline can always split a batch further,
#: at (modelled-elsewhere) overlap cost, so neither term is allowed to
#: exceed these shares of GPU capacity.
_ACTIVATION_CAP_FRACTION = 0.15
_KV_SLICE_CAP_FRACTION = 0.25


def gpu_working_set_bytes(spec: ModelSpec, request: RequestLike,
                          config: LiaConfig,
                          gpu_capacity: float = float("inf")) -> Real:
    """GPU memory the streaming pipeline needs before residency packs
    anything: double-buffered layer weights, the live activation
    chunk, and a streamed per-layer KV slice (in case attention
    scoring runs on the GPU).  Elementwise over the points of a
    :class:`~repro.models.workload.RequestPoints`."""
    weights = 2.0 * spec.layer_param_bytes
    # Prefill computes one mini-batch at a time, so only that chunk's
    # activations are live on the GPU.
    chunk = maximum(request.batch_size // max(config.prefill_minibatches, 1),
                    1)
    activations = spec.peak_activation_bytes(chunk,
                                             maximum(request.input_len, 1))
    activations = minimum(activations,
                          _ACTIVATION_CAP_FRACTION * gpu_capacity)
    # GPU-side attention streams the KV cache in chunks (FlexGen-style
    # blocked attention).
    kv_layer = (2 * request.batch_size * request.max_context_len
                * spec.kv_dim * spec.bytes_per_param)
    kv_slice = minimum(0.5 * kv_layer, _KV_SLICE_CAP_FRACTION * gpu_capacity)
    return weights + activations + kv_slice


def _available_bytes(system: SystemConfig, config: LiaConfig,
                     working: Real, extra_reserved_bytes: Real = 0.0
                     ) -> Real:
    capacity = system.gpu.memory_capacity * (1.0
                                             - config.gpu_working_reserve)
    return capacity - working - extra_reserved_bytes


def plan_layer_residency(spec: ModelSpec, system: SystemConfig,
                         request: RequestLike,
                         config: LiaConfig) -> ResidencyPlan:
    """LIA's plan: greedily pack whole decoder layers (§5.2).

    For a :class:`~repro.models.workload.RequestPoints`, the resident
    layer count, resident bytes and working set are arrays over its
    points (the count stays ``0`` without residency)."""
    working = gpu_working_set_bytes(spec, request, config,
                                    gpu_capacity=system.gpu.memory_capacity)
    if not config.gpu_residency:
        return ResidencyPlan(granularity="layer", n_layers=spec.n_layers,
                             n_resident_layers=0, resident_bytes=0.0,
                             working_bytes=working)
    available = _available_bytes(system, config, working)
    per_layer = float(spec.layer_param_bytes)
    n_resident = as_int(maximum(0.0, available) // per_layer)
    n_resident = minimum(n_resident, spec.n_layers)
    return ResidencyPlan(
        granularity="layer",
        n_layers=spec.n_layers,
        n_resident_layers=n_resident,
        resident_bytes=n_resident * per_layer,
        working_bytes=working,
    )


def _class_bytes(spec: ModelSpec) -> List[float]:
    """Weight bytes of each sublayer class across *all* decoder layers
    (FlexGen's packing unit), in sublayer order, from one Table 1
    evaluation.  KV sublayers have no weights."""
    d_y = sublayer_costs(spec, Stage.DECODE, 1, 1).d_y
    return np.where(USES_PARAMETERS, d_y * spec.n_layers, 0.0).tolist()


def plan_sublayer_residency(spec: ModelSpec, system: SystemConfig,
                            request: RequestLike, config: LiaConfig,
                            extra_reserved_bytes: Real = 0.0
                            ) -> ResidencyPlan:
    """FlexGen's plan: pack whole sublayer classes, smallest first.

    Packing smallest-first maximizes the number of resident classes;
    the coarse granularity strands capacity that LIA's layer plan
    would use (§5.2).  A greedy pass takes each class that still fits.
    With the sizes ascending, once one class is skipped every later
    one is too, so the resident classes are always a prefix of the
    order, and the running totals (``np.add.accumulate``, the greedy's
    own left fold) give every point's prefix at once.

    For a :class:`~repro.models.workload.RequestPoints` (and
    ``extra_reserved_bytes`` an array over its points, or a float they
    share), the byte fields are arrays over its points and
    ``resident_sublayers`` an object array of each point's tuple.
    """
    working = gpu_working_set_bytes(spec, request, config,
                                    gpu_capacity=system.gpu.memory_capacity)
    plan = ResidencyPlan(granularity="sublayer-class",
                         n_layers=spec.n_layers, n_resident_layers=0,
                         resident_bytes=0.0, working_bytes=working)
    if not config.gpu_residency:
        return plan
    sizes = _class_bytes(spec)
    order = sorted((sub for sub in Sublayer if sub.uses_parameters),
                   key=lambda sub: sizes[int(sub) - 1])
    totals = np.add.accumulate([0.0] + [sizes[int(sub) - 1]
                                        for sub in order])
    available = _available_bytes(system, config, working,
                                 extra_reserved_bytes)
    if not isinstance(available, np.ndarray):
        n_classes = int(np.count_nonzero(totals[1:] <= available))
        return replace(plan, resident_bytes=totals[n_classes].item(),
                       resident_sublayers=tuple(order[:n_classes]))
    n_classes = np.count_nonzero(totals[1:] <= available[..., np.newaxis],
                                 axis=-1)
    prefixes = np.empty(len(totals), dtype=object)
    for count in range(len(totals)):
        prefixes[count] = tuple(order[:count])
    return replace(plan, resident_bytes=totals[n_classes],
                   resident_sublayers=prefixes[n_classes])

