"""Optimization-2: overlapping computation with CPU-GPU transfers.

§5.2 describes two overlap schemes (Fig. 7):

* **Decoding**: LIA computes the *whole batch* while the next decoder
  layer's weights stream over PCIe.  The intra-layer dependent
  transfers (activation boundary crossings, KV stores) stay on the
  critical path, so the steady-state per-layer period is
  ``max(compute + dependent, dependent + prefetchable)`` — the PCIe
  link must fit both this layer's dependent traffic and the next
  layer's weights.

* **Prefill**: the batch splits into mini-batches (FlexGen's scheme);
  one mini-batch computes while another's transfers are in flight, so
  dependent traffic is hidden too, up to a pipeline-fill term that
  shrinks with the mini-batch count.

FlexGen also mini-batches the *decoding* stage, which §5.2 (citing
AttAcc and Duplex) notes hurts: decode compute does not scale linearly
down with mini-batch size.  Baselines model that with a compute
inflation factor.

:func:`build_stage_graph` materializes the same schedule as a DES task
graph so tests can check the closed form against simulation.
"""

from __future__ import annotations

from typing import List, Union

from repro.arrays import Real, maximum, minimum
from repro.core.latency import LayerLatency
from repro.core.terms import LayerSums
from repro.errors import ConfigurationError
from repro.sim.task import TaskGraph


#: One layer's rollups, or the arrays of many policies or decode steps.
Layer = Union[LayerLatency, LayerSums]


def overlapped_layer_time(layer: Layer, minibatches: int = 1,
                          compute_scale: float = 1.0) -> Real:
    """Steady-state per-layer latency with overlap enabled.

    ``minibatches=1`` is LIA's whole-batch decode scheme (cross-layer
    weight prefetch only); ``minibatches>=2`` additionally pipelines
    dependent transfers against other mini-batches' compute, as in
    prefill.  ``compute_scale`` inflates compute for schemes whose
    mini-batching loses kernel efficiency (FlexGen's decode).
    """
    if minibatches < 1:
        raise ConfigurationError(
            f"minibatches must be >= 1, got {minibatches}")
    compute = layer.compute * compute_scale
    dependent = layer.dependent_transfer
    prefetchable = layer.prefetchable_transfer
    if minibatches == 1:
        return maximum(compute + dependent, dependent + prefetchable)
    pcie = dependent + prefetchable
    return (maximum(compute, pcie)
            + minimum(compute, pcie) / minibatches)


def serial_layer_time(layer: Layer, compute_scale: float = 1.0) -> Real:
    """Per-layer latency with overlap disabled (Table 4 ablation)."""
    return (layer.compute * compute_scale + layer.dependent_transfer
            + layer.prefetchable_transfer)


def build_stage_graph(layer: LayerLatency, n_layers: int,
                      minibatches: int = 1) -> TaskGraph:
    """Materialize an ``n_layers``-deep schedule for the DES.

    Resources: ``compute`` (the sublayer chain, CPU or GPU — their
    serialization within one layer is what Eq. (2) sums) and ``pcie``
    (all transfers).  Weight prefetches for layer *k+1* depend only on
    PCIe availability; dependent transfers for layer *k* depend on
    layer *k*'s position in the chain.

    The mini-batched variant splits each layer's compute and dependent
    transfers into ``minibatches`` chunks that alternate, reproducing
    the Fig. 7 prefill timing diagram.
    """
    if n_layers < 1:
        raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
    graph = TaskGraph()
    compute = layer.compute
    dependent = layer.dependent_transfer
    prefetchable = layer.prefetchable_transfer

    prev_chunk_done: List[str] = []
    for k in range(n_layers):
        # Next layer's weights can stream as soon as the link is free;
        # they gate that layer's first compute chunk.
        weights_id = f"w{k}"
        graph.add(weights_id, "pcie", prefetchable,
                  label=f"weights L{k}")
        chunk_compute = compute / minibatches
        chunk_dependent = dependent / minibatches
        chunk_done: List[str] = []
        for m in range(minibatches):
            deps = [weights_id]
            # Chain mini-batch m to its own previous-layer chunk.
            if prev_chunk_done:
                deps.append(prev_chunk_done[m])
            xfer_id = f"d{k}.{m}"
            graph.add(xfer_id, "pcie", chunk_dependent, deps=deps,
                      label=f"dep xfer L{k} mb{m}")
            comp_id = f"c{k}.{m}"
            graph.add(comp_id, "compute", chunk_compute, deps=[xfer_id],
                      label=f"compute L{k} mb{m}")
            chunk_done.append(comp_id)
        prev_chunk_done = chunk_done
    return graph
