"""Optimization-2 overlap model, validated against the DES."""

import pytest

from repro.core.config import LiaConfig
from repro.core.latency import layer_latency
from repro.core.overlap import (
    build_stage_graph,
    overlapped_layer_time,
    serial_layer_time,
)
from repro.core.policy import FULL_GPU, PARTIAL_CPU
from repro.errors import ConfigurationError
from repro.models.sublayers import Stage
from repro.sim.engine import simulate


def _decode_layer(opt_175b, spr_a100, policy=PARTIAL_CPU, batch=900):
    return layer_latency(opt_175b, Stage.DECODE, policy, batch, 256,
                         spr_a100, LiaConfig(enforce_host_capacity=False))


def test_overlap_never_slower_than_serial(opt_175b, spr_a100):
    layer = _decode_layer(opt_175b, spr_a100)
    assert overlapped_layer_time(layer) <= serial_layer_time(layer)


def test_overlap_hides_weight_prefetch(opt_175b, spr_a100):
    layer = _decode_layer(opt_175b, spr_a100)
    overlapped = overlapped_layer_time(layer)
    # Steady state is the max of the compute chain and the PCIe chain.
    expected = max(layer.compute + layer.dependent_transfer,
                   layer.dependent_transfer
                   + layer.prefetchable_transfer)
    assert overlapped == pytest.approx(expected)


def test_compute_scale_inflates(opt_175b, spr_a100):
    layer = _decode_layer(opt_175b, spr_a100)
    plain = overlapped_layer_time(layer)
    inflated = overlapped_layer_time(layer, compute_scale=1.5)
    assert inflated >= plain


def test_minibatch_validation(opt_175b, spr_a100):
    layer = _decode_layer(opt_175b, spr_a100)
    with pytest.raises(ConfigurationError):
        overlapped_layer_time(layer, minibatches=0)


def test_des_matches_closed_form_whole_batch(opt_175b, spr_a100):
    """The DES replay of LIA's decode schedule converges to the
    closed-form steady-state layer period."""
    layer = _decode_layer(opt_175b, spr_a100, FULL_GPU, batch=64)
    n_layers = 24
    graph = build_stage_graph(layer, n_layers, minibatches=1)
    makespan = simulate(graph).makespan
    period = overlapped_layer_time(layer, minibatches=1)
    # Makespan = pipeline fill + steady-state periods; compare the
    # amortized per-layer rate with 15 % slack for the fill.
    assert makespan / n_layers == pytest.approx(period, rel=0.15)
    assert makespan <= serial_layer_time(layer) * n_layers


def test_des_matches_closed_form_minibatched(opt_175b, spr_a100):
    layer = layer_latency(opt_175b, Stage.PREFILL, FULL_GPU, 64, 512,
                          spr_a100,
                          LiaConfig(enforce_host_capacity=False))
    n_layers = 24
    graph = build_stage_graph(layer, n_layers, minibatches=2)
    makespan = simulate(graph).makespan
    period = overlapped_layer_time(layer, minibatches=2)
    assert makespan / n_layers == pytest.approx(period, rel=0.2)


def test_graph_resources(opt_175b, spr_a100):
    layer = _decode_layer(opt_175b, spr_a100)
    graph = build_stage_graph(layer, 4, minibatches=2)
    assert graph.resources() == ["compute", "pcie"]
    with pytest.raises(ConfigurationError):
        build_stage_graph(layer, 0)


def test_full_cpu_layer_has_nothing_to_overlap(opt_175b, spr_a100):
    from repro.core.policy import FULL_CPU
    layer = layer_latency(opt_175b, Stage.DECODE, FULL_CPU, 1, 256,
                          spr_a100, LiaConfig())
    assert overlapped_layer_time(layer) == pytest.approx(
        serial_layer_time(layer))
