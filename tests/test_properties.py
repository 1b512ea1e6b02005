"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.latency import layer_latency
from repro.core.optimizer import optimal_policy
from repro.core.overlap import (
    build_stage_graph,
    overlapped_layer_time,
    serial_layer_time,
)
from repro.core.policy import OffloadPolicy
from repro.hardware.roofline import ComputeEngine, EfficiencyCurve
from repro.hardware.system import get_system
from repro.inference.transformer import bf16_round
from repro.models.sublayers import Stage, Sublayer, sublayer_cost
from repro.models.zoo import get_model
from repro.sim.engine import simulate
from tests.oracles.des_bounds import critical_path_length

CONFIG = LiaConfig(enforce_host_capacity=False)

policies = st.tuples(*([st.integers(0, 1)] * 6)).map(OffloadPolicy)
batches = st.integers(min_value=1, max_value=2048)
lengths = st.integers(min_value=1, max_value=2048)
stages = st.sampled_from(list(Stage))


# ----------------------------------------------------------------------
# Latency-model invariants
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(policy=policies, batch=batches, length=lengths, stage=stages)
def test_layer_latency_positive_and_decomposes(policy, batch, length,
                                               stage):
    spec = get_model("opt-175b")
    system = get_system("spr-a100")
    layer = layer_latency(spec, stage, policy, batch, length, system,
                          CONFIG)
    assert layer.total > 0.0
    assert layer.total == pytest.approx(
        sum(s.total for s in layer.sublayers))
    assert layer.transfer >= 0.0
    assert layer.prefetchable_transfer <= layer.transfer + 1e-15


@settings(max_examples=40, deadline=None)
@given(policy=policies, batch=batches, length=lengths, stage=stages)
def test_overlap_never_exceeds_serial(policy, batch, length, stage):
    spec = get_model("opt-175b")
    system = get_system("spr-a100")
    layer = layer_latency(spec, stage, policy, batch, length, system,
                          CONFIG)
    for minibatches in (1, 2, 4):
        assert (overlapped_layer_time(layer, minibatches)
                <= serial_layer_time(layer) + 1e-12)


@settings(max_examples=25, deadline=None)
@given(batch=batches, length=lengths, stage=stages)
def test_optimal_policy_dominates_named_policies(batch, length, stage):
    spec = get_model("opt-175b")
    system = get_system("spr-a100")
    best = optimal_policy(spec, stage, batch, length, system, CONFIG)
    for named in ("000000", "111111", "011000"):
        layer = layer_latency(spec, stage,
                              OffloadPolicy.from_string(named), batch,
                              length, system, CONFIG)
        assert best.layer_time <= serial_layer_time(layer) + 1e-12


@settings(max_examples=30, deadline=None)
@given(batch=batches, length=lengths, stage=stages,
       sub=st.sampled_from(list(Sublayer)))
def test_costs_scale_monotonically(batch, length, stage, sub):
    spec = get_model("opt-175b")
    cost = sublayer_cost(spec, sub, stage, batch, length)
    bigger = sublayer_cost(spec, sub, stage, batch + 1, length)
    assert bigger.flops >= cost.flops
    assert bigger.d_x >= cost.d_x


@settings(max_examples=30, deadline=None)
@given(policy=policies, batch=st.integers(1, 512),
       length=st.integers(1, 512))
def test_resident_weights_never_slower(policy, batch, length):
    spec = get_model("opt-30b")
    system = get_system("spr-a100")
    streamed = layer_latency(spec, Stage.DECODE, policy, batch, length,
                             system, CONFIG)
    resident = layer_latency(spec, Stage.DECODE, policy, batch, length,
                             system, CONFIG, weights_resident=True)
    assert resident.total <= streamed.total + 1e-12


# ----------------------------------------------------------------------
# Roofline invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(flops=st.floats(1e3, 1e15), bytes_moved=st.floats(1.0, 1e12))
def test_matmul_time_positive_and_monotone(flops, bytes_moved):
    engine = ComputeEngine(
        "t", peak_flops=1e13, mem_bandwidth=1e11,
        efficiency=EfficiencyCurve(0.5, 1e10))
    time = engine.matmul_time(flops, bytes_moved)
    assert time > 0.0
    assert engine.matmul_time(flops * 2, bytes_moved) >= time
    assert engine.matmul_time(flops, bytes_moved * 2) >= time


# ----------------------------------------------------------------------
# Kernel numerics
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e30, 1e30, allow_nan=False),
                min_size=1, max_size=64))
def test_bf16_round_idempotent_and_bounded(values):
    array = np.array(values, dtype=np.float32)
    rounded = bf16_round(array)
    np.testing.assert_array_equal(bf16_round(rounded), rounded)
    # Subnormals lose mantissa bits wholesale; check normal values.
    normal = np.isfinite(array) & (np.abs(array) > 1e-30)
    if normal.any():
        rel = np.abs(rounded[normal] - array[normal]) / np.abs(
            array[normal])
        assert np.nanmax(rel) <= 2.0**-8


# ----------------------------------------------------------------------
# DES invariants
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(n_layers=st.integers(1, 12), minibatches=st.integers(1, 4),
       batch=st.integers(1, 900))
def test_des_bounded_by_serial_and_critical_path(n_layers, minibatches,
                                                 batch):
    spec = get_model("opt-175b")
    system = get_system("spr-a100")
    layer = layer_latency(spec, Stage.DECODE,
                          OffloadPolicy.from_string("011000"), batch,
                          256, system, CONFIG)
    graph = build_stage_graph(layer, n_layers, minibatches=minibatches)
    timeline = simulate(graph)
    assert timeline.makespan >= critical_path_length(graph) - 1e-12
    serial = serial_layer_time(layer) * n_layers
    assert timeline.makespan <= serial + layer.prefetchable_transfer


# ----------------------------------------------------------------------
# Functional-engine invariance (the paper's correctness premise)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(bits=st.tuples(*([st.integers(0, 1)] * 6)),
       seed=st.integers(0, 50))
def test_generation_policy_invariant(bits, seed):
    from repro.inference.engine import CooperativeEngine
    from repro.inference.transformer import TinyTransformer

    spec = get_model("opt-tiny")
    model = TinyTransformer(spec, seed=0)
    rng = np.random.default_rng(seed)
    prompt = rng.integers(0, spec.vocab_size, (1, 4))
    policy = OffloadPolicy(bits)
    reference = CooperativeEngine(
        model, OffloadPolicy.from_string("111111"),
        OffloadPolicy.from_string("111111")).generate(prompt, 2)
    other = CooperativeEngine(model, policy, policy).generate(prompt, 2)
    np.testing.assert_array_equal(reference.tokens, other.tokens)
