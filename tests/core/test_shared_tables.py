"""One request list's term tables, shared by LIA, IPEX and FlexGen.

``estimate_frameworks`` builds a request list's prefill and decode
``LayerTerms`` once and lets every table-reading framework estimate
from them (``RequestTables.read_as`` recomputes ``comp_cpu`` for a
reader on another CPU engine).  Each framework's entries must equal
its standalone ``estimate_many`` bit for bit, errors included, over
the models, systems and configurations of the Eq. (1) differential.
FlexGen's array memory plan is checked against the scalar greedy
packing of ``tests/oracles/eq1_scalar.py``.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.flexgen import FlexGenEstimator, FlexGenSettings
from repro.core import terms
from repro.core.config import KvCachePlacement, LiaConfig
from repro.core.estimator import LiaEstimator, RequestTables
from repro.errors import CapacityError, ConfigurationError
from repro.experiments import (fig10_online_latency,
                               fig11_offline_throughput)
from repro.experiments.frameworks import (build_estimator,
                                          estimate_frameworks,
                                          estimates_or_oom)
from repro.experiments.reporting import OOM
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest, RequestPoints
from tests.core.test_eq1_differential import (CONFIGS, MODELS, SYSTEMS,
                                              _MIXED_OOM, config_names,
                                              model_names, request_lists,
                                              system_names)
from tests.oracles import eq1_scalar

TABLE_FRAMEWORKS = ("lia", "ipex", "flexgen")


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except (CapacityError, ConfigurationError) as error:
        return type(error), str(error)


def _same_entries(got, expected):
    """Entry lists equal bit for bit: estimates by ``repr`` (exact for
    floats, so -0.0 and 0.0 differ), errors by type and message."""
    assert len(got) == len(expected)
    for entry, reference in zip(got, expected):
        assert type(entry) is type(reference)
        if isinstance(reference, CapacityError):
            assert str(entry) == str(reference)
        else:
            assert entry == reference
            assert repr(entry) == repr(reference)


@settings(max_examples=40, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       requests=request_lists(), enforce=st.booleans())
# OOM rows: B=2048 x L_in=2048 of OPT-175B overflows host memory.
@example(model="opt-175b", system="spr-a100+cxl2", config="default",
         requests=_MIXED_OOM, enforce=True)
# Every request fails for every framework.
@example(model="opt-175b", system="spr-a100+cxl2", config="default",
         requests=_MIXED_OOM[1:2], enforce=True)
# IPEX (AMX) reads tables built on AVX-512.
@example(model="opt-30b", system="spr-h100+cxl1", config="avx512",
         requests=[InferenceRequest(1, 64, 4), InferenceRequest(900, 32, 8)],
         enforce=False)
# No AMX: every framework falls back to AVX-512.
@example(model="opt-30b", system="dgx-a100+cxl2", config="kv-window",
         requests=[InferenceRequest(64, 256, 3)], enforce=False)
def test_shared_tables_match_standalone_estimates(model, system, config,
                                                  requests, enforce):
    spec, platform = MODELS[model], SYSTEMS[system]
    config = replace(CONFIGS[config], enforce_host_capacity=enforce)
    shared = estimate_frameworks(TABLE_FRAMEWORKS, spec, platform,
                                 requests, config)
    marked = estimates_or_oom(TABLE_FRAMEWORKS, spec, platform, requests,
                              config)
    assert list(shared) == list(TABLE_FRAMEWORKS)
    for framework in TABLE_FRAMEWORKS:
        standalone = build_estimator(framework, spec, platform,
                                     config).estimate_many(requests)
        _same_entries(shared[framework], standalone)
        assert [entry is OOM for entry in marked[framework]] == [
            isinstance(entry, CapacityError) for entry in standalone]


def test_mixed_frameworks_keep_their_own_paths():
    """A framework without term tables still gets its ``estimate_many``
    entries, in the call's framework order."""
    spec, system = MODELS["opt-30b"], get_system("dgx-a100")
    requests = [InferenceRequest(1, 32, 4), InferenceRequest(900, 64, 2)]
    frameworks = ("data-offload", "lia", "powerinfer", "flexgen")
    shared = estimate_frameworks(frameworks, spec, system, requests)
    assert list(shared) == list(frameworks)
    for framework in frameworks:
        _same_entries(shared[framework], build_estimator(
            framework, spec, system).estimate_many(requests))
    assert estimate_frameworks(frameworks, spec, system, []) == {
        framework: [] for framework in frameworks}


@pytest.mark.parametrize("reader", [
    LiaConfig(enforce_host_capacity=False).with_cxl_weights(),
    LiaConfig(enforce_host_capacity=False).with_kv_window(0.4),
    LiaConfig(enforce_host_capacity=False,
              kv_placement=KvCachePlacement.CXL),
], ids=["weights", "kv-window", "kv"])
def test_tables_of_another_placement_are_refused(reader):
    spec, system = MODELS["opt-30b"], SYSTEMS["spr-a100+cxl2"]
    tables = RequestTables.build(spec, system,
                                 LiaConfig(enforce_host_capacity=False),
                                 [InferenceRequest(1, 32, 4)])
    for estimator in (LiaEstimator(spec, system, reader),
                      FlexGenEstimator(spec, system, reader),
                      build_estimator("ipex", spec, system, reader)):
        with pytest.raises(ConfigurationError,
                           match="^term tables of opt-30b on "
                                 "spr-a100\\+cxl2 \\(weights=ddr, "
                                 "kv=ddr, kv_cxl_fraction=0.0\\) cannot "
                                 "be read as ") as raised:
            estimator.estimate_tables(tables)
        assert "\n" not in str(raised.value)


def test_tables_of_another_model_are_refused():
    spec, system = MODELS["opt-30b"], SYSTEMS["spr-a100+cxl2"]
    config = LiaConfig(enforce_host_capacity=False)
    tables = RequestTables.build(spec, system, config,
                                 [InferenceRequest(1, 32, 4)])
    with pytest.raises(ConfigurationError,
                       match="cannot be read as opt-175b on "):
        LiaEstimator(MODELS["opt-175b"], system,
                     config).estimate_tables(tables)


@pytest.fixture
def call_counts(monkeypatch):
    """Counts ``layer_terms`` calls, wherever the package calls it
    from, and ``FlexGenEstimator._plan`` calls."""
    counts = {"layer_terms": 0, "flexgen_plan": 0}
    original_terms = terms.layer_terms
    original_plan = FlexGenEstimator._plan

    def counted_terms(*args, **kwargs):
        counts["layer_terms"] += 1
        return original_terms(*args, **kwargs)

    def counted_plan(self, *args, **kwargs):
        counts["flexgen_plan"] += 1
        return original_plan(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "layer_terms", None) is original_terms):
            monkeypatch.setattr(module, "layer_terms", counted_terms)
    monkeypatch.setattr(FlexGenEstimator, "_plan", counted_plan)
    return counts


@pytest.mark.parametrize("figure", [fig10_online_latency,
                                    fig11_offline_throughput],
                         ids=["fig10", "fig11"])
def test_figure_pair_call_builds_two_tables(figure, call_counts):
    """One (system, model) pair of Fig. 10 or 11 builds one prefill
    and one decode table for its three frameworks, and plans FlexGen
    with no one-request ``_plan`` call (no row is OOM)."""
    result = figure.run(pairs=(("spr-a100", "opt-30b"),))
    assert {row["framework"] for row in result.rows} == set(
        TABLE_FRAMEWORKS)
    assert call_counts == {"layer_terms": 2, "flexgen_plan": 0}


#: Systems for the FlexGen planner: the CXL ones, and one without CXL,
#: where a KV window's CXL share makes the host check raise.
PLAN_SYSTEMS = {**SYSTEMS, "spr-a100": get_system("spr-a100")}


@st.composite
def plan_requests(draw):
    """1-4 requests from B=1 (KV on the GPU) to B=4096 (host or GPU
    overflow)."""
    return [InferenceRequest(draw(st.one_of(st.integers(1, 8),
                                            st.integers(9, 4096))),
                             draw(st.integers(1, 4096)),
                             draw(st.integers(1, 4096)))
            for __ in range(draw(st.integers(1, 4)))]


@settings(max_examples=60, deadline=None)
@given(model=model_names, system=st.sampled_from(sorted(PLAN_SYSTEMS)),
       gpu_residency=st.booleans(),
       minibatches=st.sampled_from([1, 2, 4]),
       enforce_host_capacity=st.booleans(),
       kv_home=st.sampled_from(["ddr", "window", "cxl"]),
       requests=plan_requests())
# A KV window without CXL: the host check raises ConfigurationError.
@example(model="opt-175b", system="spr-a100", gpu_residency=True,
         minibatches=2, enforce_host_capacity=True, kv_home="window",
         requests=[InferenceRequest(1, 64, 8),
                   InferenceRequest(4096, 4096, 8)])
# B=1 keeps the KV cache on the GPU; B=64 spills it to the host.
@example(model="opt-30b", system="spr-a100+cxl2", gpu_residency=True,
         minibatches=2, enforce_host_capacity=True, kv_home="ddr",
         requests=[InferenceRequest(1, 128, 8),
                   InferenceRequest(256, 1024, 8)])
def test_flexgen_array_plan_matches_scalar_oracle(
        model, system, gpu_residency, minibatches, enforce_host_capacity,
        kv_home, requests):
    """One array plan over a request list gives every request the
    oracle's memory usage, KV home, residency (``resident_sublayers``
    in packing order) and Python scalar types, and the oracle's
    ``CapacityError`` where it raises."""
    platform = PLAN_SYSTEMS[system]
    if kv_home == "cxl" and not platform.has_cxl:
        kv_home = "ddr"
    config = LiaConfig(
        gpu_residency=gpu_residency,
        enforce_host_capacity=enforce_host_capacity,
        kv_cxl_fraction=0.4 if kv_home == "window" else 0.0,
        kv_placement=(KvCachePlacement.CXL if kv_home == "cxl"
                      else KvCachePlacement.DDR))
    estimator = FlexGenEstimator(MODELS[model], platform, config,
                                 FlexGenSettings(minibatches=minibatches))
    expected = [_outcome(lambda: eq1_scalar.flexgen_plan(estimator,
                                                         request))
                for request in requests]
    kv_homes = estimator.kv_fits_gpu(RequestPoints(
        np.array([request.batch_size for request in requests]),
        np.array([request.input_len for request in requests]),
        np.array([request.output_len for request in requests])))
    assert kv_homes.tolist() == [
        eq1_scalar.flexgen_kv_fits_gpu(estimator, request)
        for request in requests]
    entries = _outcome(lambda: estimator.estimate_many(requests))
    unconfigured = [entry for entry in expected
                    if isinstance(entry[0], type)
                    and entry[0] is ConfigurationError]
    if unconfigured:
        assert entries == unconfigured[0]
        return
    for request, entry, oracle in zip(requests, entries, expected):
        scalar = _outcome(lambda: estimator._plan(request))
        if isinstance(oracle[0], type):
            assert scalar == oracle
            assert isinstance(entry, CapacityError)
            assert (CapacityError, str(entry)) == oracle
            continue
        # The one-request plan and the list's array plan.
        for plan in (scalar, (entry.memory, entry.residency)):
            assert plan == oracle
            for got, reference in zip(plan, oracle):
                assert [type(value) for value in vars(got).values()] \
                    == [type(value) for value in vars(reference).values()]
