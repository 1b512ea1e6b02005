"""Array-native Eq. (1) search and decode sums vs the scalar oracle.

``optimal_policy`` and ``search_grid`` score all 64 candidates from one
term table (one point, or a whole ``(B, L)`` grid), the LIA and FlexGen
estimators sum every decode step as one array, their
``estimate_many`` estimates a request list from one prefill and one
decode table, and ``LiaEstimator.decode_step_times`` evaluates a
``(B, L)`` grid of decode steps from one broadcast table.  All must be
bit-identical to the one-policy, one-step loops of
``tests/oracles/eq1_scalar.py`` (or, for the step grid and the
batches, to per-point ``estimate`` calls): the winning policy, its
``layer_time`` and per-sublayer ``LayerLatency``, and all four
``StageBreakdown`` components, over models, systems and configurations
that exercise every branch of Eqs. (4)-(9).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.baselines.flexgen import FlexGenEstimator, FlexGenSettings
from repro.core.config import KvCachePlacement, LiaConfig
from repro.core.estimator import (
    LiaEstimator,
    MemoryUsage,
    StageBreakdown,
    check_host_capacity,
    host_overflows,
    sum_steps,
)
from repro.core.optimizer import optimal_policy, search_grid
from repro.core.policy import FULL_CPU, FULL_GPU, PARTIAL_CPU
from repro.core.terms import layer_terms
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.quantize import quantize_weights
from repro.models.sublayers import Stage, Sublayer
from repro.models.workload import InferenceRequest, RequestPoints
from repro.models.zoo import get_model
from repro.telemetry import Telemetry, activate
from tests.oracles import eq1_scalar

MODELS = {
    "opt-30b": get_model("opt-30b"),
    "opt-175b": get_model("opt-175b"),
    # MoE feed-forward: stored and active expert weights differ.
    "opt-moe-8x30b": get_model("opt-moe-8x30b"),
    # W8A16: weight bytes differ from activation/KV bytes.
    "opt-66b-int8": quantize_weights(get_model("opt-66b")),
}

SYSTEMS = {
    "spr-a100+cxl2": get_system("spr-a100").with_cxl(n_expanders=2),
    # One expander throttles PCIe weight streaming (Observation-1).
    "spr-h100+cxl1": get_system("spr-h100").with_cxl(n_expanders=1),
    # No AMX: the configured engine falls back to AVX-512.
    "dgx-a100+cxl2": get_system("dgx-a100").with_cxl(n_expanders=2),
}

_BASE = LiaConfig(enforce_host_capacity=False)
CONFIGS = {
    "default": _BASE,
    "no-overlap": _BASE.without_overlap(),
    "cxl-weights": _BASE.with_cxl_weights(),
    "all-cxl": _BASE.with_all_cxl(),
    "kv-window": _BASE.with_kv_window(0.4),
    "avx512": LiaConfig(enforce_host_capacity=False, cpu_engine="avx512"),
    "forced-partial": _BASE.with_forced_policy(PARTIAL_CPU, PARTIAL_CPU),
    "forced-mixed": _BASE.without_overlap().with_forced_policy(
        FULL_GPU, FULL_CPU),
    "no-residency": _BASE.without_gpu_residency().with_kv_window(0.2),
}

model_names = st.sampled_from(sorted(MODELS))
system_names = st.sampled_from(sorted(SYSTEMS))
config_names = st.sampled_from(sorted(CONFIGS))
batch_sizes = st.one_of(st.integers(1, 64), st.integers(65, 2048))
context_lens = st.one_of(st.integers(1, 64), st.integers(65, 2048))


@settings(max_examples=120, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       stage=st.sampled_from(list(Stage)), batch=batch_sizes,
       length=context_lens, weights_resident=st.booleans())
def test_policy_search_matches_scalar_scan(model, system, config, stage,
                                           batch, length,
                                           weights_resident):
    args = (MODELS[model], stage, batch, length, SYSTEMS[system],
            CONFIGS[config])
    decision = optimal_policy(*args, weights_resident=weights_resident)
    oracle = eq1_scalar.optimal_policy(*args,
                                       weights_resident=weights_resident)
    assert decision.policy == oracle.policy
    assert decision.layer_time == oracle.layer_time
    assert decision.layer == oracle.layer


@settings(max_examples=40, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       batch=batch_sizes, input_len=st.integers(1, 1024),
       output_len=st.integers(1, 48))
def test_lia_stages_match_per_step_loop(model, system, config, batch,
                                        input_len, output_len):
    estimator = LiaEstimator(MODELS[model], SYSTEMS[system],
                             CONFIGS[config])
    request = InferenceRequest(batch, input_len, output_len)
    estimate = estimator.estimate(request)
    prefill, decode, prefill_policy, decode_policy = \
        eq1_scalar.lia_stages(estimator, request)
    assert estimate.prefill == prefill
    assert estimate.decode == decode
    assert estimate.prefill_policy == prefill_policy
    assert estimate.decode_policy == decode_policy


@settings(max_examples=40, deadline=None)
@given(model=model_names, system=system_names,
       config=st.sampled_from(["default", "no-overlap", "cxl-weights",
                               "kv-window"]),
       compute_offload=st.booleans(), batch=st.integers(1, 256),
       input_len=st.integers(1, 1024), output_len=st.integers(1, 48))
def test_flexgen_decode_matches_per_step_loop(model, system, config,
                                              compute_offload, batch,
                                              input_len, output_len):
    """Covers both KV homes (``kv_resident`` at small B) and the
    sublayer-class ``resident_sublayers`` packing."""
    estimator = FlexGenEstimator(
        MODELS[model], SYSTEMS[system], CONFIGS[config],
        FlexGenSettings(compute_offload=compute_offload))
    request = InferenceRequest(batch, input_len, output_len)
    estimate = estimator.estimate(request)
    assert estimate.decode == eq1_scalar.flexgen_decode(estimator, request)


def test_flexgen_grid_covers_both_kv_homes_and_packing():
    """The FlexGen property above reaches both KV homes and a nonempty
    ``resident_sublayers`` packing."""
    spec = MODELS["opt-30b"]
    system = SYSTEMS["spr-a100+cxl2"]
    estimator = FlexGenEstimator(spec, system, _BASE)
    small = InferenceRequest(1, 128, 8)
    large = InferenceRequest(256, 1024, 8)
    assert estimator.kv_fits_gpu(small)
    assert not estimator.kv_fits_gpu(large)
    assert estimator.estimate(large).residency.resident_sublayers
    for request in (small, large):
        assert (estimator.estimate(request).decode
                == eq1_scalar.flexgen_decode(estimator, request))


@st.composite
def request_lists(draw, batches=batch_sizes):
    """1-4 requests: one shared B or a B each, ``L_out`` often 1."""
    shared = draw(batches) if draw(st.booleans()) else None
    return [InferenceRequest(shared or draw(batches),
                             draw(st.integers(1, 2048)),
                             draw(st.one_of(st.just(1),
                                            st.integers(1, 48))))
            for __ in range(draw(st.integers(1, 4)))]


def _per_point(estimator, request):
    try:
        return estimator.estimate(request)
    except CapacityError as error:
        return error


def _assert_matches_per_point(estimator, requests, entries):
    """``entries`` equal per-point ``estimate`` in every field, and hold
    the same ``CapacityError`` where it raises; returns the estimated
    requests."""
    assert len(entries) == len(requests)
    estimated = []
    for request, entry in zip(requests, entries):
        expected = _per_point(estimator, request)
        if isinstance(expected, CapacityError):
            assert isinstance(entry, CapacityError)
            assert str(entry) == str(expected)
        else:
            assert entry == expected
            estimated.append((request, entry))
    return estimated


#: B=2048 x L_in=2048 of OPT-175B overflows host memory; the others fit.
_MIXED_OOM = [InferenceRequest(1, 64, 8), InferenceRequest(2048, 2048, 1),
              InferenceRequest(4, 512, 16)]


@settings(max_examples=30, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       requests=request_lists(), enforce=st.booleans())
@example(model="opt-175b", system="spr-a100+cxl2", config="default",
         requests=_MIXED_OOM, enforce=True)
@example(model="opt-175b", system="spr-a100+cxl2", config="default",
         requests=_MIXED_OOM[1:2], enforce=True)
def test_lia_estimate_many_matches_scalar_oracle(model, system, config,
                                                 requests, enforce):
    estimator = LiaEstimator(
        MODELS[model], SYSTEMS[system],
        replace(CONFIGS[config], enforce_host_capacity=enforce))
    entries = estimator.estimate_many(requests)
    for request, entry in _assert_matches_per_point(estimator, requests,
                                                    entries):
        assert ((entry.prefill, entry.decode, entry.prefill_policy,
                 entry.decode_policy)
                == eq1_scalar.lia_stages(estimator, request))
        # One array plan over the list gives each request its scalar
        # plan, Python scalars included.
        memory, residency = estimator._plan(request)
        assert (entry.memory, entry.residency) == (memory, residency)
        assert [type(value) for value in vars(entry.memory).values()] \
            == [type(value) for value in vars(memory).values()]
        assert type(entry.residency.n_resident_layers) is int


def test_estimate_many_keeps_oom_positions():
    """The host-capacity error lands at its request's position, and
    ``estimate`` raises that same error."""
    estimator = LiaEstimator(MODELS["opt-175b"], SYSTEMS["spr-a100+cxl2"],
                             LiaConfig())
    entries = estimator.estimate_many(_MIXED_OOM)
    assert [isinstance(entry, CapacityError) for entry in entries] == [
        False, True, False]
    with pytest.raises(CapacityError, match="DDR needs") as raised:
        estimator.estimate(_MIXED_OOM[1])
    assert str(raised.value) == str(entries[1])


@settings(max_examples=30, deadline=None)
@given(model=model_names, system=system_names,
       config=st.sampled_from(["default", "no-overlap", "cxl-weights",
                               "kv-window"]),
       compute_offload=st.booleans(),
       requests=request_lists(st.integers(1, 256)), enforce=st.booleans())
def test_flexgen_estimate_many_matches_scalar_oracles(
        model, system, config, compute_offload, requests, enforce):
    """Both KV homes in one list: prefill against the scalar
    ``layer_latency`` layer, decode against the per-step loop."""
    estimator = FlexGenEstimator(
        MODELS[model], SYSTEMS[system],
        replace(CONFIGS[config], enforce_host_capacity=enforce),
        FlexGenSettings(compute_offload=compute_offload))
    entries = estimator.estimate_many(requests)
    for request, entry in _assert_matches_per_point(estimator, requests,
                                                    entries):
        assert entry.prefill == eq1_scalar.flexgen_prefill(estimator,
                                                           request)
        assert entry.decode == eq1_scalar.flexgen_decode(estimator,
                                                         request)


batch_grids = st.lists(batch_sizes, min_size=1, max_size=3, unique=True)
context_grids = st.lists(context_lens, min_size=1, max_size=3, unique=True)


@settings(max_examples=25, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       stage=st.sampled_from(list(Stage)), batches=batch_grids,
       lengths=context_grids, weights_resident=st.booleans())
def test_grid_search_matches_scalar_scan_at_every_point(
        model, system, config, stage, batches, lengths, weights_resident):
    spec, platform = MODELS[model], SYSTEMS[system]
    config = CONFIGS[config]
    terms = layer_terms(spec, stage, np.array(batches)[:, np.newaxis],
                        np.array(lengths), platform, config)
    grid = search_grid(terms, config, weights_resident)
    assert grid.best.shape == (len(batches), len(lengths))
    for i, batch in enumerate(batches):
        for j, length in enumerate(lengths):
            oracle = eq1_scalar.optimal_policy(
                spec, stage, batch, length, platform, config,
                weights_resident=weights_resident)
            assert grid.policy((i, j)) == oracle.policy
            assert grid.layer_time[i, j] == oracle.layer_time


#: ``LayerTerms``' time tables, in the column order of the oracle's
#: ``point_terms`` rows.
TIME_FIELDS = ("comp_cpu", "comp_gpu", "load_x", "load_y", "load_r", "store")
COST_FIELDS = ("d_x", "d_y", "flops", "d_out", "d_kv_out")


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       stage=st.sampled_from(list(Stage)), batches=batch_grids,
       lengths=context_grids, kv_resident=st.booleans())
def test_every_table_element_matches_scalar_terms(
        model, system, config, stage, batches, lengths, kv_resident):
    """Every element of the six time tables, fired or not, and of the
    Table 1 costs behind them equals the oracle's per-point value as a
    uint64: a wrong term that never wins a search fails here too."""
    spec, platform = MODELS[model], SYSTEMS[system]
    config = CONFIGS[config]
    terms = layer_terms(spec, stage, np.array(batches)[:, np.newaxis],
                        np.array(lengths)[np.newaxis, :], platform, config,
                        kv_resident=kv_resident)
    shape = (len(batches), len(lengths), 6)
    expected = np.array([[eq1_scalar.point_terms(spec, stage, b, c,
                                                 platform, config)
                          for c in lengths] for b in batches])
    for index, name in enumerate(TIME_FIELDS):
        table = getattr(terms, name)
        assert table.shape == shape, name
        assert np.array_equal(_bits(table), _bits(expected[..., index])), name
    costs = [[[eq1_scalar.sublayer_cost(spec, sub, stage, b, c)
               for sub in Sublayer] for c in lengths] for b in batches]
    for name in COST_FIELDS:
        table = getattr(terms.costs, name)
        assert table.shape == shape, name
        assert np.array_equal(
            _bits(table),
            _bits([[[getattr(cost, name) for cost in row] for row in grid]
                   for grid in costs])), name


def _per_point_decode_steps(estimator, batches, lengths):
    return [[estimator.estimate(InferenceRequest(b, c, 1)).decode.time
             for c in lengths] for b in batches]


@settings(max_examples=30, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       batches=batch_grids, lengths=context_grids)
def test_decode_step_grid_matches_per_point_estimates(model, system,
                                                      config, batches,
                                                      lengths):
    """Covers overlap on and off, no residency, a forced decode policy,
    CXL systems and placements, and a CXL KV window."""
    estimator = LiaEstimator(MODELS[model], SYSTEMS[system],
                             CONFIGS[config])
    grid = estimator.decode_step_times(batches, lengths)
    assert grid.shape == (len(batches), len(lengths))
    assert grid.tolist() == _per_point_decode_steps(estimator, batches,
                                                    lengths)


@pytest.mark.parametrize("system,config,groups", [
    # 80 GB of HBM holds every OPT-30B layer: no streamed group.
    ("spr-h100+cxl1", "default", {"resident"}),
    ("spr-a100+cxl2", "no-residency", {"streamed"}),
    ("spr-a100+cxl2", "default", {"streamed", "resident"}),
])
def test_decode_step_grid_skips_empty_layer_groups(system, config,
                                                   groups):
    estimator = LiaEstimator(MODELS["opt-30b"], SYSTEMS[system],
                             CONFIGS[config])
    batches, lengths = [1, 4], [64, 512]
    for b in batches:
        for c in lengths:
            residency = estimator.estimate(
                InferenceRequest(b, c, 1)).residency
            present = {name for name, count in (
                ("streamed",
                 residency.n_layers - residency.n_resident_layers),
                ("resident", residency.n_resident_layers)) if count}
            assert present == groups
    assert (estimator.decode_step_times(batches, lengths).tolist()
            == _per_point_decode_steps(estimator, batches, lengths))


@settings(max_examples=20, deadline=None)
@given(model=model_names,
       batches=st.lists(st.integers(1, 4096), min_size=1, max_size=3),
       lengths=st.lists(st.integers(1, 8192), min_size=1, max_size=3))
@example(model="opt-175b", batches=[1, 4096], lengths=[64, 8192])
def test_decode_step_grid_raises_where_estimate_does(model, batches,
                                                     lengths):
    """With host capacity enforced, the grid raises the first
    (row-major) point's ``CapacityError`` exactly when some point's
    ``estimate`` raises."""
    estimator = LiaEstimator(MODELS[model], get_system("spr-a100"),
                             LiaConfig())
    first_error = None
    for b in batches:
        for c in lengths:
            try:
                estimator.estimate(InferenceRequest(b, c, 1))
            except CapacityError as error:
                first_error = first_error or error
    if first_error is None:
        assert (estimator.decode_step_times(batches, lengths).tolist()
                == _per_point_decode_steps(estimator, batches, lengths))
    else:
        with pytest.raises(CapacityError) as raised:
            estimator.decode_step_times(batches, lengths)
        assert str(raised.value) == str(first_error)


#: Systems for the memory planner: the CXL ones, and one without CXL,
#: where a KV window's CXL share makes the host check raise.
PLAN_SYSTEMS = {**SYSTEMS, "spr-a100": get_system("spr-a100")}


def _outcome(call):
    """A call's value, or the type and message of what it raised."""
    try:
        return call()
    except (CapacityError, ConfigurationError) as error:
        return type(error), str(error)


@settings(max_examples=60, deadline=None)
@given(model=model_names, system=st.sampled_from(sorted(PLAN_SYSTEMS)),
       gpu_residency=st.booleans(),
       prefill_minibatches=st.sampled_from([1, 2, 4, 8]),
       enforce_host_capacity=st.booleans(),
       kv_home=st.sampled_from(["ddr", "window", "cxl"]),
       batches=st.lists(st.integers(1, 4096), min_size=1, max_size=3),
       lengths=st.lists(st.integers(1, 8192), min_size=1, max_size=3))
# A KV window without CXL: the host check raises ConfigurationError.
@example(model="opt-175b", system="spr-a100", gpu_residency=True,
         prefill_minibatches=4, enforce_host_capacity=True,
         kv_home="window", batches=[1, 4096], lengths=[64, 8192])
# KV on CXL: the CXL pool overflows while DDR still fits.
@example(model="opt-30b", system="spr-a100+cxl2", gpu_residency=True,
         prefill_minibatches=1, enforce_host_capacity=True,
         kv_home="cxl", batches=[1, 512], lengths=[64, 2048])
def test_array_plan_matches_scalar_plans(model, system, gpu_residency,
                                         prefill_minibatches,
                                         enforce_host_capacity, kv_home,
                                         batches, lengths):
    """One array memory plan over a ``(B, L)`` grid gives every point
    its scalar plan's resident layers and bytes, and fails exactly
    where the scalar plan raises; the prefill-only column gives each
    point its ``estimate``'s prefill time or error."""
    assume(kv_home != "cxl" or PLAN_SYSTEMS[system].has_cxl)
    config = LiaConfig(
        gpu_residency=gpu_residency,
        prefill_minibatches=prefill_minibatches,
        enforce_host_capacity=enforce_host_capacity,
        kv_cxl_fraction=0.4 if kv_home == "window" else 0.0,
        kv_placement=(KvCachePlacement.CXL if kv_home == "cxl"
                      else KvCachePlacement.DDR))
    estimator = LiaEstimator(MODELS[model], PLAN_SYSTEMS[system], config)
    points = RequestPoints(np.array(batches)[:, np.newaxis],
                           np.array(lengths)[np.newaxis, :], 1)
    memory, residency, failed = estimator._plan_points(points)
    shape = (len(batches), len(lengths))
    n_resident = np.broadcast_to(residency.n_resident_layers, shape)
    gpu_bytes = np.broadcast_to(memory.gpu_bytes, shape)
    for i, batch in enumerate(batches):
        for j, length in enumerate(lengths):
            scalar = _outcome(lambda: estimator._plan(
                InferenceRequest(batch, length, 1)))
            if isinstance(scalar[0], type):
                assert failed[i, j]
                continue
            assert not failed[i, j]
            point_memory, plan = scalar
            assert n_resident[i, j] == plan.n_resident_layers
            assert gpu_bytes[i, j] == point_memory.gpu_bytes

    prompts = [(batch, length) for batch in batches for length in lengths]
    expected = [_outcome(lambda: estimator.estimate(
        InferenceRequest(batch, length, 1)).prefill.time)
        for batch, length in prompts]
    column = _outcome(lambda: estimator.prefill_times(
        [batch for batch, __ in prompts],
        [length for __, length in prompts]))
    unconfigured = [entry for entry in expected
                    if isinstance(entry, tuple)
                    and entry[0] is ConfigurationError]
    if unconfigured:
        assert column == unconfigured[0]
    else:
        assert [entry if isinstance(entry, float)
                else (type(entry), str(entry)) for entry in column] \
            == expected
    first = next((entry for entry in (
        _outcome(lambda: estimator._plan(InferenceRequest(b, c, 1)))
        for b in batches for c in lengths)
        if isinstance(entry[0], type)), None)
    if first is not None:
        assert _outcome(lambda: estimator.decode_step_times(
            batches, lengths)) == first


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(sorted(PLAN_SYSTEMS)),
       ddr_share=st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0, 2),
       cxl_share=st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0, 2))
def test_host_overflow_mask_matches_check_host_capacity(system, ddr_share,
                                                        cxl_share):
    """``host_overflows`` marks a usage, as a bool or as an array,
    exactly where ``check_host_capacity`` raises: DDR or CXL over
    capacity, or any byte in CXL on a system without it."""
    system = PLAN_SYSTEMS[system]
    ddr = ddr_share * system.cpu.memory.capacity_bytes
    cxl = cxl_share * (system.cxl_pool.capacity_bytes if system.has_cxl
                       else system.cpu.memory.capacity_bytes)
    memory = MemoryUsage(0.0, 0.0, 0.0, ddr, cxl, 0.0)
    raises = _outcome(lambda: check_host_capacity(memory, system)) \
        is not None
    assert bool(host_overflows(memory, system)) == raises
    points = replace(memory, ddr_bytes=np.array([ddr, 0.0]),
                     cxl_bytes=np.array([cxl, 0.0]))
    assert host_overflows(points, system).tolist() == [raises, False]


@pytest.mark.parametrize("forced", [False, True])
def test_policy_evaluations_count_logical_candidates(forced):
    config = (_BASE.with_forced_policy(PARTIAL_CPU, PARTIAL_CPU) if forced
              else _BASE)
    telemetry = Telemetry()
    with activate(telemetry):
        optimal_policy(MODELS["opt-30b"], Stage.DECODE, 4, 64,
                       SYSTEMS["spr-a100+cxl2"], config)
    assert telemetry.metrics.counter_value(
        "policy.searches", stage="decode") == 1
    assert telemetry.metrics.counter_value(
        "policy.evaluations", stage="decode") == (1 if forced else 64)


class TestBoundaryValidation:
    """The array paths reject bad shapes and placements on entry with
    the same one-line errors as the scalar formulas."""

    spec = MODELS["opt-30b"]
    system = get_system("spr-a100")

    def test_zero_batch(self):
        with pytest.raises(ConfigurationError,
                           match="^batch_size must be >= 1, got 0$"):
            optimal_policy(self.spec, Stage.DECODE, 0, 64, self.system,
                           _BASE)
        with pytest.raises(ConfigurationError,
                           match="^batch_size must be >= 1, got 0$"):
            InferenceRequest(0, 64, 8)

    def test_zero_context_length(self):
        with pytest.raises(ConfigurationError,
                           match="^seq_len must be >= 1, got 0$"):
            optimal_policy(self.spec, Stage.PREFILL, 1, 0, self.system,
                           _BASE)
        with pytest.raises(ConfigurationError,
                           match="^seq_len must be >= 1, got 0$"):
            layer_terms(self.spec, Stage.DECODE, 1, np.arange(0, 4),
                        self.system, _BASE)
        with pytest.raises(ConfigurationError,
                           match="^input_len must be >= 1, got 0$"):
            InferenceRequest(1, 0, 8)
        # The array planners raise the error the point's request
        # raises, not the term table's.
        estimator = LiaEstimator(self.spec, self.system, _BASE)
        for call in (lambda: estimator.decode_step_times([4], [64, 0]),
                     lambda: estimator.prefill_times([4, 4], [64, 0])):
            with pytest.raises(ConfigurationError,
                               match="^input_len must be >= 1, got 0$"):
                call()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_batch_and_context(self, value):
        """NaN used to slip past the ``>= 1`` checks, so the search
        took the first candidate (FULL_GPU) over NaN scores, and an
        infinite ``L`` built infinite tables."""
        message = f" must be finite, got {value}$"
        with pytest.raises(ConfigurationError, match="^batch_size" + message):
            optimal_policy(self.spec, Stage.DECODE, value, 5, self.system,
                           _BASE)
        with pytest.raises(ConfigurationError, match="^seq_len" + message):
            optimal_policy(self.spec, Stage.PREFILL, 1, value, self.system,
                           _BASE)
        for stage in Stage:
            with pytest.raises(ConfigurationError,
                               match="^batch_size" + message):
                layer_terms(self.spec, stage,
                            np.array([[1.0], [value], [4.0]]),
                            np.array([64, 512]), self.system, _BASE)
            with pytest.raises(ConfigurationError,
                               match="^seq_len" + message):
                layer_terms(self.spec, stage, 4, np.array([64.0, value]),
                            self.system, _BASE)

    def test_zero_output_length(self):
        with pytest.raises(ConfigurationError,
                           match="^output_len must be >= 1, got 0$"):
            InferenceRequest(1, 64, 0)

    def test_empty_decode_sum_is_zero_time(self):
        request = InferenceRequest(1, 64, 1)
        lengths = request.decode_context_lengths()[:0]
        terms = layer_terms(self.spec, Stage.DECODE, 1, lengths,
                            self.system, _BASE)
        assert terms.comp_cpu.shape == (0, 6)
        layer = terms.sums(np.ones(6, dtype=bool), np.zeros(6, dtype=bool))
        steps = StageBreakdown(layer.compute, layer.cpu_compute,
                               layer.gpu_compute, layer.transfer)
        assert sum_steps(steps) == StageBreakdown(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("config,placement", [
        (_BASE.with_cxl_weights(), "weight_placement"),
        (LiaConfig(enforce_host_capacity=False).with_all_cxl(),
         "weight_placement"),
        (LiaConfig(enforce_host_capacity=False,
                   kv_placement=_BASE.with_all_cxl().kv_placement),
         "kv_placement"),
        # Host capacity enforced (the default): the placement is
        # rejected before any capacity check.
        (LiaConfig().with_cxl_weights(), "weight_placement"),
        (LiaConfig().with_all_cxl(), "weight_placement"),
        (LiaConfig(kv_placement=KvCachePlacement.CXL), "kv_placement"),
    ])
    def test_cxl_placement_without_cxl(self, config, placement):
        message = (f"^spr-a100: {placement}=CXL but the system has "
                   r"no CXL expanders \(use system.with_cxl\(\)\)$")
        with pytest.raises(ConfigurationError, match=message):
            optimal_policy(self.spec, Stage.DECODE, 1, 64, self.system,
                           config)
        with pytest.raises(ConfigurationError, match=message):
            LiaEstimator(self.spec, self.system, config).estimate(
                InferenceRequest(1, 64, 4))
        with pytest.raises(ConfigurationError, match=message):
            FlexGenEstimator(self.spec, self.system, config)


def _figure_grid_tables():
    """Three term tables the fig09+10+11 grid builds: a scalar prefill
    probe of the Fig. 9 transition search, OPT-30B's Fig. 10 decode
    table (every request's steps end to end, 864 points) and the
    Fig. 9 decode policy map (9 x 5)."""
    from repro.core.estimator import RequestGrid
    from repro.experiments.fig09_policy_map import (DEFAULT_BATCHES,
                                                    DEFAULT_LENGTHS)
    from repro.models.workload import paper_input_lengths

    opt_30b, opt_175b = MODELS["opt-30b"], MODELS["opt-175b"]
    requests = [InferenceRequest(1, input_len, output_len)
                for output_len in (32, 256)
                for input_len in paper_input_lengths(opt_30b, output_len)]
    return {
        "prefill-scalar": (opt_175b, Stage.PREFILL, 1, 512),
        "fig10-decode": (opt_30b, Stage.DECODE,
                         *RequestGrid.from_requests(requests).decode),
        "fig09-policy-map": (opt_175b, Stage.DECODE,
                             np.array(DEFAULT_BATCHES)[:, np.newaxis],
                             np.array(DEFAULT_LENGTHS)[np.newaxis, :]),
    }


@pytest.mark.parametrize("name", ["prefill-scalar", "fig10-decode",
                                  "fig09-policy-map"])
def test_figure_grid_tables_match_scalar_terms(name):
    """At full figure-grid size, every element of the six time tables
    equals the oracle's term as a uint64, and (on the grids small
    enough for its 64-candidate scan) every point's winner and
    ``layer_time`` equal the oracle's."""
    spec, stage, batches, lengths = _figure_grid_tables()[name]
    system, config = get_system("spr-a100"), LiaConfig()
    terms = layer_terms(spec, stage, batches, lengths, system, config)
    grid = search_grid(terms, config)
    points = np.broadcast_arrays(batches, lengths)
    search = points[0].size <= 64
    for index in np.ndindex(*points[0].shape):
        batch, length = (int(values[index]) for values in points)
        expected = eq1_scalar.point_terms(spec, stage, batch, length,
                                          system, config)
        got = np.array([getattr(terms, field)[index]
                        for field in TIME_FIELDS]).T
        assert np.array_equal(_bits(got), _bits(expected)), (batch, length)
        if search:
            oracle = eq1_scalar.optimal_policy(spec, stage, batch, length,
                                               system, config)
            assert grid.policy(index) == oracle.policy, (batch, length)
            assert grid.layer_time[index] == oracle.layer_time
