"""Array-native Eq. (1) search and decode sums vs the scalar oracle.

``optimal_policy`` and ``search_grid`` score all 64 candidates from one
term table (one point, or a whole ``(B, L)`` grid), the LIA and FlexGen
estimators sum every decode step as one array, and
``LiaEstimator.decode_step_times`` evaluates a ``(B, L)`` grid of
decode steps from one broadcast table.  All must be bit-identical to
the one-policy, one-step loops of ``tests/oracles/eq1_scalar.py`` (or,
for the step grid, to per-point ``estimate`` calls): the winning
policy, its ``layer_time`` and per-sublayer ``LayerLatency``, and all
four ``StageBreakdown`` components, over models, systems and
configurations that exercise every branch of Eqs. (4)-(9).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.flexgen import FlexGenEstimator, FlexGenSettings
from repro.core.cache import clear_caches
from repro.core.config import LiaConfig
from repro.core.estimator import (
    LiaEstimator,
    StageBreakdown,
    sum_steps,
)
from repro.core.optimizer import optimal_policy, search_grid
from repro.core.policy import FULL_CPU, FULL_GPU, PARTIAL_CPU
from repro.core.terms import layer_terms
from repro.errors import CapacityError, ConfigurationError
from repro.hardware.system import get_system
from repro.models.quantize import quantize_weights
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
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


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


@settings(max_examples=120, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       stage=st.sampled_from(list(Stage)), batch=batch_sizes,
       length=context_lens, weights_resident=st.booleans())
def test_policy_search_matches_scalar_scan(model, system, config, stage,
                                           batch, length,
                                           weights_resident):
    args = (MODELS[model], stage, batch, length, SYSTEMS[system],
            CONFIGS[config].without_cache())
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


batch_grids = st.lists(batch_sizes, min_size=1, max_size=3, unique=True)
context_grids = st.lists(context_lens, min_size=1, max_size=3, unique=True)


@settings(max_examples=25, deadline=None)
@given(model=model_names, system=system_names, config=config_names,
       stage=st.sampled_from(list(Stage)), batches=batch_grids,
       lengths=context_grids, weights_resident=st.booleans())
def test_grid_search_matches_scalar_scan_at_every_point(
        model, system, config, stage, batches, lengths, weights_resident):
    spec, platform = MODELS[model], SYSTEMS[system]
    config = CONFIGS[config].without_cache()
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
