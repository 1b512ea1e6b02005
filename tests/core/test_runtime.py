"""The LiaRuntime facade."""

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.core.runtime import LiaRuntime
from repro.errors import ConfigurationError
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


@pytest.fixture
def runtime(tiny_spec, spr_a100):
    return LiaRuntime(tiny_spec, spr_a100)


def test_plan_contains_everything(opt_30b, spr_a100, eval_config):
    runtime = LiaRuntime(opt_30b, spr_a100, eval_config)
    plan = runtime.plan(InferenceRequest(1, 256, 32))
    assert plan.estimate.latency > 0.0
    assert plan.prefill_policy == plan.estimate.prefill_policy
    assert plan.residency.n_layers == opt_30b.n_layers


def test_generate_runs_real_tokens(runtime):
    prompt = np.arange(8, dtype=np.int64).reshape(1, 8) % 100
    result = runtime.generate(prompt, max_new_tokens=4)
    assert result.tokens.shape == (1, 4)
    assert (result.tokens < runtime.spec.vocab_size).all()


def test_generate_deterministic(tiny_spec, spr_a100):
    prompt = np.arange(6, dtype=np.int64).reshape(1, 6)
    a = LiaRuntime(tiny_spec, spr_a100).generate(prompt, 3)
    b = LiaRuntime(tiny_spec, spr_a100).generate(prompt, 3)
    np.testing.assert_array_equal(a.tokens, b.tokens)


def test_functional_engine_rejects_huge_models(opt_30b, spr_a100,
                                               eval_config):
    runtime = LiaRuntime(opt_30b, spr_a100, eval_config)
    with pytest.raises(ConfigurationError, match="too large"):
        runtime.functional_model()


def test_timeline_simulation(opt_175b, spr_a100, eval_config):
    runtime = LiaRuntime(opt_175b, spr_a100, eval_config)
    request = InferenceRequest(64, 256, 32)
    timeline = runtime.simulate_timeline(request, Stage.DECODE,
                                         n_layers=8)
    assert timeline.makespan > 0.0
    assert "pcie" in timeline.by_resource()
    gantt = timeline.render_gantt()
    assert "makespan" in gantt


def test_timeline_overlap_beats_serial(opt_175b, spr_a100, eval_config):
    request = InferenceRequest(900, 256, 32)
    overlapped = LiaRuntime(opt_175b, spr_a100,
                            eval_config).simulate_timeline(
        request, Stage.DECODE, n_layers=12)
    serial = LiaRuntime(opt_175b, spr_a100,
                        eval_config.without_overlap()).simulate_timeline(
        request, Stage.DECODE, n_layers=12)
    # The serial graph chains everything; overlap pipelines PCIe.
    assert overlapped.makespan <= serial.makespan * 1.01


@pytest.mark.parametrize("n_layers, message", [
    (0, "n_layers must be an int >= 1, got 0"),
    (True, "n_layers must be an int >= 1, got True"),
])
def test_simulate_timeline_rejects_bad_caps(opt_30b, spr_a100, eval_config,
                                            n_layers, message):
    runtime = LiaRuntime(opt_30b, spr_a100, eval_config)
    with pytest.raises(ConfigurationError) as raised:
        runtime.simulate_timeline(InferenceRequest(1, 128, 4),
                                  Stage.DECODE, n_layers)
    assert str(raised.value) == message
