"""SLO-driven system planning."""

import pytest

from repro.core.config import LiaConfig
from repro.errors import ConfigurationError
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.planner import choose_system


@pytest.fixture
def workload():
    return [InferenceRequest(1, 128, 16) for __ in range(4)]


def test_recommends_cheapest_feasible(workload, eval_config):
    spec = get_model("opt-30b")
    choices = choose_system(spec, workload, slo_p95_seconds=1000.0,
                            candidates=("spr-a100", "gnr-h100"),
                            config=eval_config)
    assert choices[0].feasible
    # A loose SLO makes both feasible; the cheaper SPR-A100 wins.
    assert choices[0].name == "spr-a100"
    assert choices[0].usd_per_hour <= choices[1].usd_per_hour


def test_tight_slo_excludes_slow_systems(workload, eval_config):
    spec = get_model("opt-175b")
    # Find the actual spread first: GNR systems decode ~1.8x faster.
    loose = choose_system(spec, workload, slo_p95_seconds=1e6,
                          candidates=("spr-a100", "gnr-h100"),
                          config=eval_config)
    spr = next(c for c in loose if c.name == "spr-a100")
    gnr = next(c for c in loose if c.name == "gnr-h100")
    assert gnr.p95_latency < spr.p95_latency
    # An SLO between the two keeps only the GNR box.
    slo = (spr.p95_latency + gnr.p95_latency) / 2
    tight = choose_system(spec, workload, slo_p95_seconds=slo,
                          candidates=("spr-a100", "gnr-h100"),
                          config=eval_config)
    assert tight[0].name == "gnr-h100" and tight[0].feasible
    spr_choice = next(c for c in tight if c.name == "spr-a100")
    assert not spr_choice.feasible
    assert "SLO" in spr_choice.reason


def test_oom_reported_not_raised(workload):
    spec = get_model("opt-175b")
    # Strict memory enforcement: 175B + KV fits, but an absurd batch
    # of 4096 would not — emulate with a big-batch workload.
    big = [InferenceRequest(4096, 1024, 16)]
    choices = choose_system(spec, big, slo_p95_seconds=1e9,
                            candidates=("spr-a100",),
                            config=LiaConfig())
    assert not choices[0].feasible
    assert "OOM" in choices[0].reason


def test_input_validation(workload, eval_config):
    spec = get_model("opt-30b")
    with pytest.raises(ConfigurationError):
        choose_system(spec, workload, slo_p95_seconds=0.0,
                      config=eval_config)
    with pytest.raises(ConfigurationError):
        choose_system(spec, [], slo_p95_seconds=1.0, config=eval_config)
    with pytest.raises(ConfigurationError, match="positive"):
        choose_system(spec, workload, slo_p95_seconds=float("nan"),
                      config=eval_config)
