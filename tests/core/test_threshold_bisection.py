"""The §7.1 threshold bisections, solved in probe tables, vs the loops
of one-point ``optimal_policy`` probes in ``tests/oracles/eq1_scalar.py``.

``decode_policy_threshold`` and ``prefill_policy_transition`` solve
every midpoint the next halvings could visit in one term table, then
walk the same halvings.  They must return the loop's answer and count
the loop's ``policy.searches``, for every zoo model and system, and
reject a bad bound with one ``ConfigurationError`` line.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import LiaConfig
from repro.core.optimizer import (_bisect, decode_policy_threshold,
                                  prefill_policy_transition)
from repro.errors import ConfigurationError
from repro.hardware.system import SYSTEM_ZOO, get_system
from repro.models.zoo import MODEL_ZOO, get_model
from repro.telemetry import Telemetry, activate
from tests.oracles import eq1_scalar

CONFIG = LiaConfig(enforce_host_capacity=False)
PAIRS = list(itertools.product(sorted(MODEL_ZOO), SYSTEM_ZOO))


def _searches(call, stage):
    """``call()`` and the ``policy.searches{stage}`` it counted."""
    telemetry = Telemetry()
    with activate(telemetry):
        result = call()
    return result, telemetry.metrics.counter_value("policy.searches",
                                                   stage=stage)


def _assert_matches_loop(library, oracle, stage):
    assert _searches(library, stage) == _searches(oracle, stage)


@st.composite
def bounds(draw):
    """``(batch_size, lo, hi)``: bounds a batch size rarely divides, and
    sometimes an ``hi`` below the batch size."""
    batch = draw(st.integers(1, 1500))
    lo = draw(st.integers(1, 5000))
    if batch > 1 and draw(st.booleans()):
        hi = draw(st.integers(1, batch - 1))
        lo = draw(st.integers(1, hi))
    else:
        hi = draw(st.integers(lo, 70000))
    return batch, lo, hi


@pytest.mark.parametrize("model,system", PAIRS)
@settings(max_examples=3, deadline=None)
@given(case=bounds(), context_len=st.integers(1, 4096))
def test_bisections_match_one_probe_loops(model, system, case,
                                          context_len):
    spec, platform = get_model(model), get_system(system)
    batch, lo, hi = case
    _assert_matches_loop(
        lambda: decode_policy_threshold(spec, platform, CONFIG,
                                        context_len, lo, hi),
        lambda: eq1_scalar.decode_policy_threshold(
            spec, platform, CONFIG, context_len, lo, hi), "decode")
    _assert_matches_loop(
        lambda: prefill_policy_transition(spec, platform, CONFIG, batch,
                                          lo, hi),
        lambda: eq1_scalar.prefill_policy_transition(
            spec, platform, CONFIG, batch, lo, hi), "prefill")


@pytest.mark.parametrize("system", ["spr-a100", "spr-h100"])
def test_default_bounds_match_one_probe_loops(system):
    """Fig. 9's own calls: OPT-175B, the default bounds."""
    spec, platform = get_model("opt-175b"), get_system(system)
    _assert_matches_loop(
        lambda: decode_policy_threshold(spec, platform, CONFIG),
        lambda: eq1_scalar.decode_policy_threshold(spec, platform, CONFIG),
        "decode")
    _assert_matches_loop(
        lambda: prefill_policy_transition(spec, platform, CONFIG),
        lambda: eq1_scalar.prefill_policy_transition(spec, platform,
                                                     CONFIG),
        "prefill")


def _loop(full_cpu, lo, hi):
    """The one-probe loop's answer and probe count on ``full_cpu``."""
    probes = []

    def probe(point):
        probes.append(point)
        return full_cpu(point)

    return eq1_scalar._bisect(probe, lo, hi), len(probes)


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(1, 300), span=st.integers(0, 3000),
       flips=st.frozensets(st.integers(1, 3300), max_size=40),
       above=st.integers(1, 3300))
@example(lo=1, span=4095, flips=frozenset(), above=858)
def test_walk_takes_the_loops_halvings_on_any_predicate(lo, span, flips,
                                                        above):
    """Full-CPU below ``above``, toggled at the ``flips`` points: a
    predicate that need not be monotone."""
    def full_cpu(point):
        return (point < above) != (point in flips)

    hi = lo + span
    assert _bisect(lambda points: [full_cpu(int(p)) for p in points],
                   lo, hi) == _loop(full_cpu, lo, hi)


@pytest.mark.parametrize("call,message", [
    (lambda spec, system: prefill_policy_transition(
        spec, system, CONFIG, batch_size=0),
     "^batch_size must be >= 1, got 0$"),
    (lambda spec, system: prefill_policy_transition(
        spec, system, CONFIG, lo=5000, hi=10),
     "^lo must be <= hi, got lo=5000, hi=10$"),
    (lambda spec, system: decode_policy_threshold(
        spec, system, CONFIG, lo=5000, hi=10),
     "^lo must be <= hi, got lo=5000, hi=10$"),
], ids=["prefill-batch-0", "prefill-lo-above-hi", "decode-lo-above-hi"])
def test_bad_bounds_raise_one_line(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call(get_model("opt-175b"), get_system("spr-a100"))
