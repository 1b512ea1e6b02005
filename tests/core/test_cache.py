"""Tests of the estimator hot-path caches (repro.core.cache)."""

import pytest

from repro.core.cache import (
    OPTIMAL_POLICY_CACHE,
    LruCache,
    cache_stats,
    cache_token,
    clear_caches,
)
from repro.core.config import LiaConfig
from repro.core.optimizer import optimal_policy
from repro.hardware.system import SYSTEM_ZOO, get_system
from repro.models.sublayers import Stage
from repro.models.zoo import MODEL_ZOO, get_model
from repro.telemetry import Telemetry, activate


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestLruCache:
    def test_computes_once_per_key(self):
        cache = LruCache("t", maxsize=4)
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", compute) == 42
        assert cache.get_or_compute("k", compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LruCache("t", maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)   # refresh a
        cache.get_or_compute("c", lambda: 3)   # evicts b
        calls = []
        cache.get_or_compute("b", lambda: calls.append(1) or 2)
        assert calls == [1]  # b was recomputed
        cache.get_or_compute("c", lambda: calls.append(2) or 3)
        assert calls == [1]  # c survived (more recent than a)

    def test_clear_resets_counters(self):
        cache = LruCache("t", maxsize=4)
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.stats()["size"] == 0

    def test_emits_telemetry_counters(self):
        telemetry = Telemetry()
        cache = LruCache("series", maxsize=4)
        with activate(telemetry):
            cache.get_or_compute("k", lambda: 1)
            cache.get_or_compute("k", lambda: 1)
        assert telemetry.metrics.counter_value(
            "cache.misses", cache="series") == 1
        assert telemetry.metrics.counter_value(
            "cache.hits", cache="series") == 1


class TestCacheToken:
    def test_hashable_objects_pass_through(self):
        spec = get_model("opt-30b")
        assert cache_token(spec) is spec
        assert cache_token(7) == 7

    def test_unhashable_objects_get_stable_identity_token(self):
        system = get_system("spr-a100")
        with pytest.raises(TypeError):
            hash(system)  # CpuSpec.engines is a dict
        assert cache_token(system) == cache_token(system)

    def test_distinct_unhashable_objects_get_distinct_tokens(self):
        tokens = {cache_token(SYSTEM_ZOO[name]) for name in SYSTEM_ZOO}
        assert len(tokens) == len(SYSTEM_ZOO)


class TestOptimalPolicyCache:
    def test_cached_decision_is_bit_identical(self):
        spec = get_model("opt-30b")
        system = get_system("spr-a100")
        config = LiaConfig(enforce_host_capacity=False)
        first = optimal_policy(spec, Stage.DECODE, 16, 512, system,
                               config)
        clear_caches()
        uncached = optimal_policy(spec, Stage.DECODE, 16, 512, system,
                                  config.without_cache())
        recomputed = optimal_policy(spec, Stage.DECODE, 16, 512, system,
                                    config)
        hit = optimal_policy(spec, Stage.DECODE, 16, 512, system, config)
        assert (first.policy == uncached.policy == recomputed.policy
                == hit.policy)
        assert first.layer == uncached.layer == hit.layer
        assert OPTIMAL_POLICY_CACHE.hits >= 1

    def test_logical_counters_increment_on_hits(self):
        """policy.searches counts calls, not cache misses."""
        spec = get_model("opt-30b")
        system = get_system("spr-a100")
        config = LiaConfig(enforce_host_capacity=False)
        telemetry = Telemetry()
        with activate(telemetry):
            optimal_policy(spec, Stage.DECODE, 4, 64, system, config)
            optimal_policy(spec, Stage.DECODE, 4, 64, system, config)
        assert telemetry.metrics.counter_value(
            "policy.searches", stage="decode") == 2
        assert telemetry.metrics.counter_value(
            "policy.evaluations", stage="decode") == 128

    def test_cache_stats_lists_both_caches(self):
        names = {entry["cache"] for entry in cache_stats()}
        assert names == {"optimal_policy", "estimate", "stall_outcome"}


class TestEstimatorCacheProperty:
    @pytest.mark.parametrize("model", sorted(MODEL_ZOO)[:4])
    def test_estimates_identical_with_and_without_cache(self, model):
        from repro.core.estimator import LiaEstimator
        from repro.models.workload import InferenceRequest

        spec = get_model(model)
        system = get_system("spr-a100")
        request = InferenceRequest(4, 64, 16)
        base = LiaConfig(enforce_host_capacity=False)
        cold = LiaEstimator(spec, system, base).estimate(request)
        warm = LiaEstimator(spec, system, base).estimate(request)
        off = LiaEstimator(spec, system,
                           base.without_cache()).estimate(request)
        assert cold.latency == warm.latency == off.latency
        assert cold.decode == warm.decode == off.decode
