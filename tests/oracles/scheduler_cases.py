"""Request streams the continuous-batching scheduler is checked on.

Shared by the oracle differential
(``tests/serving/test_scheduler_differential.py``) and the pinned long
runs (``tests/serving/test_scheduler_pins.py``), so each names one
stream the same way everywhere.  Each builder
returns ``(scheduler, requests, arrivals)``.
"""

import math

import numpy as np

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.cxl.residency import KvTierCapacities
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import arrivals_poisson
from repro.serving.scheduler import ContinuousBatchScheduler, SchedulerConfig

#: Every report field a run is compared or pinned on, besides its
#: timeline fingerprint.
REPORT_FIELDS = ("iterations", "admissions", "occupancy_mean",
                 "occupancy_peak", "policy_resolves", "kv_peak_bytes",
                 "kv_demotions", "kv_demoted_bytes", "server_busy_s",
                 "decode_busy_s")

SPEC = get_model("opt-30b")
CONFIG = LiaConfig(enforce_host_capacity=False)


def _seeded_stream(shapes, n, rate, seed):
    """``n`` requests, an equal share of each shape in seeded order,
    with Poisson arrivals at ``rate`` (perfbench's recipe)."""
    mix_seed, trace_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    order = np.random.default_rng(mix_seed).permutation(
        np.arange(n) % len(shapes))
    requests = [InferenceRequest(*shapes[int(i)]) for i in order]
    return requests, arrivals_poisson(n, rate, seed=trace_seed)


def continuous_kv_case(n=5000, seed=0):
    """The perfbench continuous-kv stream at ``n`` requests."""
    estimator = LiaEstimator(SPEC, get_system("spr-a100").with_cxl(2),
                             CONFIG)
    shapes = ((1, 128, 16), (1, 512, 64), (8, 1024, 64), (32, 1024, 32))
    requests, arrivals = _seeded_stream(shapes, n, 0.1, seed)
    scheduler = ContinuousBatchScheduler(
        estimator, SchedulerConfig(max_batch_requests=32))
    return scheduler, requests, arrivals


def flip_case(n=200, seed=3):
    """Short prompts at a high rate over HBM/DDR budgets of one and two
    ``kv_cache_bytes(16, 16)``: KV spills to CXL, and the aggregate
    batch crosses dgx-a100's decode boundary, so the re-solves the
    steps read do not all place attention alike."""
    estimator = LiaEstimator(SPEC, get_system("dgx-a100").with_cxl(2),
                             CONFIG)
    unit = float(SPEC.kv_cache_bytes(16, 16))
    requests, arrivals = _seeded_stream(
        ((1, 8, 8), (4, 8, 16), (16, 8, 4)), n, 10.0, seed)
    scheduler = ContinuousBatchScheduler(estimator, SchedulerConfig(
        max_batch_requests=8,
        kv_capacities=KvTierCapacities(unit, 2 * unit, math.inf)))
    return scheduler, requests, arrivals
