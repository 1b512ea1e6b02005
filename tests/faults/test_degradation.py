"""Degraded serving: bit-identity, reactions, and determinism."""

import json
from dataclasses import replace

import pytest

from repro.core.estimator import LiaEstimator
from repro.faults.scenarios import get_scenario
from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy)
from repro.models.workload import InferenceRequest
from repro.serving.batcher import pack_requests, repack_under_pressure
from repro.serving.planner import choose_system
from repro.serving.simulator import ServingSimulator
from repro.telemetry.runtime import Telemetry, activate
from repro.workloads.traces import arrivals_poisson


@pytest.fixture
def simulator(opt_30b, spr_a100, eval_config):
    return ServingSimulator(LiaEstimator(opt_30b, spr_a100, eval_config))


def _timeline(report):
    return [(s.arrival, s.start, s.finish) for s in report.served]


REQUESTS = [InferenceRequest(8, 512, 64)] * 10


# ----------------------------------------------------------------------
# Bit-identity of the idle fault layer
# ----------------------------------------------------------------------
def test_idle_scenario_is_bit_identical(simulator):
    arrivals = arrivals_poisson(len(REQUESTS), 0.05, seed=3)
    base = simulator.run(REQUESTS, arrivals)
    idle = simulator.run(
        REQUESTS, arrivals,
        scenario=FaultScenario(name="armed-but-idle", seed=99))
    assert _timeline(base) == _timeline(idle)
    # No fault shell either: an idle scenario reports like no scenario.
    assert idle.stats is None and base.stats is None
    assert idle.dropped_index is None


def test_windowed_faults_leave_quiet_periods_untouched(simulator):
    """Requests served before the fault window keep exact base timing."""
    arrivals = [float(i) * 2.0 for i in range(10)]
    base = simulator.run(REQUESTS, arrivals)
    window_start = base.served[4].finish + 1.0
    scenario = FaultScenario(
        name="late-downshift", seed=1,
        events=(FaultEvent(FaultKind.PCIE_DOWNSHIFT,
                           start=window_start, duration=1e6,
                           magnitude=0.25),))
    degraded = simulator.run(REQUESTS, arrivals, scenario=scenario)
    assert degraded.stats is not None
    # Before the window: bit-identical starts and finishes.
    for before, after in zip(_timeline(base)[:4], _timeline(degraded)[:4]):
        assert before == after
    # Inside the window the link is 4x slower: strictly later finishes.
    assert degraded.served[-1].finish > base.served[-1].finish
    assert degraded.stats.policy_resolves > 0


# ----------------------------------------------------------------------
# Reactions
# ----------------------------------------------------------------------
def test_pcie_stalls_charge_retry_penalties(simulator):
    scenario = FaultScenario(
        name="flaky", seed=2,
        events=(FaultEvent(FaultKind.PCIE_STALL, magnitude=0.2),),
        retry=RetryPolicy(max_retries=2, timeout_s=0.5,
                          backoff_base_s=0.25))
    arrivals = [float(i) * 100.0 for i in range(10)]
    base = simulator.run(REQUESTS, arrivals)
    degraded = simulator.run(REQUESTS, arrivals, scenario=scenario)
    assert degraded.stats.transfer_stalls > 0
    assert degraded.stats.stall_seconds > 0.0
    penalties = [after.finish - before.finish
                 for before, after in zip(base.served, degraded.served)]
    assert all(p >= 0.0 for p in penalties)
    assert max(p for p in penalties) > 0.0
    # Still degraded-but-bounded: every request finished.
    assert len(degraded.served) == len(REQUESTS)


def test_admission_control_defers_and_sheds(simulator):
    scenario = FaultScenario(
        name="backpressure", seed=3,
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=1),
        retry=RetryPolicy(backoff_base_s=0.001))
    arrivals = [0.0] * 10   # everyone at once against depth 1
    report = simulator.run(REQUESTS, arrivals, scenario=scenario)
    assert report.dropped, "burst against depth-1 queue must shed"
    assert report.stats.deferred > 0
    assert report.n_offered == len(REQUESTS)
    assert 0.0 < report.drop_rate < 1.0 or report.drop_rate == 1.0
    for drop in report.dropped:
        assert "admission" in drop.reason


def test_gpu_pressure_forces_policy_resolve(simulator):
    scenario = get_scenario("gpu-pressure")
    arrivals = [15.0 + i for i in range(10)]   # inside the window
    degraded = simulator.run(REQUESTS, arrivals, scenario=scenario)
    assert degraded.stats.policy_resolves > 0
    assert degraded.stats.degraded_requests > 0


def test_fully_shed_run_is_reportable(simulator):
    scenario = FaultScenario(
        name="slammed", seed=4,
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=0))
    requests = [InferenceRequest(8, 512, 64)] * 3
    # First request admitted (empty queue), rest shed while it runs.
    report = simulator.run(requests, [0.0, 0.0, 0.0], scenario=scenario)
    assert len(report.served) + len(report.dropped) == 3
    assert report.dropped
    assert report.mean_queue_delay >= 0.0
    assert report.makespan >= 0.0


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_degraded_run_emits_fault_counters_and_spans(simulator):
    telemetry = Telemetry()
    scenario = get_scenario("noisy-neighbor")
    with activate(telemetry):
        simulator.run(REQUESTS, arrivals_poisson(len(REQUESTS), 0.05, seed=7),
                      scenario=scenario)
    metrics = {sample["metric"] for sample in
               telemetry.metrics.snapshot()}
    assert any(name.startswith("faults.") for name in metrics)
    assert {sp.track for sp in telemetry.tracer.spans} >= {"server",
                                                           "faults"}


# ----------------------------------------------------------------------
# Determinism across repeat runs and interpreters
# ----------------------------------------------------------------------
#: Runs noisy-neighbor degraded runs at the seeds given on argv in a fresh
#: interpreter and prints each run's timeline and stats as JSON.
DEGRADED_RUNS = """
import json
import sys
from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.faults.scenarios import get_scenario
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving.simulator import ServingSimulator
from repro.workloads.traces import arrivals_poisson

simulator = ServingSimulator(LiaEstimator(
    get_model("opt-30b"), get_system("spr-a100"),
    LiaConfig(enforce_host_capacity=False)))
scenario = get_scenario("noisy-neighbor")
runs = []
for seed in json.loads(sys.argv[1]):
    report = simulator.run([InferenceRequest(8, 512, 64)] * 10,
                           arrivals_poisson(10, 0.05, seed=seed),
                           scenario=scenario)
    runs.append([[(s.arrival, s.start, s.finish) for s in report.served],
                 report.stats.as_dict()])
print(json.dumps(runs))
"""


def _as_json(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("workers", [1, 4])
def test_degraded_runs_identical_across_sweep_workers(simulator, workers,
                                                      fresh_interpreter):
    """Seeds 7-10 split across ``workers`` fresh interpreters, each with
    its own hash seed, reproduce fresh in-process runs exactly: fault
    draws depend on nothing an interpreter chooses for itself."""
    seeds = [7, 8, 9, 10]
    size = len(seeds) // workers
    scenario = get_scenario("noisy-neighbor")
    for hash_seed in range(workers):
        chunk = seeds[hash_seed * size:(hash_seed + 1) * size]
        runs = fresh_interpreter(DEGRADED_RUNS, chunk, hash_seed)
        assert len(runs) == len(chunk)
        for seed, (timeline, stats) in zip(chunk, runs):
            reference = simulator.run(
                REQUESTS, arrivals_poisson(len(REQUESTS), 0.05, seed=seed),
                scenario=scenario)
            assert timeline == _as_json(_timeline(reference))
            assert stats == _as_json(reference.stats.as_dict())


def test_degraded_runs_identical_across_repeat_runs(simulator):
    scenario = get_scenario("noisy-neighbor")
    arrivals = arrivals_poisson(len(REQUESTS), 0.05, seed=7)
    report = simulator.run(REQUESTS, arrivals, scenario=scenario)
    # Compare against a reference computed fresh.
    reference = simulator.run(REQUESTS, arrivals, scenario=scenario)
    assert _timeline(report) == _timeline(reference)
    assert report.stats.as_dict() == reference.stats.as_dict()


# ----------------------------------------------------------------------
# Planner and batcher integration
# ----------------------------------------------------------------------
def test_planner_ranks_under_fault_scenario(opt_30b):
    requests = [InferenceRequest(1, 128, 16)] * 4
    choices = choose_system(opt_30b, requests, slo_p95_seconds=1e6,
                            candidates=("spr-a100", "spr-h100"),
                            scenario=get_scenario("pcie-downshift"))
    assert len(choices) == 2
    assert any(c.feasible for c in choices)


def test_repack_under_pressure_passthrough_and_split(opt_30b,
                                                     spr_a100,
                                                     eval_config):
    singles = [InferenceRequest(1, 256, 32) for __ in range(16)]
    batches = pack_requests(singles, opt_30b, spr_a100, eval_config,
                            max_batch=16)
    # Undisturbed platform: the exact same packing comes back.
    assert repack_under_pressure(batches, opt_30b, spr_a100,
                                 eval_config) == batches
    # Shrink host DDR to just under the B=16 footprint, so whole
    # batches overflow but halves still fit.
    from repro.core.estimator import host_memory_usage
    footprint = host_memory_usage(opt_30b, batches[0].request,
                                  spr_a100, eval_config).ddr_bytes
    fraction = 1.0 - 0.999 * footprint / spr_a100.cpu.memory.capacity_bytes
    squeezed = replace(
        spr_a100,
        cpu=replace(spr_a100.cpu,
                    memory=spr_a100.cpu.memory.with_reserved_fraction(
                        fraction)))
    repacked = repack_under_pressure(batches, opt_30b, squeezed,
                                     eval_config)
    assert sum(b.n_members for b in repacked) == 16
    assert max(b.request.batch_size for b in repacked) < max(
        b.request.batch_size for b in batches)
