"""Engine-vs-oracle checks, each written once.

A tier-1 test calls each check at small inputs; a test under ``lanes/``
calls it at full size (``PYTHONPATH=src python -m pytest lanes -q``).
Every check compares bit for bit and fails on the first divergence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.core.estimator import LiaEstimator
from repro.core.optimizer import candidate_scores
from repro.core.terms import layer_terms
from repro.errors import CapacityError
from repro.experiments.frameworks import build_estimator
from repro.experiments.reporting import OOM
from repro.faults.scenarios import builtin_scenarios
from repro.faults.spec import (AdmissionPolicy, FaultEvent, FaultKind,
                               FaultScenario, RetryPolicy)
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import (MultiReplicaSimulator, ScaleOutReport,
                           ServingReport, ServingSimulator, WorkloadVector,
                           arrivals_poisson, replicas_needed, run_fifo)
from repro.serving.simulator import DEFAULT_EXACT_PERCENTILE_LIMIT
from tests.oracles import eq1_scalar, fifo_loop
from tests.oracles.replicas_search import (fleet_size_summary,
                                           replicas_needed_exhaustive)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# ----------------------------------------------------------------------
# Eq. (1)
# ----------------------------------------------------------------------
def check_candidate_scores(spec, stage, batches, lengths, system, config,
                           kv_resident=False, weights_resident=False):
    """Every candidate's prefix-fold score at every point of the
    ``batches`` x ``lengths`` broadcast equals the scalar scan's serial
    layer time as a uint64, not only each point's winner."""
    terms = layer_terms(spec, stage, batches, lengths, system, config,
                        kv_resident=kv_resident)
    scores = candidate_scores(terms, weights_resident)
    points = np.broadcast_arrays(batches, lengths)
    assert scores.shape == (64, *points[0].shape)
    for index in np.ndindex(*points[0].shape):
        batch, length = (int(axis[index]) for axis in points)
        expected = eq1_scalar.candidate_scores(
            spec, stage, batch, length, system, config,
            weights_resident=weights_resident, kv_resident=kv_resident)
        assert np.array_equal(bits(scores[(slice(None), *index)]),
                              bits(expected)), (stage.value, batch, length)


def check_sweep_rows(rows, estimator) -> None:
    """Each ``repro sweep`` row's latency and policies equal the scalar
    LIA stages: requests of different lengths share one batched decode
    table."""
    for row in rows:
        request = InferenceRequest(row["batch_size"], row["input_len"],
                                   row["output_len"])
        prefill, decode, prefill_policy, decode_policy = (
            eq1_scalar.lia_stages(estimator, request))
        assert row["latency_s"] == prefill.time + decode.time, row
        assert row["prefill_policy"] == str(prefill_policy), row
        assert row["decode_policy"] == str(decode_policy), row


def check_figure_rows(rows, metric: str) -> int:
    """Every LIA and FlexGen row of a Fig. 10 (``latency_s``) or Fig. 11
    (``tokens_per_s``) result equals the one-step-at-a-time scalar
    loops; returns how many rows were checked."""
    checked = 0
    for row in rows:
        if row["framework"] not in ("lia", "flexgen"):
            continue
        assert row[metric] is not OOM, row
        estimator = build_estimator(row["framework"],
                                    get_model(row["model"]),
                                    get_system(row["system"]))
        request = InferenceRequest(row.get("batch_size", 1),
                                   row["input_len"], row["output_len"])
        if row["framework"] == "lia":
            prefill, decode = eq1_scalar.lia_stages(estimator, request)[:2]
        else:
            prefill = eq1_scalar.flexgen_prefill(estimator, request)
            decode = eq1_scalar.flexgen_decode(estimator, request)
        latency = prefill.time + decode.time
        expected = (latency if metric == "latency_s"
                    else request.total_generated_tokens / latency)
        assert row[metric] == expected, (row, expected)
        checked += 1
    return checked


# ----------------------------------------------------------------------
# Fleet-size search
# ----------------------------------------------------------------------
def check_capacity_search(estimator, workload, arrivals, slo,
                          dispatch="round-robin") -> Tuple[List[int],
                                                           List[int]]:
    """``replicas_needed`` returns the exhaustive search's fleet size
    and report bit for bit.  It simulates only probed sizes, each once
    and the answer always; under round-robin the backlog bound settles
    some overloaded size.  Returns ``(simulated, probed)``."""
    oracle_k, oracle, probed = replicas_needed_exhaustive(
        estimator, workload, arrivals, slo, dispatch=dispatch)
    with mock.patch.object(MultiReplicaSimulator, "_run", autospec=True,
                           side_effect=MultiReplicaSimulator._run) as run:
        k, report = replicas_needed(estimator, workload, arrivals, slo,
                                    dispatch=dispatch)
    simulated = [call.args[0].n_replicas for call in run.call_args_list]
    assert k == oracle_k
    assert fleet_size_summary(report) == fleet_size_summary(oracle)
    assert report.streaming_percentiles == oracle.streaming_percentiles \
        == (len(arrivals) > DEFAULT_EXACT_PERCENTILE_LIMIT)
    assert set(simulated) <= set(probed)
    assert len(simulated) == len(set(simulated))
    assert k in simulated
    if dispatch == "least-loaded":
        assert simulated == probed
    elif k > 1:
        assert len(simulated) < len(probed)
    return simulated, probed


# ----------------------------------------------------------------------
# The FIFO engine under faults
# ----------------------------------------------------------------------
#: The three-shape mix the degraded parity checks serve.
DEGRADED_SHAPES = (InferenceRequest(8, 512, 64), InferenceRequest(4, 256, 32),
                   InferenceRequest(1, 128, 16))

#: perfbench serve-faults' composite schedule: (kind, start, duration,
#: magnitude), start and duration as fractions of the trace.
COMPOSITE_WINDOWS = (("pcie-downshift", 0.06, 0.20, 0.6),
                     ("gpu-hbm-pressure", 0.22, 0.18, 0.35),
                     ("pcie-stall", 0.33, 0.03, 0.05),
                     ("cxl-contention", 0.55, 0.20, 0.55),
                     ("cpu-preemption", 0.80, 0.10, 0.3))


def composite(horizon: float) -> FaultScenario:
    """The five composite windows over ``horizon`` seconds."""
    return FaultScenario(
        name="composite", seed=7, chunks_per_request=12,
        events=tuple(FaultEvent(FaultKind(kind), start=start * horizon,
                                duration=duration * horizon,
                                magnitude=magnitude)
                     for kind, start, duration, magnitude
                     in COMPOSITE_WINDOWS))


def degraded_presets(horizon: float) -> Dict[str, FaultScenario]:
    """Every built-in fault scenario, plus three admission-bounded ones:
    ``admission-bench`` (the composite windows behind a saturated
    64-deep queue), a tight always-saturated queue, and a deep
    mostly-open one.  They cover the admission engine's rounds and its
    batched attempt-zero probes."""
    retry = RetryPolicy(max_retries=3, timeout_s=0.05, backoff_base_s=0.02,
                        backoff_factor=2.0)
    queue_64 = AdmissionPolicy(max_queue_depth=64, max_deferrals=3)
    bench = composite(horizon)
    return {
        **builtin_scenarios(),
        "admission-bench": FaultScenario(
            name="admission-bench", seed=7, chunks_per_request=12,
            events=bench.events, admission=queue_64),
        "admission-tight": FaultScenario(
            name="admission-tight", seed=7, retry=retry,
            admission=AdmissionPolicy(max_queue_depth=2, max_deferrals=2)),
        "admission-deep": FaultScenario(
            name="admission-deep", seed=8,
            events=(FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.02),
                    FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE, start=60.0,
                               duration=240.0, magnitude=0.3)),
            retry=retry, admission=queue_64),
    }


def assert_parity(loop, vec) -> None:
    """Every bit-comparable surface of a loop-oracle report and an
    engine report (single server, or a whole fleet)."""
    assert isinstance(loop, fifo_loop.LoopReport)
    assert isinstance(vec, ServingReport)
    assert vec.arrivals.tolist() == [r.arrival for r in loop.served]
    assert vec.starts.tolist() == [r.start for r in loop.served]
    assert vec.finishes.tolist() == [r.finish for r in loop.served]
    assert vec.served_index.tolist() == list(loop.served_index)
    assert vec.dropped_index.tolist() == list(loop.dropped_index)
    assert [d.arrival for d in vec.dropped] == \
        [d.arrival for d in loop.dropped]
    assert [d.reason for d in vec.dropped] == \
        [d.reason for d in loop.dropped]
    assert [d.request for d in vec.dropped] == \
        [d.request for d in loop.dropped]
    assert vec.stats.as_dict() == loop.stats.as_dict()
    assert vec.n_offered == loop.n_offered
    assert vec.drop_rate == loop.drop_rate
    assert vec.makespan == loop.makespan
    assert vec.mean_queue_delay == loop.mean_queue_delay
    if loop.served:
        assert vec.utilization == loop.utilization
        for fraction in (0.25, 0.5, 0.95, 0.99, 1.0):
            assert vec.latency_percentile(fraction) == \
                loop.latency_percentile(fraction)


def check_preset_parity(estimator, name: str, n: int, rate: float,
                        seed: int, replicas: int) -> None:
    """Preset ``name`` of :func:`degraded_presets` over ``n`` Poisson
    requests of :data:`DEGRADED_SHAPES`: the per-request loop oracle
    and the piecewise engine agree on every surface, single server and
    ``replicas``-replica fleet."""
    workload = WorkloadVector.sample_mix(DEGRADED_SHAPES, n, seed=seed)
    arrivals = arrivals_poisson(n, rate, seed=seed)
    scenario = degraded_presets(float(arrivals[-1]))[name]
    loop = fifo_loop.run_degraded(ServingSimulator(estimator),
                                  workload.to_requests(), arrivals,
                                  scenario)
    assert_parity(loop, run_fifo(estimator, workload, arrivals, scenario))
    loop_fleet = fifo_loop.run_fleet_loop(ServingSimulator(estimator),
                                          workload, arrivals, scenario,
                                          replicas)
    fleet = MultiReplicaSimulator(estimator, replicas).run(
        workload, arrivals, scenario=scenario)
    assert isinstance(fleet, ScaleOutReport)
    assert_parity(loop_fleet, fleet)


def check_unfit_shape(replicas: int) -> None:
    """opt-175b on spr-a100: a (2048, 2048, 8) batch overflows host
    memory.  Behind a one-deep queue admission would shed it, yet the
    loop oracle, the single server and a ``replicas``-replica fleet
    each refuse the stream with the same one-line error."""
    estimator = LiaEstimator(get_model("opt-175b"), get_system("spr-a100"))
    requests = [InferenceRequest(1, 128, 8), InferenceRequest(2048, 2048, 8)]
    arrivals = [0.0, 0.0]
    scenario = FaultScenario(
        name="capacity",
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=1))
    messages = []
    for run in (
            lambda: fifo_loop.run_degraded(ServingSimulator(estimator),
                                           requests, arrivals, scenario),
            lambda: ServingSimulator(estimator).run(requests, arrivals,
                                                    scenario=scenario),
            lambda: MultiReplicaSimulator(estimator, replicas).run(
                requests, arrivals, scenario=scenario)):
        try:
            run()
        except CapacityError as error:
            messages.append(str(error))
        else:
            raise AssertionError("an unfit shape was served")
    assert messages == [
        "spr-a100: DDR needs 19213.2 GiB but has 512.0 GiB"] * 3
