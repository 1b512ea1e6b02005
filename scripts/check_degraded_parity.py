#!/usr/bin/env python3
"""Loop-oracle-vs-engine bit-identity sweep over every built-in preset.

CI runs this after the unit suite as a larger-n backstop: for each
scenario in :func:`repro.faults.scenarios.builtin_scenarios` plus the
admission-bounded presets below (a tight always-saturated queue, a
deep mostly-open one, and perfbench serve-faults' five-window composite
schedule behind a saturated 64-deep queue, so the batched
attempt-zero probes of speculative blocks and the admission rounds
of a full queue both see thousands of requests), serve the same
Poisson workload through the per-request loop oracle of
``tests/oracles/fifo_loop.py`` and the piecewise-Lindley engine —
single server and a 4-replica fleet — and fail (exit 1) on the first
surface that is not bit-identical: timelines, served/dropped index
maps, drop reasons, :class:`FaultStats`, and the derived statistics
(percentiles, queue delay, utilization).

A last case puts a shape too large for the healthy platform behind
admission control that would shed it: the loop oracle, the single
server and the fleet must each raise the same one-line
:class:`~repro.errors.CapacityError` before serving anything.

The unit tests in ``tests/serving/test_piecewise.py`` pin the same
contract at small n; this sweep runs thousands of requests per preset
so segment-boundary and backlog-carry paths that only open up under
sustained load stay covered without slowing the tier-1 suite.

Usage::

    PYTHONPATH=src python scripts/check_degraded_parity.py \
        [--requests 2000] [--rate 2.0] [--replicas 4]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

# The loop oracle lives in the test tree, importable from the root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import fifo_loop  # noqa: E402

MODEL = "opt-30b"
SYSTEM = "spr-a100"


#: perfbench serve-faults' composite schedule: (kind, start, duration,
#: magnitude) with start and duration as fractions of the trace.
COMPOSITE_WINDOWS = (("pcie-downshift", 0.06, 0.20, 0.6),
                     ("gpu-hbm-pressure", 0.22, 0.18, 0.35),
                     ("pcie-stall", 0.33, 0.03, 0.05),
                     ("cxl-contention", 0.55, 0.20, 0.55),
                     ("cpu-preemption", 0.80, 0.10, 0.3))


def _admission_presets(horizon: float):
    """Admission-bounded sweep presets (not builtin scenarios): a
    tight queue that saturates at the sweep's arrival rate, a deep
    one that stays mostly open, and ``admission-bench`` — the five
    composite windows over ``horizon`` seconds behind
    ``AdmissionPolicy(64, 3)``, which the default rate saturates.
    They cover the admission engine's rounds and its batched-probe
    blocks."""
    from repro.faults.spec import (AdmissionPolicy, FaultEvent,
                                   FaultKind, FaultScenario,
                                   RetryPolicy)

    return {
        "admission-bench": FaultScenario(
            name="admission-bench", seed=7, chunks_per_request=12,
            events=tuple(FaultEvent(FaultKind(kind),
                                    start=start * horizon,
                                    duration=duration * horizon,
                                    magnitude=magnitude)
                         for kind, start, duration, magnitude
                         in COMPOSITE_WINDOWS),
            admission=AdmissionPolicy(max_queue_depth=64,
                                      max_deferrals=3)),
        "admission-tight": FaultScenario(
            name="admission-tight", seed=7,
            admission=AdmissionPolicy(max_queue_depth=2,
                                      max_deferrals=2),
            retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                              backoff_base_s=0.02,
                              backoff_factor=2.0)),
        "admission-deep": FaultScenario(
            name="admission-deep", seed=8,
            events=(
                FaultEvent(kind=FaultKind.PCIE_STALL, magnitude=0.02),
                FaultEvent(kind=FaultKind.GPU_HBM_PRESSURE,
                           start=60.0, duration=240.0, magnitude=0.3),
            ),
            retry=RetryPolicy(max_retries=3, timeout_s=0.05,
                              backoff_base_s=0.02,
                              backoff_factor=2.0),
            admission=AdmissionPolicy(max_queue_depth=64,
                                      max_deferrals=3)),
    }


def _mismatches(label: str, loop, vec) -> List[str]:
    """Bit-compare every surface of a loop report and an engine
    report (single server, or a whole fleet)."""
    problems: List[str] = []

    def check(surface: str, ok: bool) -> None:
        if not ok:
            problems.append(f"{label}: {surface} diverged")

    check("arrivals", vec.arrivals.tolist()
          == [r.arrival for r in loop.served])
    check("starts", vec.starts.tolist()
          == [r.start for r in loop.served])
    check("finishes", vec.finishes.tolist()
          == [r.finish for r in loop.served])
    check("served_index", vec.served_index.tolist()
          == list(loop.served_index))
    check("dropped_index", vec.dropped_index.tolist()
          == list(loop.dropped_index))
    check("drop reasons", [d.reason for d in vec.dropped]
          == [d.reason for d in loop.dropped])
    check("fault stats", vec.stats.as_dict() == loop.stats.as_dict())
    check("drop_rate", vec.drop_rate == loop.drop_rate)
    check("makespan", vec.makespan == loop.makespan)
    check("mean_queue_delay",
          vec.mean_queue_delay == loop.mean_queue_delay)
    if loop.served:
        check("utilization", vec.utilization == loop.utilization)
        for fraction in (0.5, 0.95, 0.99, 1.0):
            check(f"p{int(fraction * 100)}",
                  vec.latency_percentile(fraction)
                  == loop.latency_percentile(fraction))
    return problems


def _capacity_problems(replicas: int) -> List[str]:
    """opt-175b on spr-a100: a (2048, 2048, 8) batch overflows host
    memory.  Behind a one-deep queue it would be shed, yet every engine
    must refuse the stream with the oracle's error."""
    from repro.core.estimator import LiaEstimator
    from repro.errors import CapacityError
    from repro.faults.spec import AdmissionPolicy, FaultScenario
    from repro.hardware.system import get_system
    from repro.models.workload import InferenceRequest
    from repro.models.zoo import get_model
    from repro.serving import MultiReplicaSimulator, ServingSimulator

    estimator = LiaEstimator(get_model("opt-175b"), get_system(SYSTEM))
    requests = [InferenceRequest(1, 128, 8),
                InferenceRequest(2048, 2048, 8)]
    arrivals = [0.0, 0.0]
    scenario = FaultScenario(
        name="capacity",
        admission=AdmissionPolicy(max_queue_depth=1, max_deferrals=1))
    runs = {
        "loop oracle": lambda: fifo_loop.run_degraded(
            ServingSimulator(estimator), requests, arrivals, scenario),
        "single server": lambda: ServingSimulator(estimator).run(
            requests, arrivals, scenario=scenario),
        f"{replicas}-replica fleet": lambda: MultiReplicaSimulator(
            estimator, replicas).run(requests, arrivals,
                                     scenario=scenario),
    }
    messages = {}
    for label, run in runs.items():
        try:
            run()
            messages[label] = "no CapacityError"
        except CapacityError as error:
            messages[label] = str(error)
    expected = messages["loop oracle"]
    problems = [f"capacity: {label} answered {message!r}, the loop "
                f"oracle {expected!r}"
                for label, message in messages.items()
                if message != expected]
    if expected == "no CapacityError":
        problems.append("capacity: the loop oracle served the stream")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--rate", type=float, default=2.0,
                        help="Poisson arrival rate (req/s)")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    from repro.core.config import LiaConfig
    from repro.core.estimator import LiaEstimator
    from repro.faults.scenarios import builtin_scenarios
    from repro.hardware.system import get_system
    from repro.models.workload import InferenceRequest
    from repro.models.zoo import get_model
    from repro.serving import (MultiReplicaSimulator, ServingSimulator,
                               WorkloadVector, arrivals_poisson, run_fifo)

    config = LiaConfig(enforce_host_capacity=False)
    estimator = LiaEstimator(get_model(MODEL), get_system(SYSTEM),
                             config)
    shapes = [InferenceRequest(8, 512, 64), InferenceRequest(4, 256, 32),
              InferenceRequest(1, 128, 16)]
    workload = WorkloadVector.sample_mix(shapes, args.requests,
                                         seed=args.seed)
    arrivals = arrivals_poisson(args.requests, args.rate,
                                seed=args.seed)
    requests = workload.to_requests()

    scenarios = {**builtin_scenarios(),
                 **_admission_presets(float(arrivals[-1]))}
    failures: List[str] = []
    for name, scenario in sorted(scenarios.items()):
        started = time.perf_counter()
        loop = fifo_loop.run_degraded(ServingSimulator(estimator),
                                      requests, arrivals, scenario)
        vec = run_fifo(estimator, workload, arrivals, scenario)
        problems = _mismatches(name, loop, vec)

        loop_fleet = fifo_loop.run_fleet_loop(
            ServingSimulator(estimator), workload, arrivals, scenario,
            args.replicas)
        vec_fleet = MultiReplicaSimulator(estimator, args.replicas).run(
            workload, arrivals, scenario=scenario)
        problems += _mismatches(f"{name} (k={args.replicas})",
                                loop_fleet, vec_fleet)

        elapsed = time.perf_counter() - started
        if problems:
            failures.extend(problems)
            print(f"FAIL {name}: {len(problems)} divergent surface(s)",
                  file=sys.stderr)
        else:
            print(f"ok   {name}: {args.requests} requests, "
                  f"{len(loop.dropped)} dropped, single + "
                  f"{args.replicas}-replica bit-identical "
                  f"({elapsed:.1f}s)")
    capacity = _capacity_problems(args.replicas)
    if capacity:
        failures.extend(capacity)
        print(f"FAIL capacity: {len(capacity)} divergent engine(s)",
              file=sys.stderr)
    else:
        print("ok   capacity: oracle, single server and "
              f"{args.replicas}-replica fleet raise the same error")
    if failures:
        for message in failures:
            print(f"FAIL {message}", file=sys.stderr)
        return 1
    print(f"ok   all {len(scenarios)} presets bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
