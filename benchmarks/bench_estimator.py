"""Estimator hot-path benchmark: scalar oracle vs the array-native path.

Measures one OPT-30B/SPR-A100 512-token decode estimate two ways:

* **seed** — the scalar reference of ``tests/oracles/eq1_scalar.py``:
  a 64-candidate Eq. (1) scan per search and a per-step decode loop,
  one policy and one context length at a time.
* **fast** — ``LiaEstimator`` as shipped: every search and every decode
  step from one term table (``repro.core.terms``).

Writes ``BENCH_estimator.json`` with per-repetition wall times, the
average and cold-run speedups, and the seed-vs-fast relative error on
every latency component (the two are bit-identical, so it is 0).  A
second phase builds the continuous scheduler's ``StepProfile`` grid
for the continuous-kv workload (OPT-30B on SPR-A100 with two CXL
expanders, max batch 32) two ways — one ``estimate`` per grid point
vs one ``LiaEstimator.decode_step_times`` call — and records the µs
per grid point of each side (median and IQR after a warm-up) and
whether the two grids are bit-identical.  A third phase times the
full Fig. 9+10+11 grid (398 rows, serial; median and IQR seconds
after a warm-up) and fingerprints its rows.  A fourth races
``sweep_fleet_grid`` in process against its process pool
(:mod:`repro.serving.pool`) on a trace x chaos x fleet-size grid and
compares wall time and summaries.  The acceptance gates tracked by
the repo:

* average estimator speedup >= 10x
* max relative error < 1e-9
* step-profile grid bit-identical to the per-point estimates (every
  machine)
* figure-grid rows fingerprint to the committed
  :data:`FIGURE_GRID_FINGERPRINT` (every machine)
* process-sweep summaries identical in process and over pools of 1,
  2, and 4 workers (every machine)
* the fleet grid >= 3x faster over processes than in process (binds
  only where the run records >= 4 cores — the wall-clock half of the
  gate is meaningless on smaller boxes)

Run: ``PYTHONPATH=src python benchmarks/bench_estimator.py [--quick]``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model

# The seed side is the scalar test oracle, importable from the root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.oracles import eq1_scalar  # noqa: E402

MODEL = "opt-30b"
SYSTEM = "spr-a100"
REQUEST = InferenceRequest(batch_size=1, input_len=256, output_len=512)
REPS = 5

#: The continuous-kv workload's scheduler: request shapes, max batch,
#: and the system with its two CXL expanders.
PROFILE_SHAPES = ((1, 128, 16), (1, 512, 64), (8, 1024, 64),
                  (32, 1024, 32))
PROFILE_MAX_BATCH = 32
PROFILE_CXL_EXPANDERS = 2

#: sha256 of the fig09+10+11 rows (398 of them) as the drivers emit
#: them; any change to a figure value changes it.
FIGURE_GRID_FINGERPRINT = (
    "a0ce57e037a733037dd26f1a008205fc87f7b74e9ee39fcf54f7b6df1400f6a1")

#: The process-sweep fleet grid: trace x chaos x fleet size, each cell
#: a whole fleet simulation of SWEEP_REQUESTS requests.
SWEEP_TRACES = ("steady", "bursty")
SWEEP_CHAOS = ("none", "replica-crash", "gray-failure")
SWEEP_REPLICAS = (2, 4, 8, 16)
SWEEP_REQUESTS = 40_000
SWEEP_SHAPES = ((1, 128, 16), (1, 256, 32), (1, 512, 32))

#: The fleet grid must beat the in-process baseline by this much on a
#: machine with >= PROCESS_SWEEP_MIN_CORES cores.
PROCESS_SWEEP_SPEEDUP_MIN = 3.0
PROCESS_SWEEP_MIN_CORES = 4


def _time_stages(stages: Callable[[], Tuple], reps: int) -> Dict[str, object]:
    """Wall times of ``reps`` ``(prefill, decode)`` evaluations."""
    times: List[float] = []
    result: Tuple = ()
    for __ in range(reps):
        start = time.perf_counter()
        result = stages()
        times.append(time.perf_counter() - start)
    return {"times_s": times, "mean_s": statistics.mean(times),
            "cold_s": times[0], "stages": result[:2],
            "latency_s": result[0].time + result[1].time}


def relative_error(seed, fast) -> float:
    """Max relative error across total/prefill/decode latency fields
    of two ``(prefill, decode)`` pairs."""
    worst = 0.0
    (seed_prefill, seed_decode), (prefill, decode) = seed, fast
    for mine, theirs in [
            (seed_prefill.time + seed_decode.time,
             prefill.time + decode.time),
            (seed_prefill.time, prefill.time),
            (seed_decode.time, decode.time),
            (seed_decode.cpu_compute, decode.cpu_compute),
            (seed_decode.gpu_compute, decode.gpu_compute),
            (seed_decode.transfer, decode.transfer)]:
        scale = max(abs(mine), abs(theirs), 1e-30)
        worst = max(worst, abs(mine - theirs) / scale)
    return worst


def _figure_rows() -> Tuple[int, str]:
    """Regenerate the full fig09+10+11 grids: row count and a sha256
    fingerprint of every row."""
    from repro.experiments import (fig09_policy_map, fig10_online_latency,
                                   fig11_offline_throughput)
    results = [fig09_policy_map.run(), fig10_online_latency.run(),
               fig11_offline_throughput.run()]
    payload = json.dumps([r.rows for r in results], sort_keys=True,
                         default=repr).encode()
    return (sum(len(r.rows) for r in results),
            hashlib.sha256(payload).hexdigest())


def figure_grid_phase(reps: int) -> Dict[str, object]:
    """Serial fig09+10+11 regeneration: one warm-up, then ``reps``
    timed runs (median and IQR seconds), fingerprint-gated against
    :data:`FIGURE_GRID_FINGERPRINT`."""
    rows, fingerprint = _figure_rows()  # warm-up
    times: List[float] = []
    for __ in range(reps):
        start = time.perf_counter()
        _figure_rows()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"rows": rows, "reps": reps, "times_s": times,
            "median_s": median, "iqr_s": q3 - q1,
            "fingerprint": fingerprint,
            "identical": fingerprint == FIGURE_GRID_FINGERPRINT}


def _fleet_grid(processes: int) -> Dict[str, object]:
    """One timed ``sweep_fleet_grid`` over the benchmark grid."""
    from repro.serving.fleet import sweep_fleet_grid

    estimator = LiaEstimator(get_model(MODEL), get_system(SYSTEM),
                             LiaConfig(enforce_host_capacity=False))
    start = time.perf_counter()
    cells = sweep_fleet_grid(
        estimator, SWEEP_TRACES, SWEEP_CHAOS, SWEEP_REPLICAS,
        shapes=[InferenceRequest(*shape) for shape in SWEEP_SHAPES],
        n_requests=SWEEP_REQUESTS, processes=processes)
    elapsed = time.perf_counter() - start
    payload = json.dumps(cells, sort_keys=True).encode()
    return {"seconds": elapsed, "cells": len(cells),
            "fingerprint": hashlib.sha256(payload).hexdigest()}


def process_sweep_phase() -> Dict[str, object]:
    """In-process vs process-pool ``sweep_fleet_grid``.

    Times the in-process baseline and a pool of ``min(4, cpu_count)``
    worker processes (pool spawned fresh inside the timed region, so
    the speedup honestly pays the spawn cost), then re-runs the grid
    at the other pool sizes in {1, 2, 4} to check that every pool
    size produces identical summaries.
    """
    from repro.serving.pool import shutdown_pools
    cpu = os.cpu_count() or 1
    measured = min(PROCESS_SWEEP_MIN_CORES, max(1, cpu))
    shutdown_pools()
    serial = _fleet_grid(0)
    process = _fleet_grid(measured)
    fingerprints = {"serial": serial["fingerprint"],
                    f"processes_{measured}": process["fingerprint"]}
    for size in (1, 2, PROCESS_SWEEP_MIN_CORES):
        key = f"processes_{size}"
        if key not in fingerprints:
            fingerprints[key] = _fleet_grid(size)["fingerprint"]
    shutdown_pools()
    return {
        "grid": {"traces": list(SWEEP_TRACES), "chaos": list(SWEEP_CHAOS),
                 "replicas": list(SWEEP_REPLICAS),
                 "requests_per_cell": SWEEP_REQUESTS},
        "cpu_count": cpu,
        "processes": measured,
        "cells": serial["cells"],
        "serial_s": serial["seconds"],
        "process_s": process["seconds"],
        "speedup": serial["seconds"] / process["seconds"],
        "identical": len(set(fingerprints.values())) == 1,
        "fingerprints": fingerprints,
        # The wall-clock floor only means something when the pool can
        # actually fan out; identity binds everywhere.
        "speedup_gate_binds": cpu >= PROCESS_SWEEP_MIN_CORES,
    }


def _quartiles_us(times: List[float], points: int) -> Dict[str, float]:
    """Median and IQR of per-repetition wall times, in µs per point."""
    q1, median, q3 = statistics.quantiles(
        [t / points * 1e6 for t in times], n=4, method="inclusive")
    return {"median_us_per_point": median, "iqr_us_per_point": q3 - q1}


def step_profile_phase(reps: int) -> Dict[str, object]:
    """The continuous-kv ``StepProfile`` grid: per-point ``estimate``
    calls vs one ``decode_step_times`` table.

    Both sides run once untimed (warm-up), then ``reps`` timed times
    each, alternating.
    """
    from repro.serving.scheduler import SchedulerConfig, StepProfile

    estimator = LiaEstimator(
        get_model(MODEL),
        get_system(SYSTEM).with_cxl(n_expanders=PROFILE_CXL_EXPANDERS),
        LiaConfig(enforce_host_capacity=False))
    profile = StepProfile.for_workload(
        estimator, [InferenceRequest(*shape) for shape in PROFILE_SHAPES],
        SchedulerConfig(max_batch_requests=PROFILE_MAX_BATCH))
    batches, contexts = profile.batch_sizes, profile.context_lens
    points = len(batches) * len(contexts)

    def per_point() -> List[List[float]]:
        return [[estimator.estimate(InferenceRequest(b, c, 1)).decode.time
                 for c in contexts] for b in batches]

    def grid() -> List[List[float]]:
        return estimator.decode_step_times(batches, contexts).tolist()

    sides = {"per_point": per_point, "grid": grid}
    times: Dict[str, List[float]] = {name: [] for name in sides}
    results = {name: fn() for name, fn in sides.items()}  # warm-up
    for __ in range(reps):
        for name, fn in sides.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    per_point_cost = _quartiles_us(times["per_point"], points)
    grid_cost = _quartiles_us(times["grid"], points)
    return {
        "grid": {"batch_sizes": batches, "context_lens": contexts,
                 "points": points},
        "reps": reps,
        "per_point": per_point_cost,
        "grid_table": grid_cost,
        "speedup_median": (per_point_cost["median_us_per_point"]
                           / grid_cost["median_us_per_point"]),
        "identical": results["per_point"] == results["grid"],
    }


def run(reps: int = REPS, quick: bool = False) -> Dict[str, object]:
    spec = get_model(MODEL)
    system = get_system(SYSTEM)

    estimator = LiaEstimator(spec, system,
                             LiaConfig(enforce_host_capacity=False))

    def fast_stages() -> Tuple:
        estimate = estimator.estimate(REQUEST)
        return estimate.prefill, estimate.decode

    seed = _time_stages(lambda: eq1_scalar.lia_stages(estimator, REQUEST),
                        reps)
    fast = _time_stages(fast_stages, reps)

    error = relative_error(seed["stages"], fast["stages"])
    step_profile = step_profile_phase(reps=5 if quick else 15)
    figure_grid = figure_grid_phase(reps=3 if quick else 7)
    process_sweep = process_sweep_phase()
    speedup_ok = (not process_sweep["speedup_gate_binds"]
                  or process_sweep["speedup"] >= PROCESS_SWEEP_SPEEDUP_MIN)
    report = {
        "benchmark": "bench_estimator",
        "model": MODEL,
        "system": SYSTEM,
        "request": {"batch_size": REQUEST.batch_size,
                    "input_len": REQUEST.input_len,
                    "output_len": REQUEST.output_len},
        "reps": reps,
        "seed": {"config": "scalar oracle (tests/oracles/eq1_scalar.py)",
                 "times_s": seed["times_s"],
                 "mean_s": seed["mean_s"],
                 "latency_s": seed["latency_s"]},
        "fast": {"config": "term-table estimator",
                 "times_s": fast["times_s"],
                 "mean_s": fast["mean_s"],
                 "cold_s": fast["cold_s"],
                 "latency_s": fast["latency_s"]},
        "speedup_mean": seed["mean_s"] / fast["mean_s"],
        "speedup_cold": seed["cold_s"] / fast["cold_s"],
        "max_relative_error": error,
        "step_profile": step_profile,
        "figure_grid": figure_grid,
        "process_sweep": process_sweep,
        "gates": {"speedup_mean_min": None if quick else 10.0,
                  "max_relative_error_max": 1e-9,
                  "figure_grid_fingerprint": FIGURE_GRID_FINGERPRINT,
                  "process_sweep_speedup_min": PROCESS_SWEEP_SPEEDUP_MIN,
                  "process_sweep_min_cores": PROCESS_SWEEP_MIN_CORES},
        # Quick mode (CI smoke) gates only on correctness: with 2
        # repetitions the cold run dominates the mean, and shared CI
        # machines make wall-clock gates flaky.  The full run holds
        # the amortized speedup to the 10x floor.  Process-sweep
        # and step-profile bit-identity are correctness gates and bind
        # in every mode; the process-sweep speedup floor binds whenever
        # the machine has enough cores for the pool to fan out (quick
        # included).
        "pass": (error < 1e-9
                 and step_profile["identical"]
                 and process_sweep["identical"]
                 and speedup_ok
                 and (quick
                      or seed["mean_s"] / fast["mean_s"] >= 10.0)),
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_estimator.json")
    parser.add_argument("--quick", action="store_true",
                        help="2 repetitions instead of 5 (CI smoke)")
    args = parser.parse_args()
    report = run(reps=2 if args.quick else REPS, quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"seed mean {report['seed']['mean_s'] * 1e3:.1f} ms, "
          f"fast mean {report['fast']['mean_s'] * 1e3:.1f} ms "
          f"(cold {report['fast']['cold_s'] * 1e3:.1f} ms)")
    print(f"speedup: {report['speedup_mean']:.1f}x mean, "
          f"{report['speedup_cold']:.1f}x cold; max rel error "
          f"{report['max_relative_error']:.2e}")
    profile = report["step_profile"]
    print(f"step profile: {profile['grid']['points']} points, per-point "
          f"{profile['per_point']['median_us_per_point']:.0f} us/point vs "
          f"grid {profile['grid_table']['median_us_per_point']:.1f} "
          f"us/point (medians); identical={profile['identical']}")
    figures = report["figure_grid"]
    print(f"figure grid: {figures['rows']} rows, median "
          f"{figures['median_s']:.3f}s (IQR {figures['iqr_s']:.3f}s); "
          f"identical={figures['identical']}")
    sweep = report["process_sweep"]
    binds = "binds" if sweep["speedup_gate_binds"] else \
        f"advisory on {sweep['cpu_count']} core(s)"
    print(f"process sweep: {sweep['cells']} fleet cells, in process "
          f"{sweep['serial_s']:.2f}s vs {sweep['processes']} "
          f"processes {sweep['process_s']:.2f}s = "
          f"{sweep['speedup']:.2f}x ({binds}); "
          f"identical={sweep['identical']}")
    print(f"wrote {args.out} (pass={report['pass']})")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
