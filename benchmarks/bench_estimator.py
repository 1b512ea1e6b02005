"""Estimator hot-path benchmark: scalar oracle vs the array-native path.

Measures one OPT-30B/SPR-A100 512-token decode estimate two ways:

* **seed** — the scalar reference of ``tests/oracles/eq1_scalar.py``:
  a 64-candidate Eq. (1) scan per search and a per-step decode loop,
  one policy and one context length at a time, with no caches.
* **fast** — ``LiaEstimator`` as shipped: every search and every decode
  step from one term table (``repro.core.terms``), with the Eq. (1)
  policy cache (``cache_enabled=True``).

Writes ``BENCH_estimator.json`` with per-repetition wall times, the
average and cold-run speedups, and the seed-vs-fast relative error on
every latency component (the two are bit-identical, so it is 0).  A
second phase regenerates the full Fig. 9+10+11 grids over the thread
pool and over the ``REPRO_SWEEP_PROCESSES`` process pool and compares
wall time and row fingerprints.  A third phase builds the continuous
scheduler's ``StepProfile`` grid for the continuous-kv workload
(OPT-30B on SPR-A100 with two CXL expanders, max batch 32) two ways —
one ``estimate`` per grid point vs one
``LiaEstimator.decode_step_times`` call — and records the
µs per grid point of each side (median and IQR after a warm-up) and
whether the two grids are bit-identical.  The acceptance gates
tracked by the repo:

* average estimator speedup >= 10x
* max relative error < 1e-9
* process-sweep rows bit-identical across the thread path and
  process pools of 1, 2, and 4 workers (every machine)
* step-profile grid bit-identical to the per-point estimates (every
  machine)
* full-grid regeneration >= 3x faster over processes than the
  thread-pool baseline (binds only where the run records >= 4 cores
  — the wall-clock half of the gate is meaningless on smaller boxes)

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

from repro.core.cache import cache_stats, clear_caches
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

#: Full-grid regeneration must beat the thread baseline by this much
#: on a machine with >= PROCESS_SWEEP_MIN_CORES cores.
PROCESS_SWEEP_SPEEDUP_MIN = 3.0
PROCESS_SWEEP_MIN_CORES = 4


def _time_stages(stages: Callable[[], Tuple], reps: int) -> Dict[str, object]:
    """Wall times of ``reps`` cold-cache-first ``(prefill, decode)``
    evaluations."""
    clear_caches()
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


def _regen_fig_grids(processes: int) -> Dict[str, object]:
    """Regenerate the full fig09+10+11 grids from cold caches.

    Returns the wall time and a sha256 fingerprint of every row, so
    callers can compare both speed and bit-identity across executors.
    ``processes=0`` is the thread-pool baseline.
    """
    from repro.experiments import (fig09_policy_map, fig10_online_latency,
                                   fig11_offline_throughput)
    clear_caches()
    start = time.perf_counter()
    results = [fig09_policy_map.run(processes=processes),
               fig10_online_latency.run(processes=processes),
               fig11_offline_throughput.run(processes=processes)]
    elapsed = time.perf_counter() - start
    payload = json.dumps([r.rows for r in results], sort_keys=True,
                         default=repr).encode()
    return {"seconds": elapsed, "rows": sum(len(r.rows) for r in results),
            "fingerprint": hashlib.sha256(payload).hexdigest()}


def process_sweep_phase() -> Dict[str, object]:
    """Thread-pool vs process-pool full-grid regeneration.

    Times the thread baseline and a pool of ``min(4, cpu_count)``
    worker processes (pool spawned fresh inside the timed region, so
    the speedup honestly pays the spawn cost), then re-runs the grids
    at the other pool sizes in {1, 2, 4} to check that every executor
    produces bit-identical rows.
    """
    from repro.experiments.parallel import shutdown_pools
    cpu = os.cpu_count() or 1
    measured = min(PROCESS_SWEEP_MIN_CORES, max(1, cpu))
    shutdown_pools()
    threads = _regen_fig_grids(0)
    process = _regen_fig_grids(measured)
    fingerprints = {"threads": threads["fingerprint"],
                    f"processes_{measured}": process["fingerprint"]}
    for size in (1, 2, PROCESS_SWEEP_MIN_CORES):
        key = f"processes_{size}"
        if key not in fingerprints:
            fingerprints[key] = _regen_fig_grids(size)["fingerprint"]
    shutdown_pools()
    speedup = threads["seconds"] / process["seconds"]
    return {
        "cpu_count": cpu,
        "processes": measured,
        "rows": threads["rows"],
        "thread_baseline_s": threads["seconds"],
        "process_s": process["seconds"],
        "speedup": speedup,
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
    stats = cache_stats()

    error = relative_error(seed["stages"], fast["stages"])
    step_profile = step_profile_phase(reps=5 if quick else 15)
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
        "seed": {"config": "scalar oracle (tests/oracles/eq1_scalar.py), "
                           "no caches",
                 "times_s": seed["times_s"],
                 "mean_s": seed["mean_s"],
                 "latency_s": seed["latency_s"]},
        "fast": {"config": "term-table estimator, cache_enabled=True",
                 "times_s": fast["times_s"],
                 "mean_s": fast["mean_s"],
                 "cold_s": fast["cold_s"],
                 "latency_s": fast["latency_s"],
                 "cache_stats": stats},
        "speedup_mean": seed["mean_s"] / fast["mean_s"],
        "speedup_cold": seed["cold_s"] / fast["cold_s"],
        "max_relative_error": error,
        "step_profile": step_profile,
        "process_sweep": process_sweep,
        "gates": {"speedup_mean_min": None if quick else 10.0,
                  "max_relative_error_max": 1e-9,
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
    sweep = report["process_sweep"]
    binds = "binds" if sweep["speedup_gate_binds"] else \
        f"advisory on {sweep['cpu_count']} core(s)"
    print(f"process sweep: {sweep['rows']} rows, threads "
          f"{sweep['thread_baseline_s']:.2f}s vs {sweep['processes']} "
          f"processes {sweep['process_s']:.2f}s = "
          f"{sweep['speedup']:.2f}x ({binds}); "
          f"identical={sweep['identical']}")
    print(f"wrote {args.out} (pass={report['pass']})")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
