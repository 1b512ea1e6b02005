#!/usr/bin/env python3
"""The repository benchmark: host-time cost of cold workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid --seed 0 \
        --seconds 20 --trace 0

Workloads: paper-grid, capacity-plan, serve-faults, continuous-kv (see
perfbench/README.md).  The run builds the workload's inputs from
``--seed``, then repeats its cycle of cold calls into the program for
``--seconds`` seconds, one call after another in one process, while
a calibration kernel samples the host's speed (``calibration.py``);
throughput is reported scaled to the reference host's speed.  Every
call's output is checked: against the stored reference at the default
seed, against invariants under any seed, and against the first cycle's
output in later cycles.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` each call also runs a second time with spans around
the program's layer boundaries, and the last line reports the
per-layer metrics.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details, the
run manifest and (traced) a Chrome trace are written to perfbench/out/.
"""

from __future__ import annotations

import os

#: Serial, single-threaded runs: the sweep runner's thread and process
#: pools and the BLAS pools stay off.  Set before numpy is imported.
PINNED_ENV = {
    "REPRO_SWEEP_WORKERS": "0",
    "REPRO_SWEEP_PROCESSES": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
VALIDATE_TRACE = ROOT / "scripts" / "validate_trace.py"

DEFAULT_SEED = 0
#: Set-up is measured this many times per run (this process plus
#: fresh interpreters) and reported as the median.
SETUP_SAMPLES = 5
#: Relative tolerance for floats compared with the reference, as in
#: ``repro.experiments.goldens``.
REL_TOL = 1e-9
#: Counters that are maxima over calls rather than sums.
PEAK_COUNTERS = ("residency.peak_bytes.hbm", "residency.peak_bytes.ddr",
                 "residency.peak_bytes.cxl")


# ----------------------------------------------------------------------
# Output comparison
# ----------------------------------------------------------------------
def mismatches(got: Any, want: Any, path: str = "") -> List[str]:
    """Paths where ``got`` differs from ``want``: floats at relative
    tolerance :data:`REL_TOL`, ints, strings and structure exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        found: List[str] = []
        for key in want:
            found += mismatches(got[key], want[key], f"{path}/{key}")
        return found
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path or "/"]
        found = []
        for index, (g, w) in enumerate(zip(got, want)):
            found += mismatches(g, w, f"{path}[{index}]")
        return found
    if isinstance(want, float) or isinstance(got, float):
        if (isinstance(got, bool) or isinstance(want, bool)
                or not isinstance(got, (int, float))
                or not isinstance(want, (int, float))):
            return [path]
        if math.isnan(want) and math.isnan(got):
            return []
        return ([] if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
                else [path])
    return [] if got == want and type(got) is type(want) else [path]


class Checker:
    """Counts checked calls and failures.

    A checked call is one figure row for row workloads and one call
    otherwise.  It fails when the program raised, broke an invariant,
    or disagreed with the reference or with the first cycle's output.
    """

    def __init__(self, reference: Dict[str, Any], row_outputs: bool) -> None:
        self.reference = reference
        self.row_outputs = row_outputs
        self.first: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def error(self, kind: str, error: BaseException) -> None:
        units = len(self.reference.get(kind, ())) if self.row_outputs else 1
        units = max(units, 1)
        self.attempted += units
        self.failed += units
        self._note(f"{kind}: raised {type(error).__name__}: {error}")

    def record(self, kind: str, outputs: Any, problems: List[str]) -> None:
        expected = [self.reference[kind]] if kind in self.reference else []
        if kind in self.first:
            expected.append(self.first[kind])
        else:
            self.first[kind] = outputs
        for problem in problems:
            self._note(f"{kind}: {problem}")
        if not self.row_outputs:
            bad = [m for want in expected for m in mismatches(outputs, want)]
            self.attempted += 1
            if problems or bad:
                self.failed += 1
            if bad:
                self._note(f"{kind}: output differs at {bad[:3]}")
            return
        rows = outputs
        self.attempted += max(len(rows), *(len(w) for w in expected), 0)
        failed_rows = set()
        for want in expected:
            for index in range(max(len(rows), len(want))):
                if (index >= len(rows) or index >= len(want)
                        or mismatches(rows[index], want[index])):
                    failed_rows.add(index)
        if problems:
            failed_rows.update(range(len(rows)))
        if failed_rows:
            self.failed += len(failed_rows)
            self._note(f"{kind}: {len(failed_rows)} rows differ, first "
                       f"at row {min(failed_rows)}")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
class Samples:
    """Per-kind (ops, seconds) samples of one side (traced or not)."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, List[Tuple[int, float]]] = defaultdict(list)

    def add(self, kind: str, ops: int, seconds: float) -> None:
        self.by_kind[kind].append((ops, seconds))

    def ops_per_s(self) -> float:
        """One cycle's ops over one cycle's time, each call kind
        represented by its median, so a run that stops mid-cycle
        weighs every kind alike."""
        ops = sum(statistics.median(o for o, _ in samples)
                  for samples in self.by_kind.values())
        seconds = sum(statistics.median(s for _, s in samples)
                      for samples in self.by_kind.values())
        return ops / seconds if seconds > 0 else 0.0

    def counts(self) -> Dict[str, int]:
        return {kind: len(samples) for kind, samples in self.by_kind.items()}


def timed_call(call, checker: Checker, samples: Samples,
               tracer=None, sampler=None) -> Optional[Any]:
    """Run one cold call, time it, check its output; returns the
    outputs, or ``None`` when the program raised.  The time an armed
    calibration ``sampler`` takes during the call is not the call's."""
    import tracing
    import workloads

    workloads.cold_reset()
    installation = None
    if tracer is not None:
        installation = tracing.install(tracer)
    try:
        spent = sampler.spent_s if sampler is not None else 0.0
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span(f"call.{call.kind}"):
                result = call.run()
        else:
            result = call.run()
        elapsed = time.perf_counter() - start
        if sampler is not None:
            elapsed -= sampler.spent_s - spent
        if tracer is not None:  # the call's own cache counters
            tracer.cache_rows = workloads.cache_rows()
    except Exception as error:  # the program failed: count it, go on
        checker.error(call.kind, error)
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if installation is not None:
            installation.remove()
            workloads.cold_reset()  # drop closures built on wrappers
            tracer.missing = installation.missing
    try:
        ops, outputs, problems = call.check(result)
    except Exception as error:  # malformed result: a failed call
        checker.error(call.kind, error)
        traceback.print_exc(file=sys.stderr)
        return None
    checker.record(call.kind, outputs, problems)
    samples.add(call.kind, ops, elapsed)
    return outputs


def measure(calls, seconds: float, trace: bool, checker: Checker):
    """Closed loop, one caller: repeat the cycle until ``seconds`` have
    passed and every call kind has run at least once, with the host's
    speed sampled throughout (except during traced calls)."""
    import calibration
    import tracing

    untraced, traced = Samples(), Samples()
    sampler = calibration.Sampler()
    layer_calls: List[Tuple[str, Any, Any]] = []
    origin = time.perf_counter()
    kinds = {call.kind for call in calls}
    tried = set()
    with sampler:
        while True:
            for call in calls:
                timed_call(call, checker, untraced, sampler=sampler)
                if trace:
                    tracer = tracing.Tracer(origin)
                    with sampler.paused():
                        outputs = timed_call(call, checker, traced, tracer)
                    if outputs is not None:
                        layer_calls.append((call.kind, tracer, outputs))
                tried.add(call.kind)
                if (time.perf_counter() - origin >= seconds
                        and tried == kinds):
                    # A run of calls shorter than the interval has no
                    # sample yet.
                    return (untraced, traced, layer_calls,
                            sampler.samples or [calibration.sample()])


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
#: name -> unit, in report order; BENCHMARK.json lists the same names.
PER_LAYER = {
    "latency.layer_latency.calls": "count",
    "latency.layer_latency.busy_s": "s",
    "sublayers.sublayer_cost.calls": "count",
    "optimizer.optimal_policy.calls": "count",
    "optimizer.optimal_policy.busy_s": "s",
    "optimizer.optimal_policy.us_per_call": "us",
    "optimizer.optimal_policy.distinct_ratio": "ratio",
    "estimator.estimate.calls": "count",
    "estimator.estimate.busy_s": "s",
    "estimator.estimate.p50_us": "us",
    "cache.layer_latency.hit_ratio": "ratio",
    "cache.optimal_policy.hit_ratio": "ratio",
    "cache.estimate.hit_ratio": "ratio",
    "cache.stall_outcome.hit_ratio": "ratio",
    "baselines.estimate.calls": "count",
    "baselines.estimate.busy_s": "s",
    "experiments.fig09.busy_s": "s",
    "experiments.fig10.busy_s": "s",
    "experiments.fig11.busy_s": "s",
    "vectorized.lindley_timeline.calls": "count",
    "vectorized.lindley_timeline.busy_s": "s",
    "vectorized.lindley_timeline.ns_per_request": "ns",
    "vectorized.summary.busy_s": "s",
    "replicas.run.calls": "count",
    "replicas.run.busy_s": "s",
    "piecewise.run_degraded.busy_s": "s",
    "piecewise.run_degraded.ns_per_request": "ns",
    "faults.policy_shifts_per_resolve": "ratio",
    "faults.transfer_stalls": "count",
    "faults.deferred": "count",
    "faults.dropped": "count",
    "scheduler.run.busy_s": "s",
    "scheduler.step_profile.busy_s": "s",
    "scheduler.iterations": "count",
    "scheduler.admissions": "count",
    "scheduler.policy_resolves": "count",
    "scheduler.loop_self_us_per_iteration": "us",
    "residency.admit.calls": "count",
    "residency.admit.busy_s": "s",
    "residency.demotions": "count",
    "residency.demoted_bytes": "bytes",
    "residency.peak_bytes.hbm": "bytes",
    "residency.peak_bytes.ddr": "bytes",
    "residency.peak_bytes.cxl": "bytes",
    "timeseries.timeseries.busy_s": "s",
    "timeseries.slo.busy_s": "s",
    "timeseries.slo.alerts": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_ops_per_s": "ops/s",
    "trace.spans": "count",
    "host.ops_per_s": "ops/s",
    "host.speed_factor": "ratio",
}

#: ratio metric -> (numerator, denominator, scale) over raw totals.
RATIOS = {
    "optimizer.optimal_policy.us_per_call":
        ("optimizer.optimal_policy.busy_s",
         "optimizer.optimal_policy.calls", 1e6),
    "optimizer.optimal_policy.distinct_ratio":
        ("optimizer.optimal_policy.distinct",
         "optimizer.optimal_policy.calls", 1.0),
    "vectorized.lindley_timeline.ns_per_request":
        ("vectorized.lindley_timeline.busy_s",
         "vectorized.lindley_timeline.items", 1e9),
    "piecewise.run_degraded.ns_per_request":
        ("piecewise.run_degraded.busy_s", "piecewise.run_degraded.items",
         1e9),
    "faults.policy_shifts_per_resolve":
        ("faults.policy_shifts", "faults.policy_resolves", 1.0),
    "scheduler.loop_self_us_per_iteration":
        ("scheduler.run.self_s", "scheduler.iterations", 1e6),
}


def raw_counters(workload, tracer, outputs) -> Dict[str, float]:
    """Additive counters of one traced call."""
    raw: Dict[str, float] = {}
    for name, stats in tracer.stats.items():
        if name.startswith("call."):
            raw["call.self_s"] = stats.self_s
            raw["call.busy_s"] = stats.busy_s
            continue
        raw[f"{name}.calls"] = stats.calls
        raw[f"{name}.busy_s"] = stats.busy_s
        raw[f"{name}.self_s"] = stats.self_s
        raw[f"{name}.items"] = stats.items
        raw[f"{name}.distinct"] = len(stats.keys)
    for row in tracer.cache_rows:
        raw[f"cache.{row['cache']}.hits"] = row["hits"]
        raw[f"cache.{row['cache']}.misses"] = row["misses"]
    raw["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
    raw.update(workload.counters(outputs))
    return raw


def per_cycle(layer_calls, workload) -> Dict[str, float]:
    """Raw counters of one cycle: each call kind's mean over its traced
    calls, summed over kinds (maxima for peak counters)."""
    by_kind: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    for kind, tracer, outputs in layer_calls:
        by_kind[kind].append(raw_counters(workload, tracer, outputs))
    totals: Dict[str, float] = defaultdict(float)
    for rows in by_kind.values():
        for key in {key for row in rows for key in row}:
            values = [row.get(key, 0.0) for row in rows]
            if key in PEAK_COUNTERS:
                totals[key] = max(totals[key], max(values))
            else:
                totals[key] += statistics.fmean(values)
    return dict(totals)


def layer_metrics(layer_calls, workload, harness: Dict[str, float]
                  ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every per-layer metric, plus why any of them was not measured;
    ``harness`` holds the metrics the harness measured itself."""
    import tracing

    totals = per_cycle(layer_calls, workload)
    missing: Dict[str, str] = {}
    for _, tracer, _ in layer_calls:
        missing.update(tracer.missing)
    values: Dict[str, float] = {}
    not_measured: Dict[str, str] = {}
    spans = {target.span for target in tracing.TARGETS}
    for name in PER_LAYER:
        if name in harness:
            values[name] = harness[name]
        elif name in RATIOS:
            numerator, denominator, scale = RATIOS[name]
            bottom = totals.get(denominator, 0.0)
            values[name] = (scale * totals.get(numerator, 0.0) / bottom
                            if bottom else 0.0)
            if not bottom:
                not_measured[name] = f"no {denominator} on this workload"
        elif name.startswith("cache."):
            cache = name.split(".")[1]
            hits = totals.get(f"cache.{cache}.hits", 0.0)
            misses = totals.get(f"cache.{cache}.misses", 0.0)
            values[name] = hits / (hits + misses) if hits + misses else 0.0
            if f"cache.{cache}.hits" not in totals:
                not_measured[name] = "cache_stats() has no such cache"
            elif not hits + misses:
                not_measured[name] = "cache unused on this workload"
        elif name == "estimator.estimate.p50_us":
            durations = [d for _, tracer, _ in layer_calls
                         for d in tracer.stats.get(
                             "estimator.estimate",
                             tracing.SpanStats()).durations]
            values[name] = (statistics.median(durations) * 1e6
                            if durations else 0.0)
            if not durations:
                not_measured[name] = "no estimate calls on this workload"
        elif name == "trace.unattributed_s":
            values[name] = totals.get("call.self_s", 0.0)
        else:
            values[name] = totals.get(name, 0.0)
            span = name.rsplit(".", 1)[0]
            if span in spans and span in missing:
                not_measured[name] = missing[span]
            elif span in spans and not totals.get(f"{span}.calls"):
                not_measured[name] = "not called on this workload"
    return values, not_measured


def self_time_table(layer_calls) -> List[Dict[str, Any]]:
    """Per-boundary self time summed over the traced calls, with the
    harness call's own self time as the unattributed remainder."""
    rows: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    total = 0.0
    for _, tracer, _ in layer_calls:
        for name, stats in tracer.stats.items():
            key = "(unattributed)" if name.startswith("call.") else name
            rows[key]["calls"] += stats.calls
            rows[key]["busy_s"] += stats.busy_s
            rows[key]["self_s"] += stats.self_s
            if name.startswith("call."):
                total += stats.busy_s
    table = [{"span": name, **row,
              "self_share": row["self_s"] / total if total else 0.0}
             for name, row in rows.items()]
    table.sort(key=lambda row: -row["self_s"])
    return table


def write_chrome_trace(layer_calls, name: str, path: Path) -> List[str]:
    """Write every traced call's spans to one Chrome trace and run the
    repository's schema check on it; returns its complaints."""
    events: List[dict] = []
    dropped = 0
    for index, (_, tracer, _) in enumerate(layer_calls):
        document = tracer.chrome_trace(name)
        events.extend(document["traceEvents"] if index == 0 else
                      [e for e in document["traceEvents"] if e["ph"] != "M"])
        dropped += tracer.spans_dropped
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "otherData": {"spans_dropped": dropped}}))
    if not VALIDATE_TRACE.is_file():
        return [f"{VALIDATE_TRACE} is missing"]
    checked = subprocess.run([sys.executable, str(VALIDATE_TRACE),
                              str(path)], capture_output=True, text=True,
                             timeout=120)
    if checked.returncode != 0:
        return (checked.stderr or checked.stdout).strip().splitlines()[:5]
    return []


# ----------------------------------------------------------------------
# Set-up, calibration, manifest
# ----------------------------------------------------------------------
def setup_probe(workload_name: str) -> float:
    """Set-up time of a fresh interpreter running this script."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload_name, "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {probe.stderr[-500:]}")
    return float(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])


def paper_anchor_err() -> float:
    """Mean |measured / paper - 1| over the calibration anchors."""
    from repro.validation import run_calibration

    checks = run_calibration()
    return statistics.fmean(abs(check.measured / check.paper_value - 1.0)
                            for check in checks)


def manifest(args, workload, calls) -> Dict[str, Any]:
    import numpy

    import workloads

    commit, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"],
                                cwd=str(ROOT), capture_output=True,
                                text=True, timeout=30)
        commit = head.stdout.strip() or commit
        dirty = bool(status.stdout.strip())
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "commit": commit, "dirty": dirty,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "env": {key: os.environ.get(key) for key in PINNED_ENV},
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "sizes": workloads.SIZES[workload.name],
        "calls": [call.kind for call in calls],
        "cache_stats": workloads.cache_rows(),
    }


# ----------------------------------------------------------------------
def write_reference(workload) -> int:
    """Store the outputs of one cycle at the default seed."""
    import workloads

    ctx = workload.setup()
    outputs: Dict[str, Any] = {}
    for call in workload.prepare(ctx, DEFAULT_SEED):
        workloads.cold_reset()
        __, outputs[call.kind], problems = call.check(call.run())
        if problems:
            print(f"{call.kind}: {problems}", file=sys.stderr)
            return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def tune_allocator() -> None:
    """Keep glibc from handing the big timeline arrays back to the
    kernel after each call: otherwise every call pays their page
    faults again, a cost that swings with the host's load rather than
    with the program."""
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: keep the default allocator
    libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed outputs as the "
                             "reference (after a deliberate change)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibration
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tune_allocator()
    start = time.perf_counter()
    ctx = workload.setup()
    setup_here = time.perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0
    if args.write_reference:
        return write_reference(workload)

    calls = workload.prepare(ctx, args.seed)
    reference: Dict[str, Any] = {}
    reference_path = REFERENCE_DIR / f"{workload.name}.json"
    # Figure rows do not depend on the seed; serving outputs do, so
    # other seeds are checked by invariants and cycle-to-cycle equality.
    if args.seed == DEFAULT_SEED or workload.row_outputs:
        reference = json.loads(reference_path.read_text())
    checker = Checker(reference, workload.row_outputs)
    trace = bool(args.trace)
    untraced, traced, layer_calls, calibration_s = measure(
        calls, args.seconds, trace, checker)
    for call in calls:
        if call.verify is not None:
            for problem in call.verify():
                checker.failed += 1
                checker._note(f"{call.kind}: {problem}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_manifest = manifest(args, workload, calls)
    harness_errors: List[str] = []
    missing_kinds = {c.kind for c in calls} - set(untraced.by_kind)
    if missing_kinds:
        harness_errors.append(f"no successful call of {sorted(missing_kinds)}")

    ops_per_s = untraced.ops_per_s()
    details: Dict[str, Any] = {
        "manifest": run_manifest,
        "samples": {kind: samples
                    for kind, samples in untraced.by_kind.items()},
        "calibration_s": calibration_s,
        "messages": checker.messages,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if trace:
        overhead = traced.ops_per_s() - ops_per_s
        values, not_measured = layer_metrics(layer_calls, workload, {
            "trace.overhead_ops_per_s": overhead,
            "host.ops_per_s": ops_per_s,
            "host.speed_factor": calibration.host_factor(calibration_s)})
        table = self_time_table(layer_calls)
        trace_path = OUT_DIR / f"{stem}.trace.json"
        complaints = write_chrome_trace(layer_calls, workload.name,
                                        trace_path)
        harness_errors += [f"trace: {c}" for c in complaints]
        details.update(traced_samples=dict(traced.by_kind), table=table,
                       not_measured=not_measured, trace_file=str(trace_path))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print(f"{'span':<32} {'calls':>10} {'busy_s':>10} {'self_s':>10} "
              f"{'self%':>6}")
        for row in table:
            print(f"{row['span']:<32} {row['calls']:>10} "
                  f"{row['busy_s']:>10.4f} {row['self_s']:>10.4f} "
                  f"{100 * row['self_share']:>5.1f}%")
        print(f"tracing overhead: {overhead:+.4g} ops/s "
              f"(traced {traced.ops_per_s():.4g}, untraced "
              f"{ops_per_s:.4g}); trace {trace_path.name} "
              f"{'valid' if not complaints else 'INVALID'}")
        for name, reason in not_measured.items():
            print(f"not measured: {name}: {reason}")
    else:
        samples = [setup_here] + [setup_probe(workload.name)
                                  for _ in range(SETUP_SAMPLES - 1)]
        factor = calibration.host_factor(calibration_s)
        details.update(setup_samples_s=samples, host_factor=factor)
        print(f"host factor {factor:.4g} over {len(calibration_s)} "
              f"calibration samples; as measured: ops_per_s "
              f"{ops_per_s:.6g}")
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "norm_ops_per_s": {"value": ops_per_s * factor,
                               "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "paper_anchor_err": {"value": paper_anchor_err(),
                                 "unit": "fraction"},
        }
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    failed_frac = checker.failed / checker.attempted if checker.attempted else 1
    print(f"checked calls: {checker.attempted} attempted, {checker.failed} "
          f"failed (failed_frac {failed_frac:.4g}); samples per call "
          f"{untraced.counts()}")
    for message in checker.messages + harness_errors:
        print(f"problem: {message}")
    print("manifest: " + json.dumps(run_manifest, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    details["harness_errors"] = harness_errors
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(details, indent=1, default=str))
    print(json.dumps({
        "correct": checker.failed == 0 and not harness_errors,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
