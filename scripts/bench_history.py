#!/usr/bin/env python3
"""Track benchmark results over time and flag regressions.

A thin trajectory layer over the committed ``BENCH_*.json`` reports:
every run appends one JSON line to a history file
(``BENCH_history.jsonl``), and ``check`` compares the latest entry
per benchmark against the gates of the committed report, so a
regression fails CI even when the run itself passed its own
(possibly quick-mode) gates.

Usage::

    python scripts/bench_history.py append HISTORY RUN.json [...]
        [--source ci|local] [--commit SHA]
    python scripts/bench_history.py check HISTORY
        --committed BENCH_serving.json [--committed ...] [--quick]

``append`` extracts the gate-relevant metrics from each benchmark
report (the files ``benchmarks/bench_*.py`` write) and appends them
with a UTC timestamp.  ``check`` applies, per committed report:

* ``bit_identical`` must hold whenever the benchmark reports it;
* ``max_relative_error`` stays under its committed gate;
* wall-clock gates (``speedup_mean_min``,
  ``timeseries_overhead_max``) bind at full size; ``--quick`` —
  shared CI machines — substitutes a loose sanity floor for the
  speedup and skips the overhead gate, mirroring the benchmarks'
  own quick mode;
* scheduler gates are simulated-time quantities (continuous/FIFO
  throughput ratio, fingerprint determinism, FIFO-degenerate
  bit-identity), so like the fleet gates they bind in ``--quick``
  too;
* the step-profile grid's bit-identity to per-point estimates and
  the figure grid's committed row fingerprint bind everywhere,
  ``--quick`` included;
* process-sweep gates bind in ``--quick`` as well: pool-vs-in-process
  identity always, and the pool speedup floor whenever the entry's
  machine had enough cores to fan out (the benchmark races its own
  pool against its own in-process baseline, so shared-machine noise
  largely cancels);
* the run's own ``pass`` flag must be true.

Stdlib only — it must run on a bare checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

#: Quick-mode speedup sanity floor (see ci.yml): catches a collapsed
#: fast path without making shared-machine wall clocks load-bearing.
QUICK_SPEEDUP_FLOOR = 5.0


def _guess_commit() -> str:
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def entry_from_report(report: Dict[str, object],
                      timestamp: str, source: str,
                      commit: str) -> Dict[str, object]:
    """One compact history line from a full benchmark report."""
    entry: Dict[str, object] = {
        "ts": timestamp,
        "source": source,
        "commit": commit,
        "benchmark": report.get("benchmark", "unknown"),
        "pass": bool(report.get("pass")),
        # Quick runs disable their wall-clock gates; record that so
        # ``check`` knows which floors may bind.
        "quick": (report.get("gates", {}).get("speedup_mean_min")
                  is None),
    }
    for key in ("speedup_mean", "speedup_cold", "bit_identical",
                "max_relative_error"):
        if key in report:
            entry[key] = report[key]
    degraded = report.get("degraded")
    if isinstance(degraded, dict):
        entry["degraded_speedup_mean"] = degraded.get("speedup_mean")
        entry["degraded_bit_identical"] = degraded.get("bit_identical")
    fleet = report.get("fleet")
    if isinstance(fleet, dict):
        entry["fleet_availability"] = fleet.get("availability")
        entry["fleet_deterministic"] = fleet.get("deterministic")
        ablation = fleet.get("ablation")
        if isinstance(ablation, dict):
            entry["fleet_ablation_loses"] = ablation.get(
                "strictly_loses")
    scheduler = report.get("scheduler")
    if isinstance(scheduler, dict):
        entry["scheduler_throughput_ratio"] = scheduler.get(
            "throughput_ratio")
        entry["scheduler_deterministic"] = scheduler.get(
            "deterministic")
        entry["scheduler_fifo_degenerate_identical"] = scheduler.get(
            "fifo_degenerate_identical")
    workload = report.get("workload")
    if isinstance(workload, dict) and "n_requests" in workload:
        entry["n_requests"] = workload["n_requests"]
    timeseries = report.get("timeseries")
    if isinstance(timeseries, dict):
        entry["timeseries_overhead"] = timeseries.get(
            "overhead_fraction")
    step_profile = report.get("step_profile")
    if isinstance(step_profile, dict):
        entry["step_profile_identical"] = step_profile.get("identical")
    figure_grid = report.get("figure_grid")
    if isinstance(figure_grid, dict):
        entry["figure_grid_identical"] = figure_grid.get("identical")
        entry["figure_grid_median_s"] = figure_grid.get("median_s")
    process_sweep = report.get("process_sweep")
    if isinstance(process_sweep, dict):
        entry["process_sweep_speedup"] = process_sweep.get("speedup")
        entry["process_sweep_identical"] = process_sweep.get(
            "identical")
        entry["process_sweep_cpu_count"] = process_sweep.get(
            "cpu_count")
    return entry


def load_history(path: Path) -> List[Dict[str, object]]:
    if not path.is_file():
        return []
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise SystemExit(f"{path}:{number}: invalid JSON line: "
                             f"{error}")
    return entries


def cmd_append(args: argparse.Namespace) -> int:
    timestamp = args.timestamp or datetime.now(
        timezone.utc).isoformat(timespec="seconds")
    commit = args.commit if args.commit is not None else _guess_commit()
    history = Path(args.history)
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a", encoding="utf-8") as handle:
        for run_path in args.runs:
            report = json.loads(Path(run_path).read_text())
            entry = entry_from_report(report, timestamp,
                                      args.source, commit)
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            print(f"appended {entry['benchmark']} "
                  f"(pass={entry['pass']}) to {history}")
    return 0


def check_against_committed(latest: Dict[str, object],
                            committed: Dict[str, object],
                            quick: bool) -> List[str]:
    """Gate violations of one history entry vs one committed report."""
    name = committed.get("benchmark", "unknown")
    gates = committed.get("gates", {})
    failures: List[str] = []
    if not latest.get("pass"):
        failures.append(f"{name}: latest run reports pass=false")
    if "bit_identical" in latest and not latest["bit_identical"]:
        failures.append(f"{name}: latest run is not bit-identical")
    error_gate = gates.get("max_relative_error_max")
    if error_gate is not None and "max_relative_error" in latest:
        if latest["max_relative_error"] >= error_gate:
            failures.append(
                f"{name}: max_relative_error "
                f"{latest['max_relative_error']:g} over the "
                f"{error_gate:g} gate")
    speedup_gate = gates.get("speedup_mean_min")
    speedup = latest.get("speedup_mean")
    if speedup is not None:
        floor = QUICK_SPEEDUP_FLOOR if quick else speedup_gate
        if floor is not None and speedup < floor:
            kind = "sanity floor" if quick else "committed gate"
            failures.append(f"{name}: speedup {speedup:.1f}x under "
                            f"the {floor:g}x {kind}")
    if ("degraded_bit_identical" in latest
            and latest["degraded_bit_identical"] is not None
            and not latest["degraded_bit_identical"]):
        failures.append(f"{name}: degraded engines are not "
                        f"bit-identical")
    degraded_gate = gates.get("degraded_speedup_mean_min")
    degraded_speedup = latest.get("degraded_speedup_mean")
    if degraded_speedup is not None:
        floor = QUICK_SPEEDUP_FLOOR if quick else degraded_gate
        if floor is not None and degraded_speedup < floor:
            kind = "sanity floor" if quick else "committed gate"
            failures.append(
                f"{name}: degraded speedup {degraded_speedup:.1f}x "
                f"under the {floor:g}x {kind}")
    # Fleet gates are correctness invariants, never wall clock: they
    # bind in quick mode too.
    availability_gate = gates.get("fleet_availability_min")
    availability = latest.get("fleet_availability")
    if (availability_gate is not None and availability is not None
            and availability < availability_gate):
        failures.append(
            f"{name}: fleet availability {availability:.4%} under "
            f"the {availability_gate:.0%} gate")
    if latest.get("fleet_deterministic") is False:
        failures.append(f"{name}: fleet chaos run is not "
                        f"deterministic across reps")
    if latest.get("fleet_ablation_loses") is False:
        failures.append(f"{name}: retry ablation no longer loses "
                        f"requests — failover is not load-bearing")
    # Scheduler gates are simulated-time quantities (throughput per
    # *simulated* second, fingerprints): they bind in quick mode too.
    ratio_gate = gates.get("scheduler_throughput_ratio_min")
    ratio = latest.get("scheduler_throughput_ratio")
    if (ratio_gate is not None and ratio is not None
            and ratio < ratio_gate):
        failures.append(
            f"{name}: scheduler throughput {ratio:.2f}x FIFO under "
            f"the {ratio_gate:g}x gate")
    if latest.get("scheduler_deterministic") is False:
        failures.append(f"{name}: scheduler run is not deterministic "
                        f"across reps")
    if latest.get("scheduler_fifo_degenerate_identical") is False:
        failures.append(f"{name}: FIFO-degenerate scheduler config no "
                        f"longer reproduces the FIFO report")
    if latest.get("step_profile_identical") is False:
        failures.append(f"{name}: StepProfile grid is not bit-identical "
                        f"to the per-point estimates")
    if latest.get("figure_grid_identical") is False:
        failures.append(f"{name}: fig09+10+11 rows no longer match the "
                        f"committed fingerprint")
    # Process-sweep gates: pool-vs-in-process identity is pure
    # correctness and binds everywhere, quick included.  The speedup
    # floor is wall clock, but the benchmark spawns its own pool and
    # compares against its own in-process baseline on the same
    # machine, so it binds in --quick too — whenever the entry's
    # machine had enough cores for the pool to fan out.
    if latest.get("process_sweep_identical") is False:
        failures.append(f"{name}: process-pool sweep summaries are not "
                        f"identical to the in-process path")
    sweep_gate = gates.get("process_sweep_speedup_min")
    sweep_speedup = latest.get("process_sweep_speedup")
    min_cores = gates.get("process_sweep_min_cores", 4)
    cpu_count = latest.get("process_sweep_cpu_count")
    if (sweep_gate is not None and sweep_speedup is not None
            and cpu_count is not None and cpu_count >= min_cores
            and sweep_speedup < sweep_gate):
        failures.append(
            f"{name}: process-sweep speedup {sweep_speedup:.2f}x "
            f"under the {sweep_gate:g}x gate on {cpu_count} cores")
    overhead_gate = gates.get("timeseries_overhead_max")
    overhead = latest.get("timeseries_overhead")
    if (not quick and overhead_gate is not None
            and overhead is not None and overhead > overhead_gate):
        failures.append(
            f"{name}: windowed-metrics overhead {overhead:.1%} over "
            f"the {overhead_gate:.0%} gate")
    return failures


def cmd_check(args: argparse.Namespace) -> int:
    entries = load_history(Path(args.history))
    if not entries:
        print(f"FAIL {args.history}: no history entries",
              file=sys.stderr)
        return 1
    latest_by_benchmark: Dict[str, Dict[str, object]] = {}
    for entry in entries:
        latest_by_benchmark[str(entry.get("benchmark"))] = entry
    failures: List[str] = []
    for committed_path in args.committed:
        committed = json.loads(Path(committed_path).read_text())
        name = str(committed.get("benchmark", "unknown"))
        latest = latest_by_benchmark.get(name)
        if latest is None:
            failures.append(f"{name}: no history entry "
                            f"(committed: {committed_path})")
            continue
        failures.extend(check_against_committed(latest, committed,
                                                args.quick))
        if not committed.get("pass"):
            failures.append(f"{name}: committed report "
                            f"{committed_path} fails its own gates")
    if failures:
        for message in failures:
            print(f"FAIL {message}", file=sys.stderr)
        return 1
    mode = "quick" if args.quick else "full"
    print(f"ok   {args.history}: {len(entries)} entries, latest "
          f"{sorted(latest_by_benchmark)} pass ({mode} gates)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    append = commands.add_parser(
        "append", help="append benchmark report(s) to the history")
    append.add_argument("history", help="JSONL history file")
    append.add_argument("runs", nargs="+",
                        help="BENCH_*.json report file(s)")
    append.add_argument("--source", default="local",
                        help="where the run happened (e.g. ci)")
    append.add_argument("--commit", default=None,
                        help="commit SHA (default: $GITHUB_SHA or "
                             "git rev-parse)")
    append.add_argument("--timestamp", default="",
                        help="ISO timestamp override (default: now)")

    check = commands.add_parser(
        "check", help="gate the latest entries against committed "
                      "reports")
    check.add_argument("history", help="JSONL history file")
    check.add_argument("--committed", action="append", required=True,
                       help="committed BENCH_*.json to gate against "
                            "(repeatable)")
    check.add_argument("--quick", action="store_true",
                       help="CI smoke mode: sanity speedup floor, "
                            "no overhead gate")

    args = parser.parse_args(argv)
    if args.command == "append":
        return cmd_append(args)
    return cmd_check(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
