"""CLI smokes, each written once.

Every check drives :func:`repro.cli.main` in-process and writes into
``tmp_path``.  A tier-1 test calls each at a small request count; a
test under ``lanes/`` calls it at full size.
"""

from __future__ import annotations

import functools
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

from repro.cli import main
from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.faults.fleet import (RedispatchPolicy, fleet_to_dict,
                                get_fleet_scenario)
from repro.hardware.system import get_system
from repro.models.zoo import get_model
from tests.oracles.differentials import check_sweep_rows

ROOT = Path(__file__).resolve().parents[2]


@functools.lru_cache(maxsize=None)
def validator():
    """``scripts/validate_trace.py``, loaded once by file path (it
    lives outside the package)."""
    spec = importlib.util.spec_from_file_location(
        "validate_trace", ROOT / "scripts" / "validate_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def validate_trace_file(path) -> list:
    """``scripts/validate_trace.py``'s problems with one trace file."""
    return validator().validate_trace_file(path)


def run_json(tmp_path, name: str, *argv) -> dict:
    """``repro ARGV --json tmp_path/name``, exit 0; its JSON."""
    path = Path(tmp_path) / name
    assert main([*argv, "--json", str(path)]) == 0
    return json.loads(path.read_text())


def check_trace(tmp_path, *argv) -> Path:
    """``repro trace ARGV`` writes a trace the schema validator
    accepts; returns its path."""
    out = Path(tmp_path) / "run.trace.json"
    assert main(["trace", *argv, "--out", str(out)]) == 0
    assert validate_trace_file(out) == []
    return out


def check_sweep(tmp_path, batches, input_lens, output_lens) -> list:
    """``repro sweep`` over the grid: one row per point, each equal to
    the scalar LIA stages."""
    payload = run_json(tmp_path, "sweep.json", "sweep", "--model",
                       "opt-30b", "--system", "spr-a100", "--batches",
                       *map(str, batches), "--input-lens",
                       *map(str, input_lens), "--output-lens",
                       *map(str, output_lens))
    rows = payload["rows"]
    assert len(rows) == len(batches) * len(input_lens) * len(output_lens)
    check_sweep_rows(rows, LiaEstimator(
        get_model("opt-30b"), get_system("spr-a100"),
        LiaConfig(enforce_host_capacity=False)))
    return rows


def check_monitor(tmp_path, n: int, windows: int) -> None:
    """``repro monitor`` writes a valid counter trace, a CSV with one
    line per window, self-contained HTML and its JSON report."""
    trace = Path(tmp_path) / "monitor.trace.json"
    csv_path = Path(tmp_path) / "monitor.csv"
    html = Path(tmp_path) / "monitor.html"
    payload = run_json(tmp_path, "monitor.json", "monitor", "--model",
                       "opt-30b", "--num-requests", str(n), "--rate",
                       "0.2", "--windows", str(windows), "--out",
                       str(trace), "--csv", str(csv_path), "--html",
                       str(html))
    assert validate_trace_file(trace) == []
    counters = {event["name"]
                for event in json.loads(trace.read_text())["traceEvents"]
                if event.get("ph") == "C"}
    assert "serving.queue_depth" in counters
    assert html.read_text().startswith("<!DOCTYPE html>")
    assert len(csv_path.read_text().splitlines()) == 2 + windows
    assert payload["monitoring"]["total_requests"] == n
    assert len(payload["monitoring"]["burn_long"]) == windows
    assert payload["series"]["n_windows"] == windows


def check_monitor_fleet(tmp_path, n: int) -> None:
    """``repro monitor --replicas 3`` renders one table row per
    replica."""
    html = Path(tmp_path) / "monitor-fleet.html"
    assert main(["monitor", "--model", "opt-30b", "--num-requests", str(n),
                 "--rate", "0.2", "--replicas", "3", "--html",
                 str(html)]) == 0
    table = html.read_text().split("<h2>Fleet · 3 replicas", 1)[1]
    assert table.split("</table>", 1)[0].count("<tr><td>") == 3


def check_serve(tmp_path, *argv) -> dict:
    """``repro serve ARGV`` reports ordered, positive percentiles and a
    utilization in (0, 1]; returns its JSON."""
    payload = run_json(tmp_path, "serve.json", "serve", *argv)
    percentiles = payload["percentiles"]
    assert percentiles["p99"] >= percentiles["p50"] > 0
    assert 0 < payload["utilization"] <= 1
    return payload


def check_fleet_failover(tmp_path, n: int) -> None:
    """replica-crash over ``n`` requests: no request leaks from the
    accounting, re-dispatch keeps availability >= 99%, and without
    retries requests are lost."""
    no_retries = Path(tmp_path) / "no-retries.json"
    no_retries.write_text(json.dumps(fleet_to_dict(replace(
        get_fleet_scenario("replica-crash"),
        redispatch=RedispatchPolicy(max_retries=0)))))
    argv = ["fleet", "--preset", "replica-crash", "--num-requests", str(n)]
    with_retries = run_json(tmp_path, "fleet.json", *argv)
    without = run_json(tmp_path, "fleet-noretry.json", *argv, "--chaos",
                       str(no_retries))
    for run in (with_retries, without):
        assert run["n_served"] + run["n_dropped"] == run["n_offered"] == n
    assert with_retries["scenario"] == "replica-crash"
    assert len(with_retries["replica_counts"]) >= 1
    assert with_retries["availability"] >= 0.99
    assert without["n_dropped"] > 0
    assert without["availability"] < with_retries["availability"]


def check_continuous_serve(tmp_path, n: int) -> None:
    """The continuous scheduler batches: peak occupancy >= 2."""
    payload = run_json(tmp_path, "serve-continuous.json", "serve",
                       "--model", "opt-30b", "--scheduler", "continuous",
                       "--num-requests", str(n), "--rate", "0.5")
    batching = payload["batching"]
    assert payload["scheduler"] == "continuous"
    assert batching["occupancy_peak"] >= 2 and batching["iterations"] > 0
    assert payload["throughput_tokens_per_s"] > 0


def check_fifo_degenerate(tmp_path, n: int) -> None:
    """The FIFO-degenerate continuous config reports the FIFO run's
    statistics bit for bit."""
    argv = ["serve", "--model", "opt-30b", "--num-requests", str(n),
            "--rate", "0.5"]
    fifo = run_json(tmp_path, "serve-fifo.json", *argv)
    degenerate = run_json(tmp_path, "serve-degenerate.json", *argv,
                          "--scheduler", "continuous", "--max-batch", "1",
                          "--join", "drain", "--kv-unbounded")
    for key in ("percentiles", "mean_queue_delay_s", "makespan_s",
                "utilization", "throughput_tokens_per_s"):
        assert fifo[key] == degenerate[key], key
    assert degenerate["batching"]["fifo_degenerate"]


def check_repeat_run(tmp_path, n: int) -> None:
    """Two identical continuous runs on 2 replicas write identical
    reports."""
    argv = ["serve", "--model", "opt-30b", "--scheduler", "continuous",
            "--num-requests", str(n), "--rate", "0.5", "--replicas", "2"]
    assert (run_json(tmp_path, "serve-replicas.json", *argv)
            == run_json(tmp_path, "serve-replicas-again.json", *argv))


def check_continuous_fleet(tmp_path, n: int) -> None:
    """A chaos-free continuous fleet serves every offered request."""
    payload = run_json(tmp_path, "fleet-continuous.json", "fleet",
                       "--preset", "replica-crash", "--chaos", "none",
                       "--scheduler", "continuous", "--num-requests",
                       str(n))
    assert payload["scheduler"] == "continuous"
    assert payload["n_served"] == payload["n_offered"]
    assert payload["availability"] == 1.0


#: The continuous-scheduler smokes, each ``check(tmp_path, n)``.
CONTINUOUS_SMOKES = (check_continuous_serve, check_fifo_degenerate,
                     check_repeat_run, check_continuous_fleet)
