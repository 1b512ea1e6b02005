"""scripts/bench_history.py — the bench-trajectory tracker.

Loaded by file path like the trace validator; everything runs
through ``main`` so the tests cover the CLI surface CI calls.
"""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_tracker():
    path = (Path(__file__).resolve().parents[1] / "scripts"
            / "bench_history.py")
    spec = importlib.util.spec_from_file_location("bench_history",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracker():
    return _load_tracker()


def _serving_report(speedup=80.0, overhead=0.05, quick=False,
                    passed=True, degraded_speedup=40.0,
                    degraded_identical=True, fleet_availability=1.0,
                    fleet_deterministic=True, fleet_loses=True,
                    scheduler_ratio=2.2, scheduler_deterministic=True,
                    scheduler_degenerate=True):
    return {
        "benchmark": "bench_serving",
        "workload": {"n_requests": 1_000_000},
        "speedup_mean": speedup,
        "speedup_cold": speedup * 0.9,
        "bit_identical": True,
        "timeseries": {"overhead_fraction": overhead},
        "degraded": {"speedup_mean": degraded_speedup,
                     "bit_identical": degraded_identical},
        "fleet": {"availability": fleet_availability,
                  "deterministic": fleet_deterministic,
                  "ablation": {"strictly_loses": fleet_loses}},
        "scheduler": {
            "throughput_ratio": scheduler_ratio,
            "deterministic": scheduler_deterministic,
            "fifo_degenerate_identical": scheduler_degenerate},
        "gates": {"speedup_mean_min": None if quick else 50.0,
                  "bit_identical": True,
                  "timeseries_overhead_max": None if quick else 0.10,
                  "degraded_speedup_mean_min": None if quick else 20.0,
                  "degraded_bit_identical": True,
                  "fleet_availability_min": 0.99,
                  "fleet_deterministic": True,
                  "scheduler_throughput_ratio_min": 1.3,
                  "scheduler_deterministic": True,
                  "scheduler_fifo_degenerate_identical": True},
        "pass": passed,
    }


def _write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def test_append_then_check_roundtrip(tracker, tmp_path):
    history = tmp_path / "history.jsonl"
    run = _write(tmp_path / "run.json", _serving_report())
    assert tracker.main(["append", str(history), run,
                         "--source", "test", "--commit", "abc123",
                         "--timestamp", "2026-08-08T00:00:00+00:00"
                         ]) == 0
    (line,) = history.read_text().splitlines()
    entry = json.loads(line)
    assert entry["benchmark"] == "bench_serving"
    assert entry["speedup_mean"] == 80.0
    assert entry["timeseries_overhead"] == 0.05
    assert entry["degraded_speedup_mean"] == 40.0
    assert entry["degraded_bit_identical"] is True
    assert entry["scheduler_throughput_ratio"] == 2.2
    assert entry["scheduler_deterministic"] is True
    assert entry["scheduler_fifo_degenerate_identical"] is True
    assert entry["commit"] == "abc123"
    assert entry["quick"] is False
    assert tracker.main(["check", str(history),
                         "--committed", run]) == 0


def test_check_flags_speedup_regression(tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report(speedup=80.0))
    regressed = _write(tmp_path / "regressed.json",
                       _serving_report(speedup=20.0))
    tracker.main(["append", str(history), regressed,
                  "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 1
    assert "speedup 20.0x under" in capsys.readouterr().err
    # Quick mode only holds the sanity floor, which 20x clears.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 0


def test_check_flags_degraded_speedup_regression(tracker, tmp_path,
                                                 capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    regressed = _write(tmp_path / "regressed.json",
                       _serving_report(degraded_speedup=12.0))
    tracker.main(["append", str(history), regressed, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 1
    assert "degraded speedup 12.0x under" in capsys.readouterr().err
    # 12x clears the quick-mode sanity floor.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 0


def test_check_flags_degraded_identity_break(tracker, tmp_path,
                                             capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    broken = _write(tmp_path / "broken.json",
                    _serving_report(degraded_identical=False))
    tracker.main(["append", str(history), broken, "--commit", ""])
    # Identity is not a wall-clock gate: it binds even in quick mode.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "degraded engines" in capsys.readouterr().err


def test_check_flags_fleet_availability_regression(tracker, tmp_path,
                                                   capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    lossy = _write(tmp_path / "lossy.json",
                   _serving_report(fleet_availability=0.95))
    tracker.main(["append", str(history), lossy, "--commit", ""])
    # Availability is a correctness gate: it binds in quick mode too.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "fleet availability" in capsys.readouterr().err


def test_check_flags_fleet_nondeterminism_and_vacuous_ablation(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    flaky = _write(tmp_path / "flaky.json",
                   _serving_report(fleet_deterministic=False,
                                   fleet_loses=False))
    tracker.main(["append", str(history), flaky, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    err = capsys.readouterr().err
    assert "not deterministic" in err
    assert "load-bearing" in err


def test_check_flags_scheduler_throughput_regression(tracker,
                                                     tmp_path,
                                                     capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    slow = _write(tmp_path / "slow.json",
                  _serving_report(scheduler_ratio=1.1))
    tracker.main(["append", str(history), slow, "--commit", ""])
    # The ratio is tokens per *simulated* second — a correctness-ish
    # gate that binds in quick mode too.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "scheduler throughput 1.10x" in capsys.readouterr().err


def test_check_flags_scheduler_determinism_and_degenerate_break(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    broken = _write(tmp_path / "broken.json",
                    _serving_report(scheduler_deterministic=False,
                                    scheduler_degenerate=False))
    tracker.main(["append", str(history), broken, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    err = capsys.readouterr().err
    assert "scheduler run is not deterministic" in err
    assert "FIFO-degenerate" in err


def test_check_flags_overhead_regression_full_mode_only(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    bloated = _write(tmp_path / "bloated.json",
                     _serving_report(overhead=0.25))
    tracker.main(["append", str(history), bloated, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 1
    assert "overhead" in capsys.readouterr().err
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 0


def _estimator_report(sweep_speedup=4.0, sweep_identical=True,
                      cpu_count=8, passed=True, profile_identical=True,
                      figures_identical=True):
    return {
        "benchmark": "bench_estimator",
        "speedup_mean": 80.0,
        "speedup_cold": 5.0,
        "max_relative_error": 1e-14,
        "step_profile": {"identical": profile_identical},
        "figure_grid": {"identical": figures_identical,
                        "median_s": 0.3},
        "process_sweep": {"speedup": sweep_speedup,
                          "identical": sweep_identical,
                          "cpu_count": cpu_count},
        "gates": {"speedup_mean_min": 10.0,
                  "max_relative_error_max": 1e-9,
                  "process_sweep_speedup_min": 3.0,
                  "process_sweep_min_cores": 4},
        "pass": passed,
    }


def test_check_flags_process_sweep_identity_break_even_quick(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _estimator_report())
    broken = _write(tmp_path / "broken.json",
                    _estimator_report(sweep_identical=False))
    tracker.main(["append", str(history), broken, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "not identical to the in-process path" in \
        capsys.readouterr().err


def test_check_flags_step_profile_identity_break_even_quick(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _estimator_report())
    broken = _write(tmp_path / "broken.json",
                    _estimator_report(profile_identical=False))
    tracker.main(["append", str(history), broken, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "StepProfile grid is not bit-identical" in \
        capsys.readouterr().err


def test_check_flags_figure_grid_fingerprint_break_even_quick(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _estimator_report())
    broken = _write(tmp_path / "broken.json",
                    _estimator_report(figures_identical=False))
    tracker.main(["append", str(history), broken, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "committed fingerprint" in capsys.readouterr().err


def test_check_flags_process_sweep_speedup_regression_in_quick(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _estimator_report())
    slow = _write(tmp_path / "slow.json",
                  _estimator_report(sweep_speedup=1.2, cpu_count=8))
    tracker.main(["append", str(history), slow, "--commit", ""])
    # The floor binds in --quick: the benchmark's in-process baseline
    # and process pool race on the same machine, so noise cancels.
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 1
    assert "process-sweep speedup 1.20x under" in \
        capsys.readouterr().err


def test_process_sweep_speedup_floor_skipped_on_small_machines(
        tracker, tmp_path):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _estimator_report())
    small = _write(tmp_path / "small.json",
                   _estimator_report(sweep_speedup=1.0, cpu_count=1))
    tracker.main(["append", str(history), small, "--commit", ""])
    # One core cannot fan out; only identity binds there.
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 0
    assert tracker.main(["check", str(history),
                         "--committed", committed, "--quick"]) == 0


def test_check_latest_entry_wins_and_failed_runs_flagged(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    good = _write(tmp_path / "good.json", _serving_report())
    bad = _write(tmp_path / "bad.json",
                 _serving_report(passed=False))
    tracker.main(["append", str(history), good, "--commit", ""])
    tracker.main(["append", str(history), bad, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 1
    assert "pass=false" in capsys.readouterr().err


def test_check_requires_history_entry_per_benchmark(
        tracker, tmp_path, capsys):
    history = tmp_path / "history.jsonl"
    serving = _write(tmp_path / "serving.json", _serving_report())
    other = _write(tmp_path / "other.json",
                   {"benchmark": "bench_estimator", "pass": True,
                    "gates": {}})
    tracker.main(["append", str(history), serving, "--commit", ""])
    assert tracker.main(["check", str(history),
                         "--committed", serving,
                         "--committed", other]) == 1
    assert "no history entry" in capsys.readouterr().err


def test_check_empty_or_corrupt_history_fails(tracker, tmp_path,
                                              capsys):
    history = tmp_path / "missing.jsonl"
    committed = _write(tmp_path / "committed.json",
                       _serving_report())
    assert tracker.main(["check", str(history),
                         "--committed", committed]) == 1
    assert "no history entries" in capsys.readouterr().err
    history.write_text("{broken\n")
    with pytest.raises(SystemExit):
        tracker.main(["check", str(history),
                      "--committed", committed])


def test_committed_history_gates_committed_reports(tracker):
    # The repo's own trajectory must pass its own gates.
    root = Path(__file__).resolve().parents[1]
    assert tracker.main(
        ["check", str(root / "BENCH_history.jsonl"),
         "--committed", str(root / "BENCH_serving.json"),
         "--committed", str(root / "BENCH_estimator.json")]) == 0
