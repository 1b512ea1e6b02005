"""Command-line interface."""

import pytest

from repro.cli import main
from tests.oracles import cli_smokes
from tests.oracles.cli_smokes import validate_trace_file


def test_models_listing(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "opt-175b" in out
    assert "llama2-70b" in out


def test_systems_listing(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    assert "spr-a100" in out
    assert "dgx-a100" in out
    assert "$" in out


def test_plan_online(capsys):
    assert main(["plan", "--model", "opt-30b", "--system", "spr-a100",
                 "--batch", "1", "--input-len", "128",
                 "--output-len", "8"]) == 0
    out = capsys.readouterr().out
    assert "prefill policy" in out
    assert "(1, 1, 1, 1, 1, 1)" in out
    assert "tokens/s" in out


def test_plan_with_cxl(capsys):
    assert main(["plan", "--model", "opt-30b", "--system", "spr-a100",
                 "--batch", "64", "--cxl"]) == 0
    out = capsys.readouterr().out
    assert "CXL 55.8 GiB" in out or "CXL 55.9 GiB" in out


def test_plan_memory_enforcement(capsys):
    code = main(["plan", "--model", "opt-175b", "--system", "spr-a100",
                 "--batch", "900", "--input-len", "1024",
                 "--enforce-memory"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_policy_map(capsys):
    assert main(["policy-map", "--model", "opt-175b", "--system",
                 "spr-a100", "--stage", "decode", "--batches", "1",
                 "900", "--lengths", "256"]) == 0
    out = capsys.readouterr().out
    assert "(1, 1, 1, 1, 1, 1)" in out


def test_policy_map_bad_grid_fails_before_printing(capsys):
    assert main(["policy-map", "--batches", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: batch_size must be >= 1, got 0\n"


def test_experiment_list(capsys):
    assert main(["experiment", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out
    assert "tab4" in out


def test_experiment_run_and_csv(capsys, tmp_path):
    assert main(["experiment", "fig01", "--csv-dir",
                 str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ops/byte heatmap" in out
    assert (tmp_path / "fig01.csv").exists()


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_unknown_model_is_clean_error(capsys):
    assert main(["plan", "--model", "gpt-9"]) == 1
    assert "unknown model" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plan", "--model", "gpt-9"],
    ["plan", "--system", "tpu-pod"],
    ["policy-map", "--model", "gpt-9"],
    ["policy-map", "--system", "tpu-pod"],
    ["sweep", "--model", "gpt-9"],
    ["sweep", "--system", "tpu-pod"],
    ["trace", "--model", "gpt-9"],
    ["trace", "--system", "tpu-pod"],
    ["faults", "--model", "gpt-9"],
    ["faults", "--system", "tpu-pod"],
    ["serve", "--model", "gpt-9"],
    ["serve", "--system", "tpu-pod"],
    ["monitor", "--model", "gpt-9"],
    ["monitor", "--system", "tpu-pod"],
    ["fleet", "--model", "gpt-9"],
    ["fleet", "--system", "tpu-pod"],
    ["fleet", "--preset", "hurricane"],
    ["fleet", "--trace", "full-moon"],
    ["fleet", "--chaos", "volcano"],
])
def test_unknown_names_exit_nonzero_with_one_line_error(capsys, argv):
    """Every subcommand turns unknown zoo names into `error: ...`, not
    a traceback (exit code 1, single diagnostic line on stderr)."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_trace_engine_mode_writes_valid_trace(capsys, tmp_path):
    import json

    out = cli_smokes.check_trace(tmp_path, "--model", "opt-tiny",
                                 "--decode-policy", "011000",
                                 "--input-len", "4", "--output-len", "2")
    printed = capsys.readouterr().out
    assert "PCIe bytes" in printed
    assert "pcie.bytes" in printed
    metrics_path = tmp_path / "run.metrics.json"
    assert metrics_path.exists()
    document = json.loads(metrics_path.read_text())
    names = {row["metric"] for row in document["metrics"]}
    assert "pcie.bytes" in names and "policy.evaluations" in names
    trace = json.loads(out.read_text())
    assert trace["otherData"]["pcie_bytes"] > 0


def test_trace_serving_mode(capsys, tmp_path):
    cli_smokes.check_trace(tmp_path, "--mode", "serving", "--model",
                           "opt-30b", "--requests", "4")
    assert "served 4 requests" in capsys.readouterr().out


def test_trace_schedule_mode(capsys, tmp_path):
    cli_smokes.check_trace(tmp_path, "--mode", "schedule", "--model",
                           "opt-30b", "--batch", "64", "--input-len",
                           "256")
    assert "makespan" in capsys.readouterr().out


def test_trace_engine_rejects_large_models(capsys, tmp_path):
    assert main(["trace", "--model", "opt-175b",
                 "--out", str(tmp_path / "big.trace.json")]) == 1
    assert "too large" in capsys.readouterr().err


def test_sweep(capsys, tmp_path):
    rows = cli_smokes.check_sweep(tmp_path, [1, 16], [32], [8])
    out = capsys.readouterr().out
    assert "2 grid points" in out  # 2 batches x 1 len x 1 len
    assert "opt-30b on spr-a100" in out
    assert all(row["latency_s"] > 0 for row in rows)


def test_faults_list_presets(capsys):
    assert main(["faults", "--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "pcie-downshift" in out
    assert "noisy-neighbor" in out


def test_faults_preset_run_writes_trace_and_report(capsys, tmp_path):
    import json

    trace = tmp_path / "faults.trace.json"
    report = tmp_path / "faults.json"
    assert main(["faults", "--preset", "noisy-neighbor",
                 "--model", "opt-30b", "--system", "spr-a100",
                 "--requests", "12", "--out", str(trace),
                 "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "scenario noisy-neighbor" in out
    assert "fault events" in out
    assert validate_trace_file(trace) == []
    payload = json.loads(report.read_text())
    assert payload["scenario"]["name"] == "noisy-neighbor"
    assert payload["fault_stats"]["policy_resolves"] > 0
    assert sum(payload["fault_stats"].values()) > 0
    assert payload["percentiles"]["p99"] >= payload["percentiles"]["p50"]
    metrics = json.loads((tmp_path / "faults.metrics.json").read_text())
    names = {row["metric"] for row in metrics["metrics"]}
    assert any(name.startswith("faults.") for name in names)


def test_faults_scenario_file(capsys, tmp_path):
    import json

    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps({
        "name": "file-scenario", "seed": 11,
        "events": [{"kind": "pcie-downshift", "magnitude": 0.5,
                    "start": 0.0}]}))
    assert main(["faults", "--scenario", str(spec_path),
                 "--requests", "4"]) == 0
    assert "scenario file-scenario" in capsys.readouterr().out


def test_faults_without_scenario_matches_fault_free(capsys, tmp_path):
    """No scenario: the faults command takes the plain serving path
    and reports the exact fault-free numbers."""
    plain_json = cli_smokes.run_json(tmp_path, "free.json", "faults",
                                     "--requests", "6")
    plain = capsys.readouterr().out
    assert "(fault-free)" in plain
    assert "fault events" not in plain
    # Idle scenario file: same numbers, bit for bit.
    path = tmp_path / "idle-scenario.json"
    path.write_text('{"name": "armed-idle", "seed": 1, "events": []}')
    idle_json = cli_smokes.run_json(tmp_path, "idle.json", "faults",
                                    "--scenario", str(path),
                                    "--requests", "6")
    assert plain_json["served"] == idle_json["served"]
    idle = capsys.readouterr().out
    strip = lambda text: [line for line in text.splitlines()
                          if line.lstrip().startswith(("p50", "p95",
                                                       "p99",
                                                       "makespan"))]
    assert strip(plain) == strip(idle)


def test_monitor_writes_all_exports(capsys, tmp_path):
    cli_smokes.check_monitor(tmp_path, 400, 32)
    out = capsys.readouterr().out
    assert "monitored 400 requests" in out
    assert "SLO threshold" in out and "auto: 1.25 x p95" in out


def test_monitor_fleet_dashboard_lists_every_replica(tmp_path):
    cli_smokes.check_monitor_fleet(tmp_path, 400)


def test_monitor_preset_attributes_alerts(capsys):
    assert main(["monitor", "--num-requests", "200", "--rate", "0.2",
                 "--preset", "gpu-pressure", "--windows", "32"]) == 0
    out = capsys.readouterr().out
    assert "scenario     : gpu-pressure" in out
    assert "fault window(s)" in out


def test_monitor_preset_conflicts_with_replicas(capsys):
    assert main(["monitor", "--preset", "gpu-pressure",
                 "--replicas", "2"]) == 1
    assert "single server" in capsys.readouterr().err


def test_faults_preset_and_scenario_conflict(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{}")
    assert main(["faults", "--preset", "pcie-flaky",
                 "--scenario", str(path)]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_faults_unknown_preset(capsys):
    assert main(["faults", "--preset", "asteroid"]) == 1
    err = capsys.readouterr().err
    assert "known scenarios" in err and "Traceback" not in err


def test_sweep_rows_equal_figure_rows(tmp_path):
    """``repro sweep`` runs the figure drivers' estimator: its rows are
    the Fig. 10 (B=1) and Fig. 11 (B=64) LIA rows, exactly."""
    import json

    from repro.experiments import (fig10_online_latency,
                                   fig11_offline_throughput)

    pairs = [("spr-a100", "opt-30b")]
    fig10 = fig10_online_latency.run(pairs=pairs, frameworks=["lia"],
                                     output_lens=[32])
    fig11 = fig11_offline_throughput.run(pairs=pairs, frameworks=["lia"],
                                         batch_sizes=[64],
                                         output_lens=[32])
    input_lens = sorted({row["input_len"] for row in fig10.rows})
    out_json = tmp_path / "sweep.json"
    assert main(["sweep", "--model", "opt-30b", "--system", "spr-a100",
                 "--batches", "1", "64", "--output-lens", "32",
                 "--input-lens", *map(str, input_lens),
                 "--json", str(out_json)]) == 0
    rows = {(row["batch_size"], row["input_len"]): row
            for row in json.loads(out_json.read_text())["rows"]}
    for row in fig10.rows:
        assert rows[(1, row["input_len"])]["latency_s"] == row["latency_s"]
    for row in fig11.rows:
        assert (rows[(64, row["input_len"])]["tokens_per_s"]
                == row["tokens_per_s"])


def test_serve_fixed_fleet(capsys):
    assert main(["serve", "--model", "opt-30b", "--num-requests", "200",
                 "--rate", "0.2", "--replicas", "2"]) == 0
    out = capsys.readouterr().out
    assert "served 200 requests on 2 replica(s)" in out
    assert "p50/p95/p99" in out
    assert "per-replica" in out


def test_serve_json_payload(tmp_path):
    payload = cli_smokes.check_serve(
        tmp_path, "--num-requests", "150", "--rate", "0.3", "--shape",
        "1,128,16", "--shape", "8,256,32")
    assert payload["num_requests"] == 150
    assert payload["shapes"] == [[1, 128, 16], [8, 256, 32]]
    assert payload["replica_utilizations"]


def test_serve_slo_plans_fleet(capsys):
    assert main(["serve", "--model", "opt-30b", "--num-requests", "120",
                 "--rate", "1.0", "--slo-p95", "60"]) == 0
    out = capsys.readouterr().out
    assert "smallest round-robin fleet" in out
    assert "$" in out


def test_serve_streaming_percentiles(capsys, tmp_path):
    # Exact percentiles up to the report's size limit, the streaming
    # histogram beyond it; the header and the JSON say which.
    import json

    from repro.serving.simulator import DEFAULT_EXACT_PERCENTILE_LIMIT

    assert main(["serve", "--num-requests", "100", "--rate", "0.5"]) == 0
    assert "(exact percentiles)" in capsys.readouterr().out
    path = tmp_path / "serve.json"
    n = DEFAULT_EXACT_PERCENTILE_LIMIT + 1
    assert main(["serve", "--num-requests", str(n), "--rate", "0.5",
                 "--json", str(path)]) == 0
    assert "(streaming percentiles)" in capsys.readouterr().out
    assert json.loads(path.read_text())["streaming"] is True


def test_serve_bad_shape_is_clean_error(capsys):
    assert main(["serve", "--shape", "1x128x16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--chaos", "--trace"])
def test_fleet_malformed_spec_file_is_one_line_error(capsys, tmp_path,
                                                     flag):
    """Without PyYAML the error says so, on one line too."""
    path = tmp_path / "bad.yaml"
    path.write_text("name: x\nfaults: [ {kind: replica-crash\n")
    assert main(["fleet", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    try:
        import yaml  # noqa: F401
    except ImportError:
        assert "PyYAML is not installed" in err
    else:
        assert "not valid YAML" in err


@pytest.mark.parametrize("flag, what", [("--trace", "trace spec"),
                                        ("--chaos", "fleet scenario")])
@pytest.mark.parametrize("path", ["nope.json", "nope.yml",
                                  "specs/nope"])
def test_fleet_missing_spec_file_is_a_read_error(capsys, tmp_path,
                                                 monkeypatch, flag, what,
                                                 path):
    """A spec suffix or a directory separator marks a file: a missing
    one is a read error, not an unknown preset name."""
    monkeypatch.chdir(tmp_path)
    assert main(["fleet", flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} '{path}': ")
    assert len(err.strip().splitlines()) == 1


def test_fleet_list_presets(capsys):
    assert main(["fleet", "--list-presets"]) == 0
    out = capsys.readouterr().out
    assert "bursty-chaos" in out
    assert "diurnal-autoscale" in out
    assert "chaos scenarios:" in out


def test_fleet_preset_run_writes_json(capsys, tmp_path):
    """Failover is load-bearing (2,000 requests: ``lanes/``)."""
    cli_smokes.check_fleet_failover(tmp_path, 300)
    out = capsys.readouterr().out
    assert "served/dropped" in out
    assert "availability" in out


@pytest.mark.parametrize("check", cli_smokes.CONTINUOUS_SMOKES,
                         ids=lambda check: check.__name__)
def test_continuous_scheduler_smokes(tmp_path, check):
    check(tmp_path, 200)


def test_fleet_chaos_file_override(capsys, tmp_path):
    import json

    from repro.faults.fleet import fleet_to_dict, get_fleet_scenario

    chaos_path = tmp_path / "chaos.json"
    chaos_path.write_text(json.dumps(
        fleet_to_dict(get_fleet_scenario("gray-failure"))))
    assert main(["fleet", "--preset", "bursty-chaos",
                 "--num-requests", "200",
                 "--chaos", str(chaos_path)]) == 0
    out = capsys.readouterr().out
    assert "chaos gray-failure" in out


def test_partial_kv_override_keeps_the_derived_tiers(tmp_path):
    """``--kv-ddr-gb`` alone replaces the DDR budget only: HBM keeps
    its system-derived budget, so the HBM peak does not move."""
    import json

    peaks = []
    for override in ([], ["--kv-ddr-gb", "100"]):
        path = tmp_path / "serve.json"
        assert main(["serve", "--scheduler", "continuous",
                     "--num-requests", "200", "--rate", "0.5",
                     *override, "--json", str(path)]) == 0
        peaks.append(json.loads(path.read_text())["batching"]
                     ["kv_peak_bytes"])
    assert peaks[0]["hbm"] > 0.0
    assert peaks[1]["hbm"] == peaks[0]["hbm"]


@pytest.mark.parametrize("argv, message", [
    (["monitor", "--num-requests", "50", "--windows", "0"],
     "n_windows must be >= 1, got 0"),
    (["fleet", "--preset", "replica-crash", "--num-requests", "50",
      "--html", "fleet.html", "--windows", "0"],
     "n_windows must be >= 1, got 0"),
    (["serve", "--num-requests", "10", "--rate", "inf"],
     "rate_per_s must be finite, got inf"),
    (["monitor", "--num-requests", "10", "--rate", "inf"],
     "rate_per_s must be finite, got inf"),
    (["fleet", "--num-requests", "-5"], "--num-requests must be >= 0"),
    (["serve", "--slo-p95", "-1"], "--slo-p95 must be >= 0"),
    (["serve", "--slo-p95", "nan"], "--slo-p95 must be >= 0"),
    (["serve", "--scheduler", "continuous", "--kv-hbm-gb", "-1"],
     "--kv-hbm-gb must be >= 0"),
    (["serve", "--scheduler", "continuous", "--kv-cxl-gb", "-2"],
     "--kv-cxl-gb must be >= 0"),
    (["serve", "--scheduler", "continuous", "--num-requests", "10",
      "--kv-unbounded", "--kv-hbm-gb", "1"],
     "--kv-unbounded disables the KV budgets"),
    (["monitor", "--slo-threshold", "-1"], "--slo-threshold must be >= 0"),
    (["monitor", "--long-window", "-5"], "--long-window must be >= 0"),
    (["monitor", "--short-window", "-5"], "--short-window must be >= 0"),
    (["serve", "--max-batch", "0"],
     "--max-batch needs --scheduler continuous"),
    (["serve", "--join", "drain"], "--join needs --scheduler continuous"),
    (["serve", "--kv-hbm-gb", "2"],
     "--kv-hbm-gb needs --scheduler continuous"),
    (["serve", "--kv-ddr-gb", "2"],
     "--kv-ddr-gb needs --scheduler continuous"),
    (["serve", "--kv-cxl-gb", "2"],
     "--kv-cxl-gb needs --scheduler continuous"),
    (["serve", "--scheduler", "fifo", "--kv-unbounded"],
     "--kv-unbounded needs --scheduler continuous"),
    (["serve", "--slo-p95", "60", "--max-batch", "4", "--join", "drain"],
     "--max-batch, --join need --scheduler continuous"),
    (["fleet", "--max-batch", "0"],
     "--max-batch needs --scheduler continuous"),
    (["monitor", "--num-requests", "50", "--long-window", "inf"],
     "long_window_s must be finite"),
    (["monitor", "--num-requests", "50", "--short-window", "inf"],
     "short_window_s must be finite"),
    (["monitor", "--num-requests", "50", "--burn-threshold", "nan"],
     "burn_rate_threshold must be positive and finite, got nan"),
    (["fleet", "--windows", "-3"], "n_windows must be >= 1, got -3"),
])
def test_rejected_inputs_are_one_line_errors(capsys, tmp_path,
                                              monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "fleet.html").exists()


@pytest.mark.parametrize("argv", [
    ["serve", "--max-batch", "8", "--join", "step", "--kv-hbm-gb", "0"],
    ["fleet", "--preset", "replica-crash", "--max-batch", "8"],
])
def test_continuous_flags_at_their_defaults_run_fifo(capsys, argv):
    """Spelling a continuous-only flag at its default changes nothing,
    so the FIFO engines accept it."""
    assert main([*argv, "--num-requests", "50"]) == 0
    assert capsys.readouterr().err == ""


def test_fleet_bad_windows_fail_before_any_work_or_output(capsys,
                                                         tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fleet", "--windows", "0", "--json", "a.json",
                 "--html", "b.html"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --windows: n_windows must be >= 1, "
                            "got 0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--json", "--out"])
def test_output_into_a_missing_directory_is_created(capsys, tmp_path,
                                                    flag):
    path = tmp_path / "new" / "dir" / "faults.json"
    assert main(["faults", "--requests", "6", flag, str(path)]) == 0
    assert path.is_file()
    assert f"wrote {path}" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--json", "--out"])
def test_unwritable_output_path_is_one_line_error(capsys, tmp_path, flag):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["faults", "--requests", "6", flag,
                 str(blocker / "faults.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a-file" in err
    assert len(err.strip().splitlines()) == 1
