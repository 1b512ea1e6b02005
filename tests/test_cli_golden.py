"""Golden snapshot of the command-line interface.

Each argv in ``MATRIX`` runs through :func:`repro.cli.main` in an empty
working directory.  The snapshot pins the exit code, stdout verbatim,
stderr, and the sha256 of every file the run writes (output names are
relative, so they land in that directory).  The matrix covers every
subcommand, each serving-engine branch of ``serve``, ``monitor`` and
``fleet``, and every flag conflict the CLI rejects.  It also pins each
subcommand's option strings and defaults.

Regenerate deliberately (and justify the move in review) with::

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli.json"

MATRIX = {
    "models": ["models"],
    "systems": ["systems"],
    "plan-cxl": ["plan", "--model", "opt-30b", "--system", "spr-a100",
                 "--batch", "64", "--cxl"],
    "policy-map": ["policy-map", "--batches", "1", "64",
                   "--lengths", "32", "256"],
    "sweep": ["sweep", "--batches", "1", "16", "--input-lens", "32",
              "256", "--output-lens", "8", "--json", "sweep.json"],
    "experiment-list": ["experiment", "--list"],
    "experiment-fig01": ["experiment", "fig01", "--csv-dir", "csv"],
    "calibrate": ["calibrate"],
    "trace-engine": ["trace", "--decode-policy", "011000",
                     "--out", "engine.trace.json"],
    "trace-serving": ["trace", "--mode", "serving", "--model", "opt-30b",
                      "--requests", "6", "--out", "serving.trace.json"],
    "trace-schedule": ["trace", "--mode", "schedule", "--model",
                       "opt-30b", "--batch", "64", "--input-len", "256",
                       "--out", "schedule.trace.json"],
    "faults-list": ["faults", "--list-presets"],
    "faults-free": ["faults", "--requests", "6", "--json", "free.json"],
    "faults-preset": ["faults", "--preset", "noisy-neighbor",
                      "--requests", "12", "--out", "faults.trace.json",
                      "--json", "faults.json"],
    "serve-round-robin": ["serve", "--num-requests", "300", "--rate",
                          "0.2", "--replicas", "2", "--json",
                          "serve.json"],
    "serve-least-loaded": ["serve", "--num-requests", "300", "--rate",
                           "0.2", "--replicas", "3", "--dispatch",
                           "least-loaded", "--shape", "1,128,16",
                           "--shape", "8,256,32", "--json",
                           "serve.json"],
    "serve-slo": ["serve", "--num-requests", "120", "--rate", "1.0",
                  "--slo-p95", "60", "--json", "serve.json"],
    "serve-continuous": ["serve", "--scheduler", "continuous",
                         "--num-requests", "200", "--rate", "0.5",
                         "--replicas", "2", "--json", "serve.json"],
    "serve-continuous-kv": ["serve", "--scheduler", "continuous",
                            "--num-requests", "200", "--rate", "0.5",
                            "--max-batch", "16", "--kv-hbm-gb", "2",
                            "--kv-ddr-gb", "4", "--kv-cxl-gb", "64",
                            "--json", "serve.json"],
    "serve-fifo-degenerate": ["serve", "--scheduler", "continuous",
                              "--max-batch", "1", "--join", "drain",
                              "--kv-unbounded", "--num-requests", "200",
                              "--rate", "0.5", "--json", "serve.json"],
    "monitor-single": ["monitor", "--num-requests", "400", "--rate",
                       "0.2", "--windows", "32", "--out",
                       "monitor.trace.json", "--csv", "monitor.csv",
                       "--html", "monitor.html", "--json",
                       "monitor.json"],
    "monitor-preset": ["monitor", "--num-requests", "200", "--rate",
                       "0.2", "--preset", "gpu-pressure", "--windows",
                       "32", "--out", "monitor.trace.json", "--json",
                       "monitor.json"],
    "monitor-replicas": ["monitor", "--num-requests", "400", "--rate",
                         "0.2", "--replicas", "3", "--dispatch",
                         "least-loaded", "--windows", "16", "--html",
                         "monitor.html", "--json", "monitor.json"],
    "fleet-list": ["fleet", "--list-presets"],
    "fleet-chaos": ["fleet", "--preset", "replica-crash",
                    "--num-requests", "300", "--windows", "16",
                    "--json", "fleet.json", "--html", "fleet.html"],
    "fleet-autoscale": ["fleet", "--preset", "diurnal-autoscale",
                        "--num-requests", "400", "--json",
                        "fleet.json"],
    "fleet-trace": ["fleet", "--preset", "bursty-chaos", "--trace",
                    "steady", "--num-requests", "300", "--replicas",
                    "2", "--shape", "1,128,16", "--json", "fleet.json"],
    "fleet-trace-heavy-tail": ["fleet", "--preset", "replica-crash",
                               "--trace", "heavy-tail", "--num-requests",
                               "300", "--json", "fleet.json"],
    "fleet-trace-sessions": ["fleet", "--preset", "replica-crash",
                             "--trace", "sessions", "--num-requests",
                             "300", "--json", "fleet.json"],
    "fleet-continuous": ["fleet", "--preset", "replica-crash",
                         "--chaos", "none", "--scheduler", "continuous",
                         "--num-requests", "300", "--max-batch", "4",
                         "--json", "fleet.json"],
    # Conflicts and rejected inputs: exit 1 with one `error:` line.
    "error-faults-exclusive": ["faults", "--preset", "pcie-flaky",
                               "--scenario", "missing.json"],
    "error-faults-preset": ["faults", "--preset", "asteroid"],
    "error-serve-slo-continuous": ["serve", "--scheduler", "continuous",
                                   "--slo-p95", "60",
                                   "--num-requests", "10"],
    "error-serve-shape": ["serve", "--shape", "1x128x16"],
    "error-serve-shape-int": ["serve", "--shape", "1,a,16"],
    "error-monitor-preset-replicas": ["monitor", "--preset",
                                      "gpu-pressure", "--replicas", "2"],
    "error-fleet-continuous-chaos": ["fleet", "--scheduler",
                                     "continuous", "--num-requests",
                                     "50"],
    "error-fleet-continuous-html": ["fleet", "--preset",
                                    "replica-crash", "--chaos", "none",
                                    "--scheduler", "continuous",
                                    "--num-requests", "50", "--html",
                                    "fleet.html"],
    "error-fleet-preset": ["fleet", "--preset", "hurricane"],
    "error-fleet-trace": ["fleet", "--trace", "full-moon"],
    "error-fleet-chaos": ["fleet", "--chaos", "volcano"],
    "error-plan-model": ["plan", "--model", "gpt-9"],
    "error-serve-system": ["serve", "--system", "tpu-pod"],
    "error-trace-large": ["trace", "--model", "opt-175b",
                          "--out", "big.trace.json"],
    "error-policy-map-batch": ["policy-map", "--batches", "0"],
    "error-experiment-id": ["experiment", "fig99"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(argv) -> dict:
    """Run one argv in a fresh directory; return what it printed and
    wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            root = Path(tmp)
            files = {path.relative_to(root).as_posix(): _sha256(path)
                     for path in sorted(root.rglob("*"))
                     if path.is_file()}
        finally:
            os.chdir(cwd)
    return {"argv": list(argv), "exit": code,
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "files": files}


def option_table() -> dict:
    """Each subcommand's option strings with their defaults."""
    parser = _build_parser()
    commands = next(action for action in parser._actions
                    if action.dest == "command")
    table = {}
    for name, sub in commands.choices.items():
        table[name] = {", ".join(action.option_strings) or action.dest:
                       repr(action.default)
                       for action in sub._actions
                       if action.dest != "help"}
    return table


def snapshot() -> dict:
    return {"options": option_table(),
            "runs": {name: run_case(argv)
                     for name, argv in MATRIX.items()}}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_matrix_matches_golden_names(golden):
    assert sorted(golden["runs"]) == sorted(MATRIX)


def test_options_match_golden(golden):
    assert option_table() == golden["options"]


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_cli_run_matches_golden(golden, name):
    expected = golden["runs"][name]
    assert expected["argv"] == MATRIX[name]
    assert run_case(MATRIX[name]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
