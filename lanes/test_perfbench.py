"""perfbench's correctness run: every workload's output is checked
against the committed references; the last stdout line is the run's
JSON summary."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["paper-grid", "capacity-plan",
                                      "serve-faults", "continuous-kv"])
def test_workload_is_correct(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seconds", "2"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(run.stdout.splitlines()[-1])
    assert summary["correct"] is True, (summary["attempted"],
                                        summary["failed"])
