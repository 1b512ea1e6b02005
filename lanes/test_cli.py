"""CLI smokes at full size, in-process into ``tmp_path``."""

import pytest

from tests.oracles import cli_smokes


@pytest.mark.parametrize("argv", [
    ["--decode-policy", "011000"],
    ["--mode", "serving", "--model", "opt-30b", "--requests", "6"],
    ["--mode", "schedule", "--model", "opt-30b", "--batch", "64",
     "--input-len", "256"]], ids=["engine", "serving", "schedule"])
def test_trace(tmp_path, argv):
    cli_smokes.check_trace(tmp_path, *argv)


def test_monitor(tmp_path):
    cli_smokes.check_monitor(tmp_path, 4000, 64)


def test_monitor_fleet(tmp_path):
    cli_smokes.check_monitor_fleet(tmp_path, 4000)


def test_serve(tmp_path):
    cli_smokes.check_serve(tmp_path, "--model", "opt-30b",
                           "--num-requests", "5000", "--rate", "0.2",
                           "--replicas", "2", "--dispatch", "least-loaded")


def test_fleet_failover(tmp_path):
    cli_smokes.check_fleet_failover(tmp_path, 2000)


@pytest.mark.parametrize("check", cli_smokes.CONTINUOUS_SMOKES,
                         ids=lambda check: check.__name__)
def test_continuous_scheduler(tmp_path, check):
    check(tmp_path, 2000)
