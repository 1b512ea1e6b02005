"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import LiaConfig
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model


@pytest.fixture
def opt_175b():
    return get_model("opt-175b")


@pytest.fixture
def opt_30b():
    return get_model("opt-30b")


@pytest.fixture
def tiny_spec():
    return get_model("opt-tiny")


@pytest.fixture
def spr_a100():
    return get_system("spr-a100")


@pytest.fixture
def spr_h100():
    return get_system("spr-h100")


@pytest.fixture
def gnr_a100():
    return get_system("gnr-a100")


@pytest.fixture
def eval_config():
    """Paper-style configuration: starred points allowed beyond the
    512 GB testbed."""
    return LiaConfig(enforce_host_capacity=False)


@pytest.fixture
def online_request():
    return InferenceRequest(batch_size=1, input_len=256, output_len=32)


@pytest.fixture
def offline_request():
    return InferenceRequest(batch_size=64, input_len=256, output_len=32)


@pytest.fixture
def fresh_interpreter():
    """Run a script in a new Python interpreter and return what it prints,
    parsed as JSON. The script reads its input as JSON from ``sys.argv[1]``;
    ``hash_seed`` sets the interpreter's ``PYTHONHASHSEED``."""
    src = str(Path(repro.__file__).resolve().parents[1])

    def run(script, payload, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(payload)], env=env,
            capture_output=True, text=True, check=True, timeout=120)
        return json.loads(out.stdout)

    return run
