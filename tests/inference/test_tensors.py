"""Device tensors and transfer logging."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.inference.tensors import DeviceTensor, TransferLog


def test_placement_enforced():
    tensor = DeviceTensor(np.zeros((2, 2), dtype=np.float32), "cpu")
    assert tensor.require_on("cpu") is tensor.data
    with pytest.raises(PlacementError):
        tensor.require_on("gpu")


def test_unknown_device_rejected():
    with pytest.raises(PlacementError):
        DeviceTensor(np.zeros(2), "tpu")


def test_move_logs_bf16_bytes():
    log = TransferLog()
    tensor = DeviceTensor(np.zeros((4, 8), dtype=np.float32), "cpu")
    moved = tensor.to("gpu", log, "weights:test")
    assert moved.device == "gpu"
    assert log.total_bytes == 4 * 8 * 2  # BF16 wire format
    assert log.records[0].source == "cpu"
    assert log.records[0].destination == "gpu"


def test_move_to_same_device_is_free():
    log = TransferLog()
    tensor = DeviceTensor(np.zeros(4, dtype=np.float32), "cpu")
    same = tensor.to("cpu", log, "noop")
    assert same is tensor
    assert log.total_bytes == 0


def test_move_copies_data():
    log = TransferLog()
    tensor = DeviceTensor(np.ones(4, dtype=np.float32), "cpu")
    moved = tensor.to("gpu", log, "x")
    moved.data[0] = 99.0
    assert tensor.data[0] == 1.0


def test_bytes_by_label_groups():
    log = TransferLog()
    a = DeviceTensor(np.zeros(4, dtype=np.float32), "cpu")
    a.to("gpu", log, "weights")
    a.to("gpu", log, "weights")
    a.to("gpu", log, "kv")
    grouped = log.bytes_by_label()
    assert grouped["weights"] == 2 * 8
    assert grouped["kv"] == 8


def test_clear():
    log = TransferLog()
    DeviceTensor(np.zeros(4, dtype=np.float32), "cpu").to("gpu", log, "x")
    log.clear()
    assert log.total_bytes == 0
