"""KV-cache placement and traffic accounting."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PlacementError
from repro.inference.kv_cache import KVCache, make_caches
from repro.inference.tensors import DeviceTensor, TransferLog


def _kv(batch, seq, dim, device="cpu", value=1.0):
    data = np.full((batch, seq, dim), value, dtype=np.float32)
    return DeviceTensor(data, device)


def test_append_and_grow():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(2, 4, 8), _kv(2, 4, 8), log, layer=0)
    assert cache.seq_len == 4
    cache.append(_kv(2, 1, 8), _kv(2, 1, 8), log, layer=0)
    assert cache.seq_len == 5


def test_cpu_generated_kv_incurs_no_store_traffic():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(1, 4, 8, "cpu"), _kv(1, 4, 8, "cpu"), log, layer=0)
    assert log.total_bytes == 0


def test_gpu_generated_kv_logs_eq9_store():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(1, 4, 8, "gpu"), _kv(1, 4, 8, "gpu"), log, layer=3)
    # K and V, BF16 bytes each.
    assert log.total_bytes == 2 * (1 * 4 * 8 * 2)
    assert all("kv-store:L3" == r.label for r in log.records)


def test_read_from_home_is_free():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(1, 4, 8), _kv(1, 4, 8), log, layer=0)
    cache.read("cpu", log, layer=0)
    assert log.total_bytes == 0


def test_read_across_boundary_logs_eq5_load():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(1, 4, 8), _kv(1, 4, 8), log, layer=0)
    k, v = cache.read("gpu", log, layer=0)
    assert k.device == v.device == "gpu"
    assert log.total_bytes == 2 * (1 * 4 * 8 * 2)


def test_empty_read_rejected():
    with pytest.raises(PlacementError, match="empty"):
        KVCache().read_k("cpu", TransferLog(), layer=0)


def test_mismatched_kv_shapes_rejected():
    with pytest.raises(ConfigurationError):
        KVCache().append(_kv(1, 4, 8), _kv(1, 5, 8), TransferLog(), 0)


def test_batch_change_rejected():
    cache = KVCache()
    log = TransferLog()
    cache.append(_kv(2, 4, 8), _kv(2, 4, 8), log, 0)
    with pytest.raises(ConfigurationError, match="batch"):
        cache.append(_kv(3, 1, 8), _kv(3, 1, 8), log, 0)


def test_nbytes_accounting():
    cache = KVCache()
    cache.append(_kv(2, 4, 8), _kv(2, 4, 8), TransferLog(), 0)
    assert cache.nbytes_bf16 == 2 * (2 * 4 * 8) * 2


def test_make_caches():
    caches = make_caches(4)
    assert len(caches) == 4
    with pytest.raises(ConfigurationError):
        make_caches(0)
