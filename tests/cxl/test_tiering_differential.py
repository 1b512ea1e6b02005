"""``plan_tiering`` against the allocator-era first-fit plan
(``tests/oracles/tiering_alloc.py``): the same bytes, bit for bit, and
a :class:`CapacityError` exactly where an allocation was refused."""

import numpy as np
import pytest

from repro.core.config import LiaConfig
from repro.cxl.tiering import plan_tiering
from repro.errors import CapacityError
from repro.experiments import tab3_cxl_offloading
from repro.experiments.frameworks import EVAL_CONFIG
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from tests.oracles import tiering_alloc

SYSTEMS = tuple(get_system(name).with_cxl(n_expanders=2)
                for name in ("spr-a100", "spr-h100"))
MODELS = tuple(get_model(name) for name in ("opt-30b", "opt-66b",
                                            "opt-175b"))
INPUT_LEN = 32
OUTPUT_LENS = (32, 64, 128, 256)
#: A coarse B sweep from 1 past the Table 3 batches.
BATCHES = (1, 64, 512, 900, 1600, 2998)


def _table3_batches():
    """Table 3's B=900 and each row's increased batch, by L_out."""
    rows = tab3_cxl_offloading.run(output_lens=OUTPUT_LENS).rows
    return {row["output_len"]: (900, int(row["increased_batch"]))
            for row in rows}


def _ddr_edge(spec, system, output_len):
    """B around the first batch whose KV plus activations overflow
    DDR: both grow linearly in B."""
    per_sequence = (spec.kv_cache_bytes(1, INPUT_LEN + output_len)
                    + spec.peak_activation_bytes(1, INPUT_LEN))
    edge = int(system.cpu.memory.capacity_bytes // per_sequence)
    return range(max(1, edge - 2), edge + 3)


def _library(spec, request, system, config):
    try:
        plan = plan_tiering(spec, request, system, config)
    except CapacityError:
        return None
    return plan.ddr_bytes, plan.cxl_bytes, plan.ddr_bytes_without_cxl


def _bits(plan):
    return None if plan is None else np.array(
        plan, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("config", [EVAL_CONFIG, LiaConfig()],
                         ids=["eval-config", "default-config"])
def test_plan_matches_the_first_fit_allocations(config):
    table3 = _table3_batches()
    mismatches = []
    outcomes = {"fits": 0, "raises": 0}
    for system in SYSTEMS:
        for spec in MODELS:
            for output_len in OUTPUT_LENS:
                batches = sorted({*BATCHES, *table3[output_len],
                                  *_ddr_edge(spec, system, output_len)})
                for batch in batches:
                    request = InferenceRequest(batch, INPUT_LEN,
                                               output_len)
                    expected = _bits(tiering_alloc.plan_tiering(
                        spec, request, system))
                    actual = _bits(_library(spec, request, system,
                                            config))
                    if actual != expected:
                        mismatches.append((system.name, spec.name,
                                           request, expected, actual))
                    outcomes["fits" if expected else "raises"] += 1
    assert not mismatches, mismatches[:5]
    # Both outcomes are exercised: the DDR edge and opt-175b's weights
    # (325 GiB) beyond two 128 GiB expanders raise, the rest fit.
    assert outcomes["fits"] > 100 and outcomes["raises"] > 100
