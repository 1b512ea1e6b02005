"""Golden snapshot of every built-in fleet preset.

Chaos runs are otherwise only compared with themselves (determinism),
so a change to the fleet simulator that moves a timeline would pass
unnoticed.  This pins, per preset, ``FleetReport.to_dict()`` plus a
sha256 of the served timeline columns.

Regenerate deliberately (and justify the move in review) with::

    PYTHONPATH=src python tests/serving/test_fleet_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model
from repro.serving import WorkloadVector, builtin_fleet_presets

GOLDEN = Path(__file__).resolve().parents[1] / "goldens" / \
    "fleet_presets.json"
SHAPES = [InferenceRequest(1, 128, 16), InferenceRequest(1, 256, 32)]
COLUMNS = ("starts", "finishes", "assignment", "served_index")


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()
                          ).hexdigest()


def preset_payload() -> dict:
    """Every preset's report summary and column digests, by name."""
    estimator = LiaEstimator(get_model("opt-30b"), get_system("spr-a100"),
                             LiaConfig(enforce_host_capacity=False))
    payload = {}
    for name, preset in builtin_fleet_presets().items():
        trace = preset.trace.generate()
        workload = WorkloadVector.sample_mix(SHAPES, trace.size, seed=0)
        report = preset.simulator(estimator).run(workload, trace)
        entry = report.to_dict()
        entry["sha256"] = {column: _sha256(getattr(report, column))
                           for column in COLUMNS}
        payload[name] = entry
    # The JSON round trip the snapshot itself went through.
    return json.loads(json.dumps(payload))


def test_fleet_presets_match_golden():
    golden = json.loads(GOLDEN.read_text())
    recomputed = preset_payload()
    assert sorted(recomputed) == sorted(golden)
    for name in golden:
        assert recomputed[name] == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fleet_golden.py --write")
    GOLDEN.write_text(json.dumps(preset_payload(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
