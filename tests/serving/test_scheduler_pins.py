"""Long continuous-batching runs pinned to their exact reports.

The per-iteration oracle differential (``test_scheduler_differential``)
covers up to 30 requests per drawn case and 100 per continuous-kv seed.
Two runs here reach further, and their every report field and the
sha256 of their timeline fingerprint are pinned as literals:

* the perfbench continuous-kv stream at 5,000 requests (opt-30b on
  spr-a100 with two CXL expanders, max batch 32, Poisson arrivals at
  0.1/s), which spills KV to CXL and cuts many turns at joins;
* the flip case: opt-30b on dgx-a100 with two CXL expanders, where
  the Eq. (1) answer of attention's placement changes between the
  re-solves the steps read, because small and large aggregate
  batches fall on either side of the decode policy boundary.
"""

import hashlib

import pytest

from tests.oracles.scheduler_cases import (REPORT_FIELDS,
                                           continuous_kv_case, flip_case)


def _pinned(report):
    values = {name: getattr(report, name) for name in REPORT_FIELDS}
    values["fingerprint"] = hashlib.sha256(report.fingerprint()).hexdigest()
    return values


#: Computed by the engine that folded each turn with array kernels and
#: solved every read Eq. (1) re-solve on the spot; any faster engine
#: must reproduce them exactly.
PINS = {
    "continuous-kv-5000": {
        "iterations": 42563,
        "admissions": 5000,
        "occupancy_mean": 14.719145576233318,
        "occupancy_peak": 32,
        "policy_resolves": 6370,
        "kv_peak_bytes": {"hbm": 21474836480.0, "ddr": 549755813888.0,
                          "cxl": 214425731072.0},
        "kv_demotions": 6714,
        "kv_demoted_bytes": 36155451834368.0,
        "server_busy_s": 45994.26236491211,
        "decode_busy_s": 23928.638345519812,
        "fingerprint": "a9ac86240fb7cc6ece8f0aa82506184294db082547d7df72"
                       "de54478e61156609",
    },
    "flip": {
        "iterations": 247,
        "admissions": 200,
        "occupancy_mean": 7.763074242025265,
        "occupancy_peak": 8,
        "policy_resolves": 165,
        "kv_peak_bytes": {"hbm": 352321536.0, "ddr": 704643072.0,
                          "cxl": 543621120.0},
        "kv_demotions": 333,
        "kv_demoted_bytes": 21876965376.0,
        "server_busy_s": 32.40064459632018,
        "decode_busy_s": 20.64791510565283,
        "fingerprint": "53f2c6f0bc078c7724fd42a3d0989aa8cb7aee954fa698a6"
                       "b41c3725d390eaf7",
    },
}
CASES = {"continuous-kv-5000": continuous_kv_case, "flip": flip_case}


@pytest.mark.parametrize("case", sorted(PINS))
def test_long_run_reports_are_pinned(case):
    scheduler, requests, arrivals = CASES[case]()
    assert _pinned(scheduler.run(requests, arrivals)) == PINS[case]
