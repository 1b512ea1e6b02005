"""Golden-value regression tier: pinned paper operating points.

Recomputes each case in :mod:`repro.experiments.goldens` and compares
it against the committed snapshot.  A failure here means an estimator
or optimizer change moved a published operating point — either fix
the regression or regenerate the snapshot deliberately with
``scripts/gen_goldens.py`` and justify the move in review.
"""

import hashlib
import json
import math
import os

import pytest

from repro.experiments.goldens import (GOLDEN_CASES, compare_payloads,
                                       golden_path, load_golden)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_snapshot_committed(name):
    assert os.path.exists(golden_path(name)), (
        f"missing golden {name}; run scripts/gen_goldens.py")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_values_unchanged(name):
    golden = load_golden(name)
    recomputed = GOLDEN_CASES[name]()
    problems = compare_payloads(golden, recomputed)
    assert not problems, (
        f"{name} drifted from its golden snapshot "
        f"({len(problems)} mismatches):\n  " + "\n  ".join(problems[:10]))


def test_goldens_contain_policy_vectors():
    """The Fig. 9 snapshot pins actual 6-bit policy vectors."""
    golden = load_golden("fig09_policy_map")
    grid = [row for row in golden["rows"]
            if row.get("stage") in ("prefill", "decode")]
    assert grid, "fig09 golden has no policy-grid rows"
    for row in grid:
        bits = [c for c in str(row["policy"]) if c in "01"]
        assert len(bits) == 6, f"not a 6-bit policy: {row['policy']!r}"


#: sha256 of the full fig09+10+11 grids (398 rows) as the drivers emit
#: them.  The snapshots above compare with a relative tolerance; this
#: fingerprint holds every row bit for bit.
FIGURE_GRID_FINGERPRINT = (
    "a0ce57e037a733037dd26f1a008205fc87f7b74e9ee39fcf54f7b6df1400f6a1")


def _fingerprint(grids):
    payload = json.dumps(grids, sort_keys=True, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()


def test_figure_grid_rows_match_fingerprint():
    from repro.experiments import (fig09_policy_map, fig10_online_latency,
                                   fig11_offline_throughput)

    grids = [fig09_policy_map.run().rows, fig10_online_latency.run().rows,
             fig11_offline_throughput.run().rows]
    assert sum(len(rows) for rows in grids) == 398
    assert _fingerprint(grids) == FIGURE_GRID_FINGERPRINT
    # One ulp on one value moves the fingerprint.
    row = grids[1][0]
    row["latency_s"] = math.nextafter(row["latency_s"], math.inf)
    assert _fingerprint(grids) != FIGURE_GRID_FINGERPRINT
