"""scripts/validate_trace.py — counter-track ("C") schema checks.

The validator is stdlib-only and lives outside the package, so it is
loaded by file path (``tests.oracles.cli_smokes.validator``).  The
golden trace under tests/data/ pins the accepted shape of a
span+counter trace; the mutation tests pin each rejection rule.
"""

import copy
import json
from pathlib import Path

import pytest

from tests.oracles import cli_smokes

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_counter.trace.json"


@pytest.fixture(scope="module")
def validator():
    return cli_smokes.validator()


@pytest.fixture
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_counter_trace_is_valid(validator):
    assert validator.validate_trace_file(GOLDEN) == []


def test_missing_file_and_bad_json_are_violations(validator,
                                                  tmp_path):
    assert validator.validate_trace_file(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    errors = validator.validate_trace_file(broken)
    assert errors and "invalid JSON" in errors[0]


def _first_counter(document):
    return next(event for event in document["traceEvents"]
                if event["ph"] == "C")


@pytest.mark.parametrize("mutate,fragment", [
    (lambda e: e.update(ts=-1.0), "must be >= 0"),
    (lambda e: e.update(ts=float("nan")), "must be finite"),
    (lambda e: e.update(pid="main"), "'pid' must be an int"),
    (lambda e: e.update(args={}), "non-empty"),
    (lambda e: e.pop("args"), "non-empty"),
    (lambda e: e.update(args={"value": float("inf")}),
     "finite number"),
    (lambda e: e.update(args={"value": "high"}), "finite number"),
    (lambda e: e.update(args={"value": True}), "finite number"),
    (lambda e: e.update(name=""), "empty 'name'"),
])
def test_counter_violations_are_rejected(validator, golden, mutate,
                                         fragment):
    document = copy.deepcopy(golden)
    mutate(_first_counter(document))
    errors = validator.validate_trace_object(document)
    assert errors, "mutated counter event must be rejected"
    assert any(fragment in message for message in errors)


def test_counter_rejections_name_the_event_index(validator, golden):
    document = copy.deepcopy(golden)
    _first_counter(document)["ts"] = -5
    (error,) = validator.validate_trace_object(document)
    assert error.startswith("traceEvents[3]")


def test_exported_counter_tracks_validate(validator, tmp_path):
    # End to end: the real exporter's counter events pass the real
    # validator (NaN percentile samples are skipped, not emitted).
    import numpy as np

    from repro.telemetry import (build_chrome_trace,
                                 timeseries_to_counter_events)
    from repro.telemetry.timeseries import (WindowGrid,
                                            compute_timeseries)

    arrivals = np.array([0.0, 1.0, 2.0, 30.0])
    finishes = arrivals + 0.5
    grid = WindowGrid(t0=0.0, window_s=8.0, n_windows=4)
    series = compute_timeseries(arrivals, arrivals, finishes,
                                grid=grid)
    # Window 2 finished nothing: its percentile sample is NaN and
    # must be absent from the counter track, not emitted as NaN.
    assert np.isnan(series.percentile(0.95)[2])
    events = timeseries_to_counter_events(series)
    path = tmp_path / "counters.trace.json"
    path.write_text(json.dumps(build_chrome_trace(events)))
    assert validator.validate_trace_file(path) == []
