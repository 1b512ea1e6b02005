"""CSV export."""

import csv

import pytest

from repro.errors import ConfigurationError
from repro.experiments.export import default_drivers, to_csv
from repro.experiments.reporting import ExperimentResult


def _result():
    result = ExperimentResult("t1", "a test")
    result.add_row(a=1, b="x")
    result.add_row(a=2, b="y", c=3.5)
    return result


def test_to_csv_roundtrip(tmp_path):
    path = to_csv(_result(), tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# t1: a test"
    rows = list(csv.DictReader(lines[1:]))
    assert rows[0] == {"a": "1", "b": "x", "c": ""}
    assert rows[1] == {"a": "2", "b": "y", "c": "3.5"}


def test_to_csv_creates_directories(tmp_path):
    path = to_csv(_result(), tmp_path / "deep" / "dir" / "out.csv")
    assert path.exists()


def test_empty_result_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        to_csv(ExperimentResult("t", "t"), tmp_path / "x.csv")


def test_registry_covers_all_paper_artifacts():
    drivers = default_drivers()
    for name in ("fig01", "fig03", "fig04", "fig05", "fig08", "fig09",
                 "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
                 "tab3", "tab4", "tab5", "tab6", "sec72", "sec77", "sec8-gh",
                 "sec8-v100", "sec8-cxl-cost", "ext-int8",
                 "ext-multigpu"):
        assert name in drivers
