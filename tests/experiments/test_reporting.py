"""Experiment result containers and table rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.reporting import (
    OOM,
    ExperimentResult,
    format_table,
)


@pytest.fixture
def result():
    res = ExperimentResult("t1", "test experiment")
    res.add_row(framework="lia", batch=1, value=1.5)
    res.add_row(framework="ipex", batch=1, value=3.0)
    res.add_row(framework="lia", batch=64, value=OOM)
    return res


def test_column_extraction(result):
    assert result.column("framework") == ["lia", "ipex", "lia"]


def test_select_filters(result):
    rows = result.select(framework="lia")
    assert len(rows) == 2
    assert result.select(framework="lia", batch=1)[0]["value"] == 1.5


def test_value_requires_unique_match(result):
    assert result.value("value", framework="ipex") == 3.0
    with pytest.raises(ConfigurationError, match="2 rows"):
        result.value("value", framework="lia")
    with pytest.raises(ConfigurationError, match="0 rows"):
        result.value("value", framework="flexgen")


def test_empty_column_raises():
    with pytest.raises(ConfigurationError):
        ExperimentResult("t", "t").column("x")


def test_render_contains_all_cells(result):
    text = result.render()
    assert "t1" in text
    assert "ipex" in text
    assert "OOM" in text


def test_format_table_alignment():
    rows = [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}]
    table = format_table(rows)
    lines = table.splitlines()
    assert lines[0].startswith("a")
    assert len({len(line) for line in lines}) <= 2  # aligned


def test_format_table_float_formatting():
    table = format_table([{"v": 0.000123}, {"v": 12345.6}, {"v": 1.5}])
    assert "0.000123" in table
    assert "1.23e+04" in table
    assert "1.5" in table


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_format_table_unions_heterogeneous_rows():
    rows = [{"panel": "a", "gb_per_s": 29.4},
            {"panel": "b", "series": "decode-S2", "ratio": 0.2}]
    table = format_table(rows)
    header = table.splitlines()[0]
    for column in ("panel", "gb_per_s", "series", "ratio"):
        assert column in header
    assert "decode-S2" in table
