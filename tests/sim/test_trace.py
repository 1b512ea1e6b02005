"""Timeline analysis and rendering."""

import pytest

from repro.errors import SimulationError
from repro.sim import trace
from repro.sim.trace import TaskRecord, Timeline


def _timeline():
    return Timeline([
        TaskRecord("a", "cpu", "a", 0.0, 2.0),
        TaskRecord("b", "pcie", "b", 0.0, 1.0),
        TaskRecord("c", "cpu", "c", 2.0, 3.0),
    ])


def test_makespan():
    assert _timeline().makespan == 3.0


def test_busy_time_and_utilization():
    timeline = _timeline()
    assert timeline.busy_time("cpu") == pytest.approx(3.0)
    assert timeline.busy_time("pcie") == pytest.approx(1.0)
    assert timeline.utilization("cpu") == pytest.approx(1.0)
    assert timeline.utilization("pcie") == pytest.approx(1.0 / 3.0)


def test_by_resource_grouping():
    grouped = _timeline().by_resource()
    assert sorted(grouped) == ["cpu", "pcie"]
    assert [r.task_id for r in grouped["cpu"]] == ["a", "c"]


def test_record_lookup():
    assert _timeline().record("b").resource == "pcie"
    with pytest.raises(SimulationError):
        _timeline().record("zzz")


def test_empty_timeline():
    empty = Timeline([])
    assert empty.makespan == 0.0
    assert empty.utilization("cpu") == 0.0
    assert empty.render_gantt() == "(empty timeline)"


def test_gantt_rendering_has_rows_per_resource():
    text = _timeline().render_gantt()
    lines = text.splitlines()
    assert any("cpu" in line for line in lines)
    assert any("pcie" in line for line in lines)
    assert "makespan" in lines[-1]
    assert "#" in text and "." in text


def test_records_sorted_by_start():
    timeline = Timeline([
        TaskRecord("late", "cpu", "late", 5.0, 6.0),
        TaskRecord("early", "cpu", "early", 0.0, 1.0),
    ])
    assert [r.task_id for r in timeline.records] == ["early", "late"]


def test_duplicate_task_ids_rejected():
    with pytest.raises(SimulationError, match="duplicate"):
        Timeline([
            TaskRecord("a", "cpu", "a", 0.0, 1.0),
            TaskRecord("a", "gpu", "a again", 1.0, 2.0),
        ])


def test_record_lookup_scales_constant_time():
    # The task_id index is built once at construction; lookups do not
    # walk the record list.
    many = Timeline([TaskRecord(f"t{i}", "cpu", f"t{i}", float(i),
                                float(i + 1)) for i in range(2000)])
    assert many.record("t1999").start == 1999.0
    assert many.record("t0").finish == 1.0


def test_gantt_sub_pixel_task_still_renders():
    # A task far shorter than one column must still paint one '#'.
    timeline = Timeline([
        TaskRecord("long", "cpu", "long", 0.0, 100.0),
        TaskRecord("blip", "pcie", "blip", 50.0, 50.001),
    ])
    text = timeline.render_gantt()
    pcie_row = next(line for line in text.splitlines()
                    if "pcie" in line)
    assert pcie_row.count("#") == 1


def test_gantt_task_ending_at_makespan_fills_last_column(monkeypatch):
    timeline = Timeline([
        TaskRecord("a", "cpu", "a", 0.0, 4.0),
        TaskRecord("b", "cpu", "b", 4.0, 8.0),
    ])
    for width in (7, 8, 72):
        monkeypatch.setattr(trace, "GANTT_WIDTH", width)
        row = next(line for line in
                   timeline.render_gantt().splitlines()
                   if "cpu" in line)
        cells = row.split("|")[1]
        assert len(cells) == width
        assert cells[-1] == "#"  # finish == makespan reaches the edge
        assert "." not in cells  # back-to-back tasks leave no hole


def test_to_trace_events_round_trip():
    events = _timeline().to_trace_events()
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["args"]["task_id"] for e in complete} == {"a", "b", "c"}
    assert all(e["dur"] >= 0 for e in complete)
