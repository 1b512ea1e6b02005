"""Task-graph construction and analysis."""

import pytest

from repro.errors import SimulationError
from repro.sim.task import Task, TaskGraph
from tests.oracles.des_bounds import critical_path_length


def test_add_and_lookup():
    graph = TaskGraph()
    task = graph.add("a", "cpu", 1.0)
    assert graph.get("a") is task
    assert len(graph) == 1


def test_duplicate_id_rejected():
    graph = TaskGraph()
    graph.add("a", "cpu", 1.0)
    with pytest.raises(SimulationError, match="duplicate"):
        graph.add("a", "gpu", 1.0)


def test_unknown_dependency_rejected():
    graph = TaskGraph()
    with pytest.raises(SimulationError, match="unknown dependency"):
        graph.add("a", "cpu", 1.0, deps=["missing"])


def test_self_dependency_rejected():
    with pytest.raises(SimulationError):
        Task(task_id="a", resource="cpu", duration=1.0, deps=("a",))


def test_negative_duration_rejected():
    with pytest.raises(SimulationError):
        Task(task_id="a", resource="cpu", duration=-1.0)


def test_topological_order_respects_deps():
    graph = TaskGraph()
    graph.add("a", "cpu", 1.0)
    graph.add("b", "cpu", 1.0, deps=["a"])
    graph.add("c", "gpu", 1.0, deps=["a"])
    graph.add("d", "gpu", 1.0, deps=["b", "c"])
    order = [t.task_id for t in graph.topological_order()]
    assert order.index("a") < order.index("b")
    assert order.index("a") < order.index("c")
    assert order.index("d") == 3


def test_critical_path_ignores_resources():
    graph = TaskGraph()
    graph.add("a", "cpu", 2.0)
    graph.add("b", "cpu", 3.0, deps=["a"])
    graph.add("c", "cpu", 1.0)
    assert critical_path_length(graph) == pytest.approx(5.0)


def test_resources_listed():
    graph = TaskGraph()
    graph.add("a", "cpu", 1.0)
    graph.add("b", "pcie", 1.0)
    assert graph.resources() == ["cpu", "pcie"]


def test_get_unknown_task():
    with pytest.raises(SimulationError, match="unknown task"):
        TaskGraph().get("nope")
