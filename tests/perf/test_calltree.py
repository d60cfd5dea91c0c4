"""Unit tests for the call-tree data model."""

import pytest

from repro.perf.calltree import CallTree, CallTreeNode


def make_tree():
    tree = CallTree("t")
    consume = tree.node("consume")
    consume.add_metric("time", 10.0)
    consume.add_metric("count", 2)
    consume.metrics["category"] = "movement"
    fetch = tree.node("consume", "fetch")
    fetch.add_metric("time", 3.0)
    fetch.metrics["category"] = "idle"
    read = tree.node("read")
    read.add_metric("time", 5.0)
    return tree


def test_node_creation_and_paths():
    tree = make_tree()
    assert tree.find("consume", "fetch").path() == ("consume", "fetch")
    assert tree.find("missing") is None
    assert sorted(tree.paths()) == [("consume",), ("consume", "fetch"), ("read",)]


def test_metrics_accumulate():
    tree = CallTree()
    node = tree.node("a")
    node.add_metric("time", 1.0)
    node.add_metric("time", 2.0)
    assert node.time == 3.0


def test_exclusive_time():
    tree = make_tree()
    assert tree.find("consume").exclusive_time() == pytest.approx(7.0)
    assert tree.find("consume", "fetch").exclusive_time() == pytest.approx(3.0)


def test_total_over_top_level():
    tree = make_tree()
    # only top-level inclusive times: consume(10) + read(5)
    assert tree.total("time") == pytest.approx(15.0)


def test_total_with_filter():
    tree = make_tree()
    total = tree.total("time", where=lambda n: n.name == "fetch")
    assert total == pytest.approx(3.0)


def test_total_by_category_uses_exclusive():
    tree = make_tree()
    # movement: consume exclusive 7 (child fetch is idle); read has no category
    assert tree.total_by_category("movement") == pytest.approx(7.0)
    assert tree.total_by_category("idle") == pytest.approx(3.0)


def test_flat_mapping():
    flat = make_tree().flat("time")
    assert flat[("consume",)] == 10.0
    assert flat[("consume", "fetch")] == 3.0


def test_to_dict_shape_is_pinned():
    # result fingerprints hash this form: children sorted by name, each
    # node's metrics (its category included) as they were accumulated
    assert make_tree().to_dict() == {
        "label": "t",
        "tree": {"name": "<root>", "metrics": {}, "children": [
            {"name": "consume",
             "metrics": {"time": 10.0, "count": 2, "category": "movement"},
             "children": [
                 {"name": "fetch",
                  "metrics": {"time": 3.0, "category": "idle"},
                  "children": []},
             ]},
            {"name": "read", "metrics": {"time": 5.0}, "children": []},
        ]},
    }


def test_render_contains_nodes_and_categories():
    text = make_tree().render(metric="time", unit=1.0, fmt="{:.1f}")
    assert "consume" in text and "fetch" in text
    assert "[movement]" in text and "[idle]" in text


def test_walk_order_deterministic():
    tree = CallTree()
    tree.node("b")
    tree.node("a")
    tree.node("a", "z")
    tree.node("a", "y")
    names = [n.name for n in tree.nodes()]
    assert names == ["a", "y", "z", "b"]
