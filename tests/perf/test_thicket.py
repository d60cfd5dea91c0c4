"""Unit tests for the Thicket-like ensemble."""

import pytest

from repro.errors import PerfError
from repro.perf.calltree import CallTree
from repro.perf.thicket import Thicket


def tree_with(time_consume, time_read, label=""):
    t = CallTree(label)
    t.node("consume").add_metric("time", time_consume)
    t.node("consume").metrics.setdefault("category", "movement")
    t.node("read").add_metric("time", time_read)
    return t


@pytest.fixture
def ensemble():
    th = Thicket()
    th.add(tree_with(1.0, 2.0), role="consumer", run=0)
    th.add(tree_with(3.0, 4.0), role="consumer", run=1)
    th.add(tree_with(10.0, 20.0), role="producer", run=0)
    return th


def test_len_and_metadata(ensemble):
    assert len(ensemble) == 3
    assert ensemble.metadata()[0]["role"] == "consumer"


def test_filter_by_tags(ensemble):
    consumers = ensemble.filter(role="consumer")
    assert len(consumers) == 2
    assert len(ensemble.filter(role="consumer", run=1)) == 1
    assert len(ensemble.filter(role="nobody")) == 0


def test_filter_by_predicate(ensemble):
    late = ensemble.filter(lambda meta: meta["run"] >= 1)
    assert len(late) == 1


def test_stats_mean_std(ensemble):
    stats = ensemble.filter(role="consumer").stats("time")
    consume = stats[("consume",)]
    assert consume.n == 2
    assert consume.mean == pytest.approx(2.0)
    assert consume.std == pytest.approx(2 ** 0.5)  # ddof=1 over [1, 3]
    assert consume.total == 4.0


def test_stats_sparse_paths():
    th = Thicket()
    th.add(tree_with(1.0, 2.0))
    extra = tree_with(1.0, 2.0)
    extra.node("only_here").add_metric("time", 9.0)
    th.add(extra)
    stats = th.stats("time")
    assert stats[("only_here",)].n == 1


def test_node_stats_missing_path(ensemble):
    with pytest.raises(PerfError):
        ensemble.node_stats("nonexistent")


def test_aggregate_mean(ensemble):
    composite = ensemble.filter(role="consumer").aggregate("mean")
    assert composite.find("consume").time == pytest.approx(2.0)
    assert composite.find("read").time == pytest.approx(3.0)
    assert composite.find("consume").category == "movement"


def test_aggregate_sum(ensemble):
    composite = ensemble.filter(role="consumer").aggregate("sum")
    assert composite.find("consume").time == pytest.approx(4.0)


def test_aggregate_invalid_how(ensemble):
    with pytest.raises(PerfError):
        ensemble.aggregate("median")


def test_query_over_composite(ensemble):
    nodes = ensemble.query("**/consume")
    assert [n.name for n in nodes] == ["consume"]


def test_extend(ensemble):
    other = Thicket()
    other.add(tree_with(5.0, 6.0), role="consumer", run=2)
    ensemble.extend(other)
    assert len(ensemble) == 4


def test_empty_thicket_behaviour():
    th = Thicket()
    assert len(th) == 0
    assert th.stats() == {}
