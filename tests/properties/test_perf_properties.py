"""Property-based tests for the perf-tooling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.calltree import CallTree
from repro.perf.thicket import Thicket

name_st = st.text(alphabet="abcde_", min_size=1, max_size=5)


@st.composite
def labelled_trees(draw, n_min=1, n_max=6):
    n_trees = draw(st.integers(min_value=n_min, max_value=n_max))
    paths = draw(st.lists(
        st.tuples(name_st, name_st), min_size=1, max_size=6, unique=True,
    ))
    trees = []
    for _ in range(n_trees):
        tree = CallTree()
        for path in paths:
            node = tree.node(*path)
            node.add_metric(
                "time", draw(st.floats(min_value=0.0, max_value=100.0))
            )
        trees.append(tree)
    return trees


@given(labelled_trees())
@settings(max_examples=50, deadline=None)
def test_thicket_stats_match_numpy(trees):
    """Thicket per-path mean/std equal direct numpy reductions."""
    th = Thicket()
    for i, tree in enumerate(trees):
        th.add(tree, run=i)
    stats = th.stats("time")
    for path, node_stats in stats.items():
        values = np.array([t.flat("time")[path] for t in trees])
        assert node_stats.n == len(trees)
        assert node_stats.mean == float(np.mean(values))
        if len(values) > 1:
            assert abs(node_stats.std - float(np.std(values, ddof=1))) < 1e-9


@given(labelled_trees())
@settings(max_examples=50, deadline=None)
def test_aggregate_mean_equals_stats_mean(trees):
    """The composite mean tree agrees with per-path stats means."""
    th = Thicket()
    for tree in trees:
        th.add(tree)
    composite = th.aggregate("mean")
    for path, node_stats in th.stats("time").items():
        assert abs(composite.find(*path).time - node_stats.mean) < 1e-9
