"""Thicket-like ensembles of call trees.

A :class:`Thicket` holds many call trees — one per process per run — each
tagged with metadata (run index, role, system, workload …). It supports
metadata filtering, per-node statistics across the ensemble, aggregation
into a composite tree (what Figs. 9-10 render), and call-path queries over
the composite.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PerfError
from repro.perf.calltree import CallTree, CallTreeNode
from repro.perf.query import query as _query

__all__ = ["Thicket", "NodeStats"]


class NodeStats:
    """Cross-ensemble statistics of one metric at one call path."""

    __slots__ = ("path", "values")

    def __init__(self, path: Tuple[str, ...], values: np.ndarray) -> None:
        self.path = path
        self.values = values

    @property
    def n(self) -> int:
        """Number of trees contributing a value."""
        return int(self.values.size)

    @property
    def mean(self) -> float:
        """Ensemble mean."""
        return float(np.mean(self.values)) if self.values.size else 0.0

    @property
    def std(self) -> float:
        """Ensemble standard deviation (ddof=1 when possible)."""
        if self.values.size < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def total(self) -> float:
        """Ensemble sum."""
        return float(np.sum(self.values)) if self.values.size else 0.0

    def __repr__(self) -> str:
        return (
            f"<NodeStats {'/'.join(self.path)} n={self.n} "
            f"mean={self.mean:.6g} std={self.std:.6g}>"
        )


class Thicket:
    """An ensemble of tagged call trees."""

    def __init__(self) -> None:
        self._trees: List[CallTree] = []
        self._metadata: List[Dict[str, Any]] = []

    # -- construction ------------------------------------------------------------
    def add(self, tree: CallTree, **metadata: Any) -> None:
        """Add a tree with arbitrary metadata tags."""
        self._trees.append(tree)
        self._metadata.append(dict(metadata))

    def extend(self, other: "Thicket") -> None:
        """Append all trees of another thicket."""
        self._trees.extend(other._trees)
        self._metadata.extend(other._metadata)

    def __len__(self) -> int:
        return len(self._trees)

    def trees(self) -> List[CallTree]:
        """The underlying trees (shared, do not mutate)."""
        return list(self._trees)

    def metadata(self) -> List[Dict[str, Any]]:
        """Tags of each tree, parallel to :meth:`trees`."""
        return [dict(m) for m in self._metadata]

    # -- selection ------------------------------------------------------------
    def filter(self, predicate_or_none: Optional[Callable[[Dict[str, Any]], bool]] = None, **tags: Any) -> "Thicket":
        """Sub-ensemble by metadata equality (``role='consumer'``) or predicate."""
        out = Thicket()
        for tree, meta in zip(self._trees, self._metadata):
            if predicate_or_none is not None and not predicate_or_none(meta):
                continue
            if any(meta.get(k) != v for k, v in tags.items()):
                continue
            out.add(tree, **meta)
        return out

    # -- statistics ------------------------------------------------------------
    def stats(self, metric: str = "time") -> Dict[Tuple[str, ...], NodeStats]:
        """Per-call-path statistics of ``metric`` across the ensemble.

        A tree missing a path simply contributes no value (this matches
        Thicket's sparse dataframe semantics).
        """
        collected: Dict[Tuple[str, ...], List[float]] = {}
        for tree in self._trees:
            for path, value in tree.flat(metric).items():
                collected.setdefault(path, []).append(value)
        return {
            path: NodeStats(path, np.asarray(values, dtype=float))
            for path, values in collected.items()
        }

    def node_stats(self, *path: str, metric: str = "time") -> NodeStats:
        """Statistics for one exact call path."""
        stats = self.stats(metric)
        key = tuple(path)
        if key not in stats:
            raise PerfError(f"no tree contains path {'/'.join(key)!r}")
        return stats[key]

    # -- composition ------------------------------------------------------------
    def aggregate(self, how: str = "mean") -> CallTree:
        """Composite tree with per-node aggregated numeric metrics.

        ``how`` is ``mean`` or ``sum``. Counts are aggregated the same way
        as times, so a mean composite shows per-tree-average visit counts.
        """
        if how not in ("mean", "sum"):
            raise PerfError(f"unknown aggregation {how!r}")
        composite = CallTree(label=f"{how} of {len(self._trees)} trees")
        contributions: Dict[Tuple[str, ...], int] = {}
        for tree in self._trees:
            for node in tree.nodes():
                path = node.path()
                dst = composite.node(*path)
                contributions[path] = contributions.get(path, 0) + 1
                for key, value in node.metrics.items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        dst.add_metric(key, value)
                    else:
                        dst.metrics.setdefault(key, value)
        if how == "mean":
            for node in composite.nodes():
                n = contributions.get(node.path(), 1)
                for key, value in list(node.metrics.items()):
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        node.metrics[key] = value / n
        return composite

    def query(self, pattern: Union[str, Sequence[Any]], how: str = "mean") -> List[CallTreeNode]:
        """Call-path query over the aggregated composite tree."""
        return _query(self.aggregate(how), pattern)
