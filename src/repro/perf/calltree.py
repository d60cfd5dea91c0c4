"""Call-tree data model.

A :class:`CallTree` is a rooted tree of named regions. Each node carries a
metrics dictionary; the annotation layer populates ``time`` (inclusive
seconds), ``count`` (visits), and ``category``. Trees support the
traversal, reductions and dict serialization used by Thicket and the
reports.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["CallTreeNode", "CallTree"]


class CallTreeNode:
    """One region in a call tree."""

    __slots__ = ("name", "parent", "children", "metrics")

    def __init__(self, name: str, parent: Optional["CallTreeNode"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: Dict[str, "CallTreeNode"] = {}
        self.metrics: Dict[str, Any] = {}

    # -- structure ------------------------------------------------------------
    def child(self, name: str) -> "CallTreeNode":
        """Get-or-create a child region."""
        node = self.children.get(name)
        if node is None:
            node = CallTreeNode(name, parent=self)
            self.children[name] = node
        return node

    def path(self) -> Tuple[str, ...]:
        """Names from the root (exclusive) down to this node."""
        parts: List[str] = []
        node: Optional[CallTreeNode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return tuple(reversed(parts))

    def walk(self) -> Iterator["CallTreeNode"]:
        """Pre-order traversal of this subtree, children in name order."""
        yield self
        for name in sorted(self.children):
            yield from self.children[name].walk()

    # -- metrics ------------------------------------------------------------
    def add_metric(self, key: str, value: float) -> None:
        """Accumulate a numeric metric."""
        self.metrics[key] = self.metrics.get(key, 0.0) + value

    @property
    def time(self) -> float:
        """Inclusive time in seconds (0 when never visited)."""
        return float(self.metrics.get("time", 0.0))

    @property
    def count(self) -> int:
        """Number of visits."""
        return int(self.metrics.get("count", 0))

    @property
    def category(self) -> Optional[str]:
        """Region category ('movement' / 'idle' / 'compute'), if annotated."""
        return self.metrics.get("category")

    def exclusive_time(self) -> float:
        """Inclusive time minus the children's inclusive time."""
        return self.time - sum(c.time for c in self.children.values())

    def __repr__(self) -> str:
        return f"<CallTreeNode {'/'.join(self.path()) or '<root>'} t={self.time:.6f}>"


class CallTree:
    """A rooted call tree with helpers for lookup and flattening."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.root = CallTreeNode("<root>")

    # -- lookup ------------------------------------------------------------
    def node(self, *path: str) -> CallTreeNode:
        """Node at ``path``, creating intermediate nodes as needed."""
        node = self.root
        for name in path:
            node = node.child(name)
        return node

    def find(self, *path: str) -> Optional[CallTreeNode]:
        """Node at ``path`` or ``None`` (never creates)."""
        node = self.root
        for name in path:
            node = node.children.get(name)
            if node is None:
                return None
        return node

    def nodes(self) -> Iterator[CallTreeNode]:
        """All nodes except the synthetic root, pre-order."""
        for node in self.root.walk():
            if node.parent is not None:
                yield node

    def paths(self) -> List[Tuple[str, ...]]:
        """All node paths, pre-order."""
        return [n.path() for n in self.nodes()]

    # -- reductions ------------------------------------------------------------
    def total(self, metric: str = "time", where: Optional[Callable[[CallTreeNode], bool]] = None) -> float:
        """Sum a metric over top-level regions (or a filtered set of nodes).

        With ``where`` given, sums over **all** matching nodes; without it,
        sums only direct children of the root (avoiding double counting of
        nested inclusive times).
        """
        if where is None:
            return float(
                sum(c.metrics.get(metric, 0.0) for c in self.root.children.values())
            )
        return float(
            sum(n.metrics.get(metric, 0.0) for n in self.nodes() if where(n))
        )

    def total_by_category(self, category: str) -> float:
        """Sum of *exclusive* time over nodes in a category.

        Exclusive time is used so a category total never double-counts a
        parent and its child.
        """
        return float(
            sum(
                max(n.exclusive_time(), 0.0)
                for n in self.nodes()
                if n.category == category
            )
        )

    def flat(self, metric: str = "time") -> Dict[Tuple[str, ...], float]:
        """Mapping path -> metric for every node."""
        return {
            n.path(): float(n.metrics.get(metric, 0.0)) for n in self.nodes()
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""

        def _node(node: CallTreeNode) -> Dict[str, Any]:
            return {
                "name": node.name,
                "metrics": dict(node.metrics),
                "children": [
                    _node(node.children[k]) for k in sorted(node.children)
                ],
            }

        return {"label": self.label, "tree": _node(self.root)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CallTree":
        """Inverse of :meth:`to_dict`."""
        tree = cls(payload.get("label", ""))

        def _load(dst: CallTreeNode, src: Dict[str, Any]) -> None:
            dst.metrics.update(src.get("metrics", {}))
            for child in src.get("children", []):
                _load(dst.child(child["name"]), child)

        _load(tree.root, payload["tree"])
        return tree

    def render(self, metric: str = "time", unit: float = 1.0, fmt: str = "{:.3f}") -> str:
        """ASCII rendering of the tree (Thicket-style, cf. Figs. 9-10)."""
        lines: List[str] = [self.label or "<calltree>"]

        def _render(node: CallTreeNode, prefix: str) -> None:
            names = sorted(node.children)
            for i, name in enumerate(names):
                child = node.children[name]
                last = i == len(names) - 1
                stem = "`- " if last else "|- "
                value = child.metrics.get(metric, 0.0) / unit if unit else 0.0
                cat = child.category
                suffix = f" [{cat}]" if cat else ""
                lines.append(
                    f"{prefix}{stem}{name}: {fmt.format(value)}{suffix}"
                )
                _render(child, prefix + ("   " if last else "|  "))

        _render(self.root, "")
        return "\n".join(lines)
