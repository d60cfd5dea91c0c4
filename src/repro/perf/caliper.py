"""Caliper-like region annotation.

Processes (simulated coroutines) mark the start and end of
named regions; nesting builds a call path. Each region carries a
*category* — ``movement``, ``idle``, or ``compute`` — matching the paper's
decomposition of production/consumption time into data-movement and idle
components (Figs. 5-8, 11-12).

An :class:`Annotator` belongs to one process; a :class:`Caliper` collects
the annotators of one run (one process per producer/consumer). Because
annotation reads a clock function (defaulting to the simulation clock), the
same machinery can instrument wall-clock code with ``time.monotonic``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PerfError
from repro.perf.calltree import CallTree, CallTreeNode

__all__ = ["Category", "Annotator", "Caliper"]


class Category:
    """Region categories used in the movement/idle decomposition."""

    MOVEMENT = "movement"
    IDLE = "idle"
    COMPUTE = "compute"

    ALL = (MOVEMENT, IDLE, COMPUTE)


class Annotator:
    """Region annotation for one process.

    Not a context manager on purpose: simulated processes advance time by
    ``yield``-ing between ``begin`` and ``end``, which a ``with`` block
    cannot straddle cleanly in generator code.
    """

    def __init__(self, name: str, clock: Callable[[], float]) -> None:
        self.name = name
        self.clock = clock
        self.tree = CallTree(label=name)
        #: open regions as ``(name, start, category, path)``; ``path`` is
        #: the region's call path, outermost first, built once at begin
        self._stack: List[Tuple[str, float, Optional[str], Tuple[str, ...]]] = []
        #: tree node of every call path closed so far
        self._nodes: Dict[Tuple[str, ...], CallTreeNode] = {}
        #: ``(region, end_time)`` of the most recently closed region —
        #: what a stalled process was last seen finishing (StallError
        #: diagnostics name this, making chaos repros readable).
        self.last_completed: Optional[Tuple[str, float]] = None

    @property
    def depth(self) -> int:
        """Current nesting depth."""
        return len(self._stack)

    def current_path(self) -> Tuple[str, ...]:
        """Names of the currently open regions, outermost first."""
        return self._stack[-1][3] if self._stack else ()

    def begin(self, region: str, category: Optional[str] = None) -> None:
        """Open a region. ``category`` defaults to the enclosing region's."""
        if category is not None and category not in Category.ALL:
            raise PerfError(f"unknown category {category!r}")
        stack = self._stack
        if stack:
            _, _, parent_category, parent_path = stack[-1]
            if category is None:
                category = parent_category
            path = parent_path + (region,)
        else:
            path = (region,)
        stack.append((region, self.clock(), category, path))

    def end(self, region: str) -> float:
        """Close the innermost region (name-checked); returns its duration."""
        stack = self._stack
        if not stack:
            raise PerfError(f"end({region!r}) with no open region")
        entry = stack.pop()
        name, started, category, path = entry
        if name != region:
            stack.append(entry)
            raise PerfError(
                f"region mismatch: end({region!r}) while {name!r} is open"
            )
        now = self.clock()
        elapsed = now - started
        try:
            node = self._nodes[path]
        except KeyError:
            node = self._nodes[path] = self.tree.node(*path)
        if category is not None:
            existing = node.metrics.get("category")
            if existing is not None and existing != category:
                # A clash must leave the annotator untouched: the stack
                # as it was, no time/count accumulated on the node.
                stack.append(entry)
                raise PerfError(
                    f"category clash in {name!r}: {existing} != {category}"
                )
        metrics = node.metrics  # CallTreeNode.add_metric, inlined
        metrics["time"] = metrics.get("time", 0.0) + elapsed
        metrics["count"] = metrics.get("count", 0.0) + 1
        if category is not None:
            metrics["category"] = category
        self.last_completed = (name, now)
        return elapsed

    def region(self, region: str, category: Optional[str] = None):
        """Context manager for non-yielding (real-time) regions."""
        annotator = self

        class _Region:
            def __enter__(self) -> "Annotator":
                annotator.begin(region, category)
                return annotator

            def __exit__(self, exc_type, exc, tb) -> None:
                annotator.end(region)

        return _Region()

    def finish(self) -> CallTree:
        """Validate balance and return the completed tree."""
        if self._stack:
            open_regions = " > ".join(self.current_path())
            raise PerfError(f"unclosed regions at finish: {open_regions}")
        return self.tree


class Caliper:
    """All annotators of one run, keyed by process name."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._annotators: Dict[str, Annotator] = {}

    def annotator(self, process_name: str) -> Annotator:
        """Create the annotator for a process (names must be unique)."""
        if process_name in self._annotators:
            raise PerfError(f"duplicate process name {process_name!r}")
        ann = Annotator(process_name, self.clock)
        self._annotators[process_name] = ann
        return ann

    def __contains__(self, process_name: str) -> bool:
        return process_name in self._annotators

    def __getitem__(self, process_name: str) -> Annotator:
        return self._annotators[process_name]

    def names(self) -> List[str]:
        """Process names in insertion order."""
        return list(self._annotators)

    def trees(self) -> Dict[str, CallTree]:
        """Finished trees of all processes."""
        return {name: ann.finish() for name, ann in self._annotators.items()}
