"""Timeline tracing with Chrome-trace export.

A :class:`Tracer` records region begin/end *events* (not just aggregated
times) so the actual interleaving of producers and consumers can be
inspected. Timelines export to the Chrome trace-event JSON format
(``chrome://tracing`` / Perfetto), with one "thread" per process —
invaluable for seeing the coarse-barrier serialization vs DYAD's
pipelining at a glance.

The tracer piggybacks on the Caliper annotation layer: wrap an
:class:`~repro.perf.caliper.Annotator` with :meth:`Tracer.attach` and
every ``begin``/``end`` is mirrored as a timeline event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import PerfError
from repro.perf.caliper import Annotator

__all__ = ["SpanEvent", "Tracer", "TracingAnnotator"]


@dataclass(frozen=True)
class SpanEvent:
    """One completed region occurrence on one process timeline."""

    process: str
    region: str
    category: Optional[str]
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start


class TracingAnnotator(Annotator):
    """An annotator that also records every region occurrence."""

    def __init__(self, name: str, clock: Callable[[], float],
                 tracer: "Tracer") -> None:
        super().__init__(name, clock)
        self._tracer = tracer
        self._starts: List[float] = []

    def begin(self, region: str, category: Optional[str] = None) -> None:
        """Open a region and remember its start time for the span log."""
        super().begin(region, category)
        # Reuse the timestamp the base class just pushed: under a real
        # clock (time.monotonic) a second read would drift the span start
        # from the call-tree accounting.
        self._starts.append(self._stack[-1][1])

    def end(self, region: str) -> float:
        """Close a region, recording the completed span on the timeline."""
        category = self._stack[-1][2] if self._stack else None
        elapsed = super().end(region)
        start = self._starts.pop()
        self._tracer.record(
            SpanEvent(
                process=self.name,
                region=region,
                category=category,
                start=start,
                # The base class's single clock read for this end; keeps
                # span end == start + elapsed exactly.
                end=self.last_completed[1],
            )
        )
        return elapsed


class Tracer:
    """Collects span events across processes; exports Chrome trace JSON."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.events: List[SpanEvent] = []
        self._names: Dict[str, int] = {}

    def annotator(self, process_name: str) -> TracingAnnotator:
        """A tracing annotator for one process (names must be unique)."""
        if process_name in self._names:
            raise PerfError(f"duplicate process name {process_name!r}")
        self._names[process_name] = len(self._names)
        return TracingAnnotator(process_name, self.clock, self)

    def record(self, event: SpanEvent) -> None:
        """Append one completed span.

        Processes are assigned a tid on first sight, so spans recorded
        directly (without going through :meth:`annotator`) get their own
        Chrome-trace track and thread metadata instead of landing on the
        first process's tid 0.
        """
        if event.process not in self._names:
            self._names[event.process] = len(self._names)
        self.events.append(event)

    # -- queries ------------------------------------------------------------
    def spans(self, process: Optional[str] = None,
              region: Optional[str] = None) -> List[SpanEvent]:
        """Spans filtered by process and/or region, in completion order."""
        return [
            e for e in self.events
            if (process is None or e.process == process)
            and (region is None or e.region == region)
        ]

    def overlap(self, process_a: str, process_b: str,
                include_idle: bool = False) -> float:
        """Seconds during which both processes were *working* concurrently.

        Idle spans (waiting at a barrier, polling, KVS watch) do not count
        as work unless ``include_idle=True``. The coarse-grained
        traditional sync therefore shows ~zero producer/consumer overlap
        (serialized phases), while DYAD shows near-total overlap.
        """
        def busy(process: str) -> List[List[float]]:
            # merge the process's working spans into busy intervals
            spans = sorted(
                (e for e in self.spans(process=process)
                 if include_idle or e.category != "idle"),
                key=lambda e: e.start,
            )
            merged: List[List[float]] = []
            for span in spans:
                if merged and span.start <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], span.end)
                else:
                    merged.append([span.start, span.end])
            return merged

        # Two-pointer sweep over the merged (sorted, disjoint) intervals:
        # O(n + m) instead of the pairwise O(n * m) product.
        a = busy(process_a)
        b = busy(process_b)
        total = 0.0
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            lo = a[ia][0] if a[ia][0] > b[ib][0] else b[ib][0]
            hi = a[ia][1] if a[ia][1] < b[ib][1] else b[ib][1]
            if hi > lo:
                total += hi - lo
            if a[ia][1] <= b[ib][1]:
                ia += 1
            else:
                ib += 1
        return total

    # -- export ------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event format ('X' complete events, µs timestamps)."""
        trace_events = []
        for event in self.events:
            trace_events.append({
                "name": event.region,
                "cat": event.category or "default",
                "ph": "X",
                "ts": event.start * 1e6,
                "dur": event.duration * 1e6,
                "pid": 0,
                "tid": self._names.get(event.process, 0),
                "args": {"process": event.process},
            })
        thread_meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            }
            for name, tid in self._names.items()
        ]
        return {"traceEvents": thread_meta + trace_events,
                "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Write the Chrome trace JSON to a file."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)
