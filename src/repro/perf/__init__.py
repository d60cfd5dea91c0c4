"""Performance instrumentation and analysis tools.

The paper collects data with Caliper and analyzes it with Thicket and the
Hatchet call-path query language. This package provides working equivalents:

- :mod:`repro.perf.calltree` — the call-tree data model (hierarchical
  regions with per-node metrics);
- :mod:`repro.perf.caliper` — region annotation for simulated (and real)
  processes: ``begin``/``end`` pairs build a per-process call tree with
  inclusive times, visit counts, and a movement/idle/compute category;
- :mod:`repro.perf.thicket` — an ensemble of call trees (many processes ×
  many runs) with statistical aggregation across the ensemble;
- :mod:`repro.perf.query` — a small call-path query language
  (``"*" / name / {"name": "regex"}`` path patterns, Hatchet-style);
- :mod:`repro.perf.report` — text rendering of trees and figure tables;
- :mod:`repro.perf.trace` — timeline tracing with Chrome-trace export
  (see producer/consumer overlap, not just totals);
- :mod:`repro.perf.metrics` — substrate telemetry timelines
  (``Counter``/``Gauge`` instruments sampled on change, merged into the
  Chrome trace as counter tracks; see ``docs/observability.md``);
- :mod:`repro.perf.compare` — bootstrap confidence intervals for speedup
  factors.
"""

from repro import lazy_exports

__all__ = [
    "Annotator",
    "Caliper",
    "Category",
    "CallTree",
    "CallTreeNode",
    "diff_trees",
    "parse_query",
    "query",
    "Thicket",
    "SpeedupEstimate",
    "bootstrap_speedup",
    "SpanEvent",
    "Tracer",
    "TracingAnnotator",
    "Counter",
    "Gauge",
    "MetricsTimeline",
    "merge_chrome_trace",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.caliper": ["Annotator", "Caliper", "Category"],
    "repro.perf.calltree": ["CallTree", "CallTreeNode", "diff_trees"],
    "repro.perf.compare": ["SpeedupEstimate", "bootstrap_speedup"],
    "repro.perf.metrics": ["Counter", "Gauge", "MetricsTimeline",
                           "merge_chrome_trace", "write_chrome_trace"],
    "repro.perf.query": ["parse_query", "query"],
    "repro.perf.thicket": ["Thicket"],
    "repro.perf.trace": ["SpanEvent", "Tracer", "TracingAnnotator"],
})
