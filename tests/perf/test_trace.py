"""Unit tests for timeline tracing and Chrome-trace export."""

import json

import pytest

from repro.errors import PerfError
from repro.perf.trace import SpanEvent, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


def test_spans_recorded_with_times(tracer, clock):
    ann = tracer.annotator("p0")
    ann.begin("work")
    clock.now = 2.0
    ann.end("work")
    spans = tracer.spans()
    assert len(spans) == 1
    assert spans[0] == SpanEvent("p0", "work", None, 0.0, 2.0)
    assert spans[0].duration == 2.0


def test_nested_spans_both_recorded(tracer, clock):
    ann = tracer.annotator("p0")
    ann.begin("outer", "movement")
    clock.now = 1.0
    ann.begin("inner")
    clock.now = 2.0
    ann.end("inner")
    clock.now = 3.0
    ann.end("outer")
    inner = tracer.spans(region="inner")[0]
    outer = tracer.spans(region="outer")[0]
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert (outer.start, outer.end) == (0.0, 3.0)
    assert inner.category == "movement"  # inherited


def test_tracing_annotator_still_builds_calltree(tracer, clock):
    ann = tracer.annotator("p0")
    ann.begin("r")
    clock.now = 1.5
    ann.end("r")
    tree = ann.finish()
    assert tree.find("r").time == 1.5


def test_span_filters(tracer, clock):
    a = tracer.annotator("a")
    b = tracer.annotator("b")
    for ann in (a, b):
        ann.begin("x")
        ann.end("x")
    assert len(tracer.spans()) == 2
    assert len(tracer.spans(process="a")) == 1
    assert len(tracer.spans(process="a", region="y")) == 0


def test_duplicate_process_rejected(tracer):
    tracer.annotator("p")
    with pytest.raises(PerfError):
        tracer.annotator("p")


def test_overlap_metric(tracer, clock):
    a = tracer.annotator("a")
    b = tracer.annotator("b")
    a.begin("w")
    clock.now = 4.0
    a.end("w")          # a busy [0, 4]
    b.begin("w")
    clock.now = 6.0
    b.end("w")          # b busy [4, 6]
    assert tracer.overlap("a", "b") == pytest.approx(0.0)

    c = tracer.annotator("c")
    clock.now = 1.0
    c.begin("w")
    clock.now = 5.0
    c.end("w")          # c busy [1, 5]
    assert tracer.overlap("a", "c") == pytest.approx(3.0)


def test_overlap_merges_adjacent_spans(tracer, clock):
    a = tracer.annotator("a")
    for _ in range(3):
        a.begin("w")
        clock.now += 1.0
        a.end("w")      # contiguous spans [0,1],[1,2],[2,3]
    b = tracer.annotator("b")
    b.begin("w")
    clock.now = 10.0
    b.end("w")          # b busy [3, 10]
    assert tracer.overlap("a", "b") == pytest.approx(0.0)


def test_recorded_only_process_gets_distinct_tid(tracer, clock):
    # A process whose spans arrive via record() alone (no annotator) must
    # still get its own tid and thread metadata in the Chrome export.
    tracer.annotator("named")
    tracer.record(SpanEvent("loner", "w", None, 0.0, 1.0))
    doc = tracer.to_chrome_trace()
    spans = {e["name"]: e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    meta = {e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"}
    assert meta["named"] != meta["loner"]
    assert spans["w"] == meta["loner"]


def test_overlap_disjoint_busy_sets_exactly_zero(tracer, clock):
    a = tracer.annotator("a")
    b = tracer.annotator("b")
    for start in (0.0, 2.0, 4.0):
        clock.now = start
        a.begin("w")
        clock.now = start + 1.0
        a.end("w")          # a busy [0,1],[2,3],[4,5]
    for start in (1.0, 3.0, 5.0):
        clock.now = start
        b.begin("w")
        clock.now = start + 1.0
        b.end("w")          # b busy [1,2],[3,4],[5,6]
    assert tracer.overlap("a", "b") == 0.0  # exactly, not approximately


def test_overlap_matches_naive_on_random_spans(clock):
    import random

    def naive(a, b):
        total = 0.0
        for lo_a, hi_a in a:
            for lo_b, hi_b in b:
                total += max(0.0, min(hi_a, hi_b) - max(lo_a, lo_b))
        return total

    rng = random.Random(1234)
    for _ in range(50):
        tracer = Tracer(clock)
        for process in ("a", "b"):
            t = 0.0
            for _ in range(rng.randrange(0, 12)):
                t += rng.random()
                start = t
                t += rng.random()
                tracer.record(SpanEvent(process, "w", None, start, t))

        def busy(process):
            merged = []
            for e in sorted(tracer.spans(process=process),
                            key=lambda e: e.start):
                if merged and e.start <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], e.end)
                else:
                    merged.append([e.start, e.end])
            return merged

        expected = naive(busy("a"), busy("b"))
        assert tracer.overlap("a", "b") == pytest.approx(expected)


def test_chrome_trace_format(tracer, clock, tmp_path):
    ann = tracer.annotator("proc")
    ann.begin("region", "idle")
    clock.now = 0.001
    ann.end("region")
    doc = tracer.to_chrome_trace()
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert events[0]["name"] == "region"
    assert events[0]["cat"] == "idle"
    assert events[0]["dur"] == pytest.approx(1000.0)  # microseconds
    assert meta[0]["args"]["name"] == "proc"

    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
