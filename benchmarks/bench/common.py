"""Metric declarations, statistics and run metadata shared by the
benchmark's processes. Imports nothing from the program under test."""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from benchmarks.bench import ROOT

SIM_WORKLOADS = ("paper_exact", "scale_hybrid", "stream_topology")
SERVICE_WORKLOAD = "service_mixed"
WORKLOADS = SIM_WORKLOADS + (SERVICE_WORKLOAD,)
#: ``system_stats`` key behind each simulation counter, summed over the
#: tasks of one pass (``peak_flows`` takes the maximum instead)
SIM_COUNTERS = {
    "sim.resources.reschedules": "channel_reschedules",
    "sim.resources.stale_wakeups": "channel_stale_wakeups",
    "sim.resources.peak_flows": "channel_peak_flows",
    "sim.fluid.rate_solves": "rate_solves",
    "sim.fluid.epochs": "fluid_epochs",
    "cluster.messages": "fabric_messages",
    "cluster.transfers": "fabric_transfers",
    "cluster.rdma_transfers": "fabric_rdma_transfers",
    "cluster.bytes_moved": "fabric_bytes_moved",
    "cluster.ssd_bytes_written": "ssd_bytes_written",
    "cluster.ssd_bytes_read": "ssd_bytes_read",
    "dyad.kvs_waits": "dyad_kvs_waits",
    "dyad.fast_hits": "dyad_fast_hits",
    "dyad.cache_hits": "dyad_cache_hits",
    "dyad.shared_read_waits": "dyad_shared_read_waits",
    "dyad.transfer_retries": "dyad_transfer_retries",
    "invariants.checks": "invariant_checks",
    "workflow.credits_issued": "stream_credits_issued",
    "workflow.producer_blocks": "stream_producer_blocks",
    "workflow.blocked_sim_s": "stream_blocked_time",
}
#: counted by the benchmark's wrapper around the kernel's run loops
KERNEL_COUNTERS = ("sim.core.events", "sim.core.events_per_s")
#: read from the server's ``stats`` op and the client's latencies
SERVICE_COUNTERS = (
    "service.computed", "service.hits", "service.dedup",
    "service.journal_syncs", "service.journal_records",
    "service.events_per_sync", "service.lru_hits", "service.lru_misses",
    "service.lru_hit_ratio", "service.fused_jobs",
    "service.admission_batches", "service.server_ms_p50",
    "service.server_ms_p99", "service.cold_job_ms_p50",
    "service.hit_job_ms_p50",
)
#: counters that are simulated or served outputs: a change that is meant
#: only to be faster must leave them equal, and ``compare`` requires that
OUTPUT_COUNTERS = frozenset(
    name for name in SIM_COUNTERS
    if name.startswith(("cluster.", "dyad.", "workflow."))
) | {"service.computed", "service.hits", "service.dedup"}
#: counters of the work the implementation chose to do to get those
#: outputs; an optimisation may move them, so ``compare`` reports only
#: their direction
WORK_COUNTERS = (frozenset(SIM_COUNTERS) - OUTPUT_COUNTERS) | {
    "sim.core.events", "service.lru_hits", "service.lru_misses",
    "service.fused_jobs",
}


#: seconds the calibration loop takes on the reference machine (a 2-core
#: x86-64 container running CPython 3.11); timings are reported as if
#: measured on it
CALIBRATION_REF_S = 0.010
_CALIBRATION_CHUNKS = 5
_CALIBRATION_STEPS = 3_000


def calibration_s() -> float:
    """Seconds one fixed interpreter-bound loop takes right now.

    The loop uses only the standard library (a heap, a dict and a
    generator, as a discrete-event kernel does), so no change to the
    program can move it; only the machine does, through its clock speed
    and whatever shares its cores. On a shared host that drifts by 15%
    within minutes, while the ratio of a task's time to this loop's time
    next to it stays within a few percent. The loop runs in chunks and the
    median chunk counts, so a core still clocking up after the caller
    idled, or one interruption, does not; the collector is paused so the
    caller's heap cannot lengthen it.
    """
    gc.disable()
    try:
        chunks = [_calibration_chunk() for _ in range(_CALIBRATION_CHUNKS)]
    finally:
        gc.enable()
    return _CALIBRATION_CHUNKS * statistics.median(chunks)


def _calibration_chunk() -> float:
    start = time.perf_counter()
    heap: List[tuple] = []
    table: Dict[int, int] = {}

    def relay():
        value = 0
        while True:
            value = yield value + 1

    gen = relay()
    next(gen)
    acc = 0
    for i in range(_CALIBRATION_STEPS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1]
        table[i & 255] = acc
        acc = gen.send(acc) & 0xFFFF
    return time.perf_counter() - start


def speed_factor(calibrations: Sequence[float]) -> float:
    """Multiplier that turns host seconds measured next to
    ``calibrations`` into reference-machine seconds."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def pass_metrics(passes: Sequence[tuple]) -> Dict[str, float]:
    """Throughput and per-operation latency of a run, from its passes.

    Each pass is ``(frames, busy seconds, operation seconds, speed
    factor)`` and runs the workload's whole mix once, so latency
    percentiles are taken within a pass, where every cell counts once,
    and each metric is the median over passes, in reference-machine time.
    """
    return {
        "frames_per_s": statistics.median(
            [frames / (busy * speed) for frames, busy, _, speed in passes]),
        "op_ms_p50": 1000.0 * statistics.median(
            [percentile(ops, 50) * speed for _, _, ops, speed in passes]),
        "op_ms_p90": 1000.0 * statistics.median(
            [percentile(ops, 90) * speed for _, _, ops, speed in passes]),
    }


def declaration() -> dict:
    """The root ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared(trace: bool) -> Dict[str, dict]:
    """Declared metrics of one mode, by name: ``end_to_end`` for a timed
    run, ``per_layer`` for a traced one."""
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in declaration()[section]}


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (as
    ``statistics.quantiles(values, n=4)``; one value is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], p: int,
               steps: int = 64) -> float:
    """Harrell–Davis estimate of the ``p``-th percentile.

    A pass mixes cells of very different cost, so the order statistic
    at a percentile often sits in a gap between two cells and jumps when
    they swap places. This estimator weights every order statistic by
    the Beta((n+1)q, (n+1)(1-q)) mass of its rank interval instead, and
    moves smoothly. The Beta integrals are midpoint sums of ``steps``
    points per interval, normalised to sum to one.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0]
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x)
                             + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def environment(seed: int) -> dict:
    """What every output records about where and how it was measured."""
    try:
        # --git-dir: never search the directories above the checkout
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }
