"""Measuring process of one simulation workload, in a fresh interpreter.

``python -m benchmarks.bench.sim_child WORKLOAD SEED SECONDS MODE``, with
``MODE`` one of ``setup`` (imports and one warm-up task, then exit),
``run`` (timed passes until ``SECONDS`` are spent) or ``trace`` (one pass
untraced, then the same pass under cProfile). The process prints
``READY`` once set up, then one ``RESULT <json>`` line.

Only calls to :func:`repro.experiments.parallel.run_campaign` are timed;
checking and fingerprinting happen outside the timed calls.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# The program's imports are part of set-up, so they come first.
from repro.experiments.parallel import result_fingerprint, run_campaign
from repro.sim.core import Environment

from benchmarks.bench import SRC, common, golden, layers, workloads


class EventTally:
    """Reads each environment's event counter when its run loop returns.

    The kernel has no public event count; its schedule sequence number
    (``_seq``, one per scheduled event) is read here and nowhere else. A
    kernel without it counts 0 events rather than failing the run.
    """

    def __init__(self) -> None:
        self._by_env: Dict[int, int] = {}

    def install(self) -> None:
        for name in ("run", "run_guarded"):
            setattr(Environment, name, self._wrap(getattr(Environment, name)))

    def _wrap(self, loop):
        tally = self._by_env

        @functools.wraps(loop)
        def counted(env, *args, **kwargs):
            try:
                return loop(env, *args, **kwargs)
            finally:
                tally[id(env)] = getattr(env, "_seq", 0)

        return counted

    def take(self) -> int:
        """Events of the environments run since the last call."""
        total = sum(self._by_env.values())
        self._by_env.clear()
        return total


class Pass:
    """Timings, counters and results of one pass over the grid."""

    def __init__(self) -> None:
        self.durations: List[float] = []
        self.frames = 0
        self.events = 0
        self.stats: List[Dict[str, float]] = []
        self.results: List[Any] = []
        self.first_fingerprint: Optional[str] = None
        #: calibration loop times, one before every task and one after
        self.calibrations: List[float] = []

    @property
    def speed(self) -> float:
        return common.speed_factor(self.calibrations)


class Measurement:
    def __init__(self, workload: str, seed: int, frames: Optional[int],
                 golden_path: Path) -> None:
        self.seed = seed
        self.grid = workloads.cells(workload, frames)
        # shrunk cells have no pinned outputs
        self.pinned = None if frames is not None else golden.for_run(
            golden.load(golden_path), seed, workload)
        self.tally = EventTally()
        self.tally.install()
        self.attempted = 0
        self.failures: List[str] = []

    def warm_up(self) -> None:
        run_campaign([workloads.warmup_task(self.grid)], jobs=1,
                     use_cache=False)
        self.tally.take()

    def run_pass(self, pass_no: int, keep: bool = False,
                 profiler: Optional[cProfile.Profile] = None) -> Pass:
        """Run every cell once; check each result against the pins."""
        out = Pass()
        for index, task in enumerate(
                workloads.pass_tasks(self.grid, self.seed, pass_no)):
            cell = self.grid[index]
            self.attempted += 1
            out.calibrations.append(common.calibration_s())
            if profiler is not None:
                profiler.enable()
            start = time.perf_counter()
            try:
                result = run_campaign([task], jobs=1, use_cache=False)[0]
            except Exception as exc:  # a failed task is a measured outcome
                self.failures.append(f"pass {pass_no} {cell.label}: {exc!r}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                if profiler is not None:
                    profiler.disable()
            out.durations.append(elapsed)
            out.frames += cell.frames
            out.events += self.tally.take()
            out.stats.append(result.system_stats)
            if keep:
                out.results.append(result)
            if index == 0:
                out.first_fingerprint = result_fingerprint(result)
            self.check(pass_no, index, result)
        out.calibrations.append(common.calibration_s())
        return out

    def check(self, pass_no: int, index: int, result) -> None:
        label = f"pass {pass_no} {self.grid[index].label}"
        if result.invariant_violations:
            self.failures.append(f"{label}: invariant violations "
                                 f"{result.invariant_violations[:3]}")
        if self.pinned is None or pass_no >= len(self.pinned):
            return
        why = golden.mismatch(self.pinned[pass_no][index], result,
                              result_fingerprint(result))
        if why is not None:
            self.failures.append(f"{label}: golden mismatch: {why}")

    def check_repeat(self, first: Pass, again: Pass, what: str) -> None:
        """Two runs of one pass must give bit-identical results."""
        for index, (a, b) in enumerate(zip(first.results, again.results)):
            if result_fingerprint(a) != result_fingerprint(b):
                self.failures.append(
                    f"{self.grid[index].label}: {what} changed the result")
        if len(first.results) != len(again.results):
            self.failures.append(f"{what}: task count differs")

    def timed(self, seconds: float) -> Dict[str, Any]:
        passes: List[Pass] = []
        walls: List[float] = []
        began = time.perf_counter()
        # start a pass only if a typical pass still fits in the budget
        while not passes or (time.perf_counter() - began
                             + statistics.median(walls) <= seconds):
            start = time.perf_counter()
            passes.append(self.run_pass(len(passes)))
            walls.append(time.perf_counter() - start)
        # determinism: the first task of the first pass, once more
        first = passes[0].first_fingerprint
        if first is not None:
            self.attempted += 1
            task = workloads.pass_tasks(self.grid, self.seed, 0)[0]
            again = run_campaign([task], jobs=1, use_cache=False)[0]
            if result_fingerprint(again) != first:
                self.failures.append(f"{self.grid[0].label}: a re-run "
                                     "changed the result")
        timed = [(p.frames, sum(p.durations), p.durations, p.speed)
                 for p in passes if p.durations]
        if not timed:
            return {}
        metrics: Dict[str, Any] = common.pass_metrics(timed)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["samples"] = {
            "passes": len(timed), "tasks": sum(len(t[2]) for t in timed),
            "speed_factor": statistics.median([t[3] for t in timed]),
            "host": common.pass_metrics([t[:3] + (1.0,) for t in timed]),
        }
        return metrics

    def traced(self) -> Dict[str, Any]:
        plain = self.run_pass(0, keep=True)
        profiler = cProfile.Profile()
        profiled = self.run_pass(0, keep=True, profiler=profiler)
        self.check_repeat(plain, profiled, "profiling")
        untraced_s, traced_s = sum(plain.durations), sum(profiled.durations)
        if not untraced_s or not traced_s:
            return {}
        profiler.create_stats()
        metrics: Dict[str, Any] = layers.ledger_metrics(
            profiler.stats, layers.LayerMap(SRC), traced_s)
        metrics["trace_overhead"] = traced_s / untraced_s
        metrics["sim.core.events"] = plain.events
        metrics["sim.core.events_per_s"] = plain.events / (
            untraced_s * plain.speed)
        for name, key in common.SIM_COUNTERS.items():
            values = [s.get(key, 0.0) for s in plain.stats]
            metrics[name] = max(values) if name.endswith("peak_flows") \
                else sum(values)
        metrics["samples"] = {"passes": 2, "tasks": len(plain.durations)}
        return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="sim_child")
    parser.add_argument("workload", choices=common.SIM_WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--frames", type=int, default=None,
                        help="shrink every cell (self-tests)")
    parser.add_argument("--golden", type=Path, default=golden.GOLDEN_PATH)
    args = parser.parse_args(argv)
    measurement = Measurement(args.workload, args.seed, args.frames,
                              args.golden)
    measurement.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    metrics = (measurement.traced() if args.mode == "trace"
               else measurement.timed(args.seconds))
    print("RESULT " + json.dumps({
        "attempted": measurement.attempted,
        "failures": measurement.failures,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
