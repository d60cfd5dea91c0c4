"""One run of one benchmark workload.

    python3 benchmarks/bench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1

Run from any directory of a checkout. With ``--trace 0`` the run measures
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric. It prints the run's environment and one
``workload metric value unit`` line per metric, and as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status: 0 when every operation succeeded and matched its
expected output, 1 when any failed, 2 when the checkout holds no program
to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

#: fresh interpreters started per timed run; set-up time is their median
SETUP_SAMPLES = 5
#: no child may outlive this, so a run ends well within 180 s
CHILD_TIMEOUT_S = 150.0


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _spawn(workload: str, seed: int, seconds: float, mode: str,
           frames: Optional[int], golden: Optional[Path]) -> subprocess.Popen:
    argv = [sys.executable, "-m", "benchmarks.bench.sim_child", workload,
            str(seed), str(seconds), mode]
    if frames is not None:
        argv += ["--frames", str(frames)]
    if golden is not None:
        argv += ["--golden", str(golden)]
    return subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)


def _until_ready(proc: subprocess.Popen, spawned: float) -> float:
    """Seconds from spawn until the child reports it is set up."""
    deadline = spawned + CHILD_TIMEOUT_S
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([proc.stdout], [], [],
                                               remaining)[0]:
            raise TimeoutError("child never finished set-up")
        line = proc.stdout.readline()
        if line.strip() == "READY":
            return time.perf_counter() - spawned
        if not line:
            raise RuntimeError(f"child exited during set-up "
                               f"(status {proc.wait()})")


def _finish(proc: subprocess.Popen) -> Dict[str, Any]:
    # read through the same buffered reader as _until_ready, so no line
    # it already buffered is lost; the timer bounds a hung child
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    for line in reversed(out.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError(f"child printed no result (status {proc.returncode})")


def measure_sim(workload: str, seed: int, seconds: float, trace: bool,
                frames: Optional[int] = None,
                golden: Optional[Path] = None) -> Dict[str, Any]:
    """Set-up samples in fresh interpreters, then the measuring child."""
    from benchmarks.bench import common

    setup: List[float] = []
    calibrations: List[float] = []
    modes = ["trace"] if trace else ["setup"] * (SETUP_SAMPLES - 1) + ["run"]
    for mode in modes:
        calibrations.append(common.calibration_s())
        spawned = time.perf_counter()
        proc = _spawn(workload, seed, seconds, mode, frames, golden)
        try:
            setup.append(_until_ready(proc, spawned))
            if mode == "setup":
                proc.stdout.read()
                proc.wait(timeout=CHILD_TIMEOUT_S)
                continue
            outcome = _finish(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not trace:
        host = statistics.median(setup)
        metrics = outcome["metrics"]
        metrics["setup_s"] = host * common.speed_factor(calibrations)
        samples = metrics.setdefault("samples", {})
        samples["setup"] = len(setup)
        samples.setdefault("host", {})["setup_s"] = host
    return outcome


def run(workload: str, seed: int, seconds: float, trace: bool,
        frames: Optional[int] = None,
        golden: Optional[Path] = None) -> Dict[str, Any]:
    """Measure one workload; returns the result object ``main`` prints,
    plus ``samples`` and ``failures`` for callers that want them."""
    from benchmarks.bench import common

    if workload == common.SERVICE_WORKLOAD:
        from benchmarks.bench import service_load

        outcome = service_load.measure(seed, seconds, trace, frames, golden)
    else:
        outcome = measure_sim(workload, seed, seconds, trace, frames, golden)
    measured = dict(outcome["metrics"])
    samples = measured.pop("samples", {})
    failures = list(outcome["failures"])
    if trace:
        # each workload reports every layer; families it does not
        # exercise are zero by construction, not by omission
        other = (common.SIM_COUNTERS.keys() | set(common.KERNEL_COUNTERS)
                 if workload == common.SERVICE_WORKLOAD
                 else common.SERVICE_COUNTERS)
        for name in other:
            measured.setdefault(name, 0)
    metrics = {}
    for name, spec in common.declared(trace).items():
        if name not in measured:
            failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": measured.pop(name), "unit": spec["unit"]}
    attempted = max(int(outcome["attempted"]), 1)
    failed = min(len(failures), attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="one run of one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=None,
                        help="shrink every task (self-tests only)")
    parser.add_argument("--golden", type=Path, default=None,
                        help="pinned outputs to check against "
                             "(default: golden.json beside this file)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.bench import common

    if args.workload not in common.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(common.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.frames, args.golden)
    print("env " + json.dumps(common.environment(args.seed)))
    print("samples " + json.dumps(result.pop("samples")))
    failures = result.pop("failures")
    for failure in failures[:20]:
        print(f"FAIL {args.workload}: {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
