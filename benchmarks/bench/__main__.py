"""``python -m benchmarks.bench {run,trace,compare,golden}``.

- ``run``: every workload for ``run_seconds`` of ``BENCHMARK.json``, each
  in a fresh interpreter (``run.py``); prints one
  ``workload metric value unit`` line per end-to-end metric.
- ``trace``: the same with the per-layer ledger instead.
- ``compare A.json B.json``: medians, quartiles and a verdict per workload
  and metric, against the bounds in ``BENCHMARK.json``.
- ``golden``: recompute ``golden.json`` (only when results are meant to
  change; needs ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.bench import BENCH_DIR, ROOT, common
from benchmarks.bench.layers import LAYERS


def _one_run(workload: str, seed: int, seconds: float, trace: bool):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: run.py printed no result "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("env", "samples"):
            result[key] = json.loads(rest)
    return result


def _print_ledger(workload: str, metrics: Dict[str, dict]) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    print(f"== {workload}: trace_overhead {value['trace_overhead']:.2f}x, "
          f"profile_coverage {value['profile_coverage']:.3f}")
    print(f"   {'layer':<14} {'self_s':>9} {'share':>7} {'calls_in':>10}")
    for layer in sorted(LAYERS, key=lambda n: -value[f"{n}.self_s"]):
        print(f"   {layer:<14} {value[f'{layer}.self_s']:9.3f} "
              f"{value[f'{layer}.share']:7.3f} "
              f"{value[f'{layer}.calls_in']:10d}")
    counters = [n for n in value if not n.endswith(
        (".self_s", ".share", ".calls_in", "trace_overhead",
         "profile_coverage"))]
    for name in counters:
        print(f"   {name:<32} {value[name]!r} {metrics[name]['unit']}")


def _measure(args: argparse.Namespace, trace: bool) -> int:
    seconds = common.declaration()["run_seconds"]
    report = {"mode": "trace" if trace else "run", "seconds": seconds,
              "env": common.environment(args.seed), "workloads": {}}
    failed = False
    for workload in common.WORKLOADS:
        runs = []
        for _ in range(args.repeat):
            result = _one_run(workload, args.seed, seconds, trace)
            failed |= not result["correct"]
            runs.append(result)
            print(f"# {workload}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, samples {result.get('samples')}")
            if trace:
                _print_ledger(workload, result["metrics"])
            else:
                for name, m in result["metrics"].items():
                    print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        report["workloads"][workload] = {
            "units": {n: m["unit"] for n, m in runs[0]["metrics"].items()},
            "runs": [{**r, "metrics": {n: m["value"]
                                       for n, m in r["metrics"].items()}}
                     for r in runs],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float], counter: Optional[str] = None) -> str:
    """Compare runs ``a`` (base) with runs ``b`` (change) of one metric.

    ``counter`` is ``"output"`` for counters that must not change and
    ``"work"`` for counters an optimisation may move, which get only a
    direction.
    """
    if counter is not None:
        if len(set(a) | set(b)) == 1:
            return "equal"
        if counter == "output":
            return "DIFFERENT"
        ma, mb = statistics.median(a), statistics.median(b)
        return "higher" if mb > ma else "lower" if mb < ma else "varies"
    if bound is None:
        return "-"
    qa, qb = common.quartiles(a), common.quartiles(b)
    if qa[1] == 0:
        return "within" if qb[1] == 0 else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / abs(qa[1]),
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else math.inf)
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def _spread(q: List[float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.4g} {q[2]:.4g}]"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        base = json.load(fh)
    with open(path_b) as fh:
        change = json.load(fh)
    spec = {m["name"]: m for section in ("end_to_end", "per_layer")
            for m in common.declaration()[section]}
    print(f"{'workload':<16} {'metric':<32} {'base median [q1 q3]':<30} "
          f"{'change median [q1 q3]':<30} {'rel':>8}  verdict")
    bad = False
    for workload, runs_a in base["workloads"].items():
        runs_b = change["workloads"].get(workload)
        if runs_b is None:
            continue
        for name in runs_a["units"]:
            a = [r["metrics"][name] for r in runs_a["runs"]]
            b = [r["metrics"][name] for r in runs_b["runs"]
                 if name in r["metrics"]]
            if not b:
                continue
            qa, qb = common.quartiles(a), common.quartiles(b)
            rel = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            meta = spec.get(name, {})
            counter = ("output" if name in common.OUTPUT_COUNTERS else
                       "work" if name in common.WORK_COUNTERS else None)
            word = verdict(a, b, meta.get("better", "lower"),
                           meta.get("bound"), counter)
            bad |= word in ("worse", "DIFFERENT")
            print(f"{workload:<16} {name:<32} {_spread(qa):<30} "
                  f"{_spread(qb):<30} {rel:>+8.3f}  {word}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--repeat", type=int, default=1,
                         help="runs per workload, each in fresh processes")
        cmd.add_argument("--out", default=None, help="write runs as JSON")
    cmp_cmd = sub.add_parser("compare")
    cmp_cmd.add_argument("base")
    cmp_cmd.add_argument("change")
    sub.add_parser("golden")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.base, args.change)
    if args.command == "golden":
        from benchmarks.bench import golden

        golden.write(golden.generate())
        print(f"wrote {golden.GOLDEN_PATH}")
        return 0
    return _measure(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
