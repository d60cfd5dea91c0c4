"""Pinned outputs that every benchmark run is checked against.

``golden.json`` holds, for seeds 0 and 1 (1 is held out for checking
claims), the first ``passes`` passes of each simulation workload and the
cold jobs of the first ``rounds`` rounds of ``service_mixed``:

- exact-tier tasks and service jobs: a prefix of ``result_fingerprint``,
  which must match bit for bit;
- hybrid-tier tasks: makespan and per-frame movement, which must match
  within ``hybrid_rel_tol`` (the documented tier contract), and the byte
  counters, which must match exactly.

Regenerate with ``PYTHONPATH=src python -m benchmarks.bench golden`` only
when a change is meant to alter simulated results.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.bench import BENCH_DIR, common

GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEEDS = (0, 1)
GOLDEN_PASSES = 3
GOLDEN_ROUNDS = 3
HYBRID_REL_TOL = 1e-3
FINGERPRINT_CHARS = 16
_BYTE_COUNTERS = ("fabric_bytes_moved", "ssd_bytes_written",
                  "ssd_bytes_read")


def load(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def for_run(golden: dict, seed: int, workload: str) -> Optional[Any]:
    """Pinned entries of one workload at one seed, or None if unpinned."""
    return golden["seeds"].get(str(seed), {}).get(workload)


def entry(result, fingerprint: str) -> Any:
    """What ``golden.json`` pins for one simulation result."""
    if result.fidelity == "exact":
        return fingerprint[:FINGERPRINT_CHARS]
    return {
        "makespan": result.makespan,
        "production_movement": result.production_movement,
        "consumption_movement": result.consumption_movement,
        "bytes": [result.system_stats[k] for k in _BYTE_COUNTERS],
    }


def mismatch(pinned: Any, result, fingerprint: str) -> Optional[str]:
    """Why ``result`` differs from its pinned entry (None when it matches)."""
    if isinstance(pinned, str):
        got = fingerprint[:FINGERPRINT_CHARS]
        return None if got == pinned else f"fingerprint {got} != {pinned}"
    for name in ("makespan", "production_movement", "consumption_movement"):
        got, want = getattr(result, name), pinned[name]
        if not math.isclose(got, want, rel_tol=HYBRID_REL_TOL, abs_tol=0.0):
            return f"{name} {got!r} != {want!r} (rel tol {HYBRID_REL_TOL})"
    got_bytes = [result.system_stats[k] for k in _BYTE_COUNTERS]
    if got_bytes != pinned["bytes"]:
        return f"byte counters {got_bytes} != {pinned['bytes']}"
    return None


def generate() -> dict:
    """Compute every pinned entry anew (slow: about a minute)."""
    from repro.experiments.parallel import result_fingerprint, run_campaign
    from repro.service.jobs import JobSpec

    from benchmarks.bench import workloads

    seeds: Dict[str, Dict[str, Any]] = {}
    for seed in GOLDEN_SEEDS:
        pinned: Dict[str, Any] = {}
        for workload in common.SIM_WORKLOADS:
            grid = workloads.cells(workload)
            passes: List[List[Any]] = []
            for pass_no in range(GOLDEN_PASSES):
                tasks = workloads.pass_tasks(grid, seed, pass_no)
                results = run_campaign(tasks, jobs=1, use_cache=False)
                passes.append([entry(r, result_fingerprint(r))
                               for r in results])
            pinned[workload] = passes
        jobs: Dict[str, str] = {}
        for round_jobs in workloads.service_rounds(seed, GOLDEN_ROUNDS):
            for job in (j for conn in round_jobs for j in conn if j["cold"]):
                task = JobSpec.from_wire(job).run_task()
                result = run_campaign([task], jobs=1, use_cache=False)[0]
                jobs[workloads.job_key(job)] = \
                    result_fingerprint(result)[:FINGERPRINT_CHARS]
        pinned[common.SERVICE_WORKLOAD] = jobs
        seeds[str(seed)] = pinned
    return {
        "passes": GOLDEN_PASSES, "rounds": GOLDEN_ROUNDS,
        "hybrid_rel_tol": HYBRID_REL_TOL, "seeds": seeds,
    }


def write(golden: dict, path: Path = GOLDEN_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
