"""Parallel, cached execution of workflow-repetition campaigns.

The paper's evaluation is a campaign of ~12 experiments × up to 10
repetitions per configuration. Every repetition is an independent,
deterministic function of ``(spec, seed, jitter_cv, system configs)``, so
the campaign is embarrassingly parallel: this module fans repetitions out
across worker *processes* (the DES kernel is pure Python, so threads would
serialize on the GIL) and memoizes each repetition in the on-disk result
cache of :mod:`repro.experiments.persist`.

Three knobs, in increasing precedence:

- ``REPRO_JOBS`` / ``REPRO_CACHE`` / ``REPRO_CACHE_DIR`` environment
  variables (process-wide defaults);
- :func:`campaign` — a context manager the bulk runner and the CLI use to
  scope ``--jobs`` / ``--no-cache`` around a whole campaign without
  threading arguments through every experiment;
- explicit ``jobs=`` / ``use_cache=`` arguments to
  :func:`repro.workflow.runner.run_repetitions` or :func:`run_campaign`.

Workers run on the job server's supervisor,
:class:`repro.service.pool.WorkerPool`: ``forkserver`` workers (``spawn``
where there is no forkserver) that never inherit the campaign's state,
one hand-off line, a per-task timeout that counts from when a worker
takes the task, and crash charges for the tasks that were running only;
a charged task is retried alone once the others are done.
Determinism is load-bearing: results are returned in task order and each
worker computes exactly what the serial path would, so ``jobs=N`` output
is bit-identical to ``jobs=1`` (asserted by
``tests/experiments/test_parallel.py``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.errors import CampaignError, ReproError
from repro.faults.plan import FaultPlan
from repro.invariants import InvariantConfig
from repro.workflow.spec import Fidelity, WorkflowSpec

# The interpreter's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256``
# before): hashlib would load OpenSSL, several MB in every process, for
# one digest per result or cache key. hashlib is the fallback for builds
# without either module.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

if TYPE_CHECKING:  # the runner loads the simulator; only workers need it
    from repro.workflow.runner import WorkflowResult

__all__ = [
    "RunTask",
    "campaign",
    "repetition_tasks",
    "default_jobs",
    "default_fault_plan",
    "default_fidelity",
    "run_campaign",
    "result_fingerprint",
]

# Campaign-scoped defaults installed by :func:`campaign`. ``None`` means
# "fall through to the environment". ``trace_path`` / ``metrics_path``
# request a one-shot telemetry export (claimed by the first
# :func:`run_campaign` in the scope; ``telemetry_done`` marks the claim).
_SCOPED: Dict[str, Any] = {
    "jobs": None, "cache": None, "cache_dir": None, "fault_plan": None,
    "fidelity": None,
    "trace_path": None, "metrics_path": None, "telemetry_done": False,
}


@dataclass(frozen=True)
class RunTask:
    """One repetition: a pure function of its fields.

    ``system_configs`` holds the optional ``dyad_config`` /
    ``xfs_config`` / ``lustre_config`` keyword arguments of
    :func:`repro.workflow.runner.run_workflow`; ``fault_plan`` (when set)
    makes the repetition a *faulty* run — still a pure, seeded function
    of its fields, and cached under a distinct key. ``invariants``
    configures the run's invariant checker and participates in the cache
    key the same way (a non-fatal checked run and a fatal one never
    alias, even though clean results are bit-identical).
    """

    spec: WorkflowSpec
    seed: int
    jitter_cv: float = 0.0
    system_configs: Dict[str, Any] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    invariants: Optional[InvariantConfig] = None
    #: simulation tier ("exact" / "hybrid" / "fluid"); participates in
    #: the cache key — tiers never alias even when their timings agree
    fidelity: str = "exact"

    def key(self) -> str:
        """The repetition's result-cache key
        (:meth:`~repro.experiments.persist.ResultCache.key`): tasks with
        equal keys compute equal results."""
        from repro.experiments.persist import ResultCache

        return ResultCache.key(
            self.spec, self.seed, self.jitter_cv, self.system_configs,
            self.fault_plan, self.invariants, self.fidelity,
        )


def default_jobs(override: Optional[int] = None) -> int:
    """Resolve the worker count: explicit > campaign scope > env > 1.

    Whatever the source, the result is clamped to ``os.cpu_count()``:
    every worker is a CPU-bound pure-Python simulator, so oversubscribing
    cores only adds scheduling churn and worker start-up (a 4-worker
    campaign on a 1-CPU box measured *slower* than serial). Set
    ``REPRO_JOBS_OVERSUBSCRIBE=1`` to skip the clamp — the worker-fault
    tests use it to get real worker processes regardless of box size.
    """
    if override is None:
        override = _SCOPED["jobs"]
    if override is None:
        override = os.environ.get("REPRO_JOBS", "1")
    jobs = int(override)
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if os.environ.get("REPRO_JOBS_OVERSUBSCRIBE", "0") != "1":
        cpus = os.cpu_count() or 1
        if jobs > cpus:
            jobs = cpus
    return jobs


def _default_cache(override: Optional[bool] = None) -> bool:
    """Resolve cache usage: explicit > campaign scope > env > off."""
    if override is not None:
        return bool(override)
    if _SCOPED["cache"] is not None:
        return bool(_SCOPED["cache"])
    return os.environ.get("REPRO_CACHE", "0") == "1"


def default_fault_plan(
    override: Optional[FaultPlan] = None,
) -> Optional[FaultPlan]:
    """Resolve the fault plan: explicit > campaign scope > none.

    This is how ``--fault-plan FILE`` threads a deserialized chaos repro
    into every repetition of whatever experiment the CLI dispatches,
    without touching the experiments' signatures.
    """
    if override is not None:
        return override
    return _SCOPED["fault_plan"]


def default_fidelity(override: Optional[str] = None) -> str:
    """Resolve the fidelity tier: explicit > campaign scope > env > exact.

    This is how ``--fidelity fluid`` threads the tier into every
    repetition of whatever experiment the CLI dispatches (same pattern as
    :func:`default_fault_plan`); ``REPRO_FIDELITY`` provides a
    process-wide default. The value is validated and normalized to the
    tier's string name.
    """
    if override is None:
        override = _SCOPED["fidelity"]
    if override is None:
        override = os.environ.get("REPRO_FIDELITY") or "exact"
    return Fidelity.coerce(override).value


@contextmanager
def campaign(jobs: Optional[int] = None, cache: Optional[bool] = None,
             cache_dir: Optional[str] = None,
             fault_plan: Optional[FaultPlan] = None,
             fidelity: Optional[str] = None,
             trace_path: Optional[str] = None,
             metrics_path: Optional[str] = None):
    """Scope campaign-wide parallelism/caching/fault defaults.

    Used by :func:`repro.experiments.registry.run_all` and the CLI so the
    experiments keep their simple ``run(runs, frames)`` signatures while
    still fanning out.

    ``trace_path`` / ``metrics_path`` request a telemetry export: the
    first repetition executed inside the scope re-runs instrumented
    (span tracer + substrate timeline — bit-identical results, see
    ``docs/observability.md``) and its merged Chrome trace / metrics dump
    is written to the given files. One export per scope.
    """
    previous = dict(_SCOPED)
    if jobs is not None:
        _SCOPED["jobs"] = jobs
    if cache is not None:
        _SCOPED["cache"] = cache
    if cache_dir is not None:
        _SCOPED["cache_dir"] = cache_dir
    if fault_plan is not None:
        _SCOPED["fault_plan"] = fault_plan
    if fidelity is not None:
        _SCOPED["fidelity"] = fidelity
    if trace_path is not None or metrics_path is not None:
        _SCOPED["trace_path"] = trace_path
        _SCOPED["metrics_path"] = metrics_path
        _SCOPED["telemetry_done"] = False
    try:
        yield
    finally:
        _SCOPED.clear()
        _SCOPED.update(previous)


def _maybe_injected_worker_fault(seed: int) -> None:
    """Test hook: simulate a crashed or hung campaign worker.

    Only ever fires inside a worker *process* (never in-process serial
    runs) and only when ``REPRO_WORKER_FAULT_DIR`` points at a directory.
    ``REPRO_WORKER_CRASH_SEEDS`` / ``REPRO_WORKER_HANG_SEEDS`` name task
    seeds whose first execution hard-exits (as a kill -9 would) or sleeps
    ``REPRO_WORKER_HANG_SECONDS``; a marker file in the fault directory
    makes each fault one-shot so the retry succeeds. This is how the
    tests exercise the crash-detection and timeout paths without racing
    real signals against the executor.
    """
    fault_dir = os.environ.get("REPRO_WORKER_FAULT_DIR")
    if not fault_dir:
        return
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return

    def _armed(kind: str, var: str) -> bool:
        raw = os.environ.get(var, "")
        if not any(s and int(s) == seed for s in raw.split(",")):
            return False
        marker = os.path.join(fault_dir, f"{kind}-{seed}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False  # already fired once
        os.close(fd)
        return True

    if _armed("crash", "REPRO_WORKER_CRASH_SEEDS"):
        os._exit(17)  # skip interpreter teardown: looks like a killed worker
    if _armed("hang", "REPRO_WORKER_HANG_SEEDS"):
        time.sleep(float(os.environ.get("REPRO_WORKER_HANG_SECONDS", "5")))


def _claim_telemetry() -> Optional[tuple]:
    """One-shot claim of the scope's telemetry export request.

    Returns ``(trace_path, metrics_path)`` exactly once per campaign
    scope (the first :func:`run_campaign` wins — typically a command's
    plan, led by its first cell's first repetition), ``None`` otherwise.
    """
    if _SCOPED["telemetry_done"]:
        return None
    trace_path = _SCOPED["trace_path"]
    metrics_path = _SCOPED["metrics_path"]
    if trace_path is None and metrics_path is None:
        return None
    _SCOPED["telemetry_done"] = True
    return trace_path, metrics_path


def _export_telemetry(result: WorkflowResult, trace_path: Optional[str],
                      metrics_path: Optional[str]) -> None:
    """Write an instrumented repetition's telemetry to the requested files."""
    from repro.perf.metrics import write_chrome_trace

    if trace_path is not None:
        write_chrome_trace(trace_path, result.tracer, result.metrics)
        print(f"wrote {trace_path}")
    if metrics_path is not None:
        if str(metrics_path).endswith(".csv"):
            result.metrics.write_csv(metrics_path)
        else:
            result.metrics.write_json(metrics_path)
        print(f"wrote {metrics_path}")


def _execute_task(task: RunTask) -> WorkflowResult:
    """Run one repetition: the serial path's step, and what the worker
    entry point :func:`repro.service.worker._execute_job` runs (it looks
    this function up when it runs, so tests can stand in for it)."""
    from repro.workflow.runner import run_workflow

    _maybe_injected_worker_fault(task.seed)
    return run_workflow(
        task.spec, seed=task.seed, jitter_cv=task.jitter_cv,
        fault_plan=task.fault_plan, invariants=task.invariants,
        fidelity=task.fidelity, **task.system_configs,
    )


def repetition_tasks(spec: WorkflowSpec, runs: int, base_seed: int = 0,
                     jitter_cv: float = 0.05,
                     fault_plan: Optional[FaultPlan] = None,
                     invariants: Optional[InvariantConfig] = None,
                     fidelity: Optional[str] = None,
                     **system_configs) -> List[RunTask]:
    """The ``runs`` repetitions of ``spec``: seeds ``base_seed``,
    ``base_seed + 1000``, …; the fault plan and the fidelity tier default
    to the campaign scope."""
    fault_plan = default_fault_plan(fault_plan)
    fidelity = default_fidelity(fidelity)
    return [
        RunTask(
            spec=spec, seed=base_seed + 1000 * r, jitter_cv=jitter_cv,
            system_configs=system_configs, fault_plan=fault_plan,
            invariants=invariants, fidelity=fidelity,
        )
        for r in range(runs)
    ]


def _default_task_timeout(override: Optional[float]) -> Optional[float]:
    """Per-task wall-clock budget: explicit > ``REPRO_TASK_TIMEOUT`` > none."""
    if override is None:
        raw = os.environ.get("REPRO_TASK_TIMEOUT", "")
        override = float(raw) if raw else None
    if override is not None and override <= 0:
        raise ReproError(f"task_timeout must be positive, got {override}")
    return override


def _default_task_retries(override: Optional[int]) -> int:
    """Re-submission budget: explicit > ``REPRO_TASK_RETRIES`` > 2."""
    if override is None:
        override = int(os.environ.get("REPRO_TASK_RETRIES", "2"))
    if override < 0:
        raise ReproError(f"max_task_retries must be >= 0, got {override}")
    return override


def run_campaign(
    tasks: Sequence[RunTask],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    task_timeout: Optional[float] = None,
    max_task_retries: Optional[int] = None,
) -> List[WorkflowResult]:
    """Run ``tasks``, in order, with optional process fan-out and caching.

    Results are positionally aligned with ``tasks`` and bit-identical to a
    serial run: each task is a pure function of its fields, and caching
    stores the exact :class:`WorkflowResult` a cold run produced.

    Workers run :func:`repro.service.worker._execute_job`, as the job
    server's do, and hand back a result's stored form; the campaign
    decodes the result and caches the bytes as they are. The serial path
    caches the same canonical bytes
    (:func:`~repro.experiments.persist.encode_cacheable`), so entries
    are byte-equal whatever ``jobs`` wrote them. An uncached serial
    campaign encodes nothing.

    The parallel path is hardened against infrastructure failures:

    - every completed repetition is stored into the cache *immediately*,
      so an interrupted campaign resumes from its survivors on the next
      invocation instead of recomputing them;
    - a worker process dying (OOM kill, ``kill -9``, segfault) breaks the
      pool — the tasks that were running are charged one attempt and,
      once the other tasks are done, retried one at a time on a fresh
      pool, up to ``max_task_retries`` extra attempts each (then
      :class:`~repro.errors.CampaignError`);
    - ``task_timeout`` bounds each task's wall-clock time from when a
      worker takes it; a task past its budget is charged and retried the
      same way, and its pool replaced without waiting on the hung worker.

    Exceptions raised *by the simulation itself* (``StallError``, config
    errors, …) are deterministic — retrying cannot help — and propagate
    immediately.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    jobs = default_jobs(jobs)
    task_timeout = _default_task_timeout(task_timeout)
    max_task_retries = _default_task_retries(max_task_retries)
    results: List[Optional[WorkflowResult]] = [None] * len(tasks)

    cache = None
    keys: List[Optional[str]] = [None] * len(tasks)
    if _default_cache(use_cache):
        from repro.experiments.persist import ResultCache

        cache = ResultCache(cache_dir if cache_dir is not None
                            else _SCOPED["cache_dir"])
        for i, task in enumerate(tasks):
            keys[i] = task.key()
            results[i] = cache.load(keys[i])

    telemetry = _claim_telemetry()
    if telemetry is not None:
        # Re-run the campaign's first repetition instrumented (tracer +
        # substrate timeline) in-process and export it. Telemetry is pure
        # observation, so this result is bit-identical to the plain run —
        # but it carries the instrument payloads, so it bypasses the
        # cache in both directions (load above is overwritten, key
        # cleared so _complete never stores it).
        from repro.workflow.runner import run_workflow

        task = tasks[0]
        instrumented = run_workflow(
            task.spec, seed=task.seed, jitter_cv=task.jitter_cv,
            trace=True, metrics=True, fault_plan=task.fault_plan,
            invariants=task.invariants, fidelity=task.fidelity,
            **task.system_configs,
        )
        _export_telemetry(instrumented, *telemetry)
        results[0] = instrumented
        keys[0] = None

    pending = [i for i, r in enumerate(results) if r is None]
    if jobs == 1 or len(pending) <= 1:
        for i in pending:
            results[i] = _execute_task(tasks[i])
            if cache is not None and keys[i] is not None:
                cache.store(keys[i], results[i])
    else:
        from repro.experiments.persist import decode_result

        def _file(i: int, blob: bytes) -> None:
            results[i] = decode_result(blob)
            if cache is not None and keys[i] is not None:
                cache.store_bytes(keys[i], blob)

        _run_on_workers(tasks, pending, min(jobs, len(pending)),
                        task_timeout, max_task_retries, _file)
    return results  # type: ignore[return-value]


def _run_on_workers(tasks: List[RunTask], pending: List[int], workers: int,
                    task_timeout: Optional[float], max_task_retries: int,
                    complete: Callable[[int, bytes], None]) -> None:
    """Run ``tasks[i]`` for each ``i`` in ``pending``, one task per worker
    at a time, handing each result's encoded bytes to ``complete`` as
    they arrive.

    A crash takes every running task down with it, so a charged task is
    retried alone once the rest are done: a failure then is its own.
    """
    import asyncio
    from concurrent.futures.process import BrokenProcessPool

    from repro.service.pool import WorkerPool
    from repro.service.worker import _execute_job

    pool = WorkerPool(workers)
    queue = iter(pending)
    charged: List[int] = []
    #: why each charged task last failed
    failures: Dict[int, str] = {}

    async def _attempt(i: int) -> bool:
        try:
            (blob, _fingerprint, _makespan), _elapsed = await pool.run(
                task_timeout, _execute_job, tasks[i])
        except asyncio.TimeoutError:
            failures[i] = "timed out"
            return False
        except BrokenProcessPool as exc:
            failures[i] = str(exc)
            return False
        complete(i, blob)
        return True

    async def _runner() -> None:
        for i in queue:
            if not await _attempt(i):
                charged.append(i)

    async def _campaign() -> None:
        runners = [asyncio.ensure_future(_runner()) for _ in range(workers)]
        try:
            await asyncio.gather(*runners)
            for i in charged:
                for _retry in range(max_task_retries):
                    if await _attempt(i):
                        break
                else:
                    raise CampaignError(
                        f"task seed={tasks[i].seed} failed "
                        f"{max_task_retries + 1} times (crashed or timed-out "
                        f"worker; last: {failures[i]}); giving up after "
                        f"{max_task_retries} retries. Completed results are "
                        "cached; re-run to resume."
                    )
        finally:
            # a deterministic error propagates without joining the workers
            for runner in runners:
                runner.cancel()
            await pool.close(wait=False)

    asyncio.run(_campaign())


# ---------------------------------------------------------------------------
# determinism fingerprinting
# ---------------------------------------------------------------------------

def _canonical(result: WorkflowResult) -> Dict[str, Any]:
    """Canonical, JSON-stable view of everything a repetition measured."""
    return {
        "spec": repr(result.spec),
        "seed": result.seed,
        "makespan": result.makespan.hex(),
        "producer_trees": [t.to_dict() for t in result.producer_trees],
        "consumer_trees": [t.to_dict() for t in result.consumer_trees],
        "system_stats": {k: float(v).hex()
                         for k, v in sorted(result.system_stats.items())},
    }


def result_fingerprint(result: WorkflowResult) -> str:
    """SHA-256 over a canonical serialization of a result.

    Floats are rendered with ``float.hex`` so the digest distinguishes
    even sub-ULP differences — this is the "bit-identical" in the
    serial-vs-parallel determinism guarantee.
    """

    def _floats(obj: Any) -> Any:
        if isinstance(obj, float):
            return obj.hex()
        if isinstance(obj, dict):
            return {k: _floats(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_floats(v) for v in obj]
        return obj

    payload = json.dumps(_floats(_canonical(result)), sort_keys=True)
    return _sha256_hex(payload)


def _sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text``'s UTF-8 bytes (with ``_sha256`` above)."""
    return _sha256(text.encode("utf-8")).hexdigest()
