"""Hardened campaign runner: crashed/hung workers, retries, resumption.

Worker faults are injected with the documented ``REPRO_WORKER_*`` test
hooks (see :func:`repro.experiments.parallel._maybe_injected_worker_fault`):
a marker directory makes each fault one-shot, so the first execution of a
designated seed dies (or hangs) and its re-submission succeeds. The
hooks only fire inside worker *processes*, so the serial baselines in
these tests are never affected.
"""

import functools
import os

import pytest

import repro.service.pool as pool_mod
from repro.errors import CampaignError, ReproError
from repro.experiments.parallel import (
    RunTask,
    _default_task_retries,
    _default_task_timeout,
    run_campaign,
    result_fingerprint,
)
from repro.experiments.persist import ResultCache
from repro.faults import FaultEvent, FaultPlan
from repro.workflow.spec import Placement, System, WorkflowSpec

SPEC = WorkflowSpec(system=System.DYAD, frames=4, pairs=1,
                    placement=Placement.SINGLE_NODE)

TASKS = [RunTask(spec=SPEC, seed=s, jitter_cv=0.05)
         for s in (0, 1000, 2000)]


@pytest.fixture
def fault_env(tmp_path, monkeypatch):
    """Arm the worker-fault hooks against a fresh marker directory."""
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    monkeypatch.setenv("REPRO_WORKER_FAULT_DIR", str(marker_dir))
    monkeypatch.delenv("REPRO_WORKER_CRASH_SEEDS", raising=False)
    monkeypatch.delenv("REPRO_WORKER_HANG_SEEDS", raising=False)
    # These tests need real worker processes even on a 1-CPU box, so lift
    # the default_jobs() cpu_count clamp.
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    return monkeypatch


# ---------------------------------------------------------------------------
# crashed workers: detected, retried, no results lost
# ---------------------------------------------------------------------------


def test_worker_crash_is_retried_and_results_match_serial(fault_env):
    fault_env.setenv("REPRO_WORKER_CRASH_SEEDS", "1000")
    serial = run_campaign(TASKS, jobs=1)
    parallel = run_campaign(TASKS, jobs=2)
    assert ([result_fingerprint(r) for r in parallel]
            == [result_fingerprint(r) for r in serial])


def test_crash_charges_only_the_tasks_it_killed(fault_env):
    """Two one-shot crashes in one campaign, one retry each. Each crash
    breaks the whole pool, but only the tasks it killed are charged, and
    each of those is retried alone, so no task is charged twice."""
    fault_env.setenv("REPRO_WORKER_CRASH_SEEDS", "0,4")
    tasks = [RunTask(spec=SPEC, seed=s, jitter_cv=0.05) for s in range(6)]
    serial = run_campaign(tasks, jobs=1)
    parallel = run_campaign(tasks, jobs=2, max_task_retries=1)
    assert ([result_fingerprint(r) for r in parallel]
            == [result_fingerprint(r) for r in serial])


def test_worker_crash_past_retry_budget_raises(fault_env, tmp_path):
    # Crash the *last* queued task: with two workers over three tasks, at
    # least one earlier repetition completes (and caches) before seed
    # 2000 starts, crashes, and breaks the pool. With a zero retry
    # budget the first break is fatal. Which pending seed the error
    # blames depends on scheduling (a broken pool loses its in-flight
    # siblings too), so only the resumption hint is asserted.
    fault_env.setenv("REPRO_WORKER_CRASH_SEEDS", "2000")
    cache_dir = tmp_path / "cache"
    with pytest.raises(CampaignError, match="re-run to resume"):
        run_campaign(TASKS, jobs=2, max_task_retries=0,
                     use_cache=True, cache_dir=str(cache_dir))
    # the completed repetitions survived the failed campaign ...
    survivors = len(list(cache_dir.rglob("*.pkl")))
    assert survivors >= 1
    # ... and the re-run resumes from them (the crash marker is consumed,
    # so seed 2000 now runs clean) with serially-identical results
    resumed = run_campaign(TASKS, jobs=2, max_task_retries=0,
                           use_cache=True, cache_dir=str(cache_dir))
    serial = run_campaign(TASKS, jobs=1)
    assert ([result_fingerprint(r) for r in resumed]
            == [result_fingerprint(r) for r in serial])


def test_workers_dying_at_start_end_the_campaign(fault_env):
    """Every worker dies before it takes a task: the campaign raises a
    start failure after a bounded number of pools instead of forking new
    ones forever."""
    fault_env.setattr(pool_mod, "_warm_worker",
                      functools.partial(os._exit, 3))
    starts = []
    start = pool_mod.WorkerPool._start_pool

    def capped(self):
        starts.append(1)
        if len(starts) > 20:  # the unbounded loop must not run on
            raise RuntimeError("more than 20 pool starts")
        return start(self)

    fault_env.setattr(pool_mod.WorkerPool, "_start_pool", capped)
    with pytest.raises(CampaignError, match="die at start"):
        run_campaign(TASKS[:2], jobs=2, max_task_retries=1)
    # START_FAILURES pools for the first failures, one per retry
    assert len(starts) == pool_mod.START_FAILURES + 1


# ---------------------------------------------------------------------------
# hung workers: bounded by task_timeout, not joined on abandon
# ---------------------------------------------------------------------------


def test_hung_worker_times_out_and_retry_succeeds(fault_env):
    fault_env.setenv("REPRO_WORKER_HANG_SEEDS", "1000")
    fault_env.setenv("REPRO_WORKER_HANG_SECONDS", "6")
    serial = run_campaign(TASKS, jobs=1)
    parallel = run_campaign(TASKS, jobs=2, task_timeout=2.0)
    assert ([result_fingerprint(r) for r in parallel]
            == [result_fingerprint(r) for r in serial])


def test_timeout_counts_from_when_the_task_starts(fault_env):
    """Seed 0 hangs 2.5 s against a 1 s budget among eight tasks on two
    workers: its budget runs out, whatever the other tasks take."""
    fault_env.setenv("REPRO_WORKER_HANG_SEEDS", "0")
    fault_env.setenv("REPRO_WORKER_HANG_SECONDS", "2.5")
    tasks = [RunTask(spec=SPEC, seed=s, jitter_cv=0.05) for s in range(8)]
    with pytest.raises(CampaignError, match=r"seed=0 failed 1 times"):
        run_campaign(tasks, jobs=2, task_timeout=1.0, max_task_retries=0)


# ---------------------------------------------------------------------------
# knob validation and cache keys
# ---------------------------------------------------------------------------


def test_task_timeout_validation(monkeypatch):
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    assert _default_task_timeout(None) is None
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "12.5")
    assert _default_task_timeout(None) == 12.5
    assert _default_task_timeout(3.0) == 3.0
    with pytest.raises(ReproError):
        _default_task_timeout(0.0)


def test_task_retries_validation(monkeypatch):
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    assert _default_task_retries(None) == 2
    monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
    assert _default_task_retries(None) == 5
    assert _default_task_retries(0) == 0
    with pytest.raises(ReproError):
        _default_task_retries(-1)


def test_cache_key_includes_fault_plan(tmp_path):
    cache = ResultCache(str(tmp_path))
    plan = FaultPlan(events=(
        FaultEvent("dyad_crash", at=1.0, target="0", duration=0.5),
    ))
    harsher = FaultPlan(events=(
        FaultEvent("dyad_crash", at=1.0, target="0", duration=2.0),
    ))
    base = cache.key(SPEC, 0, 0.05, {})
    assert cache.key(SPEC, 0, 0.05, {}, None) == base
    faulty = cache.key(SPEC, 0, 0.05, {}, plan)
    assert faulty != base
    assert cache.key(SPEC, 0, 0.05, {}, harsher) != faulty
    assert cache.key(SPEC, 0, 0.05, {}, plan) == faulty


def test_faulty_tasks_cache_and_resume(tmp_path):
    plan = FaultPlan(transfer_fault_rate=0.05)
    task = RunTask(spec=SPEC, seed=0, jitter_cv=0.05, fault_plan=plan)
    cold = run_campaign([task], jobs=1, use_cache=True,
                        cache_dir=str(tmp_path))
    assert len(list(tmp_path.rglob("*.pkl"))) == 1
    warm = run_campaign([task], jobs=1, use_cache=True,
                        cache_dir=str(tmp_path))
    assert result_fingerprint(warm[0]) == result_fingerprint(cold[0])
