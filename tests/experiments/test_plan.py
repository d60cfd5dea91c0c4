"""The campaign plan: every figure's distinct repetitions in one campaign,
on one pool, with output and cache bytes independent of ``jobs``."""

from pathlib import Path

import pytest

import repro.experiments.figures as figures
import repro.service.pool as pool_mod
from repro.experiments import get_experiment, report
from repro.experiments.parallel import RunTask, campaign, run_campaign
from repro.experiments.persist import ResultCache
from repro.workflow.spec import Placement, System, WorkflowSpec


class _Planned(Exception):
    """Stops a plan before it simulates anything."""


def test_a_report_plan_runs_each_distinct_task_once(monkeypatch):
    calls = []

    def record(tasks, *args, **kwargs):
        calls.append(list(tasks))
        raise _Planned

    monkeypatch.setattr(figures, "run_campaign", record)
    with campaign(cache=False), pytest.raises(_Planned):
        figures.run_figures(quick=True, runs=2)
    (tasks,) = calls
    # 88 repetitions across the eight figures, 12 of them shared
    assert len(tasks) == 76
    assert len({task.key() for task in tasks}) == 76
    # fig5's first repetition leads (the one --trace instruments), the
    # rest run longest first
    first = tasks[0]
    assert (first.spec.placement, first.spec.pairs, first.seed) == (
        Placement.SINGLE_NODE, 1, 0)
    costs = [task.spec.frames * task.spec.pairs for task in tasks[1:]]
    assert costs == sorted(costs, reverse=True)


def test_figure_runs_plan_their_own_row(monkeypatch):
    calls = []

    def record(tasks, *args, **kwargs):
        calls.append(list(tasks))
        raise _Planned

    monkeypatch.setattr(figures, "run_campaign", record)
    with campaign(cache=False), pytest.raises(_Planned):
        get_experiment("fig7").run(runs=3)
    (tasks,) = calls
    # Fig. 7 at 3 runs: 8-32 pairs 3 each, 64 pairs 1 (3 // 2), 128 and
    # 256 pairs 1 (3 // 3), for both systems
    assert len(tasks) == 2 * (3 * 3 + 1 + 1 + 1)


def test_parallel_plan_matches_serial_on_one_pool(monkeypatch,
                                                  quick_figures):
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    starts = []
    start = pool_mod.WorkerPool._start_pool

    def counted(self):
        starts.append(1)
        return start(self)

    monkeypatch.setattr(pool_mod.WorkerPool, "_start_pool", counted)
    with campaign(jobs=2, cache=False):
        parallel = figures.run_figures(quick=True)
    assert len(starts) == 1
    for name, fig in quick_figures.items():
        assert parallel[name].render() == fig.render(), name


def test_report_is_byte_identical_at_one_and_two_jobs(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    texts = []
    for jobs in (1, 2):
        with campaign(jobs=jobs, cache=False):
            texts.append(report.build_report(quick=True, runs=2, frames=2))
    assert texts[0] == texts[1]


def test_cache_entries_are_byte_equal_at_one_and_two_jobs(tmp_path,
                                                          monkeypatch):
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    spec = WorkflowSpec(system=System.DYAD, frames=4, pairs=1,
                        placement=Placement.SINGLE_NODE)
    tasks = [RunTask(spec=spec, seed=s, jitter_cv=0.05)
             for s in (0, 1000, 2000)]
    entries = []
    for jobs in (1, 2):
        cache = ResultCache(str(tmp_path / f"jobs{jobs}"))
        run_campaign(tasks, jobs=jobs, use_cache=True, cache_dir=cache.root)
        entries.append({task.key(): Path(cache.path(task.key())).read_bytes()
                        for task in tasks})
    assert entries[0] == entries[1]
