"""The campaign plan: every measured experiment's distinct repetitions in
one campaign, on one pool, with output and cache bytes independent of
``jobs``."""

from pathlib import Path

import pytest

import repro.experiments.figures as figures
import repro.experiments.parallel as parallel_mod
import repro.service.pool as pool_mod
from repro.experiments import (
    ablations, get_experiment, report, resilience, scenarios,
)
from repro.experiments.parallel import RunTask, campaign, run_campaign
from repro.experiments.persist import ResultCache
from repro.workflow.spec import Placement, SyncMode, System, WorkflowSpec


class _Planned(Exception):
    """Stops a plan before it simulates anything."""


def _planned_tasks(monkeypatch, experiment):
    """The tasks of the one campaign ``experiment()`` runs; a campaign
    outside the planner fails the test."""
    calls = []

    def record(tasks, *args, **kwargs):
        calls.append(list(tasks))
        raise _Planned

    def per_cell(*args, **kwargs):
        raise AssertionError("a campaign outside the plan")

    monkeypatch.setattr(figures, "run_campaign", record)
    monkeypatch.setattr(parallel_mod, "run_campaign", per_cell)
    with campaign(cache=False), pytest.raises(_Planned):
        experiment()
    (tasks,) = calls
    assert len({task.key() for task in tasks}) == len(tasks)
    return tasks


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


@pytest.mark.parametrize("experiment, count", [
    # 7 variants x JAC x 2 runs
    (lambda: ablations.run(quick=True, runs=2), 14),
    # 3 intensities x 3 systems x 2 runs
    (lambda: resilience.run(quick=True, runs=2), 18),
], ids=["ablations", "resilience"])
def test_sweeps_run_as_one_campaign(monkeypatch, experiment, count):
    assert len(_planned_tasks(monkeypatch, experiment)) == count


def test_scenarios_run_as_one_campaign_longest_first(monkeypatch):
    tasks = _planned_tasks(monkeypatch, lambda: scenarios.run(quick=True))
    assert len(tasks) == 192
    # the first cell's first repetition leads (the one --trace
    # instruments): Streaming-5's xfs/windowed pair, exact tier
    first = tasks[0]
    assert (first.spec.system, first.spec.sync_mode, first.spec.pairs,
            first.fidelity, first.seed) == (
        System.XFS, SyncMode.WINDOWED, 1, "exact", 0)
    # the rest longest first, counting every producer and consumer
    costs = [task.spec.frames * (task.spec.n_producers
                                 + task.spec.n_consumers)
             for task in tasks[1:]]
    assert costs == sorted(costs, reverse=True)


def test_cell_less_plans_start_no_campaign(monkeypatch):
    # the chaos soak runs its own campaigns; an empty one ahead of them
    # would claim the scope's --trace
    def started(*args, **kwargs):
        raise AssertionError("a campaign for a plan with no cells")

    monkeypatch.setattr(figures, "run_campaign", started)
    for name in ("tables", "validate", "chaos"):
        assert get_experiment(name).plan().cells == {}
    tables = figures.run_plan({"tables": get_experiment("tables").plan()})
    assert "Table I" in tables["tables"].render()


def test_report_plans_figures_and_ablations_together(monkeypatch):
    tasks = _planned_tasks(
        monkeypatch, lambda: report.build_report(quick=True, runs=2))
    keys = {task.key() for task in tasks}
    ablation_keys = {task.key()
                     for reps in ablations.plan(quick=True, runs=2)
                     .cells.values() for task in reps}
    fig8_keys = {task.key()
                 for reps in get_experiment("fig8").plan(runs=2, quick=True)
                 .cells.values() for task in reps}
    assert ablation_keys <= keys
    # the dyad and lustre-coarse baselines are Fig. 8's JAC cells
    assert len(ablation_keys & fig8_keys) == 2 * 2
    # 76 figure repetitions plus the ablations' 14, four of them shared
    assert len(tasks) == 76 + 14 - 4


def test_parallel_scenarios_match_serial_on_one_pool(monkeypatch,
                                                     scenario_report):
    monkeypatch.setenv("REPRO_JOBS_OVERSUBSCRIBE", "1")
    starts = []
    start = pool_mod.WorkerPool._start_pool

    def counted(self):
        starts.append(1)
        return start(self)

    monkeypatch.setattr(pool_mod.WorkerPool, "_start_pool", counted)
    with campaign(jobs=2, cache=False):
        parallel_report = scenarios.run(quick=True)
    assert len(starts) == 1
    assert parallel_report.render() == scenario_report.render()


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
