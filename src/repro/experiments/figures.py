"""The experiment planner, and the paper's Figs. 5-12 as one campaign grid.

Every measured experiment is a :class:`Part` of a plan: its cells' runs
(:class:`~repro.experiments.parallel.RunTask` repetitions) and how it
builds its result from them. :func:`run_plan` runs the distinct
repetitions (by result-cache key) of any number of parts once, in one
:func:`~repro.experiments.parallel.run_campaign` call — so on one worker
pool. Experiments share cells (Fig. 8's JAC and STMV cells are Figs.
9-10's runs and the ablations' baselines), so ``report`` and ``all``
simulate each of them once.

Every figure is one :class:`~repro.experiments.common.Figure` row,
declared in its own module (``fig5_single_node`` … ``fig12_stmv_stride``):
its x values (full and ``--quick``), its systems, a spec builder
``(x, system, frames) -> WorkflowSpec``, its presets and a reducer that
turns the cells' raw runs into the figure result (a
:class:`~repro.experiments.common.FigureResult` series, or a
:class:`~repro.experiments.fig9_dyad_calltree.CallTreeFigure` for the
Thicket call trees of Figs. 9-10). What each figure claims lives in
:mod:`repro.experiments.claims`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence,
)

from repro.errors import CampaignError
from repro.experiments import (
    fig5_single_node,
    fig6_two_node,
    fig7_multi_node,
    fig8_model_scaling,
    fig9_dyad_calltree,
    fig10_lustre_calltree,
    fig11_jac_stride,
    fig12_stmv_stride,
)
from repro.experiments.common import Runs
from repro.experiments.parallel import RunTask, run_campaign

__all__ = ["GRID", "Part", "gate", "run_plan", "run_figures"]

#: Figs. 5-12 in paper order.
GRID = tuple(module.FIGURE for module in (
    fig5_single_node, fig6_two_node, fig7_multi_node, fig8_model_scaling,
    fig9_dyad_calltree, fig10_lustre_calltree, fig11_jac_stride,
    fig12_stmv_stride,
))

_BY_NAME = {row.name: row for row in GRID}


@dataclass(frozen=True)
class Part:
    """One experiment in a plan."""

    #: cell -> its repetitions, in the order ``build`` visits the cells
    cells: Dict[Hashable, List[RunTask]]
    #: the experiment's result from its cells' runs
    build: Callable[[Runs], Any]

    def run(self) -> Any:
        """This experiment alone: a plan of one part."""
        return run_plan({"": self})[""]


def _cost(task: RunTask) -> int:
    """Relative run time of a task: simulated work scales with frames
    times producer and consumer processes."""
    spec = task.spec
    return spec.frames * (spec.n_producers + spec.n_consumers)


def run_plan(parts: Mapping[Hashable, Part]) -> Dict[Hashable, Any]:
    """Each part's result, keyed like ``parts``, from one campaign of
    their distinct repetitions.

    The campaign takes the first repetition in declaration order first —
    the one ``--trace`` instruments — and the others longest first, so
    the pool does not end on one long task. The parts are built in
    order; a part with no cells (the tables, the calibration check, the
    chaos soak) does its own work in its ``build``.
    """
    tasks: Dict[str, RunTask] = {}  # key -> task, in declaration order
    keyed = {}
    for name, part in parts.items():
        cells = keyed[name] = {}
        for cell, reps in part.cells.items():
            keys = cells[cell] = [task.key() for task in reps]
            for key, task in zip(keys, reps):
                tasks.setdefault(key, task)
    order = list(tasks)
    order[1:] = sorted(order[1:], key=lambda key: -_cost(tasks[key]))
    # cell-less parts start no campaign, so they leave ``--trace`` unclaimed
    ran = run_campaign([tasks[key] for key in order]) if order else []
    results = dict(zip(order, ran))
    return {
        name: parts[name].build({cell: [results[key] for key in keys]
                                 for cell, keys in cells.items()})
        for name, cells in keyed.items()
    }


def gate(results: Mapping[Hashable, Any]) -> None:
    """Fail a plan's results: a result with a non-empty ``failures``
    list raises :class:`~repro.errors.CampaignError`, which names each
    failed experiment and its failure count."""
    failed = [f"{name}: {len(result.failures)} failure(s)"
              for name, result in results.items()
              if getattr(result, "failures", None)]
    if failed:
        raise CampaignError(f"{'; '.join(failed)} tripped the gate")


def run_figures(names: Optional[Sequence[str]] = None,
                runs: Optional[int] = None, frames: Optional[int] = None,
                quick: bool = False) -> Dict[str, Any]:
    """The figures ``names`` (default: all of :data:`GRID`), keyed by
    name, from one plan.

    ``runs``/``frames`` override each figure's presets (``--quick``:
    one repetition, its ``quick_frames``), as the ``REPRO_RUNS`` /
    ``REPRO_FRAMES`` defaults do outside quick mode.
    """
    rows = [_BY_NAME[name] for name in names] if names else list(GRID)
    return run_plan({row.name: row.plan(runs, frames, quick) for row in rows})
