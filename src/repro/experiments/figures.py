"""The paper's Figs. 5-12 as one campaign grid, and its planner.

Every figure is one :class:`~repro.experiments.common.Figure` row,
declared in its own module (``fig5_single_node`` … ``fig12_stmv_stride``):
its x values (full and ``--quick``), its systems, a spec builder
``(x, system, frames) -> WorkflowSpec``, its presets and a reducer that
turns the cells' raw runs into the figure result (a
:class:`~repro.experiments.common.FigureResult` series, or a
:class:`~repro.experiments.fig9_dyad_calltree.CallTreeFigure` for the
Thicket call trees of Figs. 9-10). What each figure claims lives in
:mod:`repro.experiments.claims`.

:func:`run_figures` is the planner: it collects every repetition of the
requested figures, runs each distinct one (by result-cache key) once, in
one :func:`~repro.experiments.parallel.run_campaign` call — so on one
worker pool — and assembles the figures from the results. Figures share
cells (Fig. 8's JAC and STMV cells are Figs. 9-10's runs), so a report
simulates each of them once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from repro.experiments.common import JITTER_CV, default_frames, default_runs
from repro.experiments.parallel import RunTask, repetition_tasks, run_campaign

__all__ = ["GRID", "run_figures"]

#: Figs. 5-12 in paper order.
GRID = tuple(module.FIGURE for module in (
    fig5_single_node, fig6_two_node, fig7_multi_node, fig8_model_scaling,
    fig9_dyad_calltree, fig10_lustre_calltree, fig11_jac_stride,
    fig12_stmv_stride,
))

_BY_NAME = {row.name: row for row in GRID}


def _cost(task: RunTask) -> int:
    """Relative run time of a task: simulated work scales with frames
    times pairs (within ~4x across the whole grid)."""
    return task.spec.frames * task.spec.pairs


def run_figures(names: Optional[Sequence[str]] = None,
                runs: Optional[int] = None, frames: Optional[int] = None,
                quick: bool = False) -> Dict[str, Any]:
    """The figures ``names`` (default: all of :data:`GRID`), keyed by
    name, from one campaign of their distinct repetitions.

    ``runs``/``frames`` override each figure's presets (``--quick``:
    one repetition, its ``quick_frames``), as the ``REPRO_RUNS`` /
    ``REPRO_FRAMES`` defaults do outside quick mode. The campaign takes
    the first repetition in figure order first — the one ``--trace``
    instruments — and the others longest first, so the pool does not
    end on one long task.
    """
    rows = [_BY_NAME[name] for name in names] if names else list(GRID)
    tasks: Dict[str, RunTask] = {}  # key -> task, in figure order
    parts = []
    for row in rows:
        reps = default_runs(runs, 1 if quick else None)
        length = default_frames(frames, row.quick_frames if quick else None)
        xs = row.quick_xs if quick else row.xs
        cells: Dict[Tuple[Any, str], List[str]] = {}
        for x in xs:
            for system in row.systems:
                keys = cells[(x, system.value)] = []
                for task in repetition_tasks(row.spec(x, system, length),
                                             row.runs_for(x, reps),
                                             jitter_cv=JITTER_CV):
                    keys.append(task.key())
                    tasks.setdefault(keys[-1], task)
        parts.append((row, xs, cells, reps, length))
    order = list(tasks)
    order[1:] = sorted(order[1:], key=lambda key: -_cost(tasks[key]))
    results = dict(zip(order, run_campaign([tasks[key] for key in order])))
    return {
        row.name: row.reduce(
            row, xs, {cell: [results[key] for key in keys]
                      for cell, keys in cells.items()}, reps, length)
        for row, xs, cells, reps, length in parts
    }
