"""Shared experiment machinery: repetition, aggregation, reporting.

The paper runs every configuration 10 times and reports means (with
whiskers) of per-frame production and consumption time, decomposed into
data movement and idle. :class:`Cell` holds those four statistics for one
(x-value, system) combination; :class:`FigureResult` holds a whole
figure's grid plus ratio helpers used by the textual reports, the
benchmarks' shape assertions, and EXPERIMENTS.md. Only those reporting
helpers import numpy, so running cells never loads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import repetition_tasks
from repro.md.models import JAC, model_by_name
from repro.perf.report import fmt_sig, table
from repro.units import to_msec, to_usec
from repro.workflow.runner import WorkflowResult
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = [
    "Stat",
    "Cell",
    "FigureResult",
    "default_runs",
    "default_frames",
    "median_run",
    "check_recovery",
    "JITTER_CV",
    "Figure",
    "PAIRS",
    "jac_pairs",
    "model_at_paper_stride",
    "stride_of",
]

#: Device/compute jitter used by all experiments (gives the paper's
#: run-to-run whiskers; unit tests use 0 for determinism).
JITTER_CV = 0.05


def default_runs(override: Optional[int] = None,
                 preset: Optional[int] = None) -> int:
    """Repetitions per configuration (paper: 10; default here: 3): an
    explicit ``override``, else the experiment's ``--quick`` ``preset``
    (``None`` outside quick mode), else ``REPRO_RUNS``."""
    value = preset if override is None else override
    if value is None:
        value = os.environ.get("REPRO_RUNS", "3")
    return max(1, int(value))


def default_frames(override: Optional[int] = None,
                   preset: Optional[int] = None) -> int:
    """Frames per producer (paper: 128); precedence as in
    :func:`default_runs`, falling back to ``REPRO_FRAMES``."""
    value = preset if override is None else override
    if value is None:
        value = os.environ.get("REPRO_FRAMES", "128")
    return max(1, int(value))


def median_run(runs: Sequence, key: Callable[[object], float]):
    """The run whose ``key`` is the (lower) median of the set.

    Aggregating a grid cell by *selecting one representative run* keeps
    its headline metric and its event counters mutually consistent: the
    reported transfer/cache counts are the ones that actually occurred in
    the run whose movement is reported. Mixing the median of one metric
    with the counters of run 0 fabricates a cell no run produced, and
    silently ties the counter columns to one arbitrary seed.
    """
    if not runs:
        raise ValueError("median_run needs at least one run")
    ordered = sorted(runs, key=key)
    return ordered[(len(ordered) - 1) // 2]


def check_recovery(where: str, results: Sequence[WorkflowResult]) -> None:
    """Recovery invariants of a faulted DYAD cell's raw runs.

    The consumer counters must balance — every transport fault and every
    refused get was retried, and every frame still arrived — otherwise
    the cell is measuring a broken run and the report built on it would
    be quietly wrong.
    """
    from repro.errors import ReproError

    for result in results:
        stats = result.system_stats
        retries = stats.get("dyad_transfer_retries", 0.0)
        faults = stats.get("dyad_transport_faults", 0.0)
        refused = stats.get("dyad_refused_gets", 0.0)
        if retries != faults + refused:
            raise ReproError(
                f"{where} seed={result.seed}: "
                f"{retries:.0f} retries != {faults:.0f} transport faults "
                f"+ {refused:.0f} refused gets — lost or spurious retries"
            )
        arrived = stats.get("dyad_fast_hits", 0.0) + stats.get(
            "dyad_kvs_waits", 0.0
        )
        expected = float(result.spec.frames * result.spec.pairs)
        if arrived != expected:
            raise ReproError(
                f"{where} seed={result.seed}: consumers "
                f"completed {arrived:.0f} of {expected:.0f} frames "
                "despite the run finishing"
            )


@dataclass(frozen=True)
class Stat:
    """Mean and standard deviation over repetitions."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stat":
        import numpy as np

        arr = np.asarray(list(values), dtype=float)
        return cls(
            mean=float(arr.mean()) if arr.size else 0.0,
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        )


@dataclass(frozen=True)
class Cell:
    """Per-frame metrics of one configuration, aggregated over runs.

    ``makespan`` is the whole run's simulated wall time, not a per-frame
    figure; it shows whether producers and consumers overlap.
    """

    production_movement: Stat
    production_idle: Stat
    consumption_movement: Stat
    consumption_idle: Stat
    makespan: Stat = Stat(0.0, 0.0)

    @property
    def production_time(self) -> float:
        """Mean production time (movement + idle)."""
        return self.production_movement.mean + self.production_idle.mean

    @property
    def consumption_time(self) -> float:
        """Mean consumption time (movement + idle)."""
        return self.consumption_movement.mean + self.consumption_idle.mean

    @classmethod
    def of(cls, results: Sequence[WorkflowResult]) -> "Cell":
        return cls(
            production_movement=Stat.of([r.production_movement for r in results]),
            production_idle=Stat.of([r.production_idle for r in results]),
            consumption_movement=Stat.of([r.consumption_movement for r in results]),
            consumption_idle=Stat.of([r.consumption_idle for r in results]),
            makespan=Stat.of([r.makespan for r in results]),
        )


@dataclass
class FigureResult:
    """One paper figure worth of measurements."""

    figure_id: str
    title: str
    x_name: str                       # e.g. "pairs", "model", "stride"
    xs: List[object]
    systems: List[str]
    cells: Dict[Tuple[object, str], Cell]
    runs: int = 0
    frames: int = 0
    notes: List[str] = field(default_factory=list)

    # -- access ------------------------------------------------------------
    def cell(self, x: object, system: str) -> Cell:
        """Cell for one x-value and system."""
        return self.cells[(x, system)]

    def value(self, metric: str, system: str, x: object) -> float:
        """Mean of one :class:`Cell` field (or total) for ``system`` at ``x``."""
        attr = getattr(self.cell(x, system), metric)
        return attr.mean if isinstance(attr, Stat) else float(attr)

    def ratio(self, metric: str, numerator: str, denominator: str,
              x: Optional[object] = None) -> float:
        """Ratio of a metric between two systems.

        ``metric`` is a :class:`Cell` field or total, e.g.
        ``production_movement`` or ``consumption_time``. Without ``x`` the
        ratio of across-x means is returned (how the paper states most of
        its headline factors).
        """
        if x is not None:
            return (self.value(metric, numerator, x)
                    / self.value(metric, denominator, x))
        import numpy as np

        num = np.mean([self.value(metric, numerator, xv) for xv in self.xs])
        den = np.mean([self.value(metric, denominator, xv) for xv in self.xs])
        return float(num / den)

    # -- reporting ------------------------------------------------------------
    def production_table(self, unit: str = "us") -> str:
        """Fixed-width table of production movement/idle (Fig. Na panels)."""
        return self._table("production", unit)

    def consumption_table(self, unit: str = "ms") -> str:
        """Fixed-width table of consumption movement/idle (Fig. Nb panels)."""
        return self._table("consumption", unit)

    def _table(self, which: str, unit: str) -> str:
        import numpy as np

        conv = to_usec if unit == "us" else to_msec
        headers = [self.x_name, "system", f"movement ({unit})",
                   f"idle ({unit})", f"total ({unit})", f"±std ({unit})"]
        rows = []
        for x in self.xs:
            for system in self.systems:
                # Ragged grids (a system capped below the top x, e.g.
                # single-node fan-out under the procs/node budget) simply
                # omit the absent combinations.
                cell = self.cells.get((x, system))
                if cell is None:
                    continue
                move = getattr(cell, f"{which}_movement")
                idle = getattr(cell, f"{which}_idle")
                rows.append([
                    str(x), system,
                    fmt_sig(conv(move.mean)),
                    fmt_sig(conv(idle.mean)),
                    fmt_sig(conv(move.mean + idle.mean)),
                    fmt_sig(conv(np.hypot(move.std, idle.std))),
                ])
        return table(headers, rows,
                     title=f"{self.figure_id} {which} time per frame")

    def render(self) -> str:
        """Full textual report of the figure."""
        parts = [f"=== {self.figure_id}: {self.title} ===",
                 f"(runs={self.runs}, frames={self.frames})",
                 self.production_table(),
                 "",
                 self.consumption_table()]
        if self.notes:
            parts.append("")
            parts.extend(self.notes)
        return "\n".join(parts)


# -- the figure grid's row type ---------------------------------------------

#: Pairs of every two-node model and stride figure (Figs. 8-12).
PAIRS = 16

#: An experiment's cells' raw runs, keyed like its cells (a figure's
#: like ``FigureResult.cells``).
Runs = Dict[Any, List[Any]]


def _series(row: "Figure", xs: Sequence, runs: Runs, reps: int,
            frames: int) -> FigureResult:
    """Mean movement/idle per (x, system) cell (Figs. 5-8, 11-12)."""
    return FigureResult(
        figure_id=row.figure_id, title=row.title, x_name=row.x_name,
        xs=list(xs), systems=[s.value for s in row.systems],
        cells={cell: Cell.of(results) for cell, results in runs.items()},
        runs=reps, frames=frames,
    )


def _every_x(x: Any, runs: int) -> int:
    """Every cell runs the figure's repetitions."""
    return runs


def jac_pairs(placement: Placement):
    """Spec builder ``(pairs, system, frames)``: JAC at its paper stride."""
    def spec(pairs: int, system: System, frames: int) -> WorkflowSpec:
        return WorkflowSpec(system=system, model=JAC, stride=JAC.paper_stride,
                            frames=frames, pairs=pairs, placement=placement)
    return spec


def model_at_paper_stride(name: str, system: System,
                          frames: int) -> WorkflowSpec:
    """Spec builder ``(model, system, frames)``: :data:`PAIRS` split pairs
    at the model's Table II stride."""
    model = model_by_name(name)
    return WorkflowSpec(system=system, model=model, stride=model.paper_stride,
                        frames=frames, pairs=PAIRS, placement=Placement.SPLIT)


def stride_of(model):
    """Spec builder ``(stride, system, frames)``: :data:`PAIRS` split pairs
    of ``model``."""
    def spec(stride: int, system: System, frames: int) -> WorkflowSpec:
        return WorkflowSpec(system=system, model=model, stride=stride,
                            frames=frames, pairs=PAIRS,
                            placement=Placement.SPLIT)
    return spec


@dataclass(frozen=True)
class Figure:
    """One paper figure: a row of the campaign grid
    (:data:`repro.experiments.figures.GRID`)."""

    #: registry name, e.g. ``"fig5"``
    name: str
    figure_id: str
    title: str
    #: the report's section title; ``list`` prints it
    heading: str
    x_name: str
    xs: Tuple
    quick_xs: Tuple
    systems: Tuple[System, ...]
    spec: Callable[[Any, System, int], WorkflowSpec]
    #: frames per producer under ``--quick`` (one repetition per cell)
    quick_frames: int
    #: repetitions of the cell at x, given the figure's repetitions
    runs_for: Callable[[Any, int], int] = _every_x
    #: the figure's result from ``(row, xs, runs, reps, frames)``
    reduce: Callable[..., Any] = _series

    def plan(self, runs: Optional[int] = None, frames: Optional[int] = None,
             quick: bool = False):
        """This figure's cells and reducer, as a
        :class:`~repro.experiments.figures.Part` of a plan."""
        from repro.experiments.figures import Part

        reps = default_runs(runs, 1 if quick else None)
        length = default_frames(frames, self.quick_frames if quick else None)
        xs = self.quick_xs if quick else self.xs
        cells = {
            (x, system.value): repetition_tasks(
                self.spec(x, system, length), self.runs_for(x, reps),
                jitter_cv=JITTER_CV)
            for x in xs for system in self.systems
        }
        return Part(cells, lambda raw: self.reduce(self, xs, raw, reps, length))

    def run(self, runs: Optional[int] = None, frames: Optional[int] = None,
            quick: bool = False):
        """Measure this figure (a plan of one part)."""
        return self.plan(runs, frames, quick).run()
