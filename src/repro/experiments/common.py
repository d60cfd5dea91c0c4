"""Shared experiment machinery: repetition, aggregation, reporting.

The paper runs every configuration 10 times and reports means (with
whiskers) of per-frame production and consumption time, decomposed into
data movement and idle. :class:`Cell` holds those four statistics for one
(x-value, system) combination; :class:`FigureResult` holds a whole
figure's grid plus ratio helpers used by the textual reports, the
benchmarks' shape assertions, and EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.report import fmt_sig, table
from repro.units import to_msec, to_usec
from repro.workflow.runner import WorkflowResult, run_repetitions
from repro.workflow.spec import WorkflowSpec

__all__ = [
    "Stat",
    "Cell",
    "FigureResult",
    "default_runs",
    "default_frames",
    "measure",
    "median_run",
    "JITTER_CV",
]

#: Device/compute jitter used by all experiments (gives the paper's
#: run-to-run whiskers; unit tests use 0 for determinism).
JITTER_CV = 0.05


def default_runs(override: Optional[int] = None) -> int:
    """Repetitions per configuration (paper: 10; default here: 3)."""
    if override is not None:
        return max(1, int(override))
    return max(1, int(os.environ.get("REPRO_RUNS", "3")))


def default_frames(override: Optional[int] = None) -> int:
    """Frames per producer (paper: 128)."""
    if override is not None:
        return max(1, int(override))
    return max(1, int(os.environ.get("REPRO_FRAMES", "128")))


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


@dataclass(frozen=True)
class Stat:
    """Mean and standard deviation over repetitions."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stat":
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


def measure(spec: WorkflowSpec, runs: int, jitter_cv: float = JITTER_CV,
            jobs: Optional[int] = None, use_cache: Optional[bool] = None,
            fault_plan=None, fidelity: Optional[str] = None,
            **system_configs) -> Tuple[Cell, List[WorkflowResult]]:
    """Run one spec ``runs`` times; returns the aggregated cell and raw runs.

    ``jobs``/``use_cache`` default to the enclosing
    :func:`repro.experiments.parallel.campaign` scope (or the
    ``REPRO_JOBS``/``REPRO_CACHE`` environment variables), so figure
    modules calling ``measure`` inherit campaign-wide parallelism and
    caching without threading the knobs through their signatures.
    ``fault_plan`` makes every repetition a faulty run (see
    :mod:`repro.faults`); it participates in the cache key. ``fidelity``
    selects the simulation tier and defaults to the campaign scope (or
    ``REPRO_FIDELITY``, or ``exact``).
    """
    results = run_repetitions(spec, runs=runs, jitter_cv=jitter_cv,
                              jobs=jobs, use_cache=use_cache,
                              fault_plan=fault_plan, fidelity=fidelity,
                              **system_configs)
    return Cell.of(results), results


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
