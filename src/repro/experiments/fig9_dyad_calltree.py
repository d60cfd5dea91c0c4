"""Fig. 9 — Thicket call-tree analysis of DYAD (JAC vs STMV).

Reproduces the paper's drill-down: the consumer-side call tree
``dyad_consume{dyad_fetch, dyad_get_data, dyad_cons_store}`` +
``read_single_buf``, aggregated over the ensemble with the Thicket-like
tooling, for the smallest and largest molecular models (2 nodes,
16 pairs, Table II strides). Its runs are Fig. 8's DYAD cells, so a plan
of both (:mod:`repro.experiments.figures`) simulates them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.common import Figure, Runs, model_at_paper_stride
from repro.md.models import JAC, STMV
from repro.perf.calltree import CallTree
from repro.perf.thicket import Thicket
from repro.workflow.spec import System

__all__ = [
    "CallTreeFigure", "FETCH_PATH", "FIGURE", "MOVEMENT_REGIONS",
    "call_trees",
]

#: Per-frame DYAD movement = the sum of these consumer regions (Fig. 9).
MOVEMENT_REGIONS = (
    ("dyad_consume", "dyad_get_data"),
    ("dyad_consume", "dyad_cons_store"),
    ("read_single_buf",),
)

FETCH_PATH = ("dyad_consume", "dyad_fetch")


@dataclass
class CallTreeFigure:
    """Aggregated consumer call trees per model."""

    figure_id: str
    trees: Dict[str, CallTree]
    per_frame: Dict[str, Dict[str, float]]  # model -> path-string -> seconds
    runs: int
    frames: int

    def render(self) -> str:
        """Rendered call trees (ms/frame)."""
        parts = [f"=== {self.figure_id} (runs={self.runs}, frames={self.frames}) ==="]
        for model, tree in self.trees.items():
            parts.append(f"-- {model} (mean consumer tree, ms per frame) --")
            parts.append(tree.render(metric="time", unit=1e-3 * self.frames,
                                     fmt="{:.3f} ms"))
        return "\n".join(parts)


def call_trees(label: str, paths: Sequence[Tuple[str, ...]]):
    """Reducer of a call-tree figure: per model, the mean consumer tree
    over pairs and repetitions, and the per-frame time of each path."""

    def reduce(row: Figure, xs: Sequence, runs: Runs, reps: int,
               frames: int) -> CallTreeFigure:
        (system,) = row.systems
        trees: Dict[str, CallTree] = {}
        per_frame: Dict[str, Dict[str, float]] = {}
        for model in xs:
            ensemble = Thicket()
            for result in runs[(model, system.value)]:
                ensemble.extend(result.thicket().filter(role="consumer"))
            tree = ensemble.aggregate("mean")
            tree.label = f"{label} consumer, {model}"
            trees[model] = tree
            per_frame[model] = {}
            for path in paths:
                node = tree.find(*path)
                per_frame[model]["/".join(path)] = (
                    (node.time / frames) if node else 0.0)
        return CallTreeFigure(
            figure_id=f"{row.figure_id}: {row.title}", trees=trees,
            per_frame=per_frame, runs=reps, frames=frames,
        )

    return reduce


FIGURE = Figure(
    "fig9", "Fig9", "DYAD call trees (JAC vs STMV)",
    "Fig. 9 — DYAD call trees, JAC vs STMV (Thicket)",
    "model", (JAC.name, STMV.name), (JAC.name, STMV.name), (System.DYAD,),
    model_at_paper_stride, quick_frames=16,
    reduce=call_trees("DYAD", MOVEMENT_REGIONS + (FETCH_PATH,)),
)
