"""Fig. 9 — Thicket call-tree analysis of DYAD (JAC vs STMV).

Reproduces the paper's drill-down: the consumer-side call tree
``dyad_consume{dyad_fetch, dyad_get_data, dyad_cons_store}`` +
``read_single_buf``, aggregated over the ensemble with the Thicket-like
tooling, for the smallest and largest molecular models (2 nodes,
16 pairs, Table II strides).

Paper's observations:
- STMV moves 45.3× more data than JAC but DYAD's data movement is only
  ≈ 33.6× more expensive (fixed per-operation costs amortize with size);
- the per-call ``dyad_fetch`` (KVS) cost is ≈ 2.1× *lower* for STMV —
  larger data movement spreads the consumers out and relieves pressure
  on the KVS server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.common import default_frames, default_runs
from repro.md.models import JAC, STMV
from repro.perf.calltree import CallTree
from repro.perf.thicket import Thicket
from repro.workflow.runner import run_repetitions
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = [
    "MOVEMENT_REGIONS", "run", "main", "CallTreeFigure", "consumer_tree",
]

PAIRS = 16

#: Per-frame movement = the sum of these consumer regions (as in Fig. 9).
MOVEMENT_REGIONS = (
    ("dyad_consume", "dyad_get_data"),
    ("dyad_consume", "dyad_cons_store"),
    ("read_single_buf",),
)

FETCH_PATH = ("dyad_consume", "dyad_fetch")


@dataclass
class CallTreeFigure:
    """Aggregated call trees per model."""

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


def consumer_tree(spec: WorkflowSpec, runs: int) -> CallTree:
    """Mean consumer call tree across pairs and repetitions."""
    ensemble = Thicket()
    for result in run_repetitions(spec, runs=runs):
        ensemble.extend(result.thicket().filter(role="consumer"))
    return ensemble.aggregate("mean")


def _per_frame_times(tree: CallTree, frames: int) -> Dict[str, float]:
    out = {}
    for path in list(MOVEMENT_REGIONS) + [FETCH_PATH]:
        node = tree.find(*path)
        out["/".join(path)] = (node.time / frames) if node else 0.0
    return out


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> CallTreeFigure:
    """Measure and aggregate the Fig. 9 call trees."""
    runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 16 if quick else None)
    trees: Dict[str, CallTree] = {}
    per_frame: Dict[str, Dict[str, float]] = {}
    for model in (JAC, STMV):
        spec = WorkflowSpec(
            system=System.DYAD, model=model, stride=model.paper_stride,
            frames=frames, pairs=PAIRS, placement=Placement.SPLIT,
        )
        tree = consumer_tree(spec, runs)
        tree.label = f"DYAD consumer, {model.name}"
        trees[model.name] = tree
        per_frame[model.name] = _per_frame_times(tree, frames)

    return CallTreeFigure(
        figure_id="Fig9: DYAD call trees (JAC vs STMV)",
        trees=trees,
        per_frame=per_frame,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> CallTreeFigure:
    """Run and print Fig. 9."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
