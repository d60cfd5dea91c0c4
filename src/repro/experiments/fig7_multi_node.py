"""Fig. 7 — large-scale distributed workflow (2→64 nodes): DYAD vs Lustre.

JAC, stride 880, 128 frames, 8 processes per node, ensembles of
8/16/32/64/128/256 pairs on 2/4/8/16/32/64 nodes (half producers, half
consumers).

Paper's headline numbers:
- (a) production time stable with ensemble size for both systems; DYAD
  ≈ 5.3× faster; Lustre shows more run-to-run variability at 128/256
  pairs (shared-facility interference);
- (b) DYAD consumer data movement ≈ 5.8× faster; overall ≈ 192.0×.

Repetitions scale down with ensemble size so a full reproduction stays
tractable (the mean over pairs is already an average over hundreds of
processes at the large end).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import FigureResult, default_frames, default_runs, measure
from repro.md.models import JAC
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["PAIRS", "run", "main"]

PAIRS = (8, 16, 32, 64, 128, 256)


def _runs_for(pairs: int, base_runs: int) -> int:
    """Fewer repetitions for the largest ensembles."""
    if pairs >= 128:
        return max(1, base_runs // 3)
    if pairs >= 64:
        return max(1, base_runs // 2)
    return base_runs


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the Fig. 7 grid."""
    base_runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 16 if quick else None)
    xs = PAIRS[:3] if quick else PAIRS
    cells = {}
    for pairs in xs:
        for system in (System.DYAD, System.LUSTRE):
            spec = WorkflowSpec(
                system=system, model=JAC, stride=JAC.paper_stride,
                frames=frames, pairs=pairs, placement=Placement.SPLIT,
            )
            cell, _ = measure(spec, runs=_runs_for(pairs, base_runs))
            cells[(pairs, system.value)] = cell
    return FigureResult(
        figure_id="Fig7",
        title="multi-node ensemble scaling, JAC (DYAD vs Lustre)",
        x_name="pairs",
        xs=list(xs),
        systems=[System.DYAD.value, System.LUSTRE.value],
        cells=cells,
        runs=base_runs,
        frames=frames,
    )


def main(quick: bool = False) -> FigureResult:
    """Run and print Fig. 7."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
