"""Fig. 6 — small-scale distributed workflow (two nodes): DYAD vs Lustre.

JAC, stride 880, 128 frames, 1/2/4/8 pairs, producers on node 1 and
consumers on node 2 (XFS cannot run across nodes, so Lustre replaces it).

Paper's headline numbers:
- (a) DYAD production ≈ 7.5× faster than Lustre (node-local staging vs
  off-node parallel file system);
- (b) DYAD consumer data movement ≈ 6.9× faster; overall consumption
  ≈ 197.4× faster. Network communication costs DYAD almost nothing
  relative to its single-node configuration (Finding 2).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import FigureResult, default_frames, default_runs, measure
from repro.md.models import JAC
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["PAIRS", "run", "main"]

PAIRS = (1, 2, 4, 8)


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the Fig. 6 grid."""
    runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 32 if quick else None)
    cells = {}
    for pairs in PAIRS:
        for system in (System.DYAD, System.LUSTRE):
            spec = WorkflowSpec(
                system=system, model=JAC, stride=JAC.paper_stride,
                frames=frames, pairs=pairs, placement=Placement.SPLIT,
            )
            cell, _ = measure(spec, runs=runs)
            cells[(pairs, system.value)] = cell
    return FigureResult(
        figure_id="Fig6",
        title="two-node distributed workflow, JAC (DYAD vs Lustre)",
        x_name="pairs",
        xs=list(PAIRS),
        systems=[System.DYAD.value, System.LUSTRE.value],
        cells=cells,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> FigureResult:
    """Run and print Fig. 6."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
