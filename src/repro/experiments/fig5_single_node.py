"""Fig. 5 — ensemble size scaling on a single node: DYAD vs XFS.

JAC, stride 880, 128 frames, 1/2/4 producer-consumer pairs collocated on
one node (Lustre is excluded, as in the paper, because a parallel file
system would be forced off-node).

Paper's headline numbers:
- (a) DYAD production ≈ 1.4× slower than XFS (global namespace /
  metadata management overhead); idle insignificant for both.
- (b) DYAD consumption ≈ 192.9× faster than XFS overall, because XFS's
  coarse-grained synchronization makes consumer idle ≈ the frame period
  while DYAD pays the KVS wait only on first touch.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import FigureResult, default_frames, default_runs, measure
from repro.md.models import JAC
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["PAIRS", "run", "main"]

PAIRS = (1, 2, 4)

def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the Fig. 5 grid."""
    runs = default_runs(1 if quick else runs)
    frames = default_frames(32 if quick else frames)
    cells = {}
    for pairs in PAIRS:
        for system in (System.DYAD, System.XFS):
            spec = WorkflowSpec(
                system=system, model=JAC, stride=JAC.paper_stride,
                frames=frames, pairs=pairs, placement=Placement.SINGLE_NODE,
            )
            cell, _ = measure(spec, runs=runs)
            cells[(pairs, system.value)] = cell
    return FigureResult(
        figure_id="Fig5",
        title="single-node ensemble scaling, JAC (DYAD vs XFS)",
        x_name="pairs",
        xs=list(PAIRS),
        systems=[System.DYAD.value, System.XFS.value],
        cells=cells,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> FigureResult:
    """Run and print Fig. 5."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
