"""Fig. 11 — frame generation frequency scaling with JAC: DYAD vs Lustre.

Strides of 1/5/10/50 MD steps (frames every ~1 ms to ~47 ms of MD
compute), 2 nodes, 16 pairs, 128 frames.

Paper's headline numbers:
- (a) data-movement time flat across strides for both systems (both can
  keep up with the frame rate); DYAD production ≈ 4.8× faster;
- (b) idle time grows with stride for both (longer production period =
  longer waits), but DYAD's idle stays far below Lustre's, so the total
  gap widens as stride grows (Finding 5).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import FigureResult, default_frames, default_runs, measure
from repro.md.models import JAC
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["STRIDES", "run", "main"]

STRIDES = (1, 5, 10, 50)
PAIRS = 16


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the Fig. 11 grid."""
    runs = default_runs(1 if quick else runs)
    frames = default_frames(32 if quick else frames)
    cells = {}
    for stride in STRIDES:
        for system in (System.DYAD, System.LUSTRE):
            spec = WorkflowSpec(
                system=system, model=JAC, stride=stride,
                frames=frames, pairs=PAIRS, placement=Placement.SPLIT,
            )
            cell, _ = measure(spec, runs=runs)
            cells[(stride, system.value)] = cell
    return FigureResult(
        figure_id="Fig11",
        title="frame frequency scaling, JAC, 16 pairs (DYAD vs Lustre)",
        x_name="stride",
        xs=list(STRIDES),
        systems=[System.DYAD.value, System.LUSTRE.value],
        cells=cells,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> FigureResult:
    """Run and print Fig. 11."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
