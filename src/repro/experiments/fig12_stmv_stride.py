"""Fig. 12 — frame generation frequency scaling with STMV: DYAD vs Lustre.

Strides of 1/5/10/50 MD steps (a 28.48 MiB frame every ~29 ms to ~1.5 s),
2 nodes, 16 pairs, 128 frames.

Paper's headline numbers:
- (a) DYAD production ≈ 2.0× faster than Lustre; movement roughly
  constant across strides (Lustre with contention variability);
- (b) DYAD's data movement *improves* up to ≈ 1.4× as stride grows
  (lower network/storage contention at lower frame rates), while
  Lustre's stays flat; overall DYAD is 13.0-192.2× faster, the gap
  widening with stride as idle dominates.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import FigureResult, default_frames, default_runs, measure
from repro.md.models import STMV
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["STRIDES", "run", "main"]

STRIDES = (1, 5, 10, 50)
PAIRS = 16


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the Fig. 12 grid."""
    runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 16 if quick else None)
    cells = {}
    for stride in STRIDES:
        for system in (System.DYAD, System.LUSTRE):
            spec = WorkflowSpec(
                system=system, model=STMV, stride=stride,
                frames=frames, pairs=PAIRS, placement=Placement.SPLIT,
            )
            cell, _ = measure(spec, runs=runs)
            cells[(stride, system.value)] = cell
    return FigureResult(
        figure_id="Fig12",
        title="frame frequency scaling, STMV, 16 pairs (DYAD vs Lustre)",
        x_name="stride",
        xs=list(STRIDES),
        systems=[System.DYAD.value, System.LUSTRE.value],
        cells=cells,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> FigureResult:
    """Run and print Fig. 12."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
