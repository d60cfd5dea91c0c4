"""Fig. 10 — Thicket call-tree analysis of Lustre (JAC vs STMV).

The consumer-side Lustre tree has two regions:
``FilesystemReader::read_single_buf`` (data movement) and
``explicit_sync`` (the coarse-grained barrier's idle time).

Paper's observations:
- data movement scales sublinearly: 45.3× more data → ≈ 12.3× more read
  time (striping parallelizes large files across OSTs);
- ``explicit_sync`` stays constant between JAC and STMV (the strides are
  chosen so production takes the same wall time for every model), which
  is what limits Lustre's overall scalability.

NOTE: our model reproduces the constant ``explicit_sync`` exactly, but
the movement ratio comes out larger than 12.3× when the OSS read path
saturates under 16 concurrent STMV consumers — the same contention that
produces the Fig. 8b widening the paper reports. The two paper claims
(Fig. 8b's widening vs Fig. 10's strong sublinearity) are not mutually
consistent; we follow Fig. 8b and report the measured ratio here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import default_frames, default_runs
from repro.experiments.fig9_dyad_calltree import CallTreeFigure, consumer_tree
from repro.md.models import JAC, STMV
from repro.perf.calltree import CallTree
from repro.workflow.emulator import READ_REGION, SYNC_REGION
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["run", "main"]

PAIRS = 16


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> CallTreeFigure:
    """Measure and aggregate the Fig. 10 call trees."""
    runs = default_runs(1 if quick else runs)
    frames = default_frames(16 if quick else frames)
    trees: Dict[str, CallTree] = {}
    per_frame: Dict[str, Dict[str, float]] = {}
    for model in (JAC, STMV):
        spec = WorkflowSpec(
            system=System.LUSTRE, model=model, stride=model.paper_stride,
            frames=frames, pairs=PAIRS, placement=Placement.SPLIT,
        )
        tree = consumer_tree(spec, runs)
        tree.label = f"Lustre consumer, {model.name}"
        trees[model.name] = tree
        read = tree.find(READ_REGION)
        sync = tree.find(SYNC_REGION)
        per_frame[model.name] = {
            READ_REGION: (read.time / frames) if read else 0.0,
            SYNC_REGION: (sync.time / frames) if sync else 0.0,
        }

    return CallTreeFigure(
        figure_id="Fig10: Lustre call trees (JAC vs STMV)",
        trees=trees,
        per_frame=per_frame,
        runs=runs,
        frames=frames,
    )


def main(quick: bool = False) -> CallTreeFigure:
    """Run and print Fig. 10."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
