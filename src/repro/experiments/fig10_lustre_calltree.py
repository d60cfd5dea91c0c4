"""Fig. 10 — Thicket call-tree analysis of Lustre (JAC vs STMV).

The consumer-side Lustre tree has two regions:
``FilesystemReader::read_single_buf`` (data movement) and
``explicit_sync`` (the coarse-grained barrier's idle time). The row
reuses Fig. 9's reducer on Fig. 8's Lustre cells (one row of the
campaign grid, :mod:`repro.experiments.figures`).
"""

from repro.experiments.common import Figure, model_at_paper_stride
from repro.experiments.fig9_dyad_calltree import call_trees
from repro.md.models import JAC, STMV
from repro.workflow.emulator import READ_REGION, SYNC_REGION
from repro.workflow.spec import System

__all__ = ["FIGURE"]

FIGURE = Figure(
    "fig10", "Fig10", "Lustre call trees (JAC vs STMV)",
    "Fig. 10 — Lustre call trees, JAC vs STMV (Thicket)",
    "model", (JAC.name, STMV.name), (JAC.name, STMV.name), (System.LUSTRE,),
    model_at_paper_stride, quick_frames=16,
    reduce=call_trees("Lustre", ((READ_REGION,), (SYNC_REGION,))),
)
