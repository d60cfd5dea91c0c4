"""Fig. 12 — frame generation frequency scaling with STMV: DYAD vs Lustre.

Fig. 11's strides with STMV frames, 2 nodes, 16 pairs. One row of the
campaign grid (:mod:`repro.experiments.figures`).
"""

from repro.experiments.common import Figure, stride_of
from repro.experiments.fig11_jac_stride import STRIDES
from repro.md.models import STMV
from repro.workflow.spec import System

__all__ = ["FIGURE"]

FIGURE = Figure(
    "fig12", "Fig12", "frame frequency scaling, STMV, 16 pairs (DYAD vs Lustre)",
    "Fig. 12 — frame-frequency scaling, STMV",
    "stride", STRIDES, STRIDES, (System.DYAD, System.LUSTRE), stride_of(STMV),
    quick_frames=16,
)
