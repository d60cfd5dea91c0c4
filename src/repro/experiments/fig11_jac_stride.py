"""Fig. 11 — frame generation frequency scaling with JAC: DYAD vs Lustre.

Strides of 1/5/10/50 MD steps, 2 nodes, 16 pairs. One row of the
campaign grid (:mod:`repro.experiments.figures`).
"""

from repro.experiments.common import Figure, stride_of
from repro.md.models import JAC
from repro.workflow.spec import System

__all__ = ["FIGURE", "STRIDES"]

#: MD steps between frames, as in Figs. 11-12
STRIDES = (1, 5, 10, 50)

FIGURE = Figure(
    "fig11", "Fig11", "frame frequency scaling, JAC, 16 pairs (DYAD vs Lustre)",
    "Fig. 11 — frame-frequency scaling, JAC",
    "stride", STRIDES, STRIDES, (System.DYAD, System.LUSTRE), stride_of(JAC),
    quick_frames=32,
)
