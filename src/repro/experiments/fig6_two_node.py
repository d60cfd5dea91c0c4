"""Fig. 6 — small-scale distributed workflow (two nodes): DYAD vs Lustre.

JAC at its paper stride, 1/2/4/8 pairs, producers on node 1 and consumers
on node 2 (XFS cannot run across nodes, so Lustre replaces it). One row
of the campaign grid (:mod:`repro.experiments.figures`).
"""

from repro.experiments.common import Figure, jac_pairs
from repro.workflow.spec import Placement, System

__all__ = ["FIGURE"]

FIGURE = Figure(
    "fig6", "Fig6", "two-node distributed workflow, JAC (DYAD vs Lustre)",
    "Fig. 6 — two-node distributed workflow (DYAD vs Lustre)",
    "pairs", (1, 2, 4, 8), (1, 2, 4, 8), (System.DYAD, System.LUSTRE),
    jac_pairs(Placement.SPLIT), quick_frames=32,
)
