"""Fig. 5 — ensemble size scaling on a single node: DYAD vs XFS.

JAC at its paper stride, 1/2/4 producer-consumer pairs collocated on one
node (Lustre is excluded, as in the paper, because a parallel file system
would be forced off-node). The figure is one row of the campaign grid
(:mod:`repro.experiments.figures`); what it claims lives in
:mod:`repro.experiments.claims`.
"""

from repro.experiments.common import Figure, jac_pairs
from repro.workflow.spec import Placement, System

__all__ = ["FIGURE"]

FIGURE = Figure(
    "fig5", "Fig5", "single-node ensemble scaling, JAC (DYAD vs XFS)",
    "Fig. 5 — single-node ensemble scaling (DYAD vs XFS)",
    "pairs", (1, 2, 4), (1, 2, 4), (System.DYAD, System.XFS),
    jac_pairs(Placement.SINGLE_NODE), quick_frames=32,
)
