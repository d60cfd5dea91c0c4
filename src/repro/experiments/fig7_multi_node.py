"""Fig. 7 — large-scale distributed workflow (2→64 nodes): DYAD vs Lustre.

JAC at its paper stride, 8 processes per node, ensembles of
8/16/32/64/128/256 pairs on 2/4/8/16/32/64 nodes (half producers, half
consumers). One row of the campaign grid
(:mod:`repro.experiments.figures`), whose repetitions scale down with
ensemble size so a full reproduction stays tractable.
"""

from repro.experiments.common import Figure, jac_pairs
from repro.workflow.spec import Placement, System

__all__ = ["FIGURE"]


def _fewer_for_large_ensembles(pairs: int, runs: int) -> int:
    """Fewer repetitions for the largest ensembles (the mean over pairs
    already averages hundreds of processes there)."""
    if pairs >= 128:
        return max(1, runs // 3)
    if pairs >= 64:
        return max(1, runs // 2)
    return runs


FIGURE = Figure(
    "fig7", "Fig7", "multi-node ensemble scaling, JAC (DYAD vs Lustre)",
    "Fig. 7 — multi-node scaling to 256 pairs (DYAD vs Lustre)",
    "pairs", (8, 16, 32, 64, 128, 256), (8, 16, 32),
    (System.DYAD, System.LUSTRE), jac_pairs(Placement.SPLIT),
    quick_frames=16, runs_for=_fewer_for_large_ensembles,
)
