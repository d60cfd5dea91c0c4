"""Fig. 8 — molecular model size scaling: DYAD vs Lustre.

JAC / ApoA1 / F1-ATPase / STMV on 2 nodes with 16 pairs, each model at
its Table II stride so the frame-generation frequency is the same for
all models (``--quick``: JAC and STMV only). One row of the campaign
grid (:mod:`repro.experiments.figures`).
"""

from repro.experiments.common import Figure, model_at_paper_stride
from repro.md.models import JAC, MODELS, STMV
from repro.workflow.spec import System

__all__ = ["FIGURE"]

FIGURE = Figure(
    "fig8", "Fig8", "molecular model size scaling, 16 pairs (DYAD vs Lustre)",
    "Fig. 8 — molecular model size scaling (DYAD vs Lustre)",
    "model", tuple(m.name for m in MODELS), (JAC.name, STMV.name),
    (System.DYAD, System.LUSTRE), model_at_paper_stride, quick_frames=16,
)
