"""Molecular dynamics substrate.

The paper replaces the MD codes with fixed "MD sleeps"; what the
workflows still need of MD is the size and rate of the frames.
:mod:`repro.md.models` is the molecular model catalogue (Tables I-II of
the paper: JAC, ApoA1, F1-ATPase, STMV) with atom counts, frame sizes
(:func:`~repro.md.models.frame_size`: a 44-byte header plus 28 bytes per
atom), simulation rates, and stride derivations.
"""

from repro import lazy_exports

__all__ = [
    "FRAME_HEADER_BYTES",
    "frame_size",
    "APOA1",
    "F1_ATPASE",
    "JAC",
    "MODELS",
    "STMV",
    "MolecularModel",
    "model_by_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.md.models": ["APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
                        "FRAME_HEADER_BYTES", "MolecularModel", "frame_size",
                        "model_by_name"],
})
