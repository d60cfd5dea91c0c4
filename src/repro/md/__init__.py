"""Molecular dynamics substrate.

The paper replaces the MD codes with fixed "MD sleeps"; what the
workflows still need of MD is the size and rate of the frames:

- :mod:`repro.md.models` — the molecular model catalogue (Tables I-II of
  the paper: JAC, ApoA1, F1-ATPase, STMV) with atom counts, frame sizes,
  simulation rates, and stride derivations;
- :mod:`repro.md.frame` — the binary frame codec (44-byte header +
  28 bytes/atom, which reproduces the paper's frame sizes exactly).
"""

from repro import lazy_exports

__all__ = [
    "ATOM_DTYPE",
    "FRAME_HEADER_BYTES",
    "Frame",
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
    "repro.md.frame": ["ATOM_DTYPE", "Frame"],
    "repro.md.models": ["APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
                        "FRAME_HEADER_BYTES", "MolecularModel", "frame_size",
                        "model_by_name"],
})
