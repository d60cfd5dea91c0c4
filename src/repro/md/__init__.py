"""Molecular dynamics substrate.

Four pieces, mirroring what the paper's workflows wrap:

- :mod:`repro.md.models` — the molecular model catalogue (Tables I-II of
  the paper: JAC, ApoA1, F1-ATPase, STMV) with atom counts, frame sizes,
  simulation rates, and stride derivations;
- :mod:`repro.md.frame` — the binary frame codec (44-byte header +
  28 bytes/atom, which reproduces the paper's frame sizes exactly);
- :mod:`repro.md.engine` — a real, small Lennard-Jones MD engine
  (velocity-Verlet, cell lists, Berendsen thermostat) used by the examples
  and the real-threads backend to generate genuine trajectories;
- :mod:`repro.md.analytics` — in-situ analytics kernels (radius of
  gyration, RMSD, contact-matrix eigenvalue tracking à la the paper's
  helix analysis in Fig. 1).
"""

from repro import lazy_exports

__all__ = [
    "EigenvalueTracker",
    "contact_matrix",
    "end_to_end_distance",
    "largest_eigenvalue",
    "radius_of_gyration",
    "rmsd",
    "LJConfig",
    "LJSimulation",
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
    "TrajectoryReader",
    "TrajectoryWriter",
    "read_trajectory",
    "write_trajectory",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.md.analytics": ["EigenvalueTracker", "contact_matrix",
                           "end_to_end_distance", "largest_eigenvalue",
                           "radius_of_gyration", "rmsd"],
    "repro.md.engine": ["LJConfig", "LJSimulation"],
    "repro.md.frame": ["ATOM_DTYPE", "Frame"],
    "repro.md.trajectory": ["TrajectoryReader", "TrajectoryWriter",
                            "read_trajectory", "write_trajectory"],
    "repro.md.models": ["APOA1", "F1_ATPASE", "JAC", "MODELS", "STMV",
                        "FRAME_HEADER_BYTES", "MolecularModel", "frame_size",
                        "model_by_name"],
})
