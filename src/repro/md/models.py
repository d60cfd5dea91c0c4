"""The molecular model catalogue (paper Tables I and II).

Each :class:`MolecularModel` carries the paper's measured properties —
atom count, frame size, simulation rate in steps/second (derived by the
authors from published NAMD benchmarks) — plus the derived quantities the
experiments need: ms/step, the stride that yields the common ~0.82 s frame
frequency, and frame-production schedules.

The paper's stride values (Table II) are stored verbatim as
``paper_stride``; :meth:`MolecularModel.stride_for_frequency` recomputes a
stride for any target frequency. Note the paper's F1-ATPase row is
slightly inconsistent (92 steps × 8.64 ms = 0.795 s, printed as 0.82 s);
we keep the paper's numbers and surface the computed frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.units import KiB, MiB

__all__ = [
    "MolecularModel",
    "JAC",
    "APOA1",
    "F1_ATPASE",
    "STMV",
    "MODELS",
    "model_by_name",
    "frame_size",
    "FRAME_HEADER_BYTES",
    "ATOM_RECORD_BYTES",
    "TARGET_FREQUENCY",
]

#: The common data-generation period the paper calibrates strides to.
TARGET_FREQUENCY: float = 0.82

#: An encoded frame's header and per-atom record sizes. The codec
#: (:mod:`repro.md.frame`) asserts its layout against both; they live
#: here so the catalogue sizes frames without loading numpy.
FRAME_HEADER_BYTES = 44
ATOM_RECORD_BYTES = 28


def frame_size(natoms: int) -> int:
    """Encoded size in bytes of a frame with ``natoms`` atoms."""
    if natoms < 0:
        raise ValueError(f"negative atom count: {natoms}")
    return FRAME_HEADER_BYTES + ATOM_RECORD_BYTES * natoms


@dataclass(frozen=True)
class MolecularModel:
    """One molecular system and its MD-performance envelope."""

    name: str
    num_atoms: int
    steps_per_second: float
    paper_stride: int
    paper_frame_bytes: int  # Table I value, for cross-checking the codec

    # -- derived quantities ----------------------------------------------------
    @cached_property
    def frame_bytes(self) -> int:
        """Frame size from the codec (44-byte header + 28 B/atom).

        Matches Table I to two decimals for all four models — see the
        frame-codec tests.
        """
        return frame_size(self.num_atoms)

    @property
    def ms_per_step(self) -> float:
        """Milliseconds per MD step (Table II column)."""
        return 1000.0 / self.steps_per_second

    @property
    def seconds_per_step(self) -> float:
        """Seconds per MD step."""
        return 1.0 / self.steps_per_second

    @property
    def paper_frequency(self) -> float:
        """Frame period implied by the paper's stride (≈0.82 s)."""
        return self.paper_stride / self.steps_per_second

    def stride_for_frequency(self, frequency: float = TARGET_FREQUENCY) -> int:
        """Stride producing one frame every ``frequency`` seconds."""
        if frequency <= 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        return max(1, round(self.steps_per_second * frequency))

    def stride_time(self, stride: int) -> float:
        """Wall time of ``stride`` MD steps."""
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        return stride * self.seconds_per_step

    def steps_for_frames(self, frames: int, stride: int) -> int:
        """Total MD steps needed to emit ``frames`` frames."""
        return frames * stride

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.num_atoms:,} atoms, "
            f"{self.frame_bytes / KiB:.2f} KiB/frame, "
            f"{self.steps_per_second:.2f} steps/s"
        )


#: Joint AMBER-CHARMM benchmark (DHFR): the paper's smallest model.
JAC = MolecularModel(
    name="JAC",
    num_atoms=23_558,
    steps_per_second=1072.92,
    paper_stride=880,
    paper_frame_bytes=round(644.21 * KiB),
)

#: Apolipoprotein A1.
APOA1 = MolecularModel(
    name="ApoA1",
    num_atoms=92_224,
    steps_per_second=358.22,
    paper_stride=294,
    paper_frame_bytes=round(2.46 * MiB),
)

#: F1 ATPase.
F1_ATPASE = MolecularModel(
    name="F1 ATPase",
    num_atoms=327_506,
    steps_per_second=115.74,
    paper_stride=92,
    paper_frame_bytes=round(8.75 * MiB),
)

#: Satellite tobacco mosaic virus: the paper's largest model.
STMV = MolecularModel(
    name="STMV",
    num_atoms=1_066_628,
    steps_per_second=34.14,
    paper_stride=28,
    paper_frame_bytes=round(28.48 * MiB),
)

#: Catalogue in the paper's (size) order.
MODELS: Tuple[MolecularModel, ...] = (JAC, APOA1, F1_ATPASE, STMV)

_BY_NAME: Dict[str, MolecularModel] = {m.name.lower(): m for m in MODELS}
_BY_NAME["f1"] = F1_ATPASE
_BY_NAME["f1-atpase"] = F1_ATPASE
_BY_NAME["f1_atpase"] = F1_ATPASE
_BY_NAME["apoa1"] = APOA1


def model_by_name(name: str) -> MolecularModel:
    """Catalogue lookup, case-insensitive, with common aliases."""
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        known = ", ".join(m.name for m in MODELS)
        raise KeyError(f"unknown molecular model {name!r} (known: {known})") from None
