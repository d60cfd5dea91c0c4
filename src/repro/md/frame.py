"""Binary MD frame codec.

A frame is the atom list with 3-D positions (plus per-atom metadata) that
the simulation emits every *stride* steps. The on-disk layout is

- a 44-byte header: magic, version, flags, atom count, payload checksum,
  step index, simulation time, periodic box lengths;
- one 28-byte record per atom (:data:`ATOM_DTYPE`).

``44 + 28 × natoms`` reproduces the paper's Table I frame sizes to two
decimals for all four molecular models, so the emulated workloads move
exactly the byte counts the paper reports.

The header carries a CRC-32 of the atom payload (flag
:data:`FLAG_CHECKSUM`) so consumers can *detect* torn or corrupted
frames — ``Frame.decode(payload, verify=True)`` raises
:class:`~repro.errors.IntegrityError` instead of silently returning
damaged coordinates. Version 1 frames (no checksum, flag clear) still
decode; verification is skipped for them.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import IntegrityError, ReproError
from repro.md.models import ATOM_RECORD_BYTES, FRAME_HEADER_BYTES, frame_size

__all__ = [
    "ATOM_DTYPE",
    "FLAG_CHECKSUM",
    "FRAME_HEADER_BYTES",
    "Frame",
    "frame_size",
]

#: Per-atom record: 28 bytes.
ATOM_DTYPE = np.dtype(
    [
        ("atom_id", "<u4"),
        ("type_id", "<u2"),
        ("residue_id", "<u2"),
        ("position", "<f4", (3,)),
        ("charge", "<f4"),
        ("mass", "<f4"),
    ]
)
assert ATOM_DTYPE.itemsize == ATOM_RECORD_BYTES

_MAGIC = b"MDFR"
_VERSION = 2
#: Oldest version :meth:`Frame.decode` still accepts (v1 had a 64-bit
#: atom count where v2 stores natoms(I) + checksum(I); same 44 bytes).
_MIN_VERSION = 1
#: Header flag: the checksum field holds a CRC-32 of the atom payload.
FLAG_CHECKSUM = 0x1
#: Header: magic(4s) version(H) flags(H) natoms(I) checksum(I) step(Q)
#: time(d) box(3f) — still 44 bytes, so Table I frame sizes are unchanged.
_HEADER = struct.Struct("<4sHHIIQd3f")
assert _HEADER.size == FRAME_HEADER_BYTES


@dataclass
class Frame:
    """One simulation snapshot.

    ``atoms`` is a structured array of :data:`ATOM_DTYPE`; ``box`` is the
    periodic box edge lengths (cubic/orthorhombic).
    """

    atoms: np.ndarray
    step: int = 0
    time: float = 0.0
    box: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.atoms = np.ascontiguousarray(self.atoms, dtype=ATOM_DTYPE)
        if self.box is None:
            self.box = np.zeros(3, dtype=np.float32)
        else:
            self.box = np.asarray(self.box, dtype=np.float32).reshape(3)
        if self.step < 0:
            raise ValueError(f"negative step: {self.step}")

    # -- convenience -------------------------------------------------------------
    @property
    def natoms(self) -> int:
        """Number of atoms."""
        return int(self.atoms.shape[0])

    @property
    def nbytes(self) -> int:
        """Encoded size in bytes."""
        return frame_size(self.natoms)

    @property
    def positions(self) -> np.ndarray:
        """(natoms, 3) float32 view of positions."""
        return self.atoms["position"]

    @classmethod
    def zeros(cls, natoms: int, step: int = 0, time: float = 0.0) -> "Frame":
        """All-zero frame of a given size (workload emulation)."""
        return cls(np.zeros(natoms, dtype=ATOM_DTYPE), step=step, time=time)

    @classmethod
    def random(cls, natoms: int, rng: np.random.Generator, box: float = 100.0,
               step: int = 0, time: float = 0.0) -> "Frame":
        """Random frame (testing and synthetic workloads)."""
        atoms = np.zeros(natoms, dtype=ATOM_DTYPE)
        atoms["atom_id"] = np.arange(natoms, dtype=np.uint32)
        atoms["type_id"] = rng.integers(0, 16, natoms, dtype=np.uint16)
        atoms["residue_id"] = (np.arange(natoms, dtype=np.uint32) // 10).astype(np.uint16)
        atoms["position"] = rng.uniform(0, box, (natoms, 3)).astype(np.float32)
        atoms["charge"] = rng.normal(0, 0.4, natoms).astype(np.float32)
        atoms["mass"] = rng.uniform(1.0, 16.0, natoms).astype(np.float32)
        return cls(atoms, step=step, time=time, box=np.full(3, box, np.float32))

    # -- codec -------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to exactly :attr:`nbytes` bytes (checksum included)."""
        atom_bytes = self.atoms.tobytes()
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            FLAG_CHECKSUM,
            self.natoms,
            zlib.crc32(atom_bytes) & 0xFFFFFFFF,
            self.step,
            float(self.time),
            float(self.box[0]),
            float(self.box[1]),
            float(self.box[2]),
        )
        return header + atom_bytes

    @classmethod
    def decode(cls, payload: bytes, verify: bool = True) -> "Frame":
        """Deserialize; raises :class:`ReproError` on malformed input.

        With ``verify`` (the default), a frame whose header advertises a
        checksum is validated against its atom payload and a mismatch
        raises :class:`~repro.errors.IntegrityError` — this is how the
        checked consume paths detect torn/corrupted frames. ``verify=
        False`` models a legacy consumer that trusts the bytes as-is.
        """
        if len(payload) < FRAME_HEADER_BYTES:
            raise ReproError(
                f"frame too short: {len(payload)} < {FRAME_HEADER_BYTES}"
            )
        (magic, version, flags, natoms, checksum, step, time, bx, by, bz,
         ) = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise ReproError(f"bad frame magic {magic!r}")
        if not _MIN_VERSION <= version <= _VERSION:
            raise ReproError(f"unsupported frame version {version}")
        if version < 2:
            # v1 stored natoms as a u64 where v2 has natoms(I)+checksum(I);
            # little-endian, so the checksum field read the high half.
            natoms, flags = natoms + (checksum << 32), 0
        expected = frame_size(natoms)
        if len(payload) != expected:
            raise ReproError(
                f"frame size mismatch: {len(payload)} != {expected} "
                f"for {natoms} atoms"
            )
        atom_bytes = payload[FRAME_HEADER_BYTES:]
        if verify and flags & FLAG_CHECKSUM:
            actual = zlib.crc32(atom_bytes) & 0xFFFFFFFF
            if actual != checksum:
                raise IntegrityError(
                    f"frame checksum mismatch: header says {checksum:#010x},"
                    f" payload hashes to {actual:#010x} (step {step})"
                )
        atoms = np.frombuffer(
            atom_bytes, dtype=ATOM_DTYPE, count=natoms
        ).copy()
        return cls(
            atoms,
            step=step,
            time=time,
            box=np.array([bx, by, bz], dtype=np.float32),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.step == other.step
            and self.time == other.time
            and np.array_equal(self.box, other.box)
            and np.array_equal(self.atoms, other.atoms)
        )
