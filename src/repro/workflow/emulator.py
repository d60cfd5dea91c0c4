"""Paper-emulation primitives shared by every workflow process body.

The emulation follows the paper exactly (Section IV-C): a producer runs
``stride`` MD steps (a fixed-duration *MD sleep*), then serializes a
frame and writes it through the system under test; a consumer reads a
frame, deserializes it, then runs an analytics sleep matched to the
frame-generation frequency. The process bodies themselves, and the
per-system read/write and sync hooks, live in
:mod:`repro.workflow.topology`; this module holds what they share:
:class:`ComputeModel` (the MD/analytics sleep sampler), the canonical
:func:`frame_path`, and the Caliper region names.

Region names match the paper's Figs. 9-10 call trees
(``dyad_consume/dyad_fetch/dyad_get_data/dyad_cons_store``,
``read_single_buf``, ``FilesystemReader::read_single_buf``,
``explicit_sync``).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.rng import RngStreams

__all__ = [
    "ComputeModel",
    "frame_path",
    "READ_REGION",
    "WRITE_REGION",
    "SYNC_REGION",
    "POLL_REGION",
]


class ComputeModel:
    """Per-process compute-time sampling for MD and analytics sleeps.

    Real MD steps are not metronome-exact; a small coefficient of
    variation decorrelates the otherwise-lockstep pairs of the ensemble
    (with cv=0 every producer would hit the storage system at the same
    instant forever, overstating contention relative to the paper's
    measurements).

    The stream key is shared by a pair's producer MD sleep and consumer
    analytics sleep for the same frame index, mirroring the paper's
    harness where the consumer sleep is *set equal to* the production
    period: the pair stays phase-locked (the producer runs exactly one
    frame ahead after the first synchronization), while different pairs
    drift apart through their independent per-frame draws.
    """

    def __init__(self, rng: Optional[RngStreams] = None, cv: float = 0.0) -> None:
        if cv < 0:
            raise ValueError(f"compute cv must be non-negative, got {cv}")
        self.rng = rng
        self.cv = cv

    def sample(self, stream: str, mean: float) -> float:
        """One sleep duration around ``mean``."""
        if self.rng is None or self.cv == 0.0:
            return mean
        return self.rng.jitter(stream, mean, self.cv)


#: Region names matching the paper's call trees.
READ_REGION = "FilesystemReader::read_single_buf"
WRITE_REGION = "write_single_buf"
SYNC_REGION = "explicit_sync"
POLL_REGION = "poll_sync"


def frame_path(root: str, pair: int, frame: int) -> str:
    """Canonical managed path of one frame of one pair."""
    return f"{root}/pair{pair:04d}/frame{frame:05d}.mdfr"
