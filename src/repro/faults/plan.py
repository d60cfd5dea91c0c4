"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, validated description of everything that
goes wrong during a run: a schedule of :class:`FaultEvent` windows (crash
this DYAD service at t=3 s for 0.5 s, halve that SSD's bandwidth from
t=1 s …) plus a probabilistic per-transfer fault rate. Plans are plain
data — hashable, ``repr``-stable, serializable — so they participate in
the result-cache content hash and campaign workers can receive them
pickled. The :mod:`repro.faults.inject` module turns a plan into live
simulation processes.

Every random choice a plan induces (transfer faults, retry jitter) is
drawn from the run's named, seeded RNG streams: the same plan + seed
reproduces bit-identical metrics, which the resilience tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.errors import FaultPlanError

__all__ = ["FaultEvent", "FaultPlan", "FAULT_KINDS"]

#: Recognized fault kinds → what the injector does during the window.
FAULT_KINDS = (
    "node_crash",       # link down + DYAD service crash; warm restart after
    "ssd_degrade",      # node SSD channels throttled by `severity`
    "link_flap",        # fabric link down; traffic stalls until restore
    "lustre_slowdown",  # Lustre MDS/OSS degraded by `severity`
    "dyad_crash",       # DYAD service down; remote gets fail + retry
    "torn_write",       # writes land only `severity` of their bytes
    "bit_corrupt",      # each write/transfer corrupted with prob. `rate`
    "stale_metadata",   # metadata visible before data (DYAD KVS / Lustre)
)

#: Kinds whose `severity` is a slowdown factor (must be >= 1).
_DEGRADE_KINDS = frozenset({"ssd_degrade", "lustre_slowdown"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault window.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Simulation time (seconds) the fault strikes.
    target:
        What it strikes. Node kinds take a node id (``"node00"``) or a
        node index as a string (``"0"``); ``lustre_slowdown`` takes
        ``""`` (all servers), ``"mds"``, or ``"oss<i>"``.
    duration:
        Window length in seconds; the injector reverts the fault at
        ``at + duration``.
    severity:
        Slowdown factor for the degrade kinds (>= 1). ``torn_write``
        reinterprets it as the *fraction* of each write's declared bytes
        that actually land (in ``(0, 1)``); ``stale_metadata`` on Lustre
        reads it as the size/mtime lag in seconds. Ignored otherwise.
    rate:
        Per-operation probability for ``bit_corrupt`` (each write or
        remote transfer inside the window is corrupted with this
        probability, drawn from the run's seeded RNG). Ignored by the
        other kinds.
    """

    kind: str
    at: float
    target: str = ""
    duration: float = 0.0
    severity: float = 1.0
    rate: float = 0.0

    @property
    def until(self) -> float:
        """End of the fault window."""
        return self.at + self.duration

    def validate(self) -> None:
        """Raise :class:`FaultPlanError` on an invalid event."""
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise FaultPlanError(
                f"{self.kind}: duration must be positive, got {self.duration}"
                " (permanent faults are expressed with a duration past the"
                " planned horizon)"
            )
        if self.kind in _DEGRADE_KINDS and self.severity < 1.0:
            raise FaultPlanError(
                f"{self.kind}: severity is a slowdown factor and must be"
                f" >= 1, got {self.severity}"
            )
        if self.kind == "torn_write" and not 0.0 < self.severity < 1.0:
            raise FaultPlanError(
                "torn_write: severity is the fraction of declared bytes"
                f" that land and must be in (0, 1), got {self.severity}"
            )
        if self.kind == "stale_metadata" and self.severity < 0.0:
            raise FaultPlanError(
                "stale_metadata: severity is the metadata lag in seconds"
                f" and must be >= 0, got {self.severity}"
            )
        if self.kind == "bit_corrupt":
            if not 0.0 < self.rate <= 1.0:
                raise FaultPlanError(
                    "bit_corrupt: rate is a per-operation corruption"
                    f" probability and must be in (0, 1], got {self.rate}"
                )
        elif not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"{self.kind}: rate must be in [0, 1], got {self.rate}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, validated fault schedule for one run.

    Attributes
    ----------
    events:
        Scheduled fault windows (stored sorted by strike time).
    transfer_fault_rate:
        Probability in ``[0, 1)`` that any single DYAD remote-get attempt
        fails (merged into the DYAD config's ``fault_rate`` by the
        workflow runner).
    max_events:
        Stall-watchdog event budget for the guarded DES loop; ``None``
        lets the runner derive one from the workload size.
    max_time:
        Stall-watchdog simulated-time horizon in seconds (``None`` = no
        horizon).
    """

    events: Tuple[FaultEvent, ...] = ()
    transfer_fault_rate: float = 0.0
    max_events: Optional[int] = None
    max_time: Optional[float] = None

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=lambda e: (e.at, e.kind, e.target)))
        object.__setattr__(self, "events", events)
        self.validate()

    def validate(self) -> None:
        """Raise :class:`FaultPlanError` on any invalid aspect."""
        for event in self.events:
            event.validate()
        if not 0.0 <= self.transfer_fault_rate < 1.0:
            raise FaultPlanError(
                "transfer_fault_rate must be in [0, 1), got "
                f"{self.transfer_fault_rate}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise FaultPlanError("max_events must be >= 1")
        if self.max_time is not None and self.max_time <= 0:
            raise FaultPlanError("max_time must be positive")
        # Overlapping windows — even of the same (kind, target) — are
        # legal: the injector derives each substrate's state from the set
        # of currently-active windows (degradations multiply, outages
        # hold until the last window lifts), so an early revert can never
        # cancel a later fault mid-window.

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-compatible) for reports and persistence."""
        return {
            "events": [
                {f.name: getattr(e, f.name) for f in fields(FaultEvent)}
                for e in self.events
            ],
            "transfer_fault_rate": self.transfer_fault_rate,
            "max_events": self.max_events,
            "max_time": self.max_time,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            events=tuple(FaultEvent(**e) for e in data.get("events", ())),
            transfer_fault_rate=data.get("transfer_fault_rate", 0.0),
            max_events=data.get("max_events"),
            max_time=data.get("max_time"),
        )
