"""Job model of the experiment service.

A :class:`JobSpec` is the wire-level description of one workflow
repetition a tenant wants computed: the workflow parameters, the seed
and the fidelity tier it runs at. It is a pure value — two byte-equal
specs denote the same computation, which is what makes cross-tenant
dedup and exactly-once resume sound: the service keys everything on the
content-addressed :class:`~repro.experiments.persist.ResultCache`
digest of the spec's :class:`~repro.experiments.parallel.RunTask`.

A :class:`JobRecord` is the server-side lifecycle of one accepted
submission: queued → running → done/failed, with dedup/attempt
bookkeeping. Records round-trip through the journal as plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.errors import ServiceError
from repro.experiments.parallel import RunTask
from repro.faults.plan import FaultPlan
from repro.workflow.spec import (
    Fidelity,
    Placement,
    SyncMode,
    System,
    WorkflowSpec,
)

__all__ = ["JobSpec", "RejectedSpec", "JobRecord",
           "QUEUED", "RUNNING", "DONE", "FAILED"]

#: Lifecycle states. ``queued`` and ``running`` are both *non-terminal*:
#: a journal replay re-enqueues either (a job that was running when the
#: server died never finished — re-executing it is safe because the
#: computation is deterministic and the result store is content-addressed).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """One tenant-submitted repetition request (a pure value)."""

    tenant: str
    system: str = "dyad"
    frames: int = 8
    pairs: int = 1
    stride: int = 880
    placement: Optional[str] = None
    sync_mode: str = "coarse"
    seed: int = 0
    jitter_cv: float = 0.0
    fidelity: str = "exact"
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise ServiceError("job tenant must be a non-empty string")
        Fidelity.coerce(self.fidelity)  # validates the tier name
        self.workflow_spec()  # validates the workflow parameters eagerly

    @property
    def kind(self) -> str:
        """Circuit-breaker grouping: one breaker per system under test."""
        return self.system

    def workflow_spec(self) -> WorkflowSpec:
        """The validated :class:`WorkflowSpec` this job runs."""
        system = System(self.system)
        if self.placement is not None:
            placement = Placement(self.placement)
        elif system is System.LUSTRE:
            placement = Placement.SPLIT
        else:
            placement = Placement.SINGLE_NODE
        kwargs: Dict[str, Any] = {}
        if system is not System.DYAD:
            kwargs["sync_mode"] = SyncMode(self.sync_mode)
        return WorkflowSpec(
            system=system, frames=self.frames, pairs=self.pairs,
            stride=self.stride, placement=placement, **kwargs,
        )

    def run_task(self) -> RunTask:
        """The :class:`RunTask` executing this job."""
        return RunTask(
            spec=self.workflow_spec(), seed=self.seed,
            jitter_cv=self.jitter_cv, fault_plan=self.fault_plan,
            fidelity=Fidelity.coerce(self.fidelity).value,
        )

    # -- wire format -------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """JSON-compatible dict (the submit payload / journal form)."""
        payload: Dict[str, Any] = {
            "tenant": self.tenant, "system": self.system,
            "frames": self.frames, "pairs": self.pairs,
            "stride": self.stride, "placement": self.placement,
            "sync_mode": self.sync_mode, "seed": self.seed,
            "jitter_cv": self.jitter_cv, "fidelity": self.fidelity,
        }
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        return payload

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_wire`; raises :class:`ServiceError` on a
        malformed payload instead of leaking a traceback to the socket.

        Keys it does not know are ignored: older clients still send a
        ``degradable`` flag, which names the same computation either
        way."""
        if not isinstance(payload, dict):
            raise ServiceError(f"job payload must be an object, got "
                               f"{type(payload).__name__}")
        data = dict(payload)
        plan = data.pop("fault_plan", None)
        try:
            return cls(
                tenant=str(data.pop("tenant")),
                system=str(data.pop("system", "dyad")),
                frames=int(data.pop("frames", 8)),
                pairs=int(data.pop("pairs", 1)),
                stride=int(data.pop("stride", 880)),
                placement=data.pop("placement", None),
                sync_mode=str(data.pop("sync_mode", "coarse")),
                seed=int(data.pop("seed", 0)),
                jitter_cv=float(data.pop("jitter_cv", 0.0)),
                fidelity=str(data.pop("fidelity", "exact")),
                fault_plan=FaultPlan.from_dict(plan) if plan else None,
            )
        except ServiceError:
            raise
        except Exception as exc:
            raise ServiceError(f"malformed job payload: {exc}") from exc

    def cost(self) -> float:
        """Fair-queueing cost proxy: simulated work scales with the frame
        count times the pair count (the campaign grid's two axes)."""
        return float(self.frames * self.pairs)


@dataclass(frozen=True)
class RejectedSpec:
    """A journaled submit payload that no longer validates, such as one
    naming a retired fidelity tier.

    It stands in for the :class:`JobSpec` of a job that replays as
    ``failed``: the status view reads its tenant and tier, and journal
    compaction writes the payload back unchanged, so the job reads
    ``failed`` after every later restart too."""

    payload: Dict[str, Any]

    @property
    def tenant(self) -> Any:
        """The payload's tenant, or ``None``."""
        return self.payload.get("tenant")

    @property
    def fidelity(self) -> Any:
        """The payload's tier as written, or ``None``."""
        return self.payload.get("fidelity")

    def to_wire(self) -> Dict[str, Any]:
        """The journaled payload, unchanged."""
        return self.payload


@dataclass
class JobRecord:
    """Server-side lifecycle of one accepted submission."""

    job_id: str
    spec: Union[JobSpec, RejectedSpec]
    state: str = QUEUED
    #: extra executions consumed by crash/timeout re-submissions
    attempts: int = 0
    #: content address of the job's result
    key: Optional[str] = None
    #: job_id of the in-flight primary this duplicate coalesced onto
    dedup_of: Optional[str] = None
    error: Optional[str] = None
    fingerprint: Optional[str] = None
    makespan: Optional[float] = None
    #: wall-clock submit→terminal latency as measured by the server
    latency: Optional[float] = None
    #: "hit" (served from store), "computed", or "dedup" (follower)
    source: Optional[str] = None
    submitted_at: float = 0.0
    finished_at: float = 0.0
    followers: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible status view (the ``status`` op's response)."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "state": self.state,
            "fidelity": self.spec.fidelity,
            "attempts": self.attempts,
            "key": self.key,
            "dedup_of": self.dedup_of,
            "error": self.error,
            "fingerprint": self.fingerprint,
            "makespan": self.makespan,
            "latency": self.latency,
            "source": self.source,
        }
