"""Admission control: per-tenant budgets + fair queueing.

Two protections keep one tenant from starving the rest:

- **budgets** — each tenant may have at most ``budget`` jobs admitted
  (queued + running) at once; excess submissions are rejected with
  ``budget_exceeded`` and a ``Retry-After`` hint instead of queueing.
- **fair queueing** — dispatch order follows *start-time fair
  queueing* (SFQ): job ``j`` of tenant ``T`` gets a start tag ``S =
  max(V, F_T)`` and finish tag ``F_T = S + cost``, where ``V`` is the
  virtual time (the start tag of the job most recently dispatched) and
  ``cost`` is the job's work proxy. Dispatching the minimum finish tag
  gives every tenant an equal share of throughput regardless of arrival
  bursts — a tenant spraying hundreds of cheap jobs cannot push a
  patient tenant's work arbitrarily far back.

The queue itself is bounded: past ``max_depth`` every submission is
rejected with ``queue_full``. Rejections are *explicit backpressure* —
the :class:`~repro.errors.AdmissionError` carries a ``retry_after``
estimate derived from the caller-supplied service-time estimator, so a
well-behaved client backs off instead of hammering.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import AdmissionError
from repro.service.jobs import JobRecord

__all__ = ["FairQueue"]


class _Tenant:
    __slots__ = ("admitted", "finish")

    def __init__(self) -> None:
        self.admitted = 0      # queued + running jobs
        self.finish = 0.0      # SFQ finish tag of the tenant's last job


class FairQueue:
    """Bounded, budgeted, fair job queue."""

    def __init__(
        self,
        max_depth: int = 64,
        budget: int = 16,
        retry_after: Optional[Callable[[int], float]] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.budget = budget
        self._retry_after = retry_after or (lambda depth: 1.0 + 0.1 * depth)
        self._tenants: Dict[str, _Tenant] = {}
        self._heap: list = []  # (finish_tag, seq, record)
        self._seq = itertools.count()
        self._virtual = 0.0
        self.rejected: Dict[str, int] = {"queue_full": 0, "budget_exceeded": 0}

    # -- bookkeeping -------------------------------------------------------
    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = _Tenant()
        return tenant

    @property
    def depth(self) -> int:
        """Jobs waiting for dispatch."""
        return len(self._heap)

    def admitted(self, tenant: str) -> int:
        """Jobs the tenant currently has queued + running."""
        entry = self._tenants.get(tenant)
        return entry.admitted if entry is not None else 0

    # -- admission ---------------------------------------------------------
    def submit(self, record: JobRecord, force: bool = False) -> None:
        """Admit a job or raise :class:`AdmissionError` with a retry hint.

        ``force`` skips the budget/depth checks (still tagging the job for
        fair dispatch) — used when re-enqueueing journal-replayed jobs,
        which were already admitted by a previous incarnation and must
        never be dropped by this one's limits.
        """
        tenant = self._tenant(record.spec.tenant)
        if not force:
            if tenant.admitted >= self.budget:
                self.rejected["budget_exceeded"] += 1
                raise AdmissionError(
                    "budget_exceeded", self._retry_after(tenant.admitted)
                )
            if len(self._heap) >= self.max_depth:
                self.rejected["queue_full"] += 1
                raise AdmissionError(
                    "queue_full", self._retry_after(self.depth)
                )
        start = max(self._virtual, tenant.finish)
        tenant.finish = start + record.spec.cost()
        tenant.admitted += 1
        heapq.heappush(self._heap, (tenant.finish, next(self._seq), record))

    def submit_batch(self, records: Sequence[JobRecord]
                     ) -> List[Optional[AdmissionError]]:
        """Admit a whole tick's submissions in one queue operation.

        Returns one slot per record, aligned: ``None`` when admitted, the
        :class:`AdmissionError` (not raised) when rejected. Budget and
        depth limits are applied in order — a tenant whose budget runs
        out mid-batch has its earlier records admitted and the rest
        rejected, exactly as sequential :meth:`submit` calls would —
        but SFQ tags are assigned with one pass and the heap is repaired
        with a single ``heapify`` instead of ``len(records)`` sift-ups.

        ``retry_after`` hints within the batch are monotone per reason:
        a later rejection never advertises a shorter wait than an
        earlier one, so clients that submitted in order also re-arrive
        in order instead of inverting into a new stampede.
        """
        outcomes: List[Optional[AdmissionError]] = []
        admitted: List[tuple] = []
        depth = len(self._heap)
        floors: Dict[str, float] = {}
        for record in records:
            tenant = self._tenant(record.spec.tenant)
            reason = None
            hint = 0.0
            if tenant.admitted >= self.budget:
                reason = "budget_exceeded"
                hint = self._retry_after(tenant.admitted)
            elif depth >= self.max_depth:
                reason = "queue_full"
                hint = self._retry_after(depth)
            if reason is not None:
                self.rejected[reason] += 1
                hint = max(hint, floors.get(reason, 0.0))
                floors[reason] = hint
                outcomes.append(AdmissionError(reason, hint))
                continue
            start = max(self._virtual, tenant.finish)
            tenant.finish = start + record.spec.cost()
            tenant.admitted += 1
            depth += 1
            admitted.append((tenant.finish, next(self._seq), record))
            outcomes.append(None)
        if admitted:
            self._heap.extend(admitted)
            heapq.heapify(self._heap)
        return outcomes

    def next_job(self) -> Optional[JobRecord]:
        """Pop the record with the minimum finish tag (None when empty).

        Advances the virtual time to the dispatched job's start tag so
        tenants going idle re-enter at the current service level rather
        than with banked credit.
        """
        if not self._heap:
            return None
        finish, _seq, record = heapq.heappop(self._heap)
        start = finish - record.spec.cost()
        if start > self._virtual:
            self._virtual = start
        return record

    def release(self, tenant_name: str) -> None:
        """A job of the tenant reached a terminal state: free budget."""
        tenant = self._tenants.get(tenant_name)
        if tenant is not None and tenant.admitted > 0:
            tenant.admitted -= 1

    def stats(self) -> Dict[str, object]:
        """Queue depth, rejection counters, and per-tenant accounting."""
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "budget": self.budget,
            "rejected": dict(self.rejected),
            "tenants": {
                name: {"admitted": t.admitted}
                for name, t in sorted(self._tenants.items())
            },
        }
