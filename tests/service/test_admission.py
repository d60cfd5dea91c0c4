"""Admission control: budgets, bounded depth, fair dispatch."""

import pytest

from repro.errors import AdmissionError
from repro.service.admission import FairQueue
from repro.service.jobs import JobRecord, JobSpec


def _record(tenant, job_id="job-0", frames=2):
    return JobRecord(job_id=job_id,
                     spec=JobSpec(tenant=tenant, frames=frames))


def test_fifo_for_single_tenant():
    queue = FairQueue()
    for i in range(3):
        queue.submit(_record("alice", f"job-{i}"))
    order = [queue.next_job().job_id for _ in range(3)]
    assert order == ["job-0", "job-1", "job-2"]
    assert queue.next_job() is None


def test_budget_rejection_carries_retry_hint():
    queue = FairQueue(budget=2, retry_after=lambda depth: 7.5)
    queue.submit(_record("alice", "job-0"))
    queue.submit(_record("alice", "job-1"))
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_record("alice", "job-2"))
    assert excinfo.value.reason == "budget_exceeded"
    assert excinfo.value.retry_after == 7.5
    assert queue.rejected["budget_exceeded"] == 1
    # other tenants are unaffected
    queue.submit(_record("bob", "job-3"))


def test_release_frees_budget():
    queue = FairQueue(budget=1)
    queue.submit(_record("alice", "job-0"))
    queue.next_job()
    with pytest.raises(AdmissionError):
        queue.submit(_record("alice", "job-1"))
    queue.release("alice")  # job-0 reached a terminal state
    queue.submit(_record("alice", "job-1"))
    assert queue.admitted("alice") == 1


def test_queue_full_rejection():
    queue = FairQueue(max_depth=2, budget=100)
    queue.submit(_record("alice", "job-0"))
    queue.submit(_record("bob", "job-1"))
    with pytest.raises(AdmissionError) as excinfo:
        queue.submit(_record("carol", "job-2"))
    assert excinfo.value.reason == "queue_full"
    assert queue.rejected["queue_full"] == 1


def test_force_bypasses_limits_for_replayed_jobs():
    queue = FairQueue(max_depth=1, budget=1)
    queue.submit(_record("alice", "job-0"))
    # journal replay must never drop admitted work on this incarnation's
    # limits
    queue.submit(_record("alice", "job-1"), force=True)
    queue.submit(_record("alice", "job-2"), force=True)
    assert queue.depth == 3


def test_burst_tenant_cannot_starve_patient_tenant():
    # alice sprays 10 jobs up front; bob submits one right after. SFQ
    # must dispatch bob's job near the front, not behind the burst.
    queue = FairQueue(budget=100)
    for i in range(10):
        queue.submit(_record("alice", f"alice-{i}"))
    queue.submit(_record("bob", "bob-0"))
    order = []
    while True:
        record = queue.next_job()
        if record is None:
            break
        order.append(record.job_id)
    assert order.index("bob-0") <= 1


def test_idle_tenant_reenters_at_current_virtual_time():
    queue = FairQueue(budget=100)
    for i in range(4):
        queue.submit(_record("alice", f"a-{i}"))
    for _ in range(4):
        queue.next_job()
    # bob was idle the whole time: no banked credit lets him jump a
    # fresh alice burst 4 deep
    queue.submit(_record("alice", "a-new"))
    queue.submit(_record("bob", "b-0"))
    dispatched = {queue.next_job().job_id, queue.next_job().job_id}
    assert dispatched == {"a-new", "b-0"}


def test_stats_shape():
    queue = FairQueue()
    queue.submit(_record("alice"))
    stats = queue.stats()
    assert stats["depth"] == 1
    assert stats["tenants"]["alice"]["admitted"] == 1

# -- batched admission (one tick's submissions in one queue op) -----------

def test_batch_admission_matches_sequential_semantics():
    # the same submissions, batched vs sequential, must admit/reject
    # identically and dispatch in the same fair order
    def build():
        return FairQueue(budget=3, max_depth=100)

    records = ([_record("alice", f"a-{i}") for i in range(5)]
               + [_record("bob", f"b-{i}") for i in range(2)])
    batched = build()
    outcomes = batched.submit_batch([_record(r.spec.tenant, r.job_id)
                                     for r in records])
    sequential = build()
    expected = []
    for r in records:
        try:
            sequential.submit(_record(r.spec.tenant, r.job_id))
            expected.append(None)
        except AdmissionError as exc:
            expected.append(exc.reason)
    assert [o.reason if o else None for o in outcomes] == expected
    def dispatch_order(queue):
        return [record.job_id
                for record in iter(queue.next_job, None)]

    assert dispatch_order(batched) == dispatch_order(sequential)


def test_batch_budget_exhaustion_mid_batch_is_positional():
    # a tenant running out of budget mid-batch keeps its earlier
    # admissions; only the overflow is rejected, and other tenants in
    # the same batch are untouched
    queue = FairQueue(budget=2, max_depth=100)
    outcomes = queue.submit_batch([
        _record("alice", "a-0"),
        _record("alice", "a-1"),
        _record("alice", "a-2"),   # alice's budget is now spent
        _record("bob", "b-0"),
        _record("alice", "a-3"),
    ])
    reasons = [o.reason if o else None for o in outcomes]
    assert reasons == [None, None, "budget_exceeded", None,
                       "budget_exceeded"]
    assert queue.rejected["budget_exceeded"] == 2
    assert queue.admitted("alice") == 2
    assert queue.admitted("bob") == 1


def test_batch_depth_limit_counts_in_batch_admissions():
    # the depth check must see earlier in-batch admissions, not the
    # stale pre-batch heap size
    queue = FairQueue(budget=100, max_depth=3)
    outcomes = queue.submit_batch(
        [_record("alice", f"a-{i}") for i in range(5)]
    )
    reasons = [o.reason if o else None for o in outcomes]
    assert reasons == [None, None, None, "queue_full", "queue_full"]
    assert queue.depth == 3


def test_batch_retry_hints_are_monotone_per_reason():
    # clients that submitted in order must re-arrive in order: a later
    # rejection never advertises a shorter wait than an earlier one,
    # even when the raw estimator is noisy or non-monotone
    hints = iter([5.0, 1.0, 3.0])
    queue = FairQueue(budget=0, max_depth=100,
                      retry_after=lambda depth: next(hints))
    outcomes = queue.submit_batch(
        [_record("alice", f"a-{i}") for i in range(3)]
    )
    waits = [o.retry_after for o in outcomes]
    assert waits == [5.0, 5.0, 5.0]
    assert all(o.reason == "budget_exceeded" for o in outcomes)
