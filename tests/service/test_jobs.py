"""Unit tests for service job specs and records."""

import pytest

from repro.errors import ReproError, ServiceError
from repro.faults import FaultEvent, FaultPlan
from repro.service.jobs import DONE, QUEUED, JobRecord, JobSpec
from repro.workflow.spec import Placement, System


def test_spec_defaults_build_valid_workflow():
    spec = JobSpec(tenant="alice")
    ws = spec.workflow_spec()
    assert ws.system is System.DYAD
    assert spec.kind == "dyad"


def test_spec_lustre_defaults_to_split_placement():
    spec = JobSpec(tenant="alice", system="lustre")
    assert spec.workflow_spec().placement is Placement.SPLIT


def test_spec_rejects_unknown_fidelity_and_empty_tenant():
    # direct construction surfaces the underlying validation error
    # family; from_wire() wraps everything as ServiceError for the wire
    with pytest.raises(ReproError):
        JobSpec(tenant="alice", fidelity="psychic")
    with pytest.raises(ServiceError):
        JobSpec(tenant="")


def test_spec_validates_workflow_rules_eagerly():
    # single-node placement fits at most 4 pairs (8 procs/node): the
    # error surfaces at construction, not at dispatch
    with pytest.raises(Exception):
        JobSpec(tenant="alice", system="xfs", pairs=5)


def test_wire_round_trip_preserves_identity():
    spec = JobSpec(tenant="bob", system="xfs", frames=4, pairs=2,
                   seed=9, jitter_cv=0.1, fidelity="hybrid")
    clone = JobSpec.from_wire(spec.to_wire())
    assert clone == spec


def test_wire_round_trip_with_fault_plan():
    plan = FaultPlan(events=(FaultEvent("link_flap", at=1.0, duration=0.5),))
    spec = JobSpec(tenant="carol", fault_plan=plan)
    clone = JobSpec.from_wire(spec.to_wire())
    assert clone.fault_plan == plan


def test_from_wire_rejects_garbage():
    with pytest.raises(ServiceError):
        JobSpec.from_wire({"tenant": "x", "system": "zfs"})
    with pytest.raises(ServiceError):
        JobSpec.from_wire({"tenant": "x", "frames": "many"})


def test_a_degradable_flag_on_the_wire_names_the_same_job():
    """Clients still send ``degradable``; it changes neither the spec
    nor the content key."""
    payload = {"tenant": "bench", "system": "xfs", "pairs": 1,
               "frames": 2, "seed": 0, "fidelity": "exact"}
    flagged = JobSpec.from_wire({**payload, "degradable": False})
    plain = JobSpec.from_wire(payload)
    assert flagged == plain
    assert flagged.run_task().key() == plain.run_task().key()
    assert "degradable" not in flagged.to_wire()


def test_cost_scales_with_work():
    small = JobSpec(tenant="a", frames=2, pairs=1)
    big = JobSpec(tenant="a", frames=8, pairs=2)
    assert big.cost() > small.cost()


def test_record_terminal_and_status_view():
    record = JobRecord(job_id="job-1", spec=JobSpec(tenant="alice"))
    assert record.state == QUEUED and not record.terminal
    record.state = DONE
    assert record.terminal
    view = record.to_dict()
    assert view["job_id"] == "job-1"
    assert view["state"] == "done"
    assert view["tenant"] == "alice"
