"""Tests for the workflow invariant checker (unit + end-to-end)."""

import dataclasses

import pytest

from repro.dyad.config import DyadConfig
from repro.errors import InvariantViolation
from repro.faults.plan import FaultEvent, FaultPlan
from repro.invariants import InvariantChecker, InvariantConfig
from repro.md.models import JAC
from repro.workflow.runner import run_workflow
from repro.workflow.spec import Placement, System, WorkflowSpec


class _Clock:
    """Stand-in environment: just a settable ``now``."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def clock():
    return _Clock()


def nonfatal(clock):
    return InvariantChecker(clock, InvariantConfig(fatal=False))


# ---------------------------------------------------------------------------
# unit: each invariant trips on exactly its own lie
# ---------------------------------------------------------------------------


def test_clean_exchange_has_no_violations(clock):
    checker = InvariantChecker(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    clock.now = 1.0
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    checker.check_drain()
    checker.check_complete_edges([("consumer0", 0)], frames=1)
    assert checker.violations == []
    assert checker.checks > 0


def test_duplicate_commit_trips_exactly_once(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    checker.frame_committed("producer0", 0, 0, 100)
    assert any("committed twice" in v for v in checker.violations)


def test_duplicate_consume_trips_exactly_once(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    assert any("consumed frame 0" in v and "twice" in v
               for v in checker.violations)


def test_consume_before_commit_trips_causality(clock):
    checker = nonfatal(clock)
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    assert any("causality" in v and "before any commit" in v
               for v in checker.violations)


def test_consume_before_commit_time_trips_causality(clock):
    checker = nonfatal(clock)
    clock.now = 5.0
    checker.frame_committed("producer0", 0, 0, 100)
    clock.now = 2.0  # a read that somehow completed before the commit
    checker.frame_consumed("consumer1", 0, 0, 100, 100)
    assert any("causality" in v and "before its commit" in v
               for v in checker.violations)


def test_commit_time_override_models_stale_publish(clock):
    # DYAD under stale_metadata publishes *before* the bytes land: the
    # commit instant the checker sees is the KVS publish time.
    checker = nonfatal(clock)
    clock.now = 5.0
    checker.frame_committed("producer0", 0, 0, 100, at=1.0)
    clock.now = 2.0
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    assert checker.violations == []


def test_short_read_trips_conservation(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    checker.frame_consumed("consumer0", 0, 0, expected=100, got=40)
    assert any("conservation" in v and "read 40 of 100 bytes" in v
               for v in checker.violations)


def test_commit_size_mismatch_trips_conservation(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 60)
    checker.frame_consumed("consumer0", 0, 0, expected=100, got=100)
    assert any("its producer committed 60" in v for v in checker.violations)


def test_corrupt_payload_trips_integrity(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    checker.frame_consumed("consumer0", 0, 0, 100, 100, corrupt=True)
    assert any("integrity" in v and "corrupted payload" in v
               for v in checker.violations)


def test_clock_regression_trips_monotonic_time(clock):
    checker = nonfatal(clock)
    clock.now = 3.0
    checker.frame_committed("producer0", 0, 0, 100)
    clock.now = 1.0
    checker.frame_committed("producer0", 0, 1, 100)
    assert any("monotonic-time" in v for v in checker.violations)


def test_drain_reports_leaked_locks_and_flows(clock):
    class Locks:
        _paths = {"/a": object(), "/b": object()}

    class Channel:
        active_flows = 3

    checker = nonfatal(clock)
    checker.check_drain(lock_tables=[Locks()], channels=[Channel()])
    assert any("lock path(s) still held" in v for v in checker.violations)
    assert any("3 in-flight flow(s)" in v for v in checker.violations)


def test_completeness_reports_gaps(clock):
    checker = nonfatal(clock)
    checker.frame_committed("producer0", 0, 0, 100)
    checker.frame_consumed("consumer0", 0, 0, 100, 100)
    checker.check_complete_edges([("consumer0", 0)], frames=3)
    assert any("never consumed frame(s) 1, 2" in v
               for v in checker.violations)


def test_fatal_raises_on_first_violation(clock):
    checker = InvariantChecker(clock, InvariantConfig(fatal=True))
    checker.frame_committed("producer0", 0, 0, 100)
    with pytest.raises(InvariantViolation, match="committed twice"):
        checker.frame_committed("producer0", 0, 0, 100)
    assert checker.violation_count == 1


def test_disabled_checker_is_a_noop(clock):
    checker = InvariantChecker(clock, InvariantConfig(enabled=False))
    checker.frame_consumed("consumer0", 0, 0, 100, 1)  # any lie goes
    checker.check_drain()
    checker.check_complete_edges([("consumer0", 0)], frames=5)
    assert checker.checks == 0
    assert checker.violations == []


# ---------------------------------------------------------------------------
# end-to-end: every system runs checked and clean
# ---------------------------------------------------------------------------


def small_spec(system, placement=Placement.SINGLE_NODE, frames=6):
    return WorkflowSpec(system=system, model=JAC, stride=880, frames=frames,
                        pairs=1, placement=placement)


@pytest.mark.parametrize("system,placement", [
    (System.DYAD, Placement.SPLIT),
    (System.XFS, Placement.SINGLE_NODE),
    (System.LUSTRE, Placement.SPLIT),
])
def test_clean_run_checked_and_violation_free(system, placement):
    result = run_workflow(small_spec(system, placement))
    assert result.system_stats["invariant_checks"] > 0
    assert result.system_stats["invariant_violations"] == 0.0
    assert result.invariant_violations == []


def test_disabled_invariants_report_zero_checks():
    result = run_workflow(
        small_spec(System.XFS),
        invariants=InvariantConfig(enabled=False),
    )
    assert result.system_stats["invariant_checks"] == 0.0


# ---------------------------------------------------------------------------
# end-to-end: torn writes — the acceptance scenario
# ---------------------------------------------------------------------------


def torn_plan(spec):
    # one window over the first production; DYAD staging repairs at revert
    period = spec.stride_time
    return FaultPlan(events=(
        FaultEvent("torn_write", at=0.5 * period, target="0",
                   duration=1.2 * period, severity=0.5),
    ))


def test_torn_write_checked_consumer_refetches():
    """Checked DYAD detects the short frame, retries, and completes."""
    spec = small_spec(System.DYAD, Placement.SPLIT)
    result = run_workflow(spec, fault_plan=torn_plan(spec),
                          dyad_config=DyadConfig(max_transfer_retries=40))
    assert result.invariant_violations == []
    assert result.system_stats["dyad_transfer_retries"] > 0


def test_torn_write_unchecked_consumer_reads_short_frame():
    """Legacy mode swallows the torn frame; the checker records the lie."""
    spec = small_spec(System.DYAD, Placement.SPLIT)
    result = run_workflow(
        spec, fault_plan=torn_plan(spec),
        dyad_config=DyadConfig(integrity_checks=False),
        invariants=InvariantConfig(fatal=False),
    )
    assert any("conservation" in v for v in result.invariant_violations)
    assert result.system_stats["invariant_violations"] > 0


def test_torn_write_unchecked_fatal_raises():
    spec = small_spec(System.DYAD, Placement.SPLIT)
    with pytest.raises(InvariantViolation, match="conservation"):
        run_workflow(
            spec, fault_plan=torn_plan(spec),
            dyad_config=DyadConfig(integrity_checks=False),
            invariants=InvariantConfig(fatal=True),
        )


def test_invariant_config_is_cache_stable():
    a = InvariantConfig(fatal=False)
    b = dataclasses.replace(a)
    assert repr(a) == repr(b)
