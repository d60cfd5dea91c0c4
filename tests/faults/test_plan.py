"""Validation and serialization of declarative fault plans."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import FAULT_KINDS, FaultEvent, FaultPlan


# ---------------------------------------------------------------------------
# event validation
# ---------------------------------------------------------------------------


# Valid (severity, rate) examples for kinds with constrained knobs.
_KIND_KNOBS = {
    "torn_write": {"severity": 0.5},          # fraction of bytes landing
    "bit_corrupt": {"severity": 1.0, "rate": 0.25},
    "stale_metadata": {"severity": 0.02},     # metadata lag in seconds
}


def test_every_kind_validates():
    for kind in FAULT_KINDS:
        knobs = _KIND_KNOBS.get(kind, {"severity": 2.0})
        FaultEvent(kind, at=1.0, duration=0.5, **knobs).validate()


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultEvent("power_surge", at=0.0, duration=1.0).validate()


def test_negative_strike_time_rejected():
    with pytest.raises(FaultPlanError, match="must be >= 0"):
        FaultEvent("link_flap", at=-1.0, duration=1.0).validate()


@pytest.mark.parametrize("duration", [0.0, -0.5])
def test_nonpositive_duration_rejected(duration):
    with pytest.raises(FaultPlanError, match="duration must be positive"):
        FaultEvent("link_flap", at=0.0, duration=duration).validate()


@pytest.mark.parametrize("kind", ["ssd_degrade", "lustre_slowdown"])
def test_degrade_severity_below_one_rejected(kind):
    with pytest.raises(FaultPlanError, match="slowdown factor"):
        FaultEvent(kind, at=0.0, duration=1.0, severity=0.5).validate()


def test_severity_ignored_for_non_degrade_kinds():
    # crash/flap kinds don't interpret severity, so 0.5 is fine there
    FaultEvent("link_flap", at=0.0, duration=1.0, severity=0.5).validate()


def test_until_is_window_end():
    assert FaultEvent("link_flap", at=2.0, duration=0.5).until == 2.5


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def test_events_stored_sorted_by_strike_time():
    plan = FaultPlan(events=(
        FaultEvent("link_flap", at=3.0, duration=1.0),
        FaultEvent("dyad_crash", at=1.0, duration=1.0),
    ))
    assert [e.at for e in plan.events] == [1.0, 3.0]


def test_invalid_event_rejected_at_plan_construction():
    with pytest.raises(FaultPlanError):
        FaultPlan(events=(FaultEvent("nope", at=0.0, duration=1.0),))


@pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
def test_transfer_fault_rate_bounds(rate):
    with pytest.raises(FaultPlanError, match="transfer_fault_rate"):
        FaultPlan(transfer_fault_rate=rate)


def test_watchdog_budget_bounds():
    with pytest.raises(FaultPlanError, match="max_events"):
        FaultPlan(max_events=0)
    with pytest.raises(FaultPlanError, match="max_time"):
        FaultPlan(max_time=0.0)
    FaultPlan(max_events=1, max_time=1e-9)  # smallest legal budgets


def test_overlapping_same_target_allowed():
    # The injector composes overlapping windows (refcounts/factor
    # products), so the plan no longer rejects them.
    plan = FaultPlan(events=(
        FaultEvent("link_flap", at=0.0, target="0", duration=2.0),
        FaultEvent("link_flap", at=1.0, target="0", duration=1.0),
    ))
    assert len(plan.events) == 2


def test_back_to_back_windows_allowed():
    FaultPlan(events=(
        FaultEvent("link_flap", at=0.0, target="0", duration=1.0),
        FaultEvent("link_flap", at=1.0, target="0", duration=1.0),
    ))


def test_overlap_on_distinct_targets_or_kinds_allowed():
    FaultPlan(events=(
        FaultEvent("link_flap", at=0.0, target="0", duration=2.0),
        FaultEvent("link_flap", at=1.0, target="1", duration=2.0),
        FaultEvent("dyad_crash", at=0.5, target="0", duration=2.0),
    ))


# ---------------------------------------------------------------------------
# serialization / identity
# ---------------------------------------------------------------------------


PLAN = FaultPlan(
    events=(
        FaultEvent("dyad_crash", at=1.0, target="0", duration=0.5),
        FaultEvent("ssd_degrade", at=2.0, target="1", duration=1.0,
                   severity=4.0),
    ),
    transfer_fault_rate=0.1,
    max_events=10_000,
)


def test_dict_roundtrip():
    assert FaultPlan.from_dict(PLAN.to_dict()) == PLAN


def test_plans_are_hashable_and_repr_stable():
    """Plans participate in the result-cache content hash via repr."""
    clone = FaultPlan.from_dict(PLAN.to_dict())
    assert hash(clone) == hash(PLAN)
    assert repr(clone) == repr(PLAN)
    different = FaultPlan(transfer_fault_rate=0.2)
    assert repr(different) != repr(PLAN)
