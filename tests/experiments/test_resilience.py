"""Resilience sweep: seeded fault runs are reproducible and diagnosable.

The acceptance property of the whole fault subsystem: a faulty run is a
pure function of ``(spec, seed, plan)`` — running the same crash-mid-run
plan twice yields bit-identical metrics (``float.hex`` fingerprints) with
every frame recovered — and a run whose recovery *cannot* complete raises
a diagnosable :class:`~repro.errors.StallError` instead of hanging.
"""

from dataclasses import replace

import pytest

from repro.dyad.config import DyadConfig
from repro.errors import ReproError, StallError
from repro.experiments import resilience
from repro.experiments.parallel import _execute_task, result_fingerprint
from repro.faults import FaultEvent, FaultPlan
from repro.workflow.runner import run_workflow
from repro.workflow.spec import Placement, System, WorkflowSpec

DYAD_SPEC = WorkflowSpec(system=System.DYAD, frames=8, pairs=2,
                         placement=Placement.SPLIT)

# Crash the producer-side service a quarter of the way in, long enough
# that in-flight gets fail and consumers must re-request frames.
HORIZON = DYAD_SPEC.frames * DYAD_SPEC.stride_time
CRASH_PLAN = FaultPlan(
    events=(
        FaultEvent("dyad_crash", at=0.25 * HORIZON, target="0",
                   duration=0.1 * HORIZON),
    ),
    transfer_fault_rate=0.05,
)
RECOVERY_CONFIG = DyadConfig(max_transfer_retries=resilience._retry_budget(
    DyadConfig(), 0.1 * HORIZON
))


# ---------------------------------------------------------------------------
# determinism: same (spec, seed, plan) -> bit-identical results
# ---------------------------------------------------------------------------


def test_crash_mid_run_is_reproducible():
    kwargs = dict(seed=42, jitter_cv=0.05, fault_plan=CRASH_PLAN,
                  dyad_config=RECOVERY_CONFIG)
    a = run_workflow(DYAD_SPEC, **kwargs)
    b = run_workflow(DYAD_SPEC, **kwargs)
    assert result_fingerprint(a) == result_fingerprint(b)
    # the crash actually happened and recovery actually ran
    assert a.system_stats["dyad_service_crashes"] == 1.0
    assert a.system_stats["dyad_refused_gets"] > 0
    assert a.system_stats["dyad_transfer_retries"] > 0
    assert a.system_stats["faults_applied"] == 1.0
    assert a.system_stats["faults_reverted"] == 1.0
    # ... and every frame still arrived
    frames = DYAD_SPEC.frames * DYAD_SPEC.pairs
    arrived = (a.system_stats["dyad_fast_hits"]
               + a.system_stats["dyad_kvs_waits"])
    assert arrived == float(frames)


def test_faulty_run_differs_from_healthy_and_from_other_seeds():
    faulty = run_workflow(DYAD_SPEC, seed=42, jitter_cv=0.05,
                          fault_plan=CRASH_PLAN,
                          dyad_config=RECOVERY_CONFIG)
    healthy = run_workflow(DYAD_SPEC, seed=42, jitter_cv=0.05)
    other_seed = run_workflow(DYAD_SPEC, seed=43, jitter_cv=0.05,
                              fault_plan=CRASH_PLAN,
                              dyad_config=RECOVERY_CONFIG)
    prints = {result_fingerprint(r) for r in (faulty, healthy, other_seed)}
    assert len(prints) == 3
    assert faulty.makespan > healthy.makespan  # downtime costs time


# ---------------------------------------------------------------------------
# stall watchdog: broken recovery is an error, not a hang
# ---------------------------------------------------------------------------


def test_event_budget_exhaustion_raises_stall_error():
    plan = FaultPlan(max_events=50)  # far below what any run needs
    with pytest.raises(StallError, match="event budget"):
        run_workflow(DYAD_SPEC, seed=0, fault_plan=plan)


def test_time_horizon_exhaustion_raises_stall_error():
    # A link that never comes back within the horizon: the run cannot
    # finish, and the watchdog names the problem instead of spinning.
    plan = FaultPlan(
        events=(FaultEvent("link_flap", at=0.1 * HORIZON, target="1",
                           duration=1000.0 * HORIZON),),
        max_time=2.0 * HORIZON,
    )
    with pytest.raises(StallError, match="horizon"):
        run_workflow(DYAD_SPEC, seed=0, fault_plan=plan)


def test_guarded_run_matches_unguarded_bit_for_bit():
    """The watchdog must not perturb the simulation it watches."""
    healthy = run_workflow(DYAD_SPEC, seed=7, jitter_cv=0.05)
    # a trivial plan with a generous budget: guarded loop, no faults
    guarded = run_workflow(DYAD_SPEC, seed=7, jitter_cv=0.05,
                           fault_plan=FaultPlan(max_events=10_000_000))
    # stats gain the injector counters; compare the shared core instead
    assert guarded.makespan == healthy.makespan
    for key, value in healthy.system_stats.items():
        assert guarded.system_stats[key] == value
    assert ([t.to_dict() for t in guarded.consumer_trees]
            == [t.to_dict() for t in healthy.consumer_trees])


# ---------------------------------------------------------------------------
# the experiment module
# ---------------------------------------------------------------------------


def test_build_plan_intensity_zero_is_baseline():
    spec = resilience._spec(System.DYAD, frames=8)
    assert resilience.build_plan(System.DYAD, 0.0, spec) == (None, None)


@pytest.mark.parametrize("system", [System.DYAD, System.XFS, System.LUSTRE])
def test_build_plan_scales_with_intensity(system):
    spec = resilience._spec(system, frames=8)
    mild, _ = resilience.build_plan(system, 0.1, spec)
    harsh, config = resilience.build_plan(system, 0.5, spec)
    assert not mild.is_trivial and not harsh.is_trivial
    assert repr(mild) != repr(harsh)  # distinct cache keys per intensity
    if system is System.DYAD:
        # the retry budget must outlast the planned downtime
        assert config.max_transfer_retries >= DyadConfig().max_transfer_retries
        assert harsh.transfer_fault_rate > mild.transfer_fault_rate


def test_resilience_grid_shape_and_recovery_notes():
    fig = resilience.run(runs=1, frames=4, quick=True)
    intensities = (0.0, 0.25, 0.5)
    assert fig.xs == list(intensities)
    assert set(fig.systems) == {"dyad", "xfs", "lustre"}
    assert set(fig.cells) == {(i, s) for i in intensities
                              for s in fig.systems}
    # every faulty DYAD cell reported its recovery accounting
    recovery = [n for n in fig.notes if "frames recovered" in n]
    assert len(recovery) == len([i for i in intensities if i > 0])
    assert fig.render()


def test_unbalanced_recovery_counters_fail_the_build():
    # a faulted DYAD cell whose retries do not balance its transport
    # faults plus refused gets is a broken run, not a recovery to report
    part = resilience.plan(runs=1, frames=4, quick=True)
    raw = {cell: [_execute_task(task) for task in tasks]
           for cell, tasks in part.cells.items()}
    (run,) = raw[(0.25, "dyad")]
    stats = dict(run.system_stats)
    stats["dyad_transfer_retries"] += 1
    raw[(0.25, "dyad")] = [replace(run, system_stats=stats)]
    with pytest.raises(ReproError, match="retries != "):
        part.build(raw)

