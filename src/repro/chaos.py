"""Chaos soak: seeded random fault plans, invariant-checked, shrinkable.

The fault subsystem can schedule anything; the invariant checker can
catch any lie; this module closes the loop. :func:`random_plan` draws a
seeded random :class:`~repro.faults.plan.FaultPlan` against one workload,
:func:`execute_plan` runs it through the hardened campaign runner with
the invariant checker armed and classifies the outcome, and
:func:`soak` sweeps a grid of such plans asserting that every run either
completes with **zero invariant violations** or fails *diagnosed* — a
typed error (stall, exhausted retries) that names what went wrong. A
silent lie (a violation, or an untyped crash) is the only failure mode.

When a plan does induce a violation, :func:`shrink` reduces it
delta-debugging style — drop events, then narrow windows, then soften
severities/rates — to a minimal plan that still reproduces, and
:func:`save_plan`/:func:`load_plan` round-trip that repro through JSON
so it can be replayed byte-for-byte on another machine
(``python -m repro.experiments --fault-plan repro.json …``).

Integrity kinds (``torn_write``/``bit_corrupt``) are scheduled only on
DYAD workloads: the checked DYAD client detects the damage and re-fetches
(so the soak asserts recovery), while the traditional POSIX systems have
no detection path — damaging their data at rest *necessarily* violates
conservation, which is the unchecked-consumer scenario the acceptance
tests pin separately, not a soak regression.

Everything here is a pure function of its seeds: no wall-clock, no
global RNG. The same ``base_seed`` reproduces the same plans, the same
outcomes, and the same shrunk repros.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dyad.config import DyadConfig
from repro.errors import (
    FaultPlanError,
    InvariantViolation,
    ReproError,
    StallError,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.invariants import InvariantConfig
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

__all__ = [
    "ChaosOutcome",
    "ChaosReport",
    "chaos_workloads",
    "random_plan",
    "execute_plan",
    "shrink",
    "save_plan",
    "load_plan",
    "soak",
]

#: Fault kinds a chaos plan may schedule, per system under test (see
#: module docstring for why integrity kinds are DYAD-only here).
KINDS_BY_SYSTEM: Dict[System, Tuple[str, ...]] = {
    System.DYAD: (
        "dyad_crash", "node_crash", "link_flap", "ssd_degrade",
        "torn_write", "bit_corrupt", "stale_metadata",
    ),
    System.XFS: ("ssd_degrade", "link_flap"),
    System.LUSTRE: ("lustre_slowdown", "link_flap", "stale_metadata"),
}


def chaos_workloads(frames: int = 8) -> Dict[str, List[WorkflowSpec]]:
    """The workload grid a soak cycles through, as three named slices.

    - ``pairwise`` — barrier/polling 1:1 pairs on every system;
    - ``streaming`` — every streaming sync mode (windowed / pubsub /
      nbuffer) across all three systems, with mixed window sizes — the
      surface where credits can leak, windows can deadlock, and watch
      wake-ups can be lost;
    - ``topology`` — fan-out, fan-in, and work-stealing shapes across all
      three systems, mixing manual and streaming sync — the surface where
      the shared-read single-flight tier, per-edge credit ledgers, and
      the aggregation/pool drain invariants meet injected faults.

    Each slice keeps its order, so existing soak seeds replay identically.
    """
    def spec(system: System, placement: Placement = Placement.SPLIT,
             **kwargs) -> WorkflowSpec:
        return WorkflowSpec(system=system, frames=frames,
                            placement=placement, **kwargs)

    single = Placement.SINGLE_NODE
    return {
        "pairwise": [
            spec(System.DYAD),
            spec(System.DYAD, pairs=2),
            spec(System.XFS, single),
            spec(System.LUSTRE),
        ],
        "streaming": [
            spec(System.DYAD, sync_mode=SyncMode.WINDOWED),
            spec(System.DYAD, pairs=2, sync_mode=SyncMode.PUBSUB),
            spec(System.XFS, single, sync_mode=SyncMode.WINDOWED, window=4),
            spec(System.XFS, single, sync_mode=SyncMode.NBUFFER),
            spec(System.LUSTRE, sync_mode=SyncMode.PUBSUB),
            spec(System.LUSTRE, pairs=2, sync_mode=SyncMode.WINDOWED,
                 window=1),
        ],
        "topology": [
            spec(System.DYAD, topology=Topology.FANOUT, consumers=4),
            spec(System.DYAD, topology=Topology.FANIN, producers=3,
                 sync_mode=SyncMode.WINDOWED),
            spec(System.DYAD, topology=Topology.POOL, producers=2,
                 consumers=3),
            spec(System.XFS, single, topology=Topology.POOL, producers=2,
                 consumers=3, sync_mode=SyncMode.POLLING),
            spec(System.LUSTRE, topology=Topology.FANOUT, consumers=2,
                 sync_mode=SyncMode.WINDOWED),
            spec(System.LUSTRE, topology=Topology.FANIN, producers=4),
        ],
    }


# ---------------------------------------------------------------------------
# plan generation
# ---------------------------------------------------------------------------


def random_plan(seed: int, spec: WorkflowSpec,
                max_events: int = 4) -> FaultPlan:
    """One seeded random fault plan shaped to ``spec``.

    Strike times and window lengths scale with the workload horizon
    (``frames * stride_time``); targets are drawn from the nodes the
    spec actually places work on. Windows always revert inside the
    simulated run, so every fault has a recovery to assert.
    """
    rng = np.random.default_rng(seed)
    horizon = spec.frames * spec.stride_time
    kinds = KINDS_BY_SYSTEM[spec.system]
    events: List[FaultEvent] = []
    for _ in range(int(rng.integers(1, max_events + 1))):
        kind = kinds[int(rng.integers(len(kinds)))]
        at = float(rng.uniform(0.05, 0.6) * horizon)
        duration = float(rng.uniform(0.05, 0.25) * horizon)
        target = str(int(rng.integers(spec.nodes_required)))
        severity, rate = 1.0, 0.0
        if kind in ("ssd_degrade", "lustre_slowdown"):
            severity = 1.0 + float(rng.uniform(0.5, 9.0))
        elif kind == "torn_write":
            severity = float(rng.uniform(0.1, 0.9))
        elif kind == "stale_metadata":
            # DYAD reads it as a flag; Lustre as the stat lag in seconds.
            severity = float(rng.uniform(0.0, 0.2) * spec.stride_time)
        elif kind == "bit_corrupt":
            rate = float(rng.uniform(0.05, 0.4))
        if kind == "lustre_slowdown":
            target = ["", "mds", "oss0"][int(rng.integers(3))]
        events.append(FaultEvent(
            kind, at=at, target=target, duration=duration,
            severity=severity, rate=rate,
        ))
    # Generous horizon: every window reverts well inside it, and a run
    # that still cannot finish is a genuine recovery deadlock.
    return FaultPlan(events=tuple(events), max_time=100.0 * horizon + 60.0)


def _dyad_config_for(plan: FaultPlan) -> Optional[DyadConfig]:
    """A DYAD config whose retry budget outlasts the plan's longest outage.

    Without this, a long ``dyad_crash`` window exhausts the client's
    default retry cap and the run fails *diagnosed* instead of recovering
    — legal, but it would make most soak runs trivially short.
    """
    downtime = max((e.duration for e in plan.events), default=0.0)
    if downtime <= 0.0:
        return None
    from repro.experiments.resilience import _retry_budget

    base = DyadConfig()
    return DyadConfig(max_transfer_retries=max(
        base.max_transfer_retries, _retry_budget(base, downtime)
    ))


# ---------------------------------------------------------------------------
# execution + classification
# ---------------------------------------------------------------------------

#: Outcome classes, best to worst. ``ok`` completed with zero violations;
#: ``diagnosed`` failed with a typed, named error (acceptable — the run
#: told the truth about dying); ``violation`` lied about data;
#: ``crash`` died with an untyped error (a harness bug).
CLASSES = ("ok", "diagnosed", "violation", "crash")


@dataclass(frozen=True)
class ChaosOutcome:
    """Classification of one plan's run."""

    seed: int
    spec: WorkflowSpec
    plan: FaultPlan
    classification: str
    detail: str = ""
    violations: Tuple[str, ...] = ()
    #: the :func:`chaos_workloads` slice the spec came from
    slice_name: str = ""

    @property
    def failed(self) -> bool:
        """True for the two unacceptable classes."""
        return self.classification in ("violation", "crash")


def execute_plan(
    spec: WorkflowSpec,
    plan: FaultPlan,
    seed: int = 0,
    invariants: Optional[InvariantConfig] = None,
    dyad_config: Optional[DyadConfig] = None,
    **system_configs,
) -> ChaosOutcome:
    """Run one plan through the hardened campaign runner and classify it."""
    from repro.experiments.parallel import RunTask, run_campaign

    invariants = invariants or InvariantConfig()
    if spec.system is System.DYAD:
        configs = dict(system_configs)
        configs["dyad_config"] = dyad_config or _dyad_config_for(plan)
    else:
        configs = system_configs
    task = RunTask(spec=spec, seed=seed, system_configs=configs,
                   fault_plan=plan, invariants=invariants)
    try:
        result = run_campaign([task])[0]
    except InvariantViolation as err:
        return ChaosOutcome(seed, spec, plan, "violation", str(err),
                            (str(err),))
    except (StallError, ReproError) as err:
        # The whole typed hierarchy: stalls, exhausted retries, refused
        # gets, storage errors. The run died loudly naming a cause.
        return ChaosOutcome(
            seed, spec, plan, "diagnosed", f"{type(err).__name__}: {err}"
        )
    except Exception as err:  # noqa: BLE001 - classification boundary
        return ChaosOutcome(
            seed, spec, plan, "crash", f"{type(err).__name__}: {err}"
        )
    if result.invariant_violations:
        return ChaosOutcome(
            seed, spec, plan, "violation",
            f"{len(result.invariant_violations)} violation(s) recorded",
            tuple(result.invariant_violations),
        )
    return ChaosOutcome(
        seed, spec, plan, "ok",
        f"makespan {result.makespan:.3f}s, "
        f"{result.system_stats.get('invariant_checks', 0.0):.0f} checks",
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

#: Floors the softening passes never cross (keeping every candidate a
#: valid plan: durations positive, torn fraction in (0, 1), rate in
#: (0, 1]).
_MIN_DURATION = 1e-3
_MIN_RATE = 0.01


def _soften(event: FaultEvent) -> Optional[FaultEvent]:
    """One step less severe, or ``None`` when already minimal."""
    if event.kind in ("ssd_degrade", "lustre_slowdown"):
        if event.severity <= 1.001:
            return None
        return dataclasses.replace(
            event, severity=1.0 + (event.severity - 1.0) / 2.0
        )
    if event.kind == "torn_write":
        # Less severe = closer to 1 (more of the declared bytes land).
        if event.severity >= 0.95:
            return None
        return dataclasses.replace(
            event, severity=(event.severity + 1.0) / 2.0
        )
    if event.kind == "bit_corrupt":
        if event.rate <= _MIN_RATE:
            return None
        return dataclasses.replace(event, rate=max(_MIN_RATE,
                                                   event.rate / 2.0))
    if event.kind == "stale_metadata" and event.severity > 0.0:
        softened = event.severity / 2.0
        return dataclasses.replace(
            event, severity=0.0 if softened < 1e-6 else softened
        )
    return None


def shrink(
    plan: FaultPlan,
    reproduce: Callable[[FaultPlan], bool],
    max_attempts: int = 200,
) -> FaultPlan:
    """Minimize ``plan`` while ``reproduce`` still returns True.

    Greedy delta debugging in three passes, iterated to a fixpoint:
    drop whole events, then halve window durations, then soften
    severities/rates one notch at a time. ``reproduce`` must be a pure
    function of the plan (same seed inside) or the result is undefined.
    ``max_attempts`` bounds the total number of reproduction runs.
    """
    if not reproduce(plan):
        raise ReproError(
            "shrink: the original plan does not reproduce the failure"
        )
    budget = [max_attempts]

    def attempt(candidate: FaultPlan) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return reproduce(candidate)

    events = list(plan.events)

    def rebuild(evts: Sequence[FaultEvent]) -> FaultPlan:
        return dataclasses.replace(plan, events=tuple(evts))

    changed = True
    while changed and budget[0] > 0:
        changed = False
        # Pass 1: drop events (later windows first — they are the least
        # likely to be causal for an early violation).
        i = len(events) - 1
        while i >= 0 and len(events) > 1:
            candidate = events[:i] + events[i + 1:]
            if attempt(rebuild(candidate)):
                events = candidate
                changed = True
            i -= 1
        # Pass 2: narrow windows.
        for i, event in enumerate(events):
            while event.duration / 2.0 >= _MIN_DURATION:
                shorter = dataclasses.replace(
                    event, duration=event.duration / 2.0
                )
                if not attempt(rebuild(
                        events[:i] + [shorter] + events[i + 1:])):
                    break
                events[i] = event = shorter
                changed = True
        # Pass 3: soften severities/rates.
        for i, event in enumerate(events):
            while True:
                softer = _soften(event)
                if softer is None or not attempt(rebuild(
                        events[:i] + [softer] + events[i + 1:])):
                    break
                events[i] = event = softer
                changed = True
    return rebuild(events)


# ---------------------------------------------------------------------------
# plan (de)serialization
# ---------------------------------------------------------------------------


def save_plan(plan: FaultPlan, path: str) -> None:
    """Write a plan as JSON (the replay artifact the CI job uploads)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path: str) -> FaultPlan:
    """Inverse of :func:`save_plan`; validates on construction."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise FaultPlanError(f"{path}: expected a JSON object, got "
                             f"{type(data).__name__}")
    return FaultPlan.from_dict(data)


# ---------------------------------------------------------------------------
# the soak
# ---------------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Everything one soak observed."""

    base_seed: int
    outcomes: List[ChaosOutcome] = field(default_factory=list)
    #: path of the serialized shrunk repro for the first failure (if any)
    shrunk_path: Optional[str] = None
    shrunk_events: Optional[int] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Outcome counts per classification."""
        out = {c: 0 for c in CLASSES}
        for outcome in self.outcomes:
            out[outcome.classification] += 1
        return out

    @property
    def failures(self) -> List[ChaosOutcome]:
        """Violations and crashes (the unacceptable classes)."""
        return [o for o in self.outcomes if o.failed]

    def render(self) -> str:
        """Textual soak summary, one block of per-seed lines per slice."""
        counts = self.counts
        lines = [
            f"=== chaos soak: {len(self.outcomes)} plans "
            f"(base_seed={self.base_seed}) ===",
            "  " + "  ".join(f"{c}={counts[c]}" for c in CLASSES),
        ]
        for name in dict.fromkeys(o.slice_name for o in self.outcomes):
            block = [o for o in self.outcomes if o.slice_name == name]
            lines.append(f"{name} slice: {len(block)} plans")
            for outcome in block:
                lines.append(
                    f"  seed={outcome.seed} {outcome.spec.system.value:6s} "
                    f"{len(outcome.plan.events)} event(s) -> "
                    f"{outcome.classification}: {outcome.detail}"
                )
        if self.failures:
            lines.append(f"FAILURES: {len(self.failures)}")
            for outcome in self.failures:
                for violation in outcome.violations:
                    lines.append(f"  {violation}")
            if self.shrunk_path:
                lines.append(
                    f"shrunk repro ({self.shrunk_events} event(s)) "
                    f"written to {self.shrunk_path}"
                )
        else:
            lines.append("all plans passed invariants or failed diagnosed")
        return "\n".join(lines)


def soak(
    plans: int = 20,
    base_seed: int = 0,
    frames: int = 8,
    max_events: int = 4,
    artifact_dir: Optional[str] = None,
) -> ChaosReport:
    """Run ``plans`` seeded random fault plans against every grid slice.

    Each slice of :func:`chaos_workloads` gets seeds ``base_seed`` …
    ``base_seed + plans - 1``, seed ``i`` cycling through the slice's
    specs. Every run has the invariant checker armed and fatal. On the
    first failure (violation or crash) the offending plan is shrunk
    against the same spec/seed and — when ``artifact_dir`` is given —
    serialized there as ``chaos-shrunk-plan.json`` for replay. The soak
    continues through the remaining plans either way so the report shows
    the full blast radius.
    """
    report = ChaosReport(base_seed=base_seed)
    for name, workloads in chaos_workloads(frames).items():
        for i in range(plans):
            seed = base_seed + i
            spec = workloads[i % len(workloads)]
            plan = random_plan(seed, spec, max_events=max_events)
            outcome = execute_plan(spec, plan, seed=seed)
            report.outcomes.append(
                dataclasses.replace(outcome, slice_name=name))
            if outcome.failed and report.shrunk_events is None:
                def _reproduce(candidate: FaultPlan,
                               _spec=spec, _seed=seed) -> bool:
                    return execute_plan(_spec, candidate, seed=_seed).failed

                minimal = shrink(plan, _reproduce)
                report.shrunk_events = len(minimal.events)
                if artifact_dir is not None:
                    os.makedirs(artifact_dir, exist_ok=True)
                    path = os.path.join(artifact_dir,
                                        "chaos-shrunk-plan.json")
                    save_plan(minimal, path)
                    report.shrunk_path = path
    return report
