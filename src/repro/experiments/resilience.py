"""Resilience — graceful degradation under injected faults.

Not a paper figure: an extension sweep that stresses each system's
recovery path with seed-reproducible fault plans (see
:mod:`repro.faults`) of increasing intensity and reports how makespan
and per-frame movement time degrade:

- **DYAD** — the owner node's service crashes mid-run (consumers
  re-request lost frames under capped exponential backoff once it
  restarts), a consumer-side link flaps, and every remote get carries a
  probabilistic transfer fault;
- **XFS** — the single shared node's SSD degrades (both channels
  throttled) for half the run;
- **Lustre** — the whole server complex (MDS + OSS) slows down, and a
  consumer-side link flaps.

Intensity ``0`` is the fault-free baseline; the same grid cell as the
paper experiments, so the degradation curve is anchored to the healthy
numbers. Every faulty cell is still a pure function of (spec, seed,
plan), caches under a distinct key, and fans out across ``--jobs``
workers like any other experiment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dyad.config import DyadConfig
from repro.experiments.common import (
    FigureResult,
    default_frames,
    default_runs,
    measure,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = ["INTENSITIES", "PAIRS", "build_plan", "run", "main"]

#: Producer/consumer pairs per system. 4 is the largest grid XFS's
#: single-node placement admits (8 GPUs, 2 per pair), so all three
#: systems sweep the same workload.
PAIRS = 4

#: Fault intensities swept (0 = healthy baseline). The acceptance bar is
#: >= 3 non-trivial intensities; quick mode keeps exactly 3 plus baseline.
INTENSITIES: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

_SYSTEMS = (System.DYAD, System.XFS, System.LUSTRE)


def _spec(system: System, frames: int) -> WorkflowSpec:
    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    return WorkflowSpec(system=system, frames=frames, pairs=PAIRS,
                        placement=placement)


def _retry_budget(config: DyadConfig, downtime: float) -> int:
    """Transfer retries needed to outlast ``downtime`` seconds of refusals.

    Mirrors the client's capped exponential schedule *without* jitter:
    jitter only lengthens each delay (factor in ``[1, 1+retry_jitter]``),
    so a budget that covers the un-jittered schedule covers the jittered
    one too. Doubled, plus headroom for probabilistic transfer faults
    spent on the same counter.
    """
    total, attempts = 0.0, 0
    while total < downtime:
        total += min(config.retry_backoff * (2.0 ** attempts),
                     config.retry_backoff_cap)
        attempts += 1
    return 2 * attempts + 8


def build_plan(system: System, intensity: float,
               spec: WorkflowSpec) -> Tuple[Optional[FaultPlan],
                                            Optional[DyadConfig]]:
    """(fault plan, dyad config override) for one grid cell.

    ``intensity`` in ``[0, 1]`` scales every knob: fault window lengths,
    degradation severity, and the probabilistic transfer fault rate.
    Intensity 0 is the fault-free baseline (no plan at all, so the cell
    shares its cache entry with the paper experiments).
    """
    if intensity <= 0.0:
        return None, None
    horizon = spec.frames * spec.stride_time
    if system is System.DYAD:
        downtime = 0.2 * intensity * horizon
        events = (
            # Crash the producer-side service (node 0 owns every staged
            # frame under SPLIT placement) a quarter of the way in.
            FaultEvent("dyad_crash", at=0.25 * horizon, target="0",
                       duration=downtime),
            # Flap the consumer node's link later in the run.
            FaultEvent("link_flap", at=0.7 * horizon, target="1",
                       duration=0.05 * intensity * horizon),
        )
        base = DyadConfig()
        config = DyadConfig(
            max_transfer_retries=max(base.max_transfer_retries,
                                     _retry_budget(base, downtime)),
        )
        plan = FaultPlan(events=events,
                         transfer_fault_rate=min(0.3 * intensity, 0.3))
        return plan, config
    if system is System.XFS:
        plan = FaultPlan(events=(
            FaultEvent("ssd_degrade", at=0.25 * horizon, target="0",
                       duration=0.5 * horizon,
                       severity=1.0 + 9.0 * intensity),
        ))
        return plan, None
    plan = FaultPlan(events=(
        FaultEvent("lustre_slowdown", at=0.25 * horizon, target="",
                   duration=0.4 * horizon,
                   severity=1.0 + 9.0 * intensity),
        FaultEvent("link_flap", at=0.75 * horizon, target="1",
                   duration=0.05 * intensity * horizon),
    ))
    return plan, None


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> FigureResult:
    """Measure the degradation grid."""
    runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 16 if quick else None)
    intensities = (0.0, 0.25, 0.5) if quick else INTENSITIES
    cells = {}
    makespans = {}
    recovery_notes: List[str] = []
    for intensity in intensities:
        for system in _SYSTEMS:
            spec = _spec(system, frames)
            plan, dyad_config = build_plan(system, intensity, spec)
            configs = {}
            if dyad_config is not None:
                configs["dyad_config"] = dyad_config
            cell, results = measure(spec, runs=runs, fault_plan=plan,
                                    **configs)
            cells[(intensity, system.value)] = cell
            makespans[(intensity, system.value)] = float(
                np.mean([r.makespan for r in results])
            )
            if system is System.DYAD and intensity > 0.0:
                retries = sum(r.system_stats["dyad_transfer_retries"]
                              for r in results)
                refused = sum(r.system_stats["dyad_refused_gets"]
                              for r in results)
                recovery_notes.append(
                    f"dyad @ intensity {intensity}: {retries:.0f} transfer "
                    f"retries absorbed {refused:.0f} refused gets across "
                    f"{runs} run(s); all {frames * PAIRS} frames recovered"
                )
    fig = FigureResult(
        figure_id="Resilience",
        title="graceful degradation under injected faults "
              f"(DYAD vs XFS vs Lustre, {PAIRS} pairs)",
        x_name="intensity",
        xs=list(intensities),
        systems=[s.value for s in _SYSTEMS],
        cells=cells,
        runs=runs,
        frames=frames,
    )
    fig.notes = ["makespan degradation (s, relative to intensity 0):"]
    for system in _SYSTEMS:
        base = makespans[(intensities[0], system.value)]
        points = ", ".join(
            f"{i}: {makespans[(i, system.value)]:.3f}"
            f" ({makespans[(i, system.value)] / base:.2f}x)"
            for i in intensities
        )
        fig.notes.append(f"  {system.value:6s} {points}")
    fig.notes.extend(recovery_notes)
    fig.notes.append(
        "the workflow is producer-paced: degradation shows up in per-frame "
        "movement time first and only reaches makespan once movement (or "
        "DYAD's crash-recovery retries) exceeds the stride slack"
    )
    return fig


def main(quick: bool = False) -> FigureResult:
    """Run and print the resilience sweep."""
    fig = run(quick=quick)
    print(fig.render())
    return fig


if __name__ == "__main__":
    main()
