"""Chaos — seeded random fault plans soaked against the invariant checker.

Not a paper figure: a robustness gate. Each run draws a random (but
seeded, hence fully reproducible) fault plan against a small workload
grid and executes it with the invariant checker armed and fatal; the
soak passes when every plan either completes with zero invariant
violations or fails *diagnosed* (a typed error naming a cause). A
violation or an untyped crash fails the gate, and the offending plan is
shrunk to a minimal JSON repro (see :mod:`repro.chaos`) that
``python -m repro.experiments --fault-plan`` can replay.

The grid has three named slices — pairwise barrier/polling pairs,
streaming pipelines, and fan-out/fan-in/pool shapes (see
:func:`repro.chaos.chaos_workloads`) — and every soak covers all three.
CI runs ``python -m repro.experiments chaos --quick`` on every push
(the ``scenario-smoke`` job) and uploads the shrunk plan artifact
whenever the gate trips.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

from repro.chaos import ChaosReport, chaos_workloads, execute_plan, soak
from repro.experiments.figures import Part

__all__ = ["plan", "run", "replay", "DEFAULT_PLANS", "QUICK_PLANS"]

#: Plans per slice in a full / quick soak. Quick stays near 20 seeded
#: plans per slice — small enough for a CI smoke job, large enough to
#: cycle every slice at least three times with different fault mixes.
DEFAULT_PLANS = 60
QUICK_PLANS = 20


def replay(plan, frames: int = 8) -> ChaosReport:
    """Replay one plan (e.g. a shrunk repro) across every grid slice.

    Each workload runs the plan checked-and-fatal, seeded with its index
    within its slice; exact reproduction of a *specific* soak failure
    uses the seed the soak report printed (``repro.chaos.execute_plan(
    spec, plan, seed=<printed>)``) — the grid sweep here is the smoke
    version.
    """
    report = ChaosReport(base_seed=0)
    for name, workloads in chaos_workloads(frames).items():
        for i, spec in enumerate(workloads):
            outcome = execute_plan(spec, plan, seed=i)
            report.outcomes.append(replace(outcome, slice_name=name))
    return report


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> ChaosReport:
    """Run the soak; ``runs`` overrides the per-slice plan count.

    A campaign-scoped fault plan (the CLI's ``--fault-plan FILE``)
    switches to :func:`replay` mode — the deserialized plan runs across
    the workload grid instead of a random soak.

    ``REPRO_CHAOS_ARTIFACTS`` names the directory the shrunk repro (if
    any) is serialized into (CI points it at the upload path).
    """
    from repro.experiments.parallel import default_fault_plan

    frames = frames if frames is not None else 8
    scoped = default_fault_plan()
    if scoped is not None:
        return replay(scoped, frames=frames)
    plans = runs if runs is not None else (
        QUICK_PLANS if quick else DEFAULT_PLANS
    )
    artifact_dir = os.environ.get("REPRO_CHAOS_ARTIFACTS") or None
    return soak(plans=plans, base_seed=0, frames=frames,
                artifact_dir=artifact_dir)


def plan(runs: Optional[int] = None, frames: Optional[int] = None,
         quick: bool = False) -> Part:
    """The soak as a part of a plan: no cells, its build is :func:`run`
    (each soaked plan runs its own one-task campaign, so ``--trace``
    instruments the soak's first run)."""
    return Part({}, lambda raw: run(runs, frames, quick))
