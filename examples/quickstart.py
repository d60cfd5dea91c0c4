#!/usr/bin/env python3
"""Quickstart: compare DYAD and Lustre on a two-node MD workflow.

Runs the paper's basic experiment shape — JAC frames moving from one
producer node to one consumer node — through both data-management systems
on the simulated Corona cluster, and prints the production/consumption
decomposition the paper plots in its figures.

Run with::

    python examples/quickstart.py
"""

from repro.experiments.claims import CLAIMS
from repro.md import JAC
from repro.units import to_msec, to_usec
from repro.workflow import Placement, System, WorkflowSpec, run_workflow


def main() -> None:
    print("Quickstart: JAC frames, 8 producer-consumer pairs, 2 nodes")
    print(f"model: {JAC}")
    print()

    results = {}
    for system in (System.DYAD, System.LUSTRE):
        spec = WorkflowSpec(
            system=system,
            model=JAC,
            stride=JAC.paper_stride,   # one frame every ~0.82 s
            frames=64,
            pairs=8,
            placement=Placement.SPLIT,
        )
        print(f"running: {spec.describe()}")
        results[system] = run_workflow(spec, jitter_cv=0.05)

    print()
    header = (f"{'system':8s} {'prod move':>12s} {'prod idle':>12s} "
              f"{'cons move':>12s} {'cons idle':>12s} {'cons total':>12s}")
    print(header)
    print("-" * len(header))
    for system, r in results.items():
        print(
            f"{system.value:8s} "
            f"{to_usec(r.production_movement):9.1f} us "
            f"{to_usec(r.production_idle):9.1f} us "
            f"{to_msec(r.consumption_movement):9.3f} ms "
            f"{to_msec(r.consumption_idle):9.3f} ms "
            f"{to_msec(r.consumption_time):9.3f} ms"
        )

    dyad, lustre = results[System.DYAD], results[System.LUSTRE]
    paper = {claim.id: claim.paper.show() for claim in CLAIMS}
    print()
    print(f"DYAD production is "
          f"{lustre.production_movement / dyad.production_movement:.1f}x faster "
          f"(paper: {paper['fig6.production']})")
    print(f"DYAD overall consumption is "
          f"{lustre.consumption_time / dyad.consumption_time:.1f}x faster "
          f"(paper: {paper['fig6.consumption']}) — the coarse-sync idle "
          "dominates Lustre")


if __name__ == "__main__":
    main()
