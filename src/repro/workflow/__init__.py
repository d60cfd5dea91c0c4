"""The MD-inspired point-to-point producer/consumer workflow.

This is the paper's test harness (Section IV-C): an ensemble of
producer/consumer pairs. Producers emulate MD simulation — a fixed-duration
"MD sleep" per step, a frame written through the data-management system
every *stride* steps. Consumers read each frame, then run an analytics
sleep matched to the frame-generation frequency.

- :mod:`repro.workflow.spec` — workload specification and placement rules;
- :mod:`repro.workflow.topology` — the one workflow spawner: every shape
  (pairwise as N disjoint 1:1 edges, fan-out, fan-in, pool) runs the same
  producer and consumer bodies, with the data-management system (DYAD /
  XFS / Lustre) and the sync mode plugged in as per-edge hooks;
- :mod:`repro.workflow.streaming` — the per-edge credit window and
  notification plane of the streaming sync modes;
- :mod:`repro.workflow.emulator` — compute-sleep sampling, frame paths
  and the paper's region names;
- :mod:`repro.workflow.runner` — builds the cluster + system, spawns the
  graph, runs it, and returns instrumented results.
"""

from repro import lazy_exports

__all__ = [
    "WorkflowResult",
    "run_workflow",
    "run_repetitions",
    "Placement",
    "System",
    "WorkflowSpec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workflow.runner": ["WorkflowResult", "run_workflow",
                              "run_repetitions"],
    "repro.workflow.spec": ["Placement", "System", "WorkflowSpec"],
})
