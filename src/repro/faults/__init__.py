"""Deterministic fault injection for the simulated substrates.

Declare *what goes wrong* as a :class:`~repro.faults.plan.FaultPlan`
(scheduled crash/degradation windows + a probabilistic transfer fault
rate); the :class:`~repro.faults.inject.FaultInjector` applies it to a
live run. All randomness routes through the run's seeded RNG streams, so
faulty runs are exactly as reproducible as fault-free ones.

See ``docs/resilience.md`` for the schema and recovery semantics.
"""

from repro import lazy_exports

__all__ = ["FaultPlan", "FaultEvent", "FaultInjector", "FAULT_KINDS"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.inject": ["FaultInjector"],
    "repro.faults.plan": ["FAULT_KINDS", "FaultEvent", "FaultPlan"],
})
