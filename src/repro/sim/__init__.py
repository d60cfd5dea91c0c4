"""Discrete-event simulation (DES) kernel.

A deliberately small, deterministic event-driven kernel in the style of
SimPy: simulated activities are Python generators that ``yield`` events
(most commonly timeouts or resource grants) and are resumed by the
:class:`~repro.sim.core.Environment` when those events fire.

The kernel is the foundation for every simulated substrate in this
repository: SSDs, the InfiniBand-like fabric, Lustre servers, the Flux-like
KVS, and the DYAD service are all built from the primitives here.

Public API
----------
- :class:`~repro.sim.core.Environment` — event loop and virtual clock.
- :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.Process`, :class:`~repro.sim.core.AllOf`,
  :class:`~repro.sim.core.AnyOf` — awaitables.
- :class:`~repro.sim.resources.Resource` — FIFO server with capacity.
- :class:`~repro.sim.resources.Store` — unbounded FIFO message queue.
- :class:`~repro.sim.resources.SharedBandwidth` — fluid-flow
  processor-sharing channel (fabric links, OSS bandwidth).
- :class:`~repro.sim.resources.Signal` — broadcast condition (KVS watch).
- :class:`~repro.sim.rng.RngStreams` — named deterministic RNG streams.
"""

from repro import lazy_exports

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Resource",
    "SharedBandwidth",
    "Signal",
    "Store",
    "RngStreams",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.core": ["AllOf", "AnyOf", "Environment", "Event", "Process",
                       "Timeout"],
    "repro.sim.resources": ["Resource", "SharedBandwidth", "Signal",
                            "Store"],
    "repro.sim.rng": ["RngStreams"],
})
