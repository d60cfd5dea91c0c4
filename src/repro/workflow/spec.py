"""Workflow specification: workload, system, and placement.

Encodes the paper's experimental parameters (Section IV-C):

- equal numbers of producer and consumer processes, linked pairwise;
- at most 8 processes per node (one per GPU on Corona);
- single-node placement (DYAD or XFS) collocates each pair; split
  placement (DYAD or Lustre) puts all producers on one half of the nodes
  and all consumers on the other;
- each producer runs ``frames × stride`` MD steps and writes ``frames``
  frames; each consumer runs ``frames`` iterations of read + analytics
  sleep, with the sleep matched to the frame-generation period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Tuple

from repro.errors import ConfigError, WorkflowError
from repro.md.models import JAC, MolecularModel

__all__ = [
    "System", "Placement", "SyncMode", "Topology", "Fidelity",
    "WorkflowSpec", "PROCS_PER_NODE",
]

#: The paper's placement cap: 8 GPUs per Corona node.
PROCS_PER_NODE = 8


class System(enum.Enum):
    """Data-management system under test."""

    DYAD = "dyad"
    XFS = "xfs"
    LUSTRE = "lustre"


class Placement(enum.Enum):
    """Where producers and consumers run."""

    SINGLE_NODE = "single-node"   # every pair collocated on node 0
    SPLIT = "split"               # producers on one half, consumers on the other


class Topology(enum.Enum):
    """Shape of the producer/consumer dependency graph.

    The paper measures 1:1 links only; the other shapes cover the
    N-producer/M-consumer task-parallel analysis workloads of the
    related work (task-parallel trajectory analysis):

    - ``PAIRWISE`` — the paper's shape: ``pairs`` independent 1:1 links,
      each producer feeding exactly one consumer.
    - ``FANOUT`` — one producer feeds ``consumers`` independent analytics
      consumers; every consumer reads every frame (monitoring +
      reduction + visualization off one simulation).
    - ``FANIN`` — ``producers`` simulations feed one reduce/aggregate
      consumer that folds frame *k* of every input stream before its
      per-frame analytics step.
    - ``POOL`` — a work-stealing consumer pool: ``producers`` streams
      publish per-frame tasks into a shared frame-major queue that
      ``consumers`` workers claim greedily (each frame analyzed exactly
      once by whichever worker gets there first).
    """

    PAIRWISE = "pairwise"
    FANOUT = "fanout"
    FANIN = "fanin"
    POOL = "pool"


class SyncMode(enum.Enum):
    """Synchronization pattern linking each producer/consumer pair.

    The paper (Section III) lists the manual mechanisms workflows use when
    the storage system provides none: MPI primitives / coarse barriers,
    and file-system polling in workflow managers like Pegasus. DYAD's
    automatic synchronization ignores those two. The three *streaming*
    modes extend the comparison beyond the paper (see
    ``docs/streaming.md``): per-frame pipelines with a bounded in-flight
    window and credit-based backpressure, applicable to every system
    including DYAD.
    """

    COARSE = "coarse"      # consumer phase starts after the producer phase
    POLLING = "polling"    # consumer polls stat() per frame (Pegasus-style)
    WINDOWED = "windowed"  # ADIOS2-SST-style bounded window, credit backpressure
    PUBSUB = "pubsub"      # per-frame pub/sub over the KVS watch machinery
    NBUFFER = "nbuffer"    # double buffering: the W=2 windowed special case

    @property
    def is_streaming(self) -> bool:
        """True for the per-frame pipelined (windowed family) modes."""
        return self in (SyncMode.WINDOWED, SyncMode.PUBSUB, SyncMode.NBUFFER)


class Fidelity(enum.Enum):
    """Simulation fidelity tier; :mod:`repro.sim.fluid` documents the
    tiers' semantics. It lives here, beside the other workflow
    parameters, so a job's tier validates without the simulator."""

    EXACT = "exact"
    HYBRID = "hybrid"
    FLUID = "fluid"

    @property
    def ordinal(self) -> int:
        """Stable numeric code (``system_stats`` stores floats only)."""
        return _ORDINALS[self]

    @property
    def uses_fluid(self) -> bool:
        """True when bulk byte movement runs on a
        :class:`~repro.sim.fluid.FluidNetwork`."""
        return self is not Fidelity.EXACT

    @property
    def folds_latency(self) -> bool:
        """True when fixed latencies ride as flow tails (``fluid`` only)."""
        return self is Fidelity.FLUID

    @classmethod
    def coerce(cls, value) -> "Fidelity":
        """Accept a :class:`Fidelity` or its string name, or raise."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        names = ", ".join(f.value for f in cls)
        raise ConfigError(f"unknown fidelity {value!r}; choose from: {names}")


_ORDINALS = {Fidelity.EXACT: 0, Fidelity.HYBRID: 1, Fidelity.FLUID: 2}


@dataclass(frozen=True)
class WorkflowSpec:
    """One workflow configuration (= one bar group in a paper figure)."""

    system: System
    model: MolecularModel = JAC
    stride: int = 880
    frames: int = 128
    pairs: int = 1
    placement: Placement = Placement.SINGLE_NODE
    sync_mode: SyncMode = SyncMode.COARSE
    poll_interval: float = 0.25   # seconds between stat() polls (POLLING)
    window: int = 2               # in-flight frames W (streaming modes only)
    topology: Topology = Topology.PAIRWISE
    producers: int = 0            # producer count (non-pairwise topologies)
    consumers: int = 0            # consumer count (non-pairwise topologies)

    def __repr__(self) -> str:
        # Hand-rolled to stay byte-identical to the pre-streaming
        # dataclass repr for pre-streaming specs: the repr feeds result
        # fingerprints and cache keys, so fields added after
        # ``poll_interval`` appear only when they differ from their
        # defaults (pairwise specs never print topology fields).
        base = (
            f"{self.__class__.__qualname__}(system={self.system!r}, "
            f"model={self.model!r}, stride={self.stride!r}, "
            f"frames={self.frames!r}, pairs={self.pairs!r}, "
            f"placement={self.placement!r}, sync_mode={self.sync_mode!r}, "
            f"poll_interval={self.poll_interval!r}"
        )
        if self.window != 2:
            base += f", window={self.window!r}"
        if self.topology is not Topology.PAIRWISE:
            base += (
                f", topology={self.topology!r}, "
                f"producers={self.producers!r}, "
                f"consumers={self.consumers!r}"
            )
        return base + ")"

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise WorkflowError(f"stride must be >= 1, got {self.stride}")
        if self.frames < 1:
            raise WorkflowError(f"frames must be >= 1, got {self.frames}")
        if self.pairs < 1:
            raise WorkflowError(f"pairs must be >= 1, got {self.pairs}")
        if self.system is System.XFS and self.placement is not Placement.SINGLE_NODE:
            raise WorkflowError(
                "XFS cannot move data between nodes; use single-node placement"
            )
        if self.system is System.LUSTRE and self.placement is not Placement.SPLIT:
            raise WorkflowError(
                "the Lustre configuration of the paper is distributed; "
                "use split placement"
            )
        self._init_topology()
        if (self.topology is Topology.PAIRWISE
                and self.placement is Placement.SINGLE_NODE
                and self.pairs * 2 > PROCS_PER_NODE):
            raise WorkflowError(
                f"single-node placement fits at most {PROCS_PER_NODE // 2} pairs "
                f"(8 GPUs, 2 per pair); got {self.pairs}"
            )
        if self.poll_interval <= 0:
            raise WorkflowError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.system is System.DYAD and self.sync_mode is SyncMode.POLLING:
            # DYAD's KVS provides the signalling, so both manual modes
            # (coarse and polling) mean the same thing: DYAD's automatic
            # sync. Normalizing to COARSE (the default) makes the two
            # spellings alias — identical repr, hence identical cache
            # keys and fingerprints — instead of one raising and the
            # other being silently accepted.
            object.__setattr__(self, "sync_mode", SyncMode.COARSE)
        if self.window < 1:
            raise WorkflowError(f"window must be >= 1, got {self.window}")
        if self.sync_mode is SyncMode.NBUFFER and self.window != 2:
            raise WorkflowError(
                "N-buffer double buffering is the W=2 special case; "
                f"got window={self.window} (use WINDOWED for other sizes)"
            )

    def _init_topology(self) -> None:
        """Validate and normalize the topology fields.

        Pairwise specs must leave ``producers``/``consumers`` unset (0) so
        their repr stays byte-identical to pre-topology specs. Non-pairwise
        topologies fix the singular side to 1 (a fan-out has one producer,
        a fan-in one consumer) and require the plural side explicitly.
        """
        if self.producers < 0 or self.consumers < 0:
            raise WorkflowError(
                "producers/consumers must be non-negative, got "
                f"{self.producers}/{self.consumers}"
            )
        if self.topology is Topology.PAIRWISE:
            if self.producers or self.consumers:
                raise WorkflowError(
                    "pairwise topology sizes via pairs; leave "
                    "producers/consumers unset"
                )
            return
        if self.pairs != 1:
            raise WorkflowError(
                f"{self.topology.value} topology sizes via "
                f"producers/consumers; leave pairs at 1 (got {self.pairs})"
            )
        if self.topology is Topology.FANOUT:
            if self.producers == 0:
                object.__setattr__(self, "producers", 1)
            if self.producers != 1:
                raise WorkflowError(
                    f"fan-out has exactly one producer, got {self.producers}"
                )
            if self.consumers < 1:
                raise WorkflowError(
                    "fan-out needs consumers >= 1 (the M in 1->M)"
                )
        elif self.topology is Topology.FANIN:
            if self.consumers == 0:
                object.__setattr__(self, "consumers", 1)
            if self.consumers != 1:
                raise WorkflowError(
                    f"fan-in has exactly one consumer, got {self.consumers}"
                )
            if self.producers < 1:
                raise WorkflowError(
                    "fan-in needs producers >= 1 (the N in N->1)"
                )
        else:  # POOL
            if self.producers < 1 or self.consumers < 1:
                raise WorkflowError(
                    "a consumer pool needs producers >= 1 and "
                    "consumers >= 1, got "
                    f"{self.producers}/{self.consumers}"
                )
        if (self.placement is Placement.SINGLE_NODE
                and self.producers + self.consumers > PROCS_PER_NODE):
            raise WorkflowError(
                f"single-node placement fits at most {PROCS_PER_NODE} "
                f"processes (one per GPU); got "
                f"{self.producers} producer(s) + {self.consumers} "
                "consumer(s)"
            )

    # -- derived workload quantities ------------------------------------------------
    @cached_property
    def stride_time(self) -> float:
        """Seconds of MD compute between consecutive frames."""
        return self.model.stride_time(self.stride)

    @property
    def analytics_time(self) -> float:
        """Consumer per-iteration analytics sleep (matched to frequency)."""
        return self.stride_time

    @cached_property
    def frame_bytes(self) -> int:
        """Bytes per frame."""
        return self.model.frame_bytes

    @property
    def is_streaming(self) -> bool:
        """True when the sync mode is one of the per-frame pipelines."""
        return self.sync_mode.is_streaming

    @property
    def effective_window(self) -> int:
        """The bounded in-flight window W the streaming transport enforces."""
        return 2 if self.sync_mode is SyncMode.NBUFFER else self.window

    # -- topology-derived process counts --------------------------------------
    @property
    def n_producers(self) -> int:
        """Producer processes the run spawns."""
        return self.pairs if self.topology is Topology.PAIRWISE else self.producers

    @property
    def n_consumers(self) -> int:
        """Consumer processes the run spawns."""
        return self.pairs if self.topology is Topology.PAIRWISE else self.consumers

    @property
    def streams(self) -> int:
        """Independent frame streams written (one per producer; fan-out's
        single producer writes stream 0 that every consumer reads)."""
        return self.pairs if self.topology is Topology.PAIRWISE else self.producers

    # -- placement ------------------------------------------------------------
    @property
    def nodes_required(self) -> int:
        """Compute nodes the ensemble needs."""
        if self.placement is Placement.SINGLE_NODE:
            return 1
        if self.topology is Topology.PAIRWISE:
            per_side = -(-self.pairs // PROCS_PER_NODE)
            return 2 * per_side
        producer_side = -(-self.producers // PROCS_PER_NODE)
        consumer_side = -(-self.consumers // PROCS_PER_NODE)
        return producer_side + consumer_side

    def placements(self) -> List[Tuple[int, int]]:
        """``(producer_node_index, consumer_node_index)`` per pair.

        Pairwise-only; topology runs place sides independently via
        :meth:`producer_nodes`/:meth:`consumer_nodes`.
        """
        if self.topology is not Topology.PAIRWISE:
            raise WorkflowError(
                f"placements() is pairwise-only; {self.topology.value} "
                "topologies use producer_nodes()/consumer_nodes()"
            )
        if self.placement is Placement.SINGLE_NODE:
            return [(0, 0) for _ in range(self.pairs)]
        per_side = self.nodes_required // 2
        out: List[Tuple[int, int]] = []
        for pair in range(self.pairs):
            producer_node = pair // PROCS_PER_NODE
            consumer_node = per_side + pair // PROCS_PER_NODE
            out.append((producer_node, consumer_node))
        return out

    def producer_nodes(self) -> List[int]:
        """Node index of each producer process (packed 8 per node).

        Works for every topology; pairwise delegates to
        :meth:`placements` so the two mappings can never drift.
        """
        if self.topology is Topology.PAIRWISE:
            return [pn for pn, _cn in self.placements()]
        if self.placement is Placement.SINGLE_NODE:
            return [0] * self.producers
        return [i // PROCS_PER_NODE for i in range(self.producers)]

    def consumer_nodes(self) -> List[int]:
        """Node index of each consumer process (packed 8 per node).

        With split placement, consumers start on the first node after the
        producer side — so a fan-out of up to 8 consumers shares one node
        (and one DYAD staging cache), the configuration that measures
        read amplification against Lustre's per-consumer cold reads.
        """
        if self.topology is Topology.PAIRWISE:
            return [cn for _pn, cn in self.placements()]
        if self.placement is Placement.SINGLE_NODE:
            return [0] * self.consumers
        producer_side = -(-self.producers // PROCS_PER_NODE)
        return [producer_side + j // PROCS_PER_NODE
                for j in range(self.consumers)]

    def describe(self) -> str:
        """One-line human description."""
        if self.topology is Topology.PAIRWISE:
            shape = f"pairs={self.pairs}"
        else:
            shape = (f"{self.topology.value} "
                     f"{self.producers}->{self.consumers}")
        return (
            f"{self.system.value} | {self.model.name} | stride={self.stride} "
            f"| {shape} | frames={self.frames} "
            f"| {self.placement.value} ({self.nodes_required} node(s))"
        )
