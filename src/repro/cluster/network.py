"""InfiniBand-like cluster fabric model.

The fabric is a star of full-duplex NICs around an idealized switch:

- every node owns a :class:`NIC` with separate egress and ingress
  fluid-flow channels (concurrent flows share the channel);
- a point-to-point transfer pays per-hop wire latency, then streams
  through *both* the source egress and destination ingress channels; the
  transfer completes when the slower of the two finishes, approximating a
  min-rate coupled flow;
- the switch itself is modelled with an optional aggregate bisection
  channel; Corona's QDR switch is far from saturation in these workloads
  so the preset leaves it effectively unconstrained.

RDMA transfers (DYAD's pull protocol) use the same data path but a lower
per-message latency and zero per-byte CPU cost, matching the "direct
network communication" behaviour the paper credits for Finding 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError, TransferError
from repro.sim.core import AllOf, Environment
from repro.sim.fluid import FluidNetwork
from repro.sim.resources import SharedBandwidth, Signal
from repro.sim.rng import RngStreams
from repro.units import gb_per_s, usec

__all__ = ["FabricConfig", "NIC", "Fabric"]


@dataclass(frozen=True)
class FabricConfig:
    """Performance envelope of the interconnect.

    Defaults approximate InfiniBand QDR (4× QDR = 32 Gbit/s ≈ 4 GB/s per
    port) as installed on Corona.

    Attributes
    ----------
    link_bandwidth:
        Per-NIC, per-direction bandwidth in bytes/second.
    hop_latency:
        Wire+switch latency per hop in seconds; a node-to-node path is
        ``hops`` hops long.
    hops:
        Number of switch hops between two compute nodes.
    rdma_setup:
        Extra fixed cost to post an RDMA read (QP doorbell, rendezvous);
        paid once per transfer.
    message_setup:
        Fixed cost of an eager two-sided message (used for control traffic
        such as KVS RPCs).
    bisection_bandwidth:
        Aggregate switch capacity shared by all in-flight transfers;
        ``None`` disables the constraint.
    jitter_cv:
        Lognormal latency jitter coefficient of variation (0 = off).
    """

    link_bandwidth: float = gb_per_s(4.0)
    hop_latency: float = usec(2.0)
    hops: int = 2
    rdma_setup: float = usec(5.0)
    message_setup: float = usec(15.0)
    bisection_bandwidth: Optional[float] = None
    jitter_cv: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical values."""
        if self.link_bandwidth <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.hop_latency < 0 or self.rdma_setup < 0 or self.message_setup < 0:
            raise ConfigError("latencies must be non-negative")
        if self.hops < 1:
            raise ConfigError("hops must be >= 1")
        if self.bisection_bandwidth is not None and self.bisection_bandwidth <= 0:
            raise ConfigError("bisection bandwidth must be positive")
        if self.jitter_cv < 0:
            raise ConfigError("jitter_cv must be non-negative")


class NIC:
    """One full-duplex network port.

    On the fluid tiers both direction channels are
    :class:`~repro.sim.fluid.FluidLink` constraints of the cluster-wide
    :class:`~repro.sim.fluid.FluidNetwork` instead of per-channel
    :class:`SharedBandwidth` instances; the surface is duck-compatible.
    """

    def __init__(self, env: Environment, node_id: str, bandwidth: float,
                 fluid: Optional[FluidNetwork] = None) -> None:
        self.node_id = node_id
        if fluid is not None:
            self.egress = fluid.link(bandwidth, label=f"{node_id}.egress")
            self.ingress = fluid.link(bandwidth, label=f"{node_id}.ingress")
        else:
            self.egress = SharedBandwidth(env, bandwidth)
            self.ingress = SharedBandwidth(env, bandwidth)

    @property
    def active_flows(self) -> int:
        """In-flight flows touching this NIC (either direction)."""
        return self.egress.active_flows + self.ingress.active_flows

    def channels(self):
        """Both direction channels, for kernel-health aggregation."""
        yield self.egress
        yield self.ingress


class FabricStats:
    """Lifetime transfer counters."""

    def __init__(self) -> None:
        self.transfers = 0
        self.rdma_transfers = 0
        self.messages = 0
        self.bytes_moved = 0
        self.link_stalls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FabricStats(transfers={self.transfers}, "
            f"rdma={self.rdma_transfers}, messages={self.messages}, "
            f"bytes={self.bytes_moved}, link_stalls={self.link_stalls})"
        )


class Fabric:
    """The cluster interconnect: a set of NICs around a switch."""

    def __init__(self, env: Environment, config: FabricConfig, rng: RngStreams,
                 fluid: Optional[FluidNetwork] = None,
                 fold_latency: bool = False) -> None:
        config.validate()
        self.env = env
        self.config = config
        self._rng = rng
        #: Shared flow-level engine on the `hybrid`/`fluid` tiers (`None`
        #: on `exact`); substrates downstream (SSD, Lustre OSS) read this
        #: to place their channels on the same network.
        self.fluid = fluid
        #: `fluid` tier only: fixed latencies ride as flow tails.
        self.fold_latency = fold_latency and fluid is not None
        self._nics: Dict[str, NIC] = {}
        self._path_latency = config.hop_latency * config.hops
        self._link_down: Dict[str, Signal] = {}
        if config.bisection_bandwidth is None:
            self._bisection = None
        elif fluid is not None:
            self._bisection = fluid.link(config.bisection_bandwidth,
                                         label="bisection")
        else:
            self._bisection = SharedBandwidth(env, config.bisection_bandwidth)
        self.stats = FabricStats()
        # telemetry hooks (None until attach_metrics)
        self._m_bytes = None
        self._m_stalls = None
        self._m_links_down = None

    # -- topology -------------------------------------------------------------
    def attach(self, node_id: str) -> NIC:
        """Register a node on the fabric and return its NIC."""
        if node_id in self._nics:
            raise ConfigError(f"node {node_id!r} already attached")
        nic = NIC(self.env, node_id, self.config.link_bandwidth, self.fluid)
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id: str) -> NIC:
        """NIC of an attached node; :class:`TransferError` if unknown."""
        try:
            return self._nics[node_id]
        except KeyError:
            raise TransferError(f"node {node_id!r} not attached to fabric") from None

    def path_latency(self) -> float:
        """Base node-to-node wire latency (before jitter)."""
        return self._path_latency

    def channels(self):
        """Every fluid-flow channel in the fabric (NICs + bisection)."""
        for nic in self._nics.values():
            yield from nic.channels()
        if self._bisection is not None:
            yield self._bisection

    # -- telemetry --------------------------------------------------------------
    def attach_metrics(self, timeline) -> None:
        """Meter every link plus fabric-wide totals onto ``timeline``.

        Per-NIC channels appear as ``net.{node}.egress`` /
        ``net.{node}.ingress`` gauge families, the switch as
        ``net.bisection``; ``net.bytes_moved`` / ``net.link_stalls``
        counters and the ``net.links_down`` gauge track fabric-wide state.
        Attach after all nodes are registered.
        """
        for node_id, nic in self._nics.items():
            nic.egress.attach_metrics(timeline, f"net.{node_id}.egress")
            nic.ingress.attach_metrics(timeline, f"net.{node_id}.ingress")
        if self._bisection is not None:
            self._bisection.attach_metrics(timeline, "net.bisection")
        self._m_bytes = timeline.counter("net.bytes_moved")
        self._m_stalls = timeline.counter("net.link_stalls")
        self._m_links_down = timeline.gauge("net.links_down")
        self._m_links_down.set(float(len(self._link_down)))

    # -- fault injection --------------------------------------------------------
    def link_is_down(self, node_id: str) -> bool:
        """True while ``fail_link(node_id)`` is in effect."""
        return node_id in self._link_down

    def fail_link(self, node_id: str) -> None:
        """Take a node's link down: traffic touching it stalls until restore.

        New and queued transfers block *before* touching the wire — they are
        delayed, not failed, matching how a lossless fabric with link-level
        retry presents a flapping port to software (the paper's systems see
        stalls, not packet loss). Idempotent while the link is already down.
        """
        self.nic(node_id)  # raises TransferError for unknown nodes
        if node_id not in self._link_down:
            self._link_down[node_id] = Signal(self.env)
            if self._m_links_down is not None:
                self._m_links_down.set(float(len(self._link_down)))

    def restore_link(self, node_id: str) -> None:
        """Bring a failed link back; wakes every transfer stalled on it."""
        signal = self._link_down.pop(node_id, None)
        if signal is not None:
            if self._m_links_down is not None:
                self._m_links_down.set(float(len(self._link_down)))
            signal.fire()

    def _await_links(self, src: str, dst: str):
        """Generator: block while either endpoint's link is down."""
        stalled = False
        while True:
            signal = self._link_down.get(src) or self._link_down.get(dst)
            if signal is None:
                return
            if not stalled:
                stalled = True
                self.stats.link_stalls += 1
                if self._m_stalls is not None:
                    self._m_stalls.inc()
            yield signal.wait()

    # -- data path --------------------------------------------------------------
    def _jittered(self, stream: str, base: float) -> float:
        if self.config.jitter_cv == 0.0:
            return base
        return self._rng.jitter(stream, base, self.config.jitter_cv)

    def _move(self, src: str, dst: str, nbytes: int, setup: float,
              phases=None):
        """Common generator for both transfer kinds; returns elapsed time.

        ``phases`` (fluid tiers only) replaces the single unit-weight flow
        with a sequence of ``(nbytes, weight)`` fluid flows run back to
        back — the shape a collapsed chunk pipeline needs (see
        :meth:`rdma_get_bulk`). Bytes must sum to ``nbytes``.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst:
            # Loopback never touches the wire: a small fixed memcpy-ish cost.
            start = self.env._now
            yield self.env.timeout(self._jittered("fabric.loopback", setup / 2))
            return self.env._now - start
        src_nic = self.nic(src)
        dst_nic = self.nic(dst)
        env = self.env
        start = env._now
        if self._link_down:  # single falsy check on the fault-free hot path
            yield from self._await_links(src, dst)
        # every message and transfer passes here: _jittered, inlined
        latency = setup + self._path_latency
        cv = self.config.jitter_cv
        if cv != 0.0:
            latency = self._rng.jitter("fabric.latency", latency, cv)
        fluid = self.fluid
        if fluid is None:
            yield env.timeout(latency)
            if nbytes:
                flows = [
                    src_nic.egress.transfer(nbytes),
                    dst_nic.ingress.transfer(nbytes),
                ]
                if self._bisection is not None:
                    flows.append(self._bisection.transfer(nbytes))
                yield AllOf(env, flows)
        else:
            # Fluid tiers: one jointly-rated flow across the whole path
            # instead of independent per-channel flows joined by all_of.
            if self._bisection is not None:
                links = (src_nic.egress, self._bisection, dst_nic.ingress)
            else:
                links = (src_nic.egress, dst_nic.ingress)
            if phases is None:
                phases = ((nbytes, 1.0),)
            if self.fold_latency:
                # The head latency folds onto the last phase's tail.
                last = len(phases) - 1
                for i, (pbytes, pweight) in enumerate(phases):
                    yield fluid.transfer(pbytes, links,
                                         tail=latency if i == last else 0.0,
                                         weight=pweight)
            else:
                yield self.env.timeout(latency)
                for pbytes, pweight in phases:
                    if pbytes:
                        yield fluid.transfer(pbytes, links, weight=pweight)
        self.stats.bytes_moved += nbytes
        if self._m_bytes is not None:
            self._m_bytes.add(nbytes)
        return self.env._now - start

    def transfer(self, src: str, dst: str, nbytes: int):
        """Generator: two-sided bulk transfer; returns elapsed seconds."""
        self.stats.transfers += 1
        return (yield from self._move(src, dst, nbytes, self.config.message_setup))

    def rdma_get(self, initiator: str, target: str, nbytes: int):
        """Generator: RDMA read of ``nbytes`` from ``target`` into ``initiator``.

        Data flows target → initiator; the initiator pays only the RDMA
        setup cost (one-sided, no remote CPU involvement).
        """
        self.stats.rdma_transfers += 1
        return (yield from self._move(target, initiator, nbytes, self.config.rdma_setup))

    def rdma_get_bulk(self, initiator: str, target: str, nbytes: int,
                      chunk: int):
        """Generator: a chunked RDMA pull collapsed into weighted flows.

        Only meaningful on the fluid tiers. Under max-min sharing, ``k``
        concurrent chunks over a shared path each progress at the per-slot
        rate, so the pipeline is equivalent to a weight-``k`` flow until
        the short final chunk (``r = nbytes mod chunk`` bytes) drains —
        ``k·r`` bytes in — then a weight-``k-1`` flow for the remaining
        ``(k-1)·(chunk-r)`` bytes. Two flows (often one, when ``chunk``
        divides ``nbytes``) reproduce the pipeline's completion time and
        contention footprint without its per-chunk processes/events.
        ``rdma_transfers`` advances by ``k`` so the wire-operation count
        matches the exact tier's accounting.
        """
        k, r = divmod(nbytes, chunk)
        if r == 0:
            r = chunk
        else:
            k += 1
        self.stats.rdma_transfers += k
        if k == 1 or r == chunk:
            phases = ((nbytes, float(k)),)
        else:
            phases = ((k * r, float(k)), ((k - 1) * (chunk - r), float(k - 1)))
        return (yield from self._move(target, initiator, nbytes,
                                      self.config.rdma_setup,
                                      phases=phases))

    def message(self, src: str, dst: str, nbytes: int = 0):
        """Generator: small control message (eager protocol)."""
        self.stats.messages += 1
        return (yield from self._move(src, dst, nbytes, self.config.message_setup))
