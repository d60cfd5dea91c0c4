"""DYAD per-node service and cluster-wide runtime.

Every node participating in a DYAD workflow runs a :class:`DyadService`:
it owns the node's staging file system (an XFS-like mount on the node's
SSD under ``managed_root``) and serves remote-get requests — reading a
staged frame from local storage so the requesting consumer can pull it
over RDMA.

The :class:`DyadRuntime` wires the per-node services to the shared KVS
(metadata) and the fabric (data), and hands out producer/consumer clients.
"""

from __future__ import annotations

import sys
from typing import Dict, Generator, Optional, Tuple

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.dyad.config import DyadConfig
from repro.dyad.mdm import MetadataManager, OwnerRecord
from repro.dyad.rdma import make_transport
from repro.errors import DyadError, FileNotFound, TransferError
from repro.kvs.store import KVS
from repro.sim.resources import Resource, Signal
from repro.storage.locks import LockMode
from repro.storage.xfs import XFSFileSystem

__all__ = ["DyadService", "DyadRuntime"]


class DyadService:
    """The DYAD module running on one node."""

    def __init__(self, node: Node, config: DyadConfig, store_data: bool) -> None:
        self.node = node
        self.config = config
        self.staging = XFSFileSystem(node, store_data=store_data)
        self.staging.makedirs(config.managed_root)
        self.requests = Resource(node.env, config.service_capacity)
        self.env = node.env
        self.crashed = False
        self.crashes = 0
        self.refused_gets = 0
        #: shared-read staging tier: path -> Signal fired when the
        #: in-flight remote pull of that frame lands (or fails) on this
        #: node; consumers of the same frame park here instead of
        #: issuing duplicate RDMA pulls (see ``DyadConfig.shared_read_cache``)
        self.inflight_pulls: Dict[str, "Signal"] = {}
        #: integrity faults: short/missing frames refused (checked mode)
        self.integrity_refusals = 0
        #: ``stale_metadata`` window: producers on this node publish the
        #: KVS record *before* staging the bytes (metadata runs ahead of
        #: data, the race DYAD's flock fast path normally prevents)
        self.stale_publish = False
        self._m_refusals = None  # refused-gets counter when metered

    def attach_metrics(self, timeline) -> None:
        """Meter the service: ``dyad.{node}.gets`` request occupancy plus
        the ``dyad.{node}.refusals`` counter (crash + integrity refusals).

        Staging occupancy is already visible as the node device's
        ``ssd.{node}.used_bytes`` gauge — the staging FS is the only
        tenant of a DYAD node's SSD.
        """
        node_id = self.node.node_id
        self.requests.attach_metrics(timeline, f"dyad.{node_id}.gets")
        self._m_refusals = timeline.counter(f"dyad.{node_id}.refusals")

    def crash(self) -> None:
        """Take the service down (fault injection).

        Staged files survive — the staging FS is node-local persistent
        storage and the crash models the *service process* dying, so a
        restart serves the same frames again (warm restart). Remote gets
        in flight or arriving while down fail with
        :class:`repro.errors.TransferError`, which the consumer client's
        retry loop absorbs. Idempotent.
        """
        if not self.crashed:
            self.crashed = True
            self.crashes += 1

    def restart(self) -> None:
        """Bring a crashed service back up."""
        self.crashed = False

    def _check_up(self) -> None:
        if self.crashed:
            self.refused_gets += 1
            if self._m_refusals is not None:
                self._m_refusals.inc()
            raise TransferError(
                f"{self.node.node_id}: DYAD service is down"
            )

    def serve_get(self, path: str, nbytes: int) -> Generator:
        """Generator: handle one remote-get — lock, read, return payload.

        Runs on the owner node; the caller (consumer client) then pulls the
        bytes over RDMA. Returns ``(elapsed, count, payload_or_None)``.

        A crashed service refuses the request at three points — on arrival,
        after queueing, and after the local read (the reply never makes it
        out, modelling in-flight loss) — always with
        :class:`repro.errors.TransferError` so consumers retry rather than
        abort. The same retry contract covers integrity faults when
        ``integrity_checks`` is on: a frame advertised by the KVS but not
        yet staged (``stale_metadata``) or staged short (``torn_write``)
        is refused, and the consumer's backoff absorbs the window. With
        checks off the short frame is served as-is (``count < nbytes``).
        """
        start = self.env._now
        self._check_up()
        waited = yield from self.requests.acquire(self.config.service_request_time)
        self._check_up()
        # Fast-path synchronization: shared flock guarantees the producer's
        # exclusive lock was dropped, i.e. the write completed.
        yield self.env.timeout(self.config.flock_time)
        lock = yield from self.staging.locks.acquire(
            path, LockMode.SHARED, owner=f"{self.node.node_id}.dyad"
        )
        try:
            try:
                handle = yield from self.staging.open(
                    path, "r", client=self.node.node_id
                )
            except FileNotFound:
                # The KVS advertised the frame before its bytes landed
                # (stale_metadata) — refuse so the consumer retries.
                self.integrity_refusals += 1
                if self._m_refusals is not None:
                    self._m_refusals.inc()
                raise TransferError(
                    f"{self.node.node_id}: {path} advertised but not staged"
                ) from None
            try:
                count, payload = yield from handle.read(nbytes)
            finally:
                # A run abandoned mid-frame is closed by the garbage
                # collector: simulating the close would yield during
                # GeneratorExit, so only live runs close the handle.
                if sys.exc_info()[0] is not GeneratorExit:
                    yield from handle.close()
        finally:
            self.staging.locks.release(lock)
        self._check_up()
        if count != nbytes and self.config.integrity_checks:
            self.integrity_refusals += 1
            if self._m_refusals is not None:
                self._m_refusals.inc()
            raise TransferError(
                f"{self.node.node_id}: staged file {path} has {count} bytes, "
                f"expected {nbytes} (torn frame refused)"
            )
        return self.env._now - start, count, payload


class DyadRuntime:
    """DYAD deployed across a cluster: services + MDM + RDMA transport."""

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[DyadConfig] = None,
        kvs_node: Optional[str] = None,
        store_data: bool = False,
    ) -> None:
        self.cluster = cluster
        self.config = config or DyadConfig()
        self.config.validate()
        self.store_data = store_data
        # The KVS broker runs on the first compute node (Flux rank 0), so
        # single-node workflows pay loopback — not wire — latency for
        # metadata, exactly as the paper's single-node configuration does.
        server_node = kvs_node or cluster.node(0).node_id
        self.kvs = KVS(
            cluster.env,
            cluster.fabric,
            server_node,
            self.config.kvs,
            attach=False,  # compute nodes are already on the fabric
        )
        self.mdm = MetadataManager(self.kvs)
        self.rdma = make_transport(self.config, cluster.fabric, cluster.rng)
        self.services: Dict[str, DyadService] = {
            node.node_id: DyadService(node, self.config, store_data)
            for node in cluster.nodes
        }
        # ``bit_corrupt`` window state (armed by the fault injector):
        # every remote pull inside the window is damaged in flight with
        # probability ``corrupt_rate``, decided by the seeded ``draw``.
        self.corrupt_rate = 0.0
        self.corrupt_draw = None
        #: transfers the integrity layer found damaged (checked or not)
        self.corrupt_transfers = 0
        #: ``dyad.retries`` counter when metered (consumer clients bump it)
        self.metrics_retries = None

    def attach_metrics(self, timeline) -> None:
        """Meter the deployment: the KVS, every per-node service, and a
        cluster-wide ``dyad.retries`` counter fed by consumer clients'
        remote-get retry loops.
        """
        self.kvs.attach_metrics(timeline)
        for service in self.services.values():
            service.attach_metrics(timeline)
        self.metrics_retries = timeline.counter("dyad.retries")

    def arm_corruption(self, rate: float, draw) -> None:
        """Start a transfer-corruption window (fault injection)."""
        if not 0.0 < rate <= 1.0:
            raise DyadError(f"corruption rate must be in (0, 1], got {rate}")
        self.corrupt_rate = rate
        self.corrupt_draw = draw

    def disarm_corruption(self) -> None:
        """End the transfer-corruption window."""
        self.corrupt_rate = 0.0
        self.corrupt_draw = None

    @property
    def env(self):
        """The cluster's simulation environment."""
        return self.cluster.env

    def service(self, node_id: str) -> DyadService:
        """The service on a node; :class:`DyadError` when absent."""
        try:
            return self.services[node_id]
        except KeyError:
            raise DyadError(f"no DYAD service on node {node_id!r}") from None

    def producer(self, node_id: str, name: str) -> "DyadProducerClient":
        """A producer client bound to ``node_id``."""
        from repro.dyad.client import DyadProducerClient

        return DyadProducerClient(self, node_id, name)

    def consumer(self, node_id: str, name: str) -> "DyadConsumerClient":
        """A consumer client bound to ``node_id``."""
        from repro.dyad.client import DyadConsumerClient

        return DyadConsumerClient(self, node_id, name)

    def stats(self) -> Dict[str, float]:
        """Transport faults, service crashes and refusals, and the KVS's
        dropped watches and lost wake-ups (the consumer clients' own
        counters are reported by the topology that owns them)."""
        services = self.services.values()
        return {
            "dyad_transport_faults": float(self.rdma.faults_injected),
            "dyad_service_crashes": float(sum(s.crashes for s in services)),
            "dyad_refused_gets": float(sum(s.refused_gets for s in services)),
            "dyad_dropped_watches": float(self.kvs.stats.dropped_watches),
            "dyad_lost_wakeups": float(self.kvs.stats.lost_wakeups),
        }
