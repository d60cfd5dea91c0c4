"""Turn a :class:`~repro.faults.plan.FaultPlan` into live simulation faults.

The :class:`FaultInjector` resolves every event's target against the run's
cluster / DYAD runtime / Lustre servers / client file system *before* the
simulation starts (a bad plan fails fast with
:class:`~repro.errors.FaultPlanError`, not three simulated hours in), then
spawns one lightweight process per event that sleeps until the strike
time, applies the fault, sleeps the window, and reverts it.

Windows on the same target may overlap or abut, so faults never set
substrate state directly: each substrate's effective state is *derived*
from the set of currently-active windows and recomputed on every apply
and revert. Degradations compose multiplicatively (two 2x slowdowns make
a 4x), outages hold until the **last** enclosing window lifts (a
``dyad_crash`` nested inside a ``node_crash`` must not resurrect the
service early), corruption rates combine as independent probabilities,
and metadata lags take the maximum.

Fault semantics per kind:

- ``node_crash`` — the node's fabric link goes down *and* its DYAD
  service (when present) crashes. Staged frames survive on the node-local
  SSD, so the restart is warm: consumers re-request lost frames through
  the client retry loop and succeed once the service is back.
- ``link_flap`` — the link goes down only. Traffic touching the node
  stalls (delayed, not failed) until restore, which is safe for systems
  without a retry path (Lustre, plain POSIX over the fabric).
- ``dyad_crash`` — the DYAD service refuses remote gets with
  :class:`~repro.errors.TransferError`, exercising the consumer's capped
  exponential backoff until the restart.
- ``ssd_degrade`` — the node's SSD read/write channels are throttled by
  ``severity``; in-flight transfers slow down mid-stream.
- ``lustre_slowdown`` — Lustre servers degrade by ``severity``
  (``target`` picks all / ``"mds"`` / ``"oss<i>"``).
- ``torn_write`` — writes land only ``severity`` of their declared bytes
  while the window is open. On DYAD the target node's staging FS tears
  and the revert *repairs* (the producer re-publishes after the service
  restart); on XFS/Lustre the revert leaves frames short — journal
  replay truncates to what landed, and readers see the damage.
- ``bit_corrupt`` — each transfer/write flips payload bytes with
  probability ``rate`` (seeded stream, drawn only inside the window).
  DYAD corrupts in-flight RDMA pulls; XFS/Lustre corrupt at-rest writes.
- ``stale_metadata`` — DYAD publishes the KVS record *before* the bytes
  are staged (consumers can win the race and must retry); Lustre's MDS
  answers ``stat`` with attributes up to ``severity`` seconds old. XFS
  has no metadata server to lag, so targeting it is a plan error.

Streaming runs (see :mod:`repro.workflow.streaming`) compose further:
a held link also partitions the per-pair stream channel's control plane
(producer-side notification wake-ups are queued as *lost* until restore;
consumer-side credit returns defer, leaking the credit for the window's
duration), and a crashed service or node hosting a KVS broker drops the
broker's armed watch table — parked watchers receive a loss sentinel and
recover by re-arming (see ``KVS.drop_watches``). Both surfaces are
refcounted with the underlying link/service holds, so overlapping
windows compose exactly like every other fault.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.topology import Cluster
from repro.errors import FaultPlanError
from repro.faults.plan import FaultEvent, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's fault windows onto a run's simulated substrates."""

    def __init__(
        self,
        plan: FaultPlan,
        cluster: Cluster,
        dyad: Optional[object] = None,
        lustre: Optional[object] = None,
        fs: Optional[object] = None,
        metrics: Optional[object] = None,
        streams: Optional[List[object]] = None,
        brokers: Optional[List[object]] = None,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.cluster = cluster
        self.dyad = dyad
        self.lustre = lustre
        self.fs = fs
        self.env = cluster.env
        #: per-pair stream channels whose control plane faults compose with
        #: link holds (streaming runs only; empty otherwise)
        self.streams: List[object] = list(streams) if streams else []
        #: KVS brokers whose watch tables die with their host node/service
        self.brokers: List[object] = list(brokers) if brokers else []
        if self.streams and dyad is not None and dyad.kvs not in self.brokers:
            # The DYAD metadata KVS is a broker too: streaming consumers
            # parked in per-frame watches must survive its host crashing.
            self.brokers.append(dyad.kvs)
        #: fault windows applied so far (strike side)
        self.applied = 0
        #: fault windows reverted so far (restore side)
        self.reverted = 0
        #: telemetry timeline: every window edge becomes an instant
        #: annotation and the ``faults.active`` gauge tracks open windows
        self.metrics = metrics
        self._m_active = metrics.gauge("faults.active") if metrics else None
        # -- active-window composition state (see module docstring) --
        # node index -> active SSD slowdown factors
        self._ssd_factors: Dict[int, List[float]] = {}
        # "mds" / ("oss", i) -> active Lustre slowdown factors
        self._lustre_factors: Dict[object, List[float]] = {}
        # node_id -> open windows holding the fabric link down
        self._link_refs: Dict[str, int] = {}
        # node_id -> open windows holding the DYAD service crashed
        self._service_refs: Dict[str, int] = {}
        # node_id -> open windows forcing publish-before-stage
        self._stale_refs: Dict[str, int] = {}
        # active Lustre metadata lags (max wins)
        self._stale_lags: List[float] = []
        # target fs id -> (fs, active torn fractions, repair on last lift)
        self._torn: Dict[int, Tuple[object, List[float], bool]] = {}
        # target id -> (armable, active corruption rates)
        self._corrupt: Dict[int, Tuple[object, List[float]]] = {}
        self._corrupt_gen = None  # lazily-created seeded stream
        # Resolve every event now: (event, apply, revert) triples.
        self._actions: List[Tuple[FaultEvent, Callable, Callable]] = [
            (event, *self._resolve(event)) for event in plan.events
        ]

    # -- target resolution ---------------------------------------------------
    def _node(self, event: FaultEvent):
        """The cluster node an event targets ('' = node 0, 'N' = index)."""
        target = event.target or "0"
        if target.isdigit():
            index = int(target)
            if not 0 <= index < len(self.cluster.nodes):
                raise FaultPlanError(
                    f"{event.kind}: node index {index} out of range "
                    f"(cluster has {len(self.cluster.nodes)} nodes)"
                )
            return self.cluster.node(index)
        for node in self.cluster.nodes:
            if node.node_id == target:
                return node
        raise FaultPlanError(
            f"{event.kind}: no node {target!r} in cluster"
        )

    def _dyad_service(self, event: FaultEvent, node_id: str):
        if self.dyad is None:
            raise FaultPlanError(
                f"{event.kind} at t={event.at}: plan targets a DYAD service"
                " but the run has no DYAD runtime (non-DYAD system?)"
            )
        return self.dyad.service(node_id)

    def _data_fs(self, event: FaultEvent):
        """The file system a data-integrity event tears/corrupts.

        DYAD runs route to the target node's staging FS; POSIX runs route
        to the shared client FS (XFS mount or Lustre client).
        """
        if self.dyad is not None:
            node = self._node(event)
            return self._dyad_service(event, node.node_id).staging
        if self.fs is None:
            raise FaultPlanError(
                f"{event.kind} at t={event.at}: the run has neither a DYAD"
                " runtime nor a client file system to damage"
            )
        return self.fs

    def _draw(self) -> float:
        """One uniform draw from the injector's seeded corruption stream.

        The stream exists only once a window actually fires, so clean
        runs and plans without ``bit_corrupt`` make no extra RNG draws.
        """
        if self._corrupt_gen is None:
            self._corrupt_gen = self.cluster.rng.stream("faults.bit_corrupt")
        return float(self._corrupt_gen.random())

    # -- composed-state transitions ------------------------------------------
    def _drop_broker_watches(self, node_id: str) -> None:
        """A crash on ``node_id`` loses every armed watch of brokers it
        hosts; parked watchers get the loss sentinel and re-arm."""
        for broker in self.brokers:
            if broker.server_node == node_id:
                broker.drop_watches()

    def _hold_link(self, node_id: str) -> None:
        refs = self._link_refs.get(node_id, 0)
        if refs == 0:
            self.cluster.fabric.fail_link(node_id)
            # A cross-node stream channel's control plane rides this link:
            # producer-side wake-ups are lost (queued for redelivery),
            # consumer-side credit returns defer (the credit leaks until
            # the link is back and the producer may block meanwhile).
            for channel in self.streams:
                if channel.producer_node == channel.consumer_node:
                    continue
                if channel.producer_node == node_id:
                    channel.hold_notifications()
                if channel.consumer_node == node_id:
                    channel.hold_returns()
        self._link_refs[node_id] = refs + 1

    def _release_link(self, node_id: str) -> None:
        refs = self._link_refs.get(node_id, 0) - 1
        self._link_refs[node_id] = refs
        if refs == 0:
            self.cluster.fabric.restore_link(node_id)
            for channel in self.streams:
                if channel.producer_node == channel.consumer_node:
                    continue
                if channel.producer_node == node_id:
                    channel.release_notifications()
                if channel.consumer_node == node_id:
                    channel.release_returns()

    def _hold_service(self, service) -> None:
        refs = self._service_refs.get(service.node.node_id, 0)
        if refs == 0:
            service.crash()
            self._drop_broker_watches(service.node.node_id)
        self._service_refs[service.node.node_id] = refs + 1

    def _release_service(self, service) -> None:
        refs = self._service_refs.get(service.node.node_id, 0) - 1
        self._service_refs[service.node.node_id] = refs
        if refs == 0:
            service.restart()

    def _set_ssd(self, index: int) -> None:
        factors = self._ssd_factors.get(index, [])
        ssd = self.cluster.node(index).ssd
        if factors:
            product = 1.0
            for f in factors:
                product *= f
            ssd.degrade(product)
        else:
            ssd.restore()

    def _set_lustre(self, component) -> None:
        factors = self._lustre_factors.get(component, [])
        target = "mds" if component == "mds" else f"oss{component[1]}"
        if factors:
            product = 1.0
            for f in factors:
                product *= f
            self.lustre.degrade(product, target)
        else:
            self.lustre.restore(target)

    def _set_torn(self, key: int) -> None:
        fs, fractions, repair = self._torn[key]
        if fractions:
            # Overlapping tears compose to the most severe active fraction.
            fs.arm_torn_writes(min(fractions))
        else:
            fs.disarm_torn_writes(repair=repair)

    def _set_corrupt(self, key: int) -> None:
        armable, rates = self._corrupt[key]
        if rates:
            # Independent windows: P(any flips) = 1 - prod(1 - r_i).
            survive = 1.0
            for r in rates:
                survive *= 1.0 - r
            armable.arm_corruption(min(1.0, 1.0 - survive), self._draw)
        else:
            armable.disarm_corruption()

    def _set_stale_lag(self) -> None:
        self.lustre.stale_lag = max(self._stale_lags, default=0.0)

    def _resolve(self, event: FaultEvent) -> Tuple[Callable, Callable]:
        """(apply, revert) callables for one event; validates the target."""
        kind = event.kind
        if kind == "link_flap":
            node = self._node(event)
            return (lambda: self._hold_link(node.node_id),
                    lambda: self._release_link(node.node_id))
        if kind == "ssd_degrade":
            node = self._node(event)
            index = self.cluster.nodes.index(node)
            factors = self._ssd_factors.setdefault(index, [])

            def apply() -> None:
                factors.append(event.severity)
                self._set_ssd(index)

            def revert() -> None:
                factors.remove(event.severity)
                self._set_ssd(index)

            return apply, revert
        if kind == "dyad_crash":
            node = self._node(event)
            service = self._dyad_service(event, node.node_id)
            return (lambda: self._hold_service(service),
                    lambda: self._release_service(service))
        if kind == "node_crash":
            node = self._node(event)
            service = None
            if self.dyad is not None:
                service = self.dyad.service(node.node_id)

            def apply() -> None:
                self._hold_link(node.node_id)
                if service is not None:
                    self._hold_service(service)
                else:
                    # No DYAD service (POSIX pub/sub): the crash still
                    # loses any broker watch table the node hosts.
                    self._drop_broker_watches(node.node_id)

            def revert() -> None:
                if service is not None:
                    self._release_service(service)
                self._release_link(node.node_id)

            return apply, revert
        if kind == "lustre_slowdown":
            if self.lustre is None:
                raise FaultPlanError(
                    f"lustre_slowdown at t={event.at}: the run has no"
                    " Lustre servers"
                )
            touch_mds, indices = self.lustre._fault_targets(event.target)
            components: List[object] = ["mds"] if touch_mds else []
            components.extend(("oss", i) for i in indices)

            def apply() -> None:
                for component in components:
                    self._lustre_factors.setdefault(component, []).append(
                        event.severity
                    )
                    self._set_lustre(component)

            def revert() -> None:
                for component in components:
                    self._lustre_factors[component].remove(event.severity)
                    self._set_lustre(component)

            return apply, revert
        if kind == "torn_write":
            fs = self._data_fs(event)
            # DYAD staging repairs on revert (the producer re-publishes
            # after the restart); a shared POSIX FS keeps the short frames
            # (journal replay truncates to what landed).
            entry = self._torn.setdefault(
                id(fs), (fs, [], self.dyad is not None)
            )

            def apply() -> None:
                entry[1].append(event.severity)
                self._set_torn(id(fs))

            def revert() -> None:
                entry[1].remove(event.severity)
                self._set_torn(id(fs))

            return apply, revert
        if kind == "bit_corrupt":
            # DYAD corrupts the RDMA pull in flight; POSIX corrupts the
            # write at rest.
            if self.dyad is not None:
                armable = self.dyad
            elif self.fs is not None:
                armable = self.fs
            else:
                raise FaultPlanError(
                    f"bit_corrupt at t={event.at}: the run has neither a"
                    " DYAD runtime nor a client file system to corrupt"
                )
            entry = self._corrupt.setdefault(id(armable), (armable, []))

            def apply() -> None:
                entry[1].append(event.rate)
                self._set_corrupt(id(armable))

            def revert() -> None:
                entry[1].remove(event.rate)
                self._set_corrupt(id(armable))

            return apply, revert
        if kind == "stale_metadata":
            if self.dyad is not None:
                node = self._node(event)
                service = self._dyad_service(event, node.node_id)
                node_id = service.node.node_id

                def apply() -> None:
                    refs = self._stale_refs.get(node_id, 0)
                    service.stale_publish = True
                    self._stale_refs[node_id] = refs + 1

                def revert() -> None:
                    refs = self._stale_refs.get(node_id, 0) - 1
                    self._stale_refs[node_id] = refs
                    if refs == 0:
                        service.stale_publish = False

                return apply, revert
            if self.lustre is not None:
                servers = self.lustre

                def apply() -> None:
                    self._stale_lags.append(event.severity)
                    self._set_stale_lag()

                def revert() -> None:
                    self._stale_lags.remove(event.severity)
                    self._set_stale_lag()

                return apply, revert
            raise FaultPlanError(
                f"stale_metadata at t={event.at}: XFS is node-local and has"
                " no metadata server to lag (use a DYAD or Lustre run)"
            )
        raise FaultPlanError(f"unknown fault kind {kind!r}")  # pragma: no cover

    # -- scheduling ----------------------------------------------------------
    def _window(self, event: FaultEvent, apply: Callable, revert: Callable):
        """Process: wait for the strike time, fault, wait, recover."""
        delay = event.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        apply()
        self.applied += 1
        if self.metrics is not None:
            self._annotate(event, "apply")
        yield self.env.timeout(event.duration)
        revert()
        self.reverted += 1
        if self.metrics is not None:
            self._annotate(event, "revert")

    def _annotate(self, event: FaultEvent, edge: str) -> None:
        """Mark a window edge on the telemetry timeline."""
        self.metrics.instant(
            f"fault.{event.kind}.{edge}",
            target=event.target,
            at=event.at,
            duration=event.duration,
            severity=event.severity,
            rate=event.rate,
        )
        self._m_active.set(
            float(self.applied - self.reverted)
        )

    def stats(self) -> Dict[str, float]:
        """Fault windows applied and reverted so far."""
        return {
            "faults_applied": float(self.applied),
            "faults_reverted": float(self.reverted),
        }

    def start(self) -> None:
        """Spawn one simulation process per scheduled fault window."""
        for event, apply, revert in self._actions:
            self.env.process(self._window(event, apply, revert))
