"""The key-value store model.

One KVS server lives on a designated broker node. Every operation is an
RPC: request message over the fabric, FIFO queueing at the server, service
time, response message. ``wait_for`` registers a watch; when the key is
later committed the server pushes a notification message to each watcher.

Keys are namespaced strings; values are arbitrary small Python objects
(DYAD stores file ownership records). Value transport cost is modelled by
``value_size`` bytes per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.cluster.network import Fabric
from repro.errors import ConfigError, KeyNotFound
from repro.sim.core import Environment, Event
from repro.sim.resources import Resource, Signal
from repro.units import usec

__all__ = ["KVSConfig", "KVS"]

#: Sentinel a dropped watch delivers instead of a real value: the broker
#: lost its watch table (crash/restart) and the wake-up the watcher was
#: promised will never arrive. ``wait_for`` recovers by re-arming.
_LOST = object()


@dataclass(frozen=True)
class KVSConfig:
    """Calibration constants for the KVS server."""

    commit_service: float = usec(40.0)   # per commit at the server
    lookup_service: float = usec(20.0)   # per lookup at the server
    watch_service: float = usec(20.0)    # registering a watch
    server_capacity: int = 1             # service threads (FIFO queue)
    value_size: int = 256                # bytes per request/response message
    watch_rearm_delay: float = usec(500.0)  # backoff before re-arming a dropped watch

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid values."""
        if min(self.commit_service, self.lookup_service, self.watch_service) < 0:
            raise ConfigError("service times must be non-negative")
        if self.server_capacity < 1:
            raise ConfigError("server_capacity must be >= 1")
        if self.value_size < 0:
            raise ConfigError("value_size must be non-negative")
        if self.watch_rearm_delay < 0:
            raise ConfigError("watch_rearm_delay must be non-negative")


@dataclass
class KVSStats:
    """Lifetime operation counters (used by tests and Fig. 9 analysis)."""

    commits: int = 0
    lookups: int = 0
    watches: int = 0
    total_queue_wait: float = 0.0
    dropped_watches: int = 0   # armed watches lost to a broker crash/restart
    lost_wakeups: int = 0      # watcher-side recoveries from a dropped watch

    @property
    def mean_queue_wait(self) -> float:
        """Average server queueing delay per operation."""
        ops = self.commits + self.lookups + self.watches
        return self.total_queue_wait / ops if ops else 0.0


class KVS:
    """A key-value store served from ``server_node`` on the fabric."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        server_node: str,
        config: Optional[KVSConfig] = None,
        attach: bool = True,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.server_node = server_node
        self.config = config or KVSConfig()
        self.config.validate()
        if attach:
            fabric.attach(server_node)
        self._data: Dict[str, Any] = {}
        self._signals: Dict[str, Signal] = {}
        self.queue = Resource(env, self.config.server_capacity)
        self.stats = KVSStats()
        # telemetry counters (None until attach_metrics)
        self._m_commits = None
        self._m_lookups = None
        self._m_watches = None
        self._m_wakeups = None

    def attach_metrics(self, timeline) -> None:
        """Meter the server: ``kvs.rpcs`` queue occupancy plus
        ``kvs.commits`` / ``kvs.lookups`` / ``kvs.watches`` /
        ``kvs.watch_wakeups`` operation counters.
        """
        self.queue.attach_metrics(timeline, "kvs.rpcs")
        self._m_commits = timeline.counter("kvs.commits")
        self._m_lookups = timeline.counter("kvs.lookups")
        self._m_watches = timeline.counter("kvs.watches")
        self._m_wakeups = timeline.counter("kvs.watch_wakeups")

    # -- server internals --------------------------------------------------------
    def _signal(self, key: str) -> Signal:
        sig = self._signals.get(key)
        if sig is None:
            sig = Signal(self.env)
            self._signals[key] = sig
        return sig

    def _rpc(self, client: str, service: float) -> Generator:
        """Round trip with queueing; returns server queue wait."""
        yield from self.fabric.message(client, self.server_node, self.config.value_size)
        waited = yield from self.queue.acquire(service)
        yield from self.fabric.message(self.server_node, client, self.config.value_size)
        self.stats.total_queue_wait += waited
        return waited

    # -- client API ---------------------------------------------------------------
    def exists(self, key: str) -> bool:
        """Untimed server-state peek (tests/assertions only)."""
        return key in self._data

    def value(self, key: str) -> Any:
        """Untimed server-state read (tests/assertions only)."""
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFound(key) from None

    def commit(self, client: str, key: str, value: Any) -> Generator:
        """Generator: publish ``key=value``; returns elapsed seconds.

        Commit is globally visible once the RPC completes; watchers are
        woken through a pushed notification paying one message latency.
        """
        start = self.env._now
        yield from self._rpc(client, self.config.commit_service)
        self._data[key] = value
        self.stats.commits += 1
        if self._m_commits is not None:
            self._m_commits.inc()
        sig = self._signals.get(key)
        if sig is not None and not sig.latched:
            woken = sig.fire_once(value)
            if self._m_wakeups is not None:
                self._m_wakeups.add(woken)
        return self.env._now - start

    def lookup(self, client: str, key: str) -> Generator:
        """Generator: fetch a committed value; raises :class:`KeyNotFound`.

        The RPC cost is paid even for a miss (the server must search).
        """
        yield from self._rpc(client, self.config.lookup_service)
        self.stats.lookups += 1
        if self._m_lookups is not None:
            self._m_lookups.inc()
        if key not in self._data:
            raise KeyNotFound(key)
        return self._data[key]

    def drop_watches(self) -> int:
        """The broker lost its watch table (crash/restart fault surface).

        Every armed, un-latched watch is woken with the ``_LOST`` sentinel
        instead of a value; those watchers recover inside :meth:`wait_for`
        by backing off ``watch_rearm_delay`` and re-registering. Returns
        how many watches were dropped.
        """
        dropped = 0
        for sig in self._signals.values():
            if not sig.latched:
                dropped += sig.fire(_LOST)
        self.stats.dropped_watches += dropped
        return dropped

    def wait_for(self, client: str, key: str) -> Generator:
        """Generator: block until ``key`` is committed; returns its value.

        Models a KVS watch: one registration RPC, then a pushed
        notification (one message latency) when the commit happens. If the
        key already exists, only the registration RPC is paid.

        Exactly-once delivery holds even at timestep boundaries: a commit
        landing while the registration RPC is in flight is caught by the
        post-registration data check (no notification ever fires for it,
        because the commit latches the key's signal with no waiter parked
        yet — and a latched signal is never re-fired by later commits), and
        a watcher parked in the same timestep as the commit is woken by
        exactly one ``fire_once``. When the broker drops its watch table
        (:meth:`drop_watches`, armed by ``dyad_crash``/``node_crash``
        faults) the parked watcher receives a loss sentinel and recovers:
        back off ``watch_rearm_delay``, pay a fresh registration RPC,
        re-check the data, and re-park — so a commit that raced the outage
        is found by the re-check rather than waited on forever.
        """
        yield from self._rpc(client, self.config.watch_service)
        self.stats.watches += 1
        if self._m_watches is not None:
            self._m_watches.inc()
        if key in self._data:
            return self._data[key]
        sig = self._signal(key)
        while True:
            value = yield sig.wait()
            if value is not _LOST:
                break
            # Lost wake-up: our watch died with the broker's table.
            self.stats.lost_wakeups += 1
            yield self.env.timeout(self.config.watch_rearm_delay)
            yield from self._rpc(client, self.config.watch_service)
            self.stats.watches += 1
            if self._m_watches is not None:
                self._m_watches.inc()
            if key in self._data:
                # The commit raced the outage; the re-registration's data
                # check finds it (no second notification will ever fire).
                return self._data[key]
            sig = self._signal(key)
        # Notification push from server to watcher.
        yield from self.fabric.message(self.server_node, client, self.config.value_size)
        return value
