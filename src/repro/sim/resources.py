"""Shared-resource primitives for the DES kernel.

Four primitives cover every contention point in the simulated cluster:

- :class:`Resource` — a FIFO server with integer capacity. Used for RPC
  service queues (Lustre MDS/OSS, the KVS server) and mutual exclusion
  (file locks use capacity 1).
- :class:`Store` — unbounded FIFO queue of items. Used for message passing
  between DYAD clients and services.
- :class:`SharedBandwidth` — a fluid-flow *processor sharing* channel:
  total bandwidth is divided equally among concurrent transfers. Flows are
  scheduled in O(log n) via a virtual service clock (see the class
  docstring and ``docs/performance.md``). Used for SSD channels, fabric
  links, and aggregate OSS bandwidth; this is the mechanism behind the
  contention effects in Figs. 7, 8, and 12.
- :class:`Signal` — a broadcast condition that wakes *all* current waiters.
  Used for KVS watches (DYAD's loosely-coupled first-touch sync).

The O(n²) reference implementation :class:`SharedBandwidth` replaced lives
on as :class:`repro.sim.reference.ReferenceSharedBandwidth`, the oracle of
the differential tests in ``tests/sim/test_channel_differential.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Deque, Dict, List, Optional

from repro.errors import SimulationError
from repro.sim.core import _PENDING, Environment, Event, Process, Timeout

__all__ = ["Resource", "Store", "SharedBandwidth", "Signal", "channel_health"]


def channel_health(channels) -> dict:
    """Aggregate kernel-health counters over an iterable of channels.

    Returns ``stale_wakeups_defused`` and ``reschedules`` summed across
    the channels and ``peak_concurrent_flows`` as the maximum seen on any
    single channel — the numbers :mod:`repro.workflow.runner` surfaces as
    ``channel_*`` entries in ``system_stats`` so a kernel-bench regression
    (e.g. a re-schedule storm after a fault) is diagnosable straight from
    experiment output.
    """
    stale = reschedules = peak = 0
    for chan in channels:
        stale += chan.stale_wakeups_defused
        reschedules += chan.reschedules
        if chan.peak_concurrent_flows > peak:
            peak = chan.peak_concurrent_flows
    return {
        "stale_wakeups_defused": stale,
        "peak_concurrent_flows": peak,
        "reschedules": reschedules,
    }


class Request(Event):
    """Pending grant of one capacity unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """FIFO server with ``capacity`` simultaneous users.

    Usage from inside a process generator::

        req = server.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            server.release(req)

    The :meth:`acquire` helper wraps request+service+release for the common
    "queued fixed-cost operation" pattern.
    """

    __slots__ = ("env", "capacity", "_users", "_queue", "_metrics")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        self._metrics = None  # (in_service, queued) gauges when attached

    def attach_metrics(self, timeline, label: str) -> None:
        """Meter occupancy as ``{label}.in_service`` / ``{label}.queued``.

        Pure observation: gauges are sampled after state changes and never
        affect scheduling.
        """
        self._metrics = (
            timeline.gauge(f"{label}.in_service"),
            timeline.gauge(f"{label}.queued"),
        )
        self._sample_metrics()

    def _sample_metrics(self) -> None:
        in_service, queued = self._metrics
        in_service.set(float(len(self._users)))
        queued.set(float(len(self._queue)))

    @property
    def count(self) -> int:
        """Number of current users."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for one capacity unit; the returned event fires when granted."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)
        if self._metrics is not None:
            self._sample_metrics()
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit and wake the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            # Request may still be queued (released before grant = cancel).
            try:
                self._queue.remove(request)
                if self._metrics is not None:
                    self._sample_metrics()
                return
            except ValueError:
                raise SimulationError("release of a non-held request") from None
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            nxt.succeed()
        if self._metrics is not None:
            self._sample_metrics()

    def acquire(self, service_time: float):
        """Generator: queue for the server, hold it ``service_time``, release.

        Yields the queueing delay *plus* the service time; returns the time
        spent waiting in the queue (used by instrumentation to separate
        contention from service).
        """
        start = self.env._now
        req = self.request()
        yield req
        waited = self.env._now - start
        try:
            yield self.env.timeout(service_time)
        finally:
            self.release(req)
        return waited


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Signal:
    """Broadcast condition: ``wait()`` events all fire on ``fire(value)``.

    Unlike :class:`Store`, every waiter observes the value. A Signal can
    fire many times; waiters registered after a firing wait for the next
    one. :meth:`fire_once` latches: late waiters complete immediately —
    that latching is what a KVS watch on an already-committed key needs.
    """

    __slots__ = ("env", "_waiters", "_latched", "_latched_value")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiters: List[Event] = []
        self._latched = False
        self._latched_value: Any = None

    @property
    def latched(self) -> bool:
        """True once :meth:`fire_once` has been called."""
        return self._latched

    def wait(self) -> Event:
        """Event firing at the next :meth:`fire` (or now, if latched)."""
        event = Event(self.env)
        if self._latched:
            event.succeed(self._latched_value)
        else:
            self._waiters.append(event)
        return event

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)
        return len(waiters)

    def fire_once(self, value: Any = None) -> int:
        """Wake all waiters and latch so future waits complete immediately."""
        if self._latched:
            raise SimulationError("Signal already latched")
        self._latched = True
        self._latched_value = value
        return self.fire(value)


class SharedBandwidth:
    """Fluid-flow processor-sharing channel of ``bandwidth`` bytes/second.

    Each concurrent transfer receives an equal share of the total bandwidth
    (capped at ``per_flow_cap`` if given). This reproduces the first-order
    behaviour of a shared NIC, SSD channel, or storage server under
    concurrent load, and is the source of the emergent contention effects
    in the multi-pair experiments.

    Scheduling uses the classic *virtual time* formulation of egalitarian
    processor sharing. Let ``S(t)`` be the cumulative service each active
    flow has received (bytes); ``S`` grows at ``min(bandwidth/n(t),
    per_flow_cap)`` while ``n(t)`` flows are active. A flow arriving with
    ``nbytes`` completes exactly when ``S`` reaches ``S(arrival) +
    nbytes`` — a *constant* — so flows live in a min-heap keyed by that
    virtual finish value and never need re-timing: arrivals, completions
    and mid-stream ``set_bandwidth`` calls only change the *rate* at which
    the one scalar ``S`` advances (they segment the virtual clock), an
    O(log n) heap operation each. The O(n²) alternative — re-scanning and
    re-timing every flow on every change — is retained verbatim as
    :class:`repro.sim.reference.ReferenceSharedBandwidth` and drives the
    differential tests; ``docs/performance.md`` derives the equivalence.

    One wake-up :class:`~repro.sim.core.Timeout` per channel is live at a
    time: each re-schedule lazily cancels the previous one
    (:meth:`Event.cancel <repro.sim.core.Event.cancel>`), so stale
    wake-ups cost a heap pop instead of a callback dispatch. The
    ``stale_wakeups_defused`` / ``peak_concurrent_flows`` /
    ``reschedules`` counters feed the ``channel_*`` kernel-health keys of
    ``WorkflowResult.system_stats``.
    """

    __slots__ = ("env", "bandwidth", "_per_flow_cap", "_heap", "_seq",
                 "_virtual", "_last_update", "_wake", "_wake_cb",
                 "_bytes_moved", "stale_wakeups_defused",
                 "peak_concurrent_flows", "reschedules",
                 "_metrics", "_m_inflight")

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        per_flow_cap: Optional[float] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise ValueError(f"per_flow_cap must be positive, got {per_flow_cap}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self._per_flow_cap = per_flow_cap
        #: active flows as ``(virtual_finish, seq, nbytes, done, started)``
        #: heap entries — plain tuples so heap sifts compare in C, and the
        #: unique ``seq`` (FIFO tie-break) stops comparison ever reaching
        #: the payload fields.
        self._heap: List = []
        self._seq = 0
        self._virtual = 0.0  # S(t): cumulative per-flow service, in bytes
        self._last_update = env._now
        self._wake = None  # the single live wake-up Timeout, if any
        self._wake_cb = self._on_wake  # bound once; appended per wake-up
        self._bytes_moved = 0.0  # lifetime accounting, for tests/metrics
        # kernel-health counters (surfaced via system_stats)
        self.stale_wakeups_defused = 0
        self.peak_concurrent_flows = 0
        self.reschedules = 0
        # telemetry (None until attach_metrics; hot paths check one slot)
        self._metrics = None
        self._m_inflight = 0.0

    def attach_metrics(self, timeline, label: str) -> None:
        """Meter the channel as ``{label}.flows`` / ``.bytes_in_flight`` /
        ``.utilization`` gauges on ``timeline``.

        Pure observation: gauges are sampled after the channel state has
        already changed and never feed back into scheduling, so attached
        and unattached runs advance identically.
        """
        self._metrics = (
            timeline.gauge(f"{label}.flows"),
            timeline.gauge(f"{label}.bytes_in_flight"),
            timeline.gauge(f"{label}.utilization"),
        )
        self._m_inflight = float(sum(entry[2] for entry in self._heap))
        self._sample_metrics()

    def _sample_metrics(self) -> None:
        flows, inflight, util = self._metrics
        n = len(self._heap)
        flows.set(float(n))
        inflight.set(self._m_inflight)
        if n == 0:
            util.set(0.0)
        else:
            rate = self.bandwidth / n
            cap = self._per_flow_cap
            if cap is not None and cap < rate:
                rate = cap
            util.set(rate * n / self.bandwidth)

    # -- public ------------------------------------------------------------
    @property
    def per_flow_cap(self) -> Optional[float]:
        """Per-flow rate ceiling in bytes/second (``None`` = uncapped).

        Assignment segments the virtual clock exactly like
        :meth:`set_bandwidth`: the elapsed interval is priced at the *old*
        cap before the new one takes effect, so a mid-epoch change governs
        only the future — never retroactively re-prices service already
        rendered. (Historically this was a plain attribute and mid-epoch
        assignment rewrote the elapsed epoch; the fluid tier's
        ``FluidLink.per_flow_cap`` setter had the segmenting behaviour
        first.)
        """
        return self._per_flow_cap

    @per_flow_cap.setter
    def per_flow_cap(self, cap: Optional[float]) -> None:
        if cap is not None and cap <= 0:
            raise ValueError(f"per_flow_cap must be positive, got {cap}")
        self._advance()
        self._per_flow_cap = cap
        self._reschedule()
        if self._metrics is not None:
            self._sample_metrics()

    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._heap)

    @property
    def bytes_moved(self) -> float:
        """Total bytes fully delivered over the lifetime of the channel."""
        return self._bytes_moved

    def current_rate(self) -> float:
        """Per-flow rate right now (``inf`` when idle)."""
        if not self._heap:
            return float("inf")
        rate = self.bandwidth / len(self._heap)
        if self._per_flow_cap is not None:
            rate = min(rate, self._per_flow_cap)
        return rate

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the channel's total bandwidth, rescheduling live flows.

        Used by the fault layer to model device/server degradation without
        tearing down in-flight transfers: the virtual clock advances at the
        old rate up to now, then ticks at the new rate — in-flight flows
        keep their virtual finish keys and slow down (or speed back up)
        mid-stream. Restoring the original value reverses the slowdown the
        same way.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._advance()
        self.bandwidth = float(bandwidth)
        self._reschedule()
        if self._metrics is not None:
            self._sample_metrics()

    def transfer(self, nbytes: float, _new=Event.__new__, _cls=Event,
                 _tnew=Timeout.__new__, _tcls=Timeout,
                 _push=_heappush, _pop=_heappop) -> Event:
        """Begin moving ``nbytes``; the returned event fires at completion.

        This is the per-transfer hot path of every modelled NIC/SSD/OSS
        data channel, so — in the same style as
        :meth:`Environment.timeout` — the completion event and the wake-up
        are built without running ``__init__`` chains, and the
        advance/re-aim machinery of :meth:`_advance`/:meth:`_reschedule`
        is inlined (identical arithmetic, in the identical order; keep
        them in sync). The trailing defaults pre-bind globals as locals —
        never pass them.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        env = self.env
        done = _new(_cls)
        done.env = env
        done.callbacks = []
        done._value = _PENDING
        done._ok = None
        done._defused = False
        if nbytes == 0:
            done.succeed(0.0)
            return done
        now = env._now
        heap = self._heap
        m = self._metrics
        # -- inlined _advance() -------------------------------------------
        if heap:
            elapsed = now - self._last_update
            self._last_update = now
            if elapsed > 0.0:
                rate = self.bandwidth / len(heap)
                cap = self._per_flow_cap
                if cap is not None and cap < rate:
                    rate = cap
                self._virtual += rate * elapsed
            virtual = self._virtual
            residue = self._RESIDUE
            env_heap = env._heap
            while heap and heap[0][0] - virtual <= residue:
                _key, _fseq, fbytes, fin, started = _pop(heap)
                self._bytes_moved += fbytes
                if m is not None:
                    self._m_inflight -= fbytes
                if fin._value is not _PENDING:  # as Event.succeed would
                    raise SimulationError(f"{fin!r} already triggered")
                fin._ok = True
                fin._value = now - started
                eseq = env._seq
                env._seq = eseq + 1
                _push(env_heap, (now, 1, eseq, fin))  # 1 == NORMAL
            if not heap:
                self._virtual = 0.0
        else:
            self._last_update = now
        # -- admit the new flow -------------------------------------------
        seq = self._seq
        self._seq = seq + 1
        _push(heap, (self._virtual + nbytes, seq, nbytes, done, now))
        n = len(heap)
        if n > self.peak_concurrent_flows:
            self.peak_concurrent_flows = n
        if m is not None:
            self._m_inflight += nbytes
            self._sample_metrics()
        # -- inlined _reschedule() ----------------------------------------
        wake = self._wake
        if wake is not None and wake.callbacks is not None:
            wake.callbacks = None  # lazy-cancel the stale wake-up
            self.stale_wakeups_defused += 1
        self.reschedules += 1
        rate = self.bandwidth / n
        cap = self._per_flow_cap
        if cap is not None and cap < rate:
            rate = cap
        eta = (heap[0][0] - self._virtual) / rate
        # Branchy spelling of max(abs(now), 1.0) * 1e-12 — same product,
        # same rounding, no builtin calls on the hot path.
        if now > 1.0:
            min_step = now * 1e-12
        elif now < -1.0:
            min_step = -now * 1e-12
        else:
            min_step = 1e-12
        if eta < min_step:
            eta = min_step
        wake = _tnew(_tcls)  # keep in sync with Environment.timeout
        wake.env = env
        wake.callbacks = [self._wake_cb]
        wake._ok = True
        wake._value = None
        wake._defused = False
        wake.delay = eta
        wseq = env._seq
        env._seq = wseq + 1
        _push(env._heap, (now + eta, 1, wseq, wake))  # 1 == NORMAL
        self._wake = wake
        return done

    # -- machinery ----------------------------------------------------------
    # Flows whose virtual residue drops below this many bytes are complete.
    # The residue comes from float rounding when a wake-up fires at the
    # projected completion instant; without a tolerance the channel can
    # spin on nanobyte remainders with zero-delay wake-ups.
    _RESIDUE = 1e-6

    def _advance(self, _pop=_heappop) -> None:
        """Tick the virtual clock over the elapsed interval, pop finishers."""
        now = self.env._now
        heap = self._heap
        if not heap:
            self._last_update = now
            return
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0.0:
            rate = self.bandwidth / len(heap)
            cap = self._per_flow_cap
            if cap is not None and cap < rate:
                rate = cap
            self._virtual += rate * elapsed
        # NB: the `key - virtual <= residue` form (subtract, then compare)
        # is deliberate — it rounds exactly like the reference oracle's
        # materialized `remaining <= residue`, which is what keeps solo and
        # lockstep timelines bit-identical across the rewrite.
        virtual = self._virtual
        residue = self._RESIDUE
        while heap and heap[0][0] - virtual <= residue:
            entry = _pop(heap)
            self._bytes_moved += entry[2]
            if self._metrics is not None:
                self._m_inflight -= entry[2]
            entry[3].succeed(now - entry[4])
        if not heap:
            # Idle channel: re-anchor the virtual clock at zero. Arrivals
            # into an idle channel then carry exact finish keys (S + B with
            # S == 0.0 is exact), which keeps solo transfers free of
            # accumulated rounding no matter how long the run is.
            self._virtual = 0.0

    def _reschedule(self) -> None:
        """Re-aim the single wake-up at the earliest virtual finish."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            if wake.callbacks is not None:  # inlined Event.cancel()
                wake.callbacks = None
                self.stale_wakeups_defused += 1
        heap = self._heap
        if not heap:
            return
        self.reschedules += 1
        rate = self.bandwidth / len(heap)
        cap = self._per_flow_cap
        if cap is not None and cap < rate:
            rate = cap
        eta = (heap[0][0] - self._virtual) / rate
        # A wake-up must land strictly after `now` in float arithmetic, or
        # `_advance` sees zero elapsed time and the channel spins forever on
        # a sub-ULP residue. The clamp is ~1e-12 relative — far below any
        # modelled device time.
        min_step = max(abs(self.env._now), 1.0) * 1e-12
        if eta < min_step:
            eta = min_step
        wake = self.env.timeout(eta)
        wake.callbacks.append(self._wake_cb)
        self._wake = wake

    def _on_wake(self, _event: Event, _pop=_heappop, _push=_heappush,
                 _tnew=Timeout.__new__, _tcls=Timeout) -> None:
        """Fired by the wake-up Timeout: advance, complete, re-aim.

        Fully inlined twin of :meth:`_advance` + :meth:`_reschedule` (keep
        them in sync) — this and :meth:`transfer` are the only two frames
        on the contended hot path, so completion events are triggered and
        the next wake-up is built without the ``succeed``/``timeout`` call
        chain, exactly as :meth:`Environment.timeout` would.
        """
        self._wake = None
        env = self.env
        now = env._now
        heap = self._heap
        if not heap:
            self._last_update = now
            return
        m = self._metrics
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0.0:
            rate = self.bandwidth / len(heap)
            cap = self._per_flow_cap
            if cap is not None and cap < rate:
                rate = cap
            self._virtual += rate * elapsed
        virtual = self._virtual
        residue = self._RESIDUE
        env_heap = env._heap
        while heap and heap[0][0] - virtual <= residue:
            _key, _fseq, fbytes, fin, started = _pop(heap)
            self._bytes_moved += fbytes
            if m is not None:
                self._m_inflight -= fbytes
            if fin._value is not _PENDING:  # as Event.succeed would raise
                raise SimulationError(f"{fin!r} already triggered")
            fin._ok = True
            fin._value = now - started
            eseq = env._seq
            env._seq = eseq + 1
            _push(env_heap, (now, 1, eseq, fin))  # 1 == NORMAL
        n = len(heap)
        if n == 0:
            self._virtual = 0.0  # idle: re-anchor (see _advance)
            if m is not None:
                self._sample_metrics()
            return
        self.reschedules += 1
        rate = self.bandwidth / n
        cap = self._per_flow_cap
        if cap is not None and cap < rate:
            rate = cap
        eta = (heap[0][0] - virtual) / rate
        if now > 1.0:  # max(abs(now), 1.0) * 1e-12, spelled branchy
            min_step = now * 1e-12
        elif now < -1.0:
            min_step = -now * 1e-12
        else:
            min_step = 1e-12
        if eta < min_step:
            eta = min_step
        wake = _tnew(_tcls)  # keep in sync with Environment.timeout
        wake.env = env
        wake.callbacks = [self._wake_cb]
        wake._ok = True
        wake._value = None
        wake._defused = False
        wake.delay = eta
        wseq = env._seq
        env._seq = wseq + 1
        _push(env_heap, (now + eta, 1, wseq, wake))
        self._wake = wake
        if m is not None:
            self._sample_metrics()
