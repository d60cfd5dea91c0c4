"""Flow-level fluid fabric: the ``hybrid`` fidelity tier.

The exact tier dispatches a wake-up :class:`~repro.sim.core.Timeout` per
:class:`~repro.sim.resources.SharedBandwidth` channel per rate change, so
a contended transfer that crosses three channels (NIC egress, bisection,
NIC ingress) costs a handful of heap operations *per channel* — and a
chunked RDMA pull multiplies that by its chunk count. The fluid engine
here generalizes the same virtual-time formulation across the whole
fabric: flows that share a path and weight form a *class* with one
virtual clock, a single max-min fair rate solve covers every class on
every link, and virtual time advances analytically between flow
arrivals/departures — one wake-up for the entire network instead of one
per channel.

Fidelity tiers (selected via :class:`Fidelity`):

- ``exact``   — PR 3 kernel, bit-identical timelines, per-channel events.
- ``hybrid``  — protocol/KVS/DYAD-service events stay exact (their
  timeouts and queues are untouched); bulk byte movement through NICs,
  the bisection, SSD channels, and Lustre OSS disks is delegated to one
  :class:`FluidNetwork`. A multi-channel transfer becomes a single flow
  spanning all its links, rated jointly instead of per channel, and a
  chunked RDMA pull collapses into one weight-``k`` flow (``k`` equal
  chunks sharing a channel receive exactly ``k`` flow-shares, which is
  what a weight-``k`` flow receives — the per-chunk events are pure
  overhead). Fixed latencies (fabric setup+hops, SSD access latency)
  stay a leading Timeout, as on the exact tier.

Rate model. Each class ``c`` has ``n_c`` flows of weight ``w_c`` crossing
link set ``L_c``. The solver performs progressive filling (water-filling)
of the per-weight-unit rate λ: every link ``l`` constrains
``Σ_{c∋l} n_c·w_c·λ_c ≤ bandwidth_l`` and a class's per-slot rate ``λ_c``
is clamped to the smallest ``per_flow_cap`` of its links — a weight-``k``
flow behaves exactly like ``k`` unit flows, caps included. For a single
class on a single link with weight 1 this degenerates to
``min(bandwidth/n, per_flow_cap)`` — the identical arithmetic, in the
identical order, as ``SharedBandwidth`` — so
single-channel fluid timelines match the exact tier to float rounding.

Event economics: mutations (arrivals, ``set_bandwidth``, cap changes,
departures) mark the network dirty and schedule at most one zero-delay
solve *tick* per instant, so a burst of same-instant arrivals is rated
by one solve. Between mutations a single lazily-cancelled wake-up aims
at the earliest virtual finish across all classes.

Validity and tolerances are documented in ``docs/performance.md``; the
differential suite (``tests/sim/test_fluid.py``,
``tests/workflow/test_fidelity.py``) pins single-channel behaviour to
the :class:`~repro.sim.reference.ReferenceSharedBandwidth` oracle and
whole-workflow timings to the exact tier within 1e-3 relative.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.core import _PENDING, Environment, Event, Timeout
from repro.workflow.spec import Fidelity

__all__ = ["Fidelity", "FluidLink", "FluidNetwork"]


class FluidLink:
    """A capacity constraint inside a :class:`FluidNetwork`.

    Duck-compatible with :class:`~repro.sim.resources.SharedBandwidth`
    where the substrates and observability layers touch channels:
    ``transfer`` / ``set_bandwidth`` / ``per_flow_cap`` / ``active_flows``
    / ``bytes_moved`` / ``current_rate`` / ``attach_metrics`` and the
    kernel-health counters read by
    :func:`repro.sim.resources.channel_health`. A link holds no flow
    state of its own beyond aggregates — flows live in the network's
    classes — so ``stale_wakeups_defused`` / ``reschedules`` stay 0 by
    construction (the network keeps one wake-up total, not one per link).
    """

    __slots__ = ("net", "env", "bandwidth", "_per_flow_cap", "_uid",
                 "label", "active_flows", "_bytes_moved",
                 "peak_concurrent_flows", "stale_wakeups_defused",
                 "reschedules", "_metrics", "_m_inflight", "_links_self")

    def __init__(self, net: "FluidNetwork", bandwidth: float,
                 per_flow_cap: Optional[float] = None,
                 label: str = "") -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise ValueError(f"per_flow_cap must be positive, got {per_flow_cap}")
        self.net = net
        self.env = net.env
        self.bandwidth = float(bandwidth)
        self._per_flow_cap = per_flow_cap
        self._uid = net._next_uid()
        self.label = label
        self.active_flows = 0
        self._bytes_moved = 0.0
        self.peak_concurrent_flows = 0
        self.stale_wakeups_defused = 0
        self.reschedules = 0
        self._metrics = None
        self._m_inflight = 0.0
        self._links_self = (self,)

    # -- SharedBandwidth-compatible surface --------------------------------
    @property
    def bytes_moved(self) -> float:
        """Total bytes fully delivered through this link."""
        return self._bytes_moved

    @property
    def per_flow_cap(self) -> Optional[float]:
        """Per-flow rate cap; assignment re-rates live flows mid-stream."""
        return self._per_flow_cap

    @per_flow_cap.setter
    def per_flow_cap(self, cap: Optional[float]) -> None:
        if cap is not None and cap <= 0:
            raise ValueError(f"per_flow_cap must be positive, got {cap}")
        net = self.net
        net._advance()
        self._per_flow_cap = cap
        net._kick()

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the link capacity; live flows re-rate from this instant.

        Same contract as ``SharedBandwidth.set_bandwidth`` (the fault
        layer's degrade/restore path): virtual clocks advance at the old
        rates up to now, the next solve applies the new capacity. Safe
        with zero flows active — the solve tick simply finds no classes.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        net = self.net
        net._advance()
        self.bandwidth = float(bandwidth)
        net._kick()

    def transfer(self, nbytes: float) -> Event:
        """Begin moving ``nbytes`` across this single link."""
        return self.net.transfer(nbytes, self._links_self)

    def current_rate(self) -> float:
        """Approximate per-flow rate right now (``inf`` when idle).

        Links do not know their classes' joint constraints, so this is
        the single-link estimate — exact when this link is the only
        constraint, an upper bound otherwise. Observability only.
        """
        if not self.active_flows:
            return float("inf")
        rate = self.bandwidth / self.active_flows
        if self._per_flow_cap is not None:
            rate = min(rate, self._per_flow_cap)
        return rate

    def attach_metrics(self, timeline, label: str) -> None:
        """Meter as ``{label}.flows`` / ``.bytes_in_flight`` /
        ``.utilization`` gauges — same shape as the exact channel's.

        Pure observation: sampled after solves/completions, never fed
        back into rating.
        """
        self._metrics = (
            timeline.gauge(f"{label}.flows"),
            timeline.gauge(f"{label}.bytes_in_flight"),
            timeline.gauge(f"{label}.utilization"),
        )
        self.net._any_metered = True
        self._sample_metrics(0.0)

    def _sample_metrics(self, consumed: float) -> None:
        flows, inflight, util = self._metrics
        flows.set(float(self.active_flows))
        inflight.set(self._m_inflight)
        util.set(consumed / self.bandwidth)


class _FlowClass:
    """Flows sharing a link set and weight: one virtual clock.

    The per-class state mirrors ``SharedBandwidth`` exactly — a min-heap
    keyed by virtual finish (``V(arrival) + nbytes/weight``), a cumulative
    per-weight-unit service clock ``virtual``, and the solved service
    ``rate`` — except that the rate comes from the network-wide max-min
    solve instead of ``bandwidth/n``.
    """

    __slots__ = ("key", "links", "weight", "heap", "virtual", "rate")

    def __init__(self, key, links: Tuple[FluidLink, ...],
                 weight: float) -> None:
        self.key = key
        self.links = links
        self.weight = weight
        #: ``(virtual_finish, seq, nbytes, done, started)`` tuples —
        #: the unique ``seq`` FIFO tie-break stops heap sifts comparing
        #: payload fields, as in the exact channel.
        self.heap: List = []
        self.virtual = 0.0
        self.rate = 0.0


class FluidNetwork:
    """Network-wide flow-level engine behind the ``hybrid`` tier.

    Owns every :class:`FluidLink` it creates via :meth:`link` and every
    in-flight flow. Admission (:meth:`transfer`) groups flows into
    :class:`_FlowClass` buckets; all rating happens in :meth:`_solve`
    (progressive filling) and all time-keeping in :meth:`_advance`
    (analytic virtual-clock epochs). ``fluid_epochs`` / ``rate_solves``
    are the kernel-health counters surfaced through ``system_stats``
    alongside the exact tier's ``channel_*`` numbers.
    """

    #: Same completion residue (in bytes of per-weight-unit service) as
    #: ``SharedBandwidth._RESIDUE`` — and for the same reason: a wake-up
    #: lands at the *projected* finish instant, so float rounding leaves
    #: nanobyte remainders that must count as done or the network spins.
    _RESIDUE = 1e-6

    __slots__ = ("env", "_classes", "_seq", "_uid_counter", "_last_update",
                 "_dirty", "_tick", "_tick_cb", "_wake", "_wake_cb",
                 "_any_metered", "fluid_epochs", "rate_solves",
                 "flows_admitted", "flows_completed")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._classes: Dict[tuple, _FlowClass] = {}
        self._seq = 0
        self._uid_counter = 0
        self._last_update = env.now
        self._dirty = False
        self._tick = None  # the pending zero-delay solve tick, if any
        self._tick_cb = self._on_tick  # bound once
        self._wake = None  # the single live wake-up Timeout, if any
        self._wake_cb = self._on_wake  # bound once
        self._any_metered = False
        # kernel-health counters (surfaced via system_stats)
        self.fluid_epochs = 0
        self.rate_solves = 0
        self.flows_admitted = 0
        self.flows_completed = 0

    def _next_uid(self) -> int:
        uid = self._uid_counter
        self._uid_counter = uid + 1
        return uid

    def link(self, bandwidth: float, per_flow_cap: Optional[float] = None,
             label: str = "") -> FluidLink:
        """Create a capacity constraint managed by this network."""
        return FluidLink(self, bandwidth, per_flow_cap, label)

    @property
    def active_flows(self) -> int:
        """Number of in-flight flows across all classes."""
        return sum(len(c.heap) for c in self._classes.values())

    # -- admission ----------------------------------------------------------
    def transfer(self, nbytes: float, links, weight: float = 1.0,
                 _new=Event.__new__, _cls=Event,
                 _push=_heappush) -> Event:
        """Begin moving ``nbytes`` across ``links`` jointly; returns the
        completion event (value: elapsed time).

        ``links`` is the ordered set of :class:`FluidLink` constraints the
        flow must traverse simultaneously (NIC egress + bisection + NIC
        ingress, say). ``weight`` makes the flow count as ``weight``
        flow-slots in max-min sharing and move bytes at ``weight`` times
        the per-slot rate; the links' ``per_flow_cap`` bounds each slot
        (a weight-``k`` flow may reach ``k·cap`` aggregate, exactly like
        ``k`` unit flows each capped at ``cap``), so ``k`` equal chunks
        collapse into one weight-``k`` flow with the same completion time
        and the same contention footprint.
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
        now = env._now
        if nbytes == 0:
            # Metadata-only op: completes instantly, occupying no links.
            done._ok = True
            done._value = 0.0
            eseq = env._seq
            env._seq = eseq + 1
            _push(env._heap, (now, 1, eseq, done))  # 1 == NORMAL
            return done
        self._advance()
        key = (tuple(link._uid for link in links), weight)
        cls = self._classes.get(key)
        if cls is None:
            cls = _FlowClass(key, tuple(links), weight)
            self._classes[key] = cls
        seq = self._seq
        self._seq = seq + 1
        _push(cls.heap, (cls.virtual + nbytes / weight, seq, nbytes,
                         done, now))
        metered = self._any_metered
        for link in cls.links:
            n = link.active_flows = link.active_flows + 1
            if n > link.peak_concurrent_flows:
                link.peak_concurrent_flows = n
            if metered and link._metrics is not None:
                link._m_inflight += nbytes
        self.flows_admitted += 1
        self._kick()
        return done

    # -- mutation plumbing ---------------------------------------------------
    def _kick(self, _tnew=Timeout.__new__, _tcls=Timeout,
              _push=_heappush) -> None:
        """Mark rates stale; ensure one zero-delay solve tick this instant.

        Every mutation funnels through here, so a same-instant burst of
        arrivals/departures/``set_bandwidth`` calls is rated by a single
        :meth:`_solve` when the tick dispatches.
        """
        self._dirty = True
        tick = self._tick
        if tick is not None and tick.callbacks is not None:
            return  # a solve is already pending at this instant
        env = self.env
        tick = _tnew(_tcls)  # keep in sync with Environment.timeout
        tick.env = env
        tick.callbacks = [self._tick_cb]
        tick._ok = True
        tick._value = None
        tick._defused = False
        tick.delay = 0.0
        tseq = env._seq
        env._seq = tseq + 1
        _push(env._heap, (env._now, 1, tseq, tick))  # 1 == NORMAL
        self._tick = tick

    def _on_tick(self, _event: Event) -> None:
        """Zero-delay solve tick: re-rate if anything actually changed."""
        self._tick = None
        self._advance()
        if self._dirty:
            self._solve()
            self._aim()

    def _on_wake(self, _event: Event) -> None:
        """Projected-finish wake-up: advance, complete, re-solve, re-aim."""
        self._wake = None
        self._advance()
        if self._dirty:
            self._solve()
        self._aim()

    # -- time-keeping --------------------------------------------------------
    def _advance(self, _pop=_heappop, _push=_heappush) -> None:
        """Advance every class's virtual clock analytically; pop finishers.

        One *epoch* covers the whole interval since the last update — no
        intermediate events were needed because rates are constant between
        mutations. Departures mark the network dirty (they free capacity)
        and empty classes are dropped, re-anchoring their virtual clocks
        at zero exactly like the exact channel's idle re-anchor.
        """
        env = self.env
        now = env._now
        classes = self._classes
        if not classes:
            self._last_update = now
            return
        elapsed = now - self._last_update
        if elapsed <= 0.0:
            # Same-instant re-entry (admission bursts funnel through here
            # once per arrival): virtual clocks have not moved, so no flow
            # can have matured since the last scan — skipping it makes a
            # 10k-flow burst O(n) instead of O(n * classes). Sub-residue
            # flows admitted mid-instant mature via the min-step wake-up.
            return
        self._last_update = now
        self.fluid_epochs += 1
        for c in classes.values():
            c.virtual += c.rate * elapsed
        residue = self._RESIDUE
        metered = self._any_metered
        emptied = None
        env_heap = env._heap
        for c in classes.values():
            heap = c.heap
            virtual = c.virtual
            if heap[0][0] - virtual > residue:
                continue
            links = c.links
            while heap and heap[0][0] - virtual <= residue:
                _key, _fseq, fbytes, fin, started = _pop(heap)
                if fin._value is not _PENDING:  # as Event.succeed would
                    raise SimulationError(f"{fin!r} already triggered")
                fin._ok = True
                fin._value = now - started
                eseq = env._seq
                env._seq = eseq + 1
                _push(env_heap, (now, 1, eseq, fin))  # 1 == NORMAL
                for link in links:
                    link.active_flows -= 1
                    link._bytes_moved += fbytes
                    if metered and link._metrics is not None:
                        link._m_inflight -= fbytes
                self.flows_completed += 1
            self._dirty = True
            if not heap:
                if emptied is None:
                    emptied = []
                emptied.append(c.key)
        if emptied is not None:
            for key in emptied:
                del classes[key]

    # -- rating --------------------------------------------------------------
    def _solve(self) -> None:
        """Max-min fair rates via progressive filling over all classes.

        Per-weight-unit rate λ_c: each unfrozen class is raised uniformly
        until either a link saturates (every class crossing it freezes at
        the bottleneck share) or its links' cap binds. The single-class path
        is special-cased to reproduce ``SharedBandwidth``'s arithmetic —
        ``bandwidth / load`` then cap clamp, in that order — which keeps
        single-channel fluid timelines bit-comparable with the exact tier.
        """
        self.rate_solves += 1
        self._dirty = False
        classes = self._classes
        if not classes:
            return
        if len(classes) == 1:
            (c,) = classes.values()
            links = c.links
            load = len(c.heap) * c.weight
            rate = links[0].bandwidth / load
            cap = None
            for link in links:
                r = link.bandwidth / load
                if r < rate:
                    rate = r
                lc = link._per_flow_cap
                if lc is not None and (cap is None or lc < cap):
                    cap = lc
            if cap is not None and cap < rate:
                rate = cap
            c.rate = rate
            if self._any_metered:
                self._sample_metered()
            return
        remaining: Dict[FluidLink, float] = {}
        load: Dict[FluidLink, float] = {}
        entries = []  # [class, weight_total, per-weight-unit cap]
        for c in classes.values():
            wtot = len(c.heap) * c.weight
            cap = None
            for link in c.links:
                lc = link._per_flow_cap
                if lc is not None and (cap is None or lc < cap):
                    cap = lc
                if link in remaining:
                    load[link] += wtot
                else:
                    remaining[link] = link.bandwidth
                    load[link] = wtot
            entries.append((c, wtot, cap))
        unfrozen = entries
        while unfrozen:
            lam = None
            for link, w in load.items():
                if w > 1e-12:
                    share = remaining[link] / w
                    if lam is None or share < lam:
                        lam = share
            for _c, _w, cap_eff in unfrozen:
                if cap_eff is not None and (lam is None or cap_eff < lam):
                    lam = cap_eff
            if lam is None or lam < 0.0:
                lam = 0.0
            # Relative threshold: freeze anything within rounding of the
            # binding constraint, or float drift never empties the set.
            thresh = lam + lam * 1e-12
            still = []
            for entry in unfrozen:
                c, wtot, cap_eff = entry
                if cap_eff is not None and cap_eff <= thresh:
                    rate = cap_eff
                else:
                    for link in c.links:
                        w = load[link]
                        if w > 1e-12 and remaining[link] / w <= thresh:
                            rate = lam
                            break
                    else:
                        still.append(entry)
                        continue
                c.rate = rate
                take = rate * wtot
                for link in c.links:
                    rem = remaining[link] - take
                    remaining[link] = rem if rem > 0.0 else 0.0
                    load[link] -= wtot
            if len(still) == len(unfrozen):
                # No constraint froze anything (degenerate rounding):
                # everything left is effectively at the waterline.
                for c, wtot, cap_eff in still:
                    rate = lam if cap_eff is None or lam < cap_eff else cap_eff
                    c.rate = rate
                    take = rate * wtot
                    for link in c.links:
                        rem = remaining[link] - take
                        remaining[link] = rem if rem > 0.0 else 0.0
                        load[link] -= wtot
                break
            unfrozen = still
        if self._any_metered:
            self._sample_metered()

    def _sample_metered(self) -> None:
        """Push per-link consumed-bandwidth gauges (observability only)."""
        consumed: Dict[FluidLink, float] = {}
        for c in self._classes.values():
            take = c.rate * len(c.heap) * c.weight
            for link in c.links:
                consumed[link] = consumed.get(link, 0.0) + take
        seen = set()
        for c in self._classes.values():
            for link in c.links:
                if link._metrics is not None and link._uid not in seen:
                    seen.add(link._uid)
                    link._sample_metrics(consumed.get(link, 0.0))

    # -- aiming --------------------------------------------------------------
    def _aim(self, _tnew=Timeout.__new__, _tcls=Timeout,
             _push=_heappush) -> None:
        """Re-aim the single wake-up at the earliest projected finish."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            if wake.callbacks is not None:  # inlined Event.cancel()
                wake.callbacks = None
        classes = self._classes
        if not classes:
            return
        eta = None
        for c in classes.values():
            rate = c.rate
            if rate <= 0.0:
                continue  # starved class: re-rated at the next mutation
            t = (c.heap[0][0] - c.virtual) / rate
            if eta is None or t < eta:
                eta = t
        if eta is None:
            return
        env = self.env
        now = env._now
        # A wake-up must land strictly after `now` in float arithmetic —
        # same clamp, same branchy spelling as the exact channel.
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
