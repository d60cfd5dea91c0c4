"""Streaming transport: per-frame pipelines with bounded backpressure.

The paper compares DYAD against coarse barriers and stat()-polling; the
natural follow-up (PAPERS.md: openPMD/ADIOS2 streaming pipelines) is a
per-frame *streaming* sync mode. This module holds the transport behind
the three streaming variants of :class:`~repro.workflow.spec.SyncMode`;
:func:`repro.workflow.topology.spawn_topology` wires it into every
producer→consumer edge for every system under test:

- **windowed** — ADIOS2-SST-style: the producer publishes frame *i* as
  soon as it lands, but a bounded in-flight window of ``W`` frames with
  credit-based backpressure blocks it when the consumer falls behind.
  Frame-availability notifications ride an in-memory side channel (the
  same zero-cost idiom as the coarse barrier's :class:`Signal`); DYAD
  keeps its own KVS-based discovery and uses the channel for credits
  only.
- **pubsub** — per-frame pub/sub over the KVS watch machinery: the
  consumer *subscribes* (arms a watch) for every frame instead of the
  lookup-then-watch first-touch protocol, paying the registration RPC
  and notification push per frame. POSIX runs get a dedicated KVS broker
  on node 0 as the control plane.
- **nbuffer** — classic double buffering: the ``W=2`` special case of
  the windowed transport on node-local staging.

Every per-edge transport is a :class:`StreamChannel`: the credit window,
the notification plane, and the fault surface the injector composes with
(``hold_notifications`` queues wake-ups like a crashed notifier,
``hold_returns`` defers credit returns like a partitioned control link —
both flush on release, exercising the lost-wakeup and credit-leak
recovery paths). The channel reports every credit movement to the
:class:`~repro.invariants.InvariantChecker` flow-control family and can
describe its occupancy (credits held, armed watches, blocked producer)
for cycle-naming :class:`~repro.errors.StallError` diagnosis — see
``docs/streaming.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.errors import StallError
from repro.sim.core import Environment, Event
from repro.workflow.spec import WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.invariants import InvariantChecker

__all__ = [
    "StreamChannel",
    "flow_occupancy",
    "default_liveness_horizon",
    "stream_key",
    "BACKPRESSURE_REGION",
    "STREAM_WAIT_REGION",
]

#: Producer idle region: blocked on window credits (backpressure).
BACKPRESSURE_REGION = "stream_backpressure"
#: Consumer idle region: waiting for the next frame's availability event.
STREAM_WAIT_REGION = "stream_wait_frame"


def stream_key(pair: int, frame: int) -> str:
    """Pub/sub control-plane key of one frame of one pair."""
    return f"stream/pair{pair:04d}/frame{frame:05d}"


def default_liveness_horizon(spec: WorkflowSpec) -> float:
    """Generous backpressure-liveness bound derived from the workload.

    A legitimate backpressure block lasts about one consumer iteration;
    the default horizon allows the *whole* serial workload plus a floor,
    so only a genuinely wedged window (or a crafted tight horizon via
    :class:`~repro.invariants.InvariantConfig`) trips the invariant.
    """
    return 60.0 + 100.0 * spec.frames * max(spec.stride_time, 1e-3)


class StreamChannel:
    """One pair's streaming transport: credit window + notification plane.

    Pure bookkeeping plus :class:`~repro.sim.core.Event` parking — the
    channel never advances simulated time by itself, so healthy streaming
    runs stay bit-reproducible. Consumer waits use the classic
    condition-variable re-check loop, which is what makes the channel
    tolerate duplicate, spurious, and (after a ``hold``) redelivered
    wake-ups without double-consuming a frame.
    """

    def __init__(
        self,
        env: Environment,
        pair: int,
        window: int,
        producer_role: str,
        consumer_role: str,
        producer_node: str,
        consumer_node: str,
        checker: Optional["InvariantChecker"] = None,
        liveness_horizon: Optional[float] = None,
    ) -> None:
        self.env = env
        self.pair = pair
        self.window = window
        self.producer_role = producer_role
        self.consumer_role = consumer_role
        self.producer_node = producer_node
        self.consumer_node = consumer_node
        self.checker = checker
        self.liveness_horizon = liveness_horizon
        # -- credit window state --
        self._free = window
        self._credit_waiters: List[Event] = []
        self._holders: Dict[int, float] = {}   # frame -> credit issue time
        self._blocked_since: Optional[float] = None
        # -- notification plane state --
        self._delivered = set()                # frames whose wake-up fired
        self._undelivered: List[int] = []      # published while plane down
        self._frame_waiters: List[Tuple[int, Event]] = []
        # -- fault-composition holds (refcounted by the injector) --
        self._notify_holds = 0
        self._return_holds = 0
        self._deferred: List[int] = []         # returns queued while held
        # -- counters (surfaced as stream_* system stats) --
        self.credits_issued = 0
        self.credits_returned = 0
        self.peak_in_flight = 0
        self.producer_blocks = 0
        self.blocked_time = 0.0
        self.spurious_wakeups = 0
        self.lost_wakeups = 0
        self.redeliveries = 0
        self.deferred_return_count = 0

    # -- producer side -------------------------------------------------------
    def acquire_credit(self, frame: int) -> Generator:
        """Generator: block until a window credit frees; returns wait secs."""
        start = self.env.now
        if self._free == 0:
            self.producer_blocks += 1
            self._blocked_since = start
        while self._free == 0:
            event = Event(self.env)
            self._credit_waiters.append(event)
            yield event
        if self._blocked_since is not None:
            waited = self.env.now - start
            self.blocked_time += waited
            self._blocked_since = None
            if self.checker is not None:
                self.checker.producer_unblocked(
                    self.producer_role, self.pair, waited,
                    self.liveness_horizon,
                )
        self._free -= 1
        self.credits_issued += 1
        self._holders[frame] = self.env.now
        in_flight = self.credits_issued - self.credits_returned
        if in_flight > self.peak_in_flight:
            self.peak_in_flight = in_flight
        if self.checker is not None:
            self.checker.credit_issued(
                self.producer_role, self.pair, frame, in_flight, self.window
            )
        return self.env.now - start

    def publish(self, frame: int) -> None:
        """The producer committed ``frame``: fire (or queue) its wake-up."""
        if self._notify_holds > 0:
            # The notification plane is down (crashed service / partitioned
            # side channel): the wake-up that should fire now is lost and
            # will be redelivered when the plane comes back.
            self._undelivered.append(frame)
            self.lost_wakeups += 1
            return
        self._deliver(frame)

    def _deliver(self, frame: int) -> None:
        self._delivered.add(frame)
        # Broadcast: every parked watcher re-checks its own frame (the
        # condition loop in wait_frame absorbs foreign/duplicate wakes).
        waiters, self._frame_waiters = self._frame_waiters, []
        for _frame, event in waiters:
            event.succeed(frame)

    # -- consumer side -------------------------------------------------------
    def wait_frame(self, frame: int) -> Generator:
        """Generator: park until ``frame`` has been delivered."""
        while frame not in self._delivered:
            event = Event(self.env)
            self._frame_waiters.append((frame, event))
            yield event
            if frame not in self._delivered:
                # A redelivery or a foreign frame's broadcast woke us:
                # tolerated by re-checking and re-parking.
                self.spurious_wakeups += 1

    def release_credit(self, frame: int) -> None:
        """The consumer finished ``frame``: return its window credit."""
        if self._return_holds > 0:
            # The credit-return path is down: the credit leaks until the
            # hold lifts (the producer keeps blocking — detection — and
            # the flush below is the recovery).
            self._deferred.append(frame)
            self.deferred_return_count += 1
            return
        self._apply_return(frame)

    def _apply_return(self, frame: int) -> None:
        self._holders.pop(frame, None)
        self._free += 1
        self.credits_returned += 1
        if self.checker is not None:
            self.checker.credit_returned(
                self.consumer_role, self.pair, frame,
                self.credits_issued, self.credits_returned,
                len(self._holders),
            )
        waiters, self._credit_waiters = self._credit_waiters, []
        for event in waiters:
            event.succeed(frame)

    # -- fault surface (composed by the injector, refcounted) ----------------
    def hold_notifications(self) -> None:
        """Notification plane down: publishes queue instead of firing."""
        self._notify_holds += 1

    def release_notifications(self) -> None:
        """Plane restored: redeliver every queued wake-up (recovery)."""
        self._notify_holds -= 1
        if self._notify_holds == 0 and self._undelivered:
            pending, self._undelivered = self._undelivered, []
            for frame in pending:
                self.redeliveries += 1
                self._deliver(frame)

    def hold_returns(self) -> None:
        """Credit-return path down: returns defer (credits leak)."""
        self._return_holds += 1

    def release_returns(self) -> None:
        """Return path restored: flush deferred returns (recovery)."""
        self._return_holds -= 1
        if self._return_holds == 0 and self._deferred:
            pending, self._deferred = self._deferred, []
            for frame in pending:
                self._apply_return(frame)

    # -- diagnosis -----------------------------------------------------------
    def armed_watches(self) -> List[int]:
        """Frames with a consumer watch currently armed."""
        return sorted(frame for frame, _event in self._frame_waiters)

    def undelivered_frames(self) -> List[int]:
        """Published frames whose wake-up is still queued (plane down)."""
        return list(self._undelivered)

    def deferred_returns(self) -> List[int]:
        """Consumed frames whose credit return is still deferred."""
        return list(self._deferred)

    def occupancy(self) -> str:
        """One-line window state naming who holds what (StallError detail)."""
        held = sorted(self._holders)
        in_flight = self.credits_issued - self.credits_returned
        parts = [f"pair{self.pair}: {in_flight}/{self.window} credit(s) in flight"]
        if held:
            shown = ",".join(str(f) for f in held[:6])
            parts.append(
                f"credit(s) held for frame(s) {shown} awaiting return by "
                f"{self.consumer_role}"
            )
        if self._blocked_since is not None:
            parts.append(
                f"{self.producer_role} blocked "
                f"{self.env.now - self._blocked_since:.6g}s awaiting a credit"
            )
        armed = self.armed_watches()
        if armed:
            shown = ",".join(str(f) for f in armed[:6])
            parts.append(
                f"{self.consumer_role} watch armed on frame(s) {shown}"
            )
        if self._undelivered:
            parts.append(
                f"{len(self._undelivered)} wake-up(s) queued undelivered"
            )
        if self._deferred:
            parts.append(
                f"{len(self._deferred)} credit return(s) deferred"
            )
        return ", ".join(parts)


def flow_occupancy(channels: List[StreamChannel]) -> str:
    """Join every channel's occupancy line (guarded-run diagnosis)."""
    return "; ".join(channel.occupancy() for channel in channels)


def raise_if_stalled(env: Environment, processes, channels: List[StreamChannel],
                     reason: str) -> None:
    """Raise a cycle-naming :class:`StallError` if any process is stuck.

    The heap draining with streaming processes still parked is a
    flow-control deadlock (leaked credit, lost wake-up with no recovery);
    the message names the cycle — who is blocked, who holds which credit,
    which watch is armed — instead of timing out.
    """
    stuck = [role for role, proc in processes if proc.is_alive]
    if not stuck:
        return
    raise StallError(
        f"streaming deadlock at t={env.now:.6g}s ({reason}): "
        f"{len(stuck)} process(es) stuck [{', '.join(stuck)}] — "
        f"window state: {flow_occupancy(channels)}"
    )
