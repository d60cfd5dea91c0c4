"""Event loop, events, and coroutine processes for the DES kernel.

Design notes
------------
The kernel follows the classic event-list architecture: a binary heap of
``(time, priority, sequence, event)`` entries. Determinism matters more than
raw speed here — simultaneous events are ordered by priority then by
scheduling sequence, so two runs with the same seeds produce bit-identical
timelines. That determinism is what makes the experiment suite and the
hypothesis tests reproducible.

A :class:`Process` wraps a generator. The generator yields :class:`Event`
objects; when an event fires, the process resumes with the event's value (or
has the event's exception thrown into it). A process is itself an event that
fires when the generator returns, so processes can wait on each other.

Hot-path engineering (see ``docs/performance.md``)
--------------------------------------------------
Every I/O model in this reproduction bottoms out in ``env.timeout()``, so the
kernel is tuned for exactly that call:

- all event classes use ``__slots__`` (no per-event ``__dict__``);
- the schedule sequence is a plain integer incremented inline instead of an
  ``itertools.count`` call, and ``heapq.heappush``/``heappop`` are bound at
  module level;
- :meth:`Environment.timeout` builds the :class:`Timeout` without running the
  ``__init__`` chain and pushes the heap entry directly (an object *pool* was
  evaluated and rejected: user code may keep references to fired timeouts, so
  reuse could silently corrupt a later run's determinism);
- :meth:`Environment.run` inlines the dispatch loop instead of calling
  :meth:`step` per event;
- :class:`AllOf` builds and triggers inline, pushing the same heap entry
  (same ``_seq``) :meth:`Event.succeed` would, and a :class:`Process`
  binds its ``_resume`` callback once, not per wait.

Heap entries deliberately stay plain tuples: tuple comparison happens in C
during heap sifts, whereas comparing event objects via ``__lt__`` would call
back into the interpreter on every sift step. The sequence number keeps
entries unique, so the trailing event object is never compared. All of this
preserves the exact event ordering of the straightforward implementation —
the determinism tests assert serial/parallel/optimized runs are bit-identical.

Scheduled events support *lazy cancellation* (:meth:`Event.cancel`): the
heap entry stays in place, but the dispatcher skips it without invoking
callbacks. Removing an arbitrary entry from a binary heap is O(n); the
lazy scheme makes cancellation O(1) at the cost of a single ``is None``
test per dispatched event. The virtual-time bandwidth channels
(:class:`repro.sim.resources.SharedBandwidth`) rely on this to retire a
stale wake-up whenever their flow set changes — previously every such
re-schedule orphaned a live :class:`Timeout` whose callback still fired,
only to discover its epoch was stale.

Failure semantics
-----------------
A *failed* event must never vanish silently. When a failed event is
dispatched, the kernel re-raises its exception out of the event loop unless
some callback *defused* it — i.e. consciously consumed the failure. A
:class:`Process` defuses any failed event it was waiting on (the exception is
thrown into the generator instead), and a pending condition defuses a failed
sub-event by failing itself. A crashed process nobody waits on, or a
sub-event failing after its condition already triggered, therefore surfaces
instead of being dropped.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import DeadlockError, SimulationError, StallError

__all__ = ["Environment", "Event", "Timeout", "Process", "AllOf"]

# Priorities for simultaneous events: a new process's start (urgent) fires
# before the normal events scheduled at the same time.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A happening that processes can wait for.

    An event starts *pending*, becomes *triggered* once scheduled with a
    value or an exception, and is *processed* after its callbacks ran.
    Callbacks are ``fn(event)`` callables; :class:`Process` registers its
    ``_resume`` bound method as a callback.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True once a callback consumed this event's failure."""
        return self._defused

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by raising ``exception`` in waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=delay)
        return self

    def cancel(self) -> bool:
        """Lazily cancel a triggered-but-unprocessed event.

        The heap entry stays where it is; the dispatcher skips it without
        invoking callbacks (the event then reads as *processed*). Only
        valid for events nobody waits on — cancelling an event with
        registered waiters would strand them, so the owner must guarantee
        it holds the only interest (the bandwidth channels' internal
        wake-ups satisfy this by construction). Returns ``True`` if the
        event was live, ``False`` if it had already been processed.
        """
        if self._value is _PENDING:
            raise SimulationError("cannot cancel an untriggered event")
        if self.callbacks is None:
            return False
        self.callbacks = None
        return True

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    The hot construction path is :meth:`Environment.timeout`, which builds
    the instance without running this ``__init__``; keep the two in sync.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._schedule(self, delay=delay)


class Initialize(Event):
    """Internal: kicks off a freshly created process at the current time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume_cb]
        self._ok = True
        self._value = None
        self._defused = False
        env._schedule(self, priority=URGENT)


class Process(Event):
    """A running simulated activity wrapping a generator.

    The process is an event that triggers when the generator finishes; its
    value is the generator's return value. ``yield`` an :class:`Event` from
    inside the generator to wait for it.
    """

    __slots__ = ("_generator", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # Bound once: every wait appends this same callback. Cleared when
        # the generator finishes, which breaks the process -> method cycle.
        self._resume_cb: Optional[Callable[[Event], None]] = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    # -- machinery ---------------------------------------------------------
    def _resume(self, event: Event, _timeout_cls=Timeout) -> None:
        # _timeout_cls pre-binds the global as a local; never pass it.
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    # We consume the failure by throwing it into the
                    # generator; it no longer needs to surface from the
                    # event loop (the generator may legitimately catch it).
                    event._defused = True
                    target = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._resume_cb = None
                env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._resume_cb = None
                env._schedule(self)
                break

            if target.__class__ is not _timeout_cls and not isinstance(target, Event):
                exc = SimulationError(
                    f"process yielded non-event {target!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue  # throw into generator on next loop
            if target.env is not env:
                exc = SimulationError("event belongs to another Environment")
                event = Event(env)
                event._ok = False
                event._value = exc
                continue

            if target.callbacks is not None:
                # Event still pending / not processed: wait for it.
                target.callbacks.append(self._resume_cb)
                break
            # Already processed: resume synchronously with its value.
            event = target


class ConditionValue(dict):
    """Mapping of event -> value returned by :class:`AllOf`."""


class AllOf(Event):
    """Fires when *all* sub-events fired; fails fast on the first failure.

    Construction and triggering are inlined (no ``Event.__init__`` or
    ``succeed`` call chain): every I/O transfer waits on an
    :class:`AllOf`. A sub-event failing *after* the condition already
    triggered is not consumed here — it surfaces from the event loop
    (nobody is listening anymore, and silently dropping a crash would
    hide bugs).
    """

    __slots__ = ("_events", "_unfired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._events = evs = list(events)
        for ev in evs:
            if ev.env is not env:
                raise SimulationError("event belongs to another Environment")
        self._unfired = len(evs)
        check = self._check  # bound once for every sub-event
        for ev in evs:
            callbacks = ev.callbacks
            if callbacks is None:
                check(ev)
            else:
                callbacks.append(check)
        if not evs:
            self._trigger()

    def _trigger(self, _push=_heappush) -> None:
        """Succeed with the fired sub-events, exactly as ``succeed`` would."""
        value = ConditionValue()
        for ev in self._events:
            if ev.callbacks is None:
                value[ev] = ev._value
        self._ok = True
        self._value = value
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        _push(env._heap, (env._now, NORMAL, seq, self))

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._unfired -= 1
        if self._unfired <= 0:
            self._trigger()


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    __slots__ = ("_now", "_heap", "_seq")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: List = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                _new=Timeout.__new__, _cls=Timeout, _push=_heappush) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now.

        This is the dominant allocation of every I/O model, so the instance
        is built inline (no ``__init__`` chain) and scheduled directly; the
        trailing defaults pre-bind globals as locals — do not pass them.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        timeout = _new(_cls)
        timeout.env = self
        timeout.callbacks = []
        timeout._ok = True
        timeout._value = value
        timeout._defused = False
        timeout.delay = delay
        seq = self._seq
        self._seq = seq + 1
        _push(self._heap, (self._now + delay, 1, seq, timeout))  # 1 == NORMAL
        return timeout

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self._now + delay, priority, seq, event))

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`repro.errors.DeadlockError` when the heap is empty.
        """
        if not self._heap:
            raise DeadlockError("no scheduled events")
        when, _prio, _seq, event = _heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event.callbacks
        if callbacks is None:
            return  # lazily cancelled; skip without invoking anything
        event.callbacks = None  # mark processed
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event (including a crashed process) that no callback
            # consumed would silently vanish; surface it so bugs do not hide.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches it), or an :class:`Event` (run until it
        fires, returning its value). Running until a number never raises
        :class:`DeadlockError`; an empty heap simply advances the clock.
        """
        if until is None:
            # Inlined dispatch loop — identical semantics to step(), minus
            # the per-event method call. Scheduling rejects negative delays,
            # so the monotonic-clock guard of step() cannot trip here.
            heap = self._heap
            while heap:
                when, _prio, _seq, event = _heappop(heap)
                self._now = when
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # lazily cancelled (Event.cancel)
                event.callbacks = None  # mark processed
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return None
        if isinstance(until, Event):
            result: List[Any] = []

            def _capture(ev: Event) -> None:
                # run() re-raises a failed target itself below; mark the
                # failure as consumed so the dispatch loop defers to us.
                ev._defused = True
                result.append(ev)

            if until.callbacks is None:
                if not until._ok:
                    raise until._value
                return until._value
            until.callbacks.append(_capture)
            while not result:
                if not self._heap:
                    raise DeadlockError(
                        "simulation ran out of events before target fired"
                    )
                self.step()
            if not until._ok:
                raise until._value
            return until._value
        # numeric horizon
        horizon = float(until)
        if horizon < self._now:
            raise ValueError("cannot run backwards in time")
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            when, _prio, _seq, event = _heappop(heap)
            self._now = when
            callbacks = event.callbacks
            if callbacks is None:
                continue  # lazily cancelled (Event.cancel)
            event.callbacks = None  # mark processed
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        self._now = horizon
        return None

    def run_guarded(self, max_events: Optional[int] = None,
                    max_time: Optional[float] = None,
                    detail: Optional[Callable[[], str]] = None) -> None:
        """Run until no events remain, under a stall watchdog.

        Faulty runs (see :mod:`repro.faults`) can deadlock or spin when a
        recovery loop never converges — e.g. a retry storm with zero-delay
        backoff, or a restore event that a buggy plan never schedules.
        This loop dispatches events exactly like :meth:`run` (determinism
        tests assert bit-identity) but raises a diagnosable
        :class:`repro.errors.StallError` once ``max_events`` events have
        been dispatched or the clock passes ``max_time``, instead of
        spinning forever or silently returning incomplete results.

        ``detail``, when given, is called only at StallError time and its
        string is appended to the watchdog message — callers use it to
        name domain-level occupancy (which process holds which credit,
        which watch is armed) without the kernel knowing about any of it.

        The guarded loop lives off the hot path on purpose: fault-free
        campaigns keep the tuned :meth:`run` dispatch loop.
        """
        def _suffix() -> str:
            if detail is None:
                return ""
            text = detail()
            return f" — {text}" if text else ""

        heap = self._heap
        events = 0
        while heap:
            if max_time is not None and heap[0][0] > max_time:
                raise StallError(
                    f"stall watchdog: next event at t={heap[0][0]:.6g}s is "
                    f"past the horizon of {max_time:.6g}s after {events} "
                    f"events ({len(heap)} still scheduled) — recovery is "
                    f"not converging{_suffix()}"
                )
            if max_events is not None and events >= max_events:
                raise StallError(
                    f"stall watchdog: event budget of {max_events} "
                    f"exhausted at t={self._now:.6g}s "
                    f"({len(heap)} still scheduled) — the run is spinning "
                    f"without completing{_suffix()}"
                )
            events += 1
            when, _prio, _seq, event = _heappop(heap)
            self._now = when
            callbacks = event.callbacks
            if callbacks is None:
                continue  # lazily cancelled (Event.cancel)
            event.callbacks = None  # mark processed
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value
        return None
