"""Workflow correctness invariants, checked live during every run.

The paper's argument rests on DYAD moving *the right bytes* faster — so
the simulator must be able to prove it never lies under faults, not just
that it degrades believably. This module is that proof obligation: a
pure-bookkeeping :class:`InvariantChecker` the workflow runner threads
through every producer/consumer process. It adds **zero simulated time**
and takes no event-path decisions, so a clean run with checking on is
bit-identical to one with checking off (asserted by the fingerprint
fixtures).

The invariant catalogue:

- **conservation** — every consumed frame carries exactly the bytes its
  producer committed (torn writes and short reads violate this);
- **exactly-once** — each consumer consumes each of its frames exactly
  once: no duplicates at consume time, no gaps at drain;
- **causality** — no consumer read completes before the matching commit
  (the KVS publish for DYAD, the completed write for POSIX);
- **integrity** — no consumer keeps a payload a corruption window
  damaged (checked paths re-fetch; unchecked ones trip this);
- **drain** — at workflow completion no lock is still held and no
  channel has in-flight flows (leaked resources);
- **monotonic-time** — per-process simulation time never runs backwards
  (a kernel self-check; every report observes the clock).

Streaming runs (see :mod:`repro.workflow.streaming`) add the
*flow-control* family:

- **credit-conservation** — window credits issued minus credits returned
  always equals the credits currently held (a leaked or double-returned
  credit violates this);
- **bounded-window** — the number of in-flight frames never exceeds the
  declared window W;
- **backpressure-liveness** — a producer blocked on backpressure must be
  unblocked within the declared horizon (a producer that *never*
  unblocks is caught at drain by the runner's cycle-naming
  :class:`~repro.errors.StallError` instead);
- **stream-drain** — at completion every credit is returned, no watch is
  still armed, and no published frame is still undelivered.

Violations are collected as human-readable strings and, when the
checker is fatal (the default), raised immediately as
:class:`~repro.errors.InvariantViolation` so a chaos repro fails loudly
at the first lie instead of producing silently-wrong metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvariantViolation

__all__ = ["InvariantConfig", "InvariantChecker"]


@dataclass(frozen=True)
class InvariantConfig:
    """How a run's invariant checker behaves.

    Frozen and ``repr``-stable so it participates in the result-cache
    content hash: runs with different checking regimes never alias.

    Attributes
    ----------
    enabled:
        Master switch. Off = the "unchecked legacy consumer" mode: no
        observations, no violations, ``invariant_checks == 0``.
    fatal:
        When True (default) the first violation raises
        :class:`~repro.errors.InvariantViolation`; when False violations
        are recorded and the run continues — the chaos harness uses this
        to collect *all* lies a fault plan induces.
    liveness_horizon:
        Backpressure-liveness bound in simulated seconds: a streaming
        producer blocked on a window credit for longer than this (and
        later unblocked) violates *backpressure-liveness*. ``None``
        (default) lets the workflow runner derive a generous horizon
        from the spec; non-streaming runs ignore it.
    """

    enabled: bool = True
    fatal: bool = True
    liveness_horizon: Optional[float] = None


class InvariantChecker:
    """Collects invariant observations from one workflow run.

    All methods are plain Python bookkeeping — no generator, no timeout,
    no RNG draw — so threading the checker through a run cannot perturb
    the simulation.
    """

    def __init__(self, env, config: Optional[InvariantConfig] = None) -> None:
        self.env = env
        self.config = config or InvariantConfig()
        #: individual invariant evaluations performed
        self.checks = 0
        #: human-readable violation records (empty on a correct run)
        self.violations: List[str] = []
        # (pair, frame) -> (committed nbytes, commit sim-time)
        self._commits: Dict[Tuple[int, int], Tuple[int, float]] = {}
        # (role, pair, frame) consumed so far
        self._consumed: Dict[Tuple[str, int, int], float] = {}
        # role -> last observed sim-time
        self._last_time: Dict[str, float] = {}

    # -- plumbing ------------------------------------------------------------
    def _report(self, message: str) -> None:
        self.violations.append(message)
        if self.config.fatal:
            raise InvariantViolation(message)

    def _observe_clock(self, role: str) -> None:
        now = self.env.now
        last = self._last_time.get(role)
        self.checks += 1
        if last is not None and now < last:
            self._report(
                f"monotonic-time: {role} observed t={now!r} after t={last!r}"
            )
        self._last_time[role] = now

    # -- producer-side observations -------------------------------------------
    def frame_committed(self, role: str, pair: int, frame: int, nbytes: int,
                        at: Optional[float] = None) -> None:
        """The producer of ``pair`` committed ``frame`` (``nbytes`` bytes).

        ``at`` overrides the commit instant (DYAD passes the KVS publish
        time, which under ``stale_metadata`` precedes the report).
        """
        if not self.config.enabled:
            return
        self._observe_clock(role)
        self.checks += 1
        key = (pair, frame)
        if key in self._commits:
            self._report(
                f"exactly-once: frame {frame} of pair {pair} committed twice"
            )
        self._commits[key] = (
            nbytes, self.env.now if at is None else float(at)
        )

    # -- consumer-side observations -------------------------------------------
    def frame_consumed(self, role: str, pair: int, frame: int, expected: int,
                       got: Optional[int], corrupt: bool = False) -> None:
        """``role`` finished reading ``frame`` of ``pair``.

        ``expected`` is what the consumer believes the frame holds (the
        workload's frame size); ``got`` is what actually arrived
        (``None`` is treated as ``expected`` for callers that cannot
        observe a byte count). ``corrupt`` marks a payload a corruption
        window damaged and no check caught.
        """
        if not self.config.enabled:
            return
        self._observe_clock(role)
        got = expected if got is None else got
        key = (role, pair, frame)
        self.checks += 1
        if key in self._consumed:
            self._report(
                f"exactly-once: {role} consumed frame {frame} of pair "
                f"{pair} twice"
            )
        self._consumed[key] = self.env.now
        commit = self._commits.get((pair, frame))
        self.checks += 1
        if commit is None:
            self._report(
                f"causality: {role} consumed frame {frame} of pair {pair} "
                "before any commit"
            )
        else:
            nbytes, t_commit = commit
            if self.env.now < t_commit:
                self._report(
                    f"causality: {role} read frame {frame} of pair {pair} "
                    f"at t={self.env.now!r}, before its commit at "
                    f"t={t_commit!r}"
                )
            self.checks += 1
            if nbytes != expected:
                self._report(
                    f"conservation: {role} expects {expected} bytes for "
                    f"frame {frame} of pair {pair} but its producer "
                    f"committed {nbytes}"
                )
        self.checks += 1
        if got != expected:
            self._report(
                f"conservation: {role} read {got} of {expected} bytes for "
                f"frame {frame} of pair {pair}"
            )
        self.checks += 1
        if corrupt:
            self._report(
                f"integrity: {role} consumed a corrupted payload for frame "
                f"{frame} of pair {pair}"
            )

    # -- flow-control observations (streaming sync modes) ----------------------
    def credit_issued(self, role: str, pair: int, frame: int,
                      in_flight: int, window: int) -> None:
        """``role`` took a window credit for ``frame`` of ``pair``.

        ``in_flight`` is the holder's view of credits currently out
        (issued − returned); the bounded-window invariant requires it to
        never exceed the declared window ``W``.
        """
        if not self.config.enabled:
            return
        self._observe_clock(role)
        self.checks += 1
        if in_flight > window:
            self._report(
                f"bounded-window: {role} holds {in_flight} in-flight "
                f"frame(s) of pair {pair} at frame {frame}, exceeding "
                f"window W={window}"
            )

    def credit_returned(self, role: str, pair: int, frame: int,
                        issued: int, returned: int, held: int) -> None:
        """``role`` returned the window credit of ``frame`` of ``pair``.

        Credit conservation: lifetime ``issued - returned`` must equal
        the ``held`` count the channel still tracks — anything else is a
        leaked or double-returned credit.
        """
        if not self.config.enabled:
            return
        self._observe_clock(role)
        self.checks += 1
        if issued - returned != held:
            self._report(
                f"credit-conservation: pair {pair} issued {issued} and "
                f"returned {returned} credit(s) but {held} are held "
                f"(frame {frame}, reported by {role})"
            )

    def producer_unblocked(self, role: str, pair: int, waited: float,
                           horizon: Optional[float]) -> None:
        """``role`` came off a backpressure block that lasted ``waited`` s.

        ``horizon`` is the declared backpressure-liveness bound (``None``
        disables the bound but still counts the check). Producers that
        never unblock are caught at drain by the runner's cycle-naming
        :class:`~repro.errors.StallError`.
        """
        if not self.config.enabled:
            return
        self._observe_clock(role)
        self.checks += 1
        if horizon is not None and waited > horizon:
            self._report(
                f"backpressure-liveness: {role} of pair {pair} was "
                f"blocked {waited:.6g}s awaiting a window credit, past "
                f"the declared horizon of {horizon:.6g}s"
            )

    def check_stream_drain(self, channels: Iterable, frames: int) -> None:
        """Streaming end-of-run: every edge issued one credit per frame and
        got them all home, no armed watches, all published frames
        delivered, no credit returns still deferred."""
        if not self.config.enabled:
            return
        for channel in channels:
            pair = channel.pair
            self.checks += 1
            issued = channel.credits_issued
            returned = channel.credits_returned
            if issued != returned:
                self._report(
                    f"credit-conservation: pair {pair} leaked "
                    f"{issued - returned} credit(s) at drain ({issued} "
                    f"issued, {returned} returned)"
                )
            elif issued != frames:
                self._report(
                    f"credit-conservation: pair {pair} issued {issued} "
                    f"credit(s) for {frames} frame(s)"
                )
            self.checks += 1
            armed = channel.armed_watches()
            if armed:
                shown = ", ".join(str(f) for f in armed[:5])
                self._report(
                    f"stream-drain: pair {pair} still has watch(es) armed "
                    f"on frame(s) {shown} at drain"
                )
            self.checks += 1
            if channel.undelivered_frames() or channel.deferred_returns():
                self._report(
                    f"stream-drain: pair {pair} ended with "
                    f"{len(channel.undelivered_frames())} undelivered "
                    f"frame(s) and {len(channel.deferred_returns())} "
                    "deferred credit return(s)"
                )

    # -- end-of-run checks -----------------------------------------------------
    def check_drain(self, lock_tables: Iterable = (),
                    channels: Iterable = ()) -> None:
        """No locks held and no in-flight channel flows at drain."""
        if not self.config.enabled:
            return
        for table in lock_tables:
            self.checks += 1
            leaked = getattr(table, "_paths", None) or {}
            if leaked:
                sample = ", ".join(sorted(leaked)[:3])
                self._report(
                    f"drain: {len(leaked)} lock path(s) still held at "
                    f"drain ({sample})"
                )
        for channel in channels:
            self.checks += 1
            flows = getattr(channel, "active_flows", 0)
            if flows:
                self._report(
                    f"drain: channel still has {flows} in-flight flow(s) "
                    "at drain"
                )

    def check_complete_edges(self, edges: Iterable[Tuple[str, int]],
                             frames: int) -> None:
        """Per-edge completeness: each ``(role, stream)`` edge drained.

        An edge is one consumer reading one frame stream, and every frame
        of that stream must have been consumed by that role exactly once
        (duplicates were caught at consume time; this closes the gap
        side). Pairwise workflows have
        one edge per pair; a fan-out has one edge per consumer (all on
        stream 0); a fan-in has one edge per input stream (all consumed
        by the single reducer).
        """
        if not self.config.enabled:
            return
        for role, stream in edges:
            self.checks += 1
            missing = [f for f in range(frames)
                       if (role, stream, f) not in self._consumed]
            if missing:
                shown = ", ".join(str(f) for f in missing[:5])
                more = "" if len(missing) <= 5 else f" (+{len(missing) - 5})"
                self._report(
                    f"exactly-once: {role} never consumed frame(s) "
                    f"{shown}{more} of pair {stream}"
                )

    def check_aggregation(self, role: str, streams: int, frames: int) -> None:
        """Fan-in aggregation-completeness for the reduce consumer.

        ``role`` must have folded frame *k* of every one of ``streams``
        input streams before the workflow drained — a reduce that quietly
        skipped one producer's contribution is exactly the lie a fan-in
        can tell that per-pair bookkeeping would miss.
        """
        if not self.config.enabled:
            return
        self.check_complete_edges(
            [(role, s) for s in range(streams)], frames
        )
        self.checks += 1
        total = sum(1 for (r, _s, _f) in self._consumed if r == role)
        if total != streams * frames:
            self._report(
                f"aggregation-completeness: {role} folded {total} "
                f"contribution(s), expected {streams} stream(s) x "
                f"{frames} frame(s) = {streams * frames}"
            )

    def check_pool(self, roles: Iterable[str], streams: int,
                   frames: int) -> None:
        """Work-stealing pool: every task consumed exactly once pool-wide.

        Per-role keying cannot catch two *different* workers claiming the
        same ``(stream, frame)`` task — each sees its own first
        consumption. This drain check closes that hole: across the whole
        pool each task must appear exactly once, with no gaps.
        """
        if not self.config.enabled:
            return
        roleset = set(roles)
        owners: Dict[Tuple[int, int], List[str]] = {}
        for (r, s, f) in self._consumed:
            if r in roleset:
                owners.setdefault((s, f), []).append(r)
        for s in range(streams):
            self.checks += 1
            missing = [f for f in range(frames) if (s, f) not in owners]
            if missing:
                shown = ", ".join(str(f) for f in missing[:5])
                more = "" if len(missing) <= 5 else f" (+{len(missing) - 5})"
                self._report(
                    f"exactly-once: no pool worker consumed frame(s) "
                    f"{shown}{more} of stream {s}"
                )
            self.checks += 1
            dup = [(f, owners[(s, f)]) for f in range(frames)
                   if len(owners.get((s, f), ())) > 1]
            if dup:
                f, who = dup[0]
                self._report(
                    f"exactly-once: frame {f} of stream {s} was consumed "
                    f"by {len(who)} pool workers ({', '.join(sorted(who))})"
                )

    # -- reporting --------------------------------------------------------------
    @property
    def violation_count(self) -> int:
        """How many violations were recorded."""
        return len(self.violations)

    def stats(self) -> Dict[str, float]:
        """Checks evaluated and violations recorded, as run counters."""
        return {
            "invariant_checks": float(self.checks),
            "invariant_violations": float(self.violation_count),
        }
