"""Append-only job journal: the server's crash-consistent memory.

Every state transition of every accepted job is appended as one JSON
line and made durable before the transition is acknowledged, so a
``kill -9``'d server can reconstruct exactly which jobs were accepted
and which reached a terminal state. Replay is deliberately forgiving
about the *last* line only: a crash mid-append leaves a torn trailing
record, which is dropped; a torn record anywhere else means external
corruption and raises :class:`~repro.errors.JournalError` (silently
skipping interior damage could turn "lost job" into "nobody noticed").

Durability is amortized with **group commit**: the synchronous
:meth:`Journal.append` (one write + one ``fsync`` per event) remains
for boot-time replay and tests, but the serving hot path goes through
:class:`GroupCommitter`, which batches every event enqueued during one
commit window into a single buffered write and a single ``fsync``
(:meth:`Journal.append_many`). The barrier contract is preserved: an
awaited :meth:`GroupCommitter.commit` future resolves only after the
event's batch is on stable storage, so a job is never acknowledged
before its record is durable — but a thousand concurrent submits now
share a handful of ``fsync`` calls instead of paying one each, the
same per-operation-amortization lesson the paper draws from DYAD's
batched RDMA pulls versus Lustre's per-file RPCs.

The journal is an event log, not a state store — replay folds events in
order (``submit`` → ``start``/``retry`` → ``done``/``failed``) into
final :class:`~repro.service.jobs.JobRecord` states; an event kind
replay does not know is skipped.
:func:`iter_events` streams records one line at a time, so replaying a
multi-gigabyte journal never materializes the whole file in memory.
Compaction (:meth:`Journal.compact`) rewrites the log as one ``submit``
(+ optional terminal) event per live job, via temp-file + atomic
rename; servers trigger it on a size threshold rather than every boot.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO

from repro.errors import JournalError

__all__ = ["Journal", "GroupCommitter", "iter_events"]


def iter_events(path: str) -> Iterator[Dict[str, Any]]:
    """Stream a journal file's event dicts (crash-tolerant tail).

    Yields nothing when the journal does not exist (a fresh server).
    A truncated or torn *final* line — the signature of a crash between
    ``write`` and ``fsync`` — is dropped; malformed interior lines
    raise. The file is read line by line, so resuming a large journal
    costs O(1) memory instead of loading every event at once.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return
    with fh:
        pending: Optional[Dict[str, Any]] = None
        bad: Optional[str] = None  # first undecodable line, held back
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if bad is not None:
                # a torn record is only forgivable at the very tail; any
                # real content after it means interior corruption
                if line.strip():
                    raise JournalError(f"{path}:{bad}: corrupt journal record")
                continue
            if not line:
                continue
            if pending is not None:
                yield pending
                pending = None
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                bad = str(lineno)
                continue
            if not isinstance(event, dict) or "ev" not in event:
                raise JournalError(f"{path}:{lineno}: not a journal record")
            pending = event
        if pending is not None:
            yield pending


class Journal:
    """Durable append-only JSON-lines event log."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh: Optional[TextIO] = open(path, "a", encoding="utf-8")
        self.appended = 0
        #: fsync calls issued (append = 1 each; append_many = 1 per batch)
        self.syncs = 0

    def size(self) -> int:
        """Current on-disk size in bytes (0 when missing)."""
        try:
            return os.stat(self.path).st_size
        except OSError:
            return 0

    def append(self, event: Dict[str, Any]) -> None:
        """Durably record one event before the caller acknowledges it."""
        self.append_many((event,))

    def append_many(self, events: Iterable[Dict[str, Any]]) -> int:
        """Group commit: one buffered write + one ``fsync`` for the batch.

        Returns the number of events written. The batch is durable as a
        unit — either the caller's whole commit window is on stable
        storage or (on a crash mid-write) the torn tail is dropped at
        replay; no event in the middle of a batch can vanish alone.
        """
        if self._fh is None:
            raise JournalError("journal is closed")
        lines = [json.dumps(event, sort_keys=True) for event in events]
        if not lines:
            return 0
        self._fh.write("\n".join(lines) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.appended += len(lines)
        self.syncs += 1
        return len(lines)

    def compact(self, events: Iterable[Dict[str, Any]]) -> None:
        """Atomically replace the log with the given (folded) events."""
        parent = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".journal.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for event in events:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # reopen the append handle on the new inode
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        """Close the append handle (the journal file stays on disk)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class GroupCommitter:
    """Asyncio group-commit front end over a :class:`Journal`.

    Events arrive two ways:

    - :meth:`commit` — returns a future that resolves once the event is
      durable; the caller awaits it before acknowledging (the barrier).
    - :meth:`enqueue` — fire-and-forget for events whose loss is
      recoverable from other state (``done`` records re-derive from the
      content-addressed store; ``start``/``retry`` only refine resume
      behaviour). They still commit in order with everything
      else, just without stalling the caller.

    The committer task collects everything enqueued within
    ``window`` seconds of the first pending event (bounded by
    ``max_batch``), writes the batch with one ``fsync`` off-loop
    (``run_in_executor``, so a slow disk never stalls the accept loop),
    and resolves the waiters. While one batch is being synced the next
    one accumulates — under load the fsync duration itself becomes the
    commit window, which is the classic group-commit behaviour.
    """

    def __init__(self, journal: Journal, window: float = 0.002,
                 max_batch: int = 512) -> None:
        if window < 0:
            raise JournalError(f"commit window must be >= 0, got {window}")
        if max_batch < 1:
            raise JournalError(f"max_batch must be >= 1, got {max_batch}")
        self.journal = journal
        self.window = window
        self.max_batch = max_batch
        self._pending: List[Dict[str, Any]] = []
        self._waiters: List[asyncio.Future] = []
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        #: group-commit telemetry: fsync batches and their sizes
        self.commits = 0
        self.committed = 0
        self.max_batch_seen = 0

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Start the committer task on the running loop."""
        self._wake = asyncio.Event()
        self._closed = False
        self._task = asyncio.ensure_future(self._run())

    def enqueue(self, event: Dict[str, Any]) -> None:
        """Queue an event for the next commit window (no barrier)."""
        if self._closed or self._wake is None:
            # not serving (boot replay / after stop): stay durable the
            # slow way rather than dropping the event
            self.journal.append(event)
            return
        self._pending.append(event)
        self._wake.set()

    def commit(self, event: Dict[str, Any]) -> "asyncio.Future[None]":
        """Queue an event and return a future resolved when durable."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self._closed or self._wake is None:
            try:
                self.journal.append(event)
            except Exception as exc:  # pragma: no cover - disk failure
                future.set_exception(exc)
            else:
                future.set_result(None)
            return future
        self._pending.append(event)
        self._waiters.append(future)
        self._wake.set()
        return future

    def commit_batch(self, events: List[Dict[str, Any]]
                     ) -> "asyncio.Future[None]":
        """Queue several events under one barrier future."""
        future: asyncio.Future
        if not events:
            future = asyncio.get_running_loop().create_future()
            future.set_result(None)
            return future
        for event in events[:-1]:
            self.enqueue(event)
        return self.commit(events[-1])

    async def flush(self) -> None:
        """Wait until everything currently pending is durable."""
        if not self._pending or not self.running:
            return
        await self.commit({"ev": "flush"})

    async def stop(self) -> None:
        """Drain pending events, then stop the committer task."""
        if self._task is None:
            return
        self._closed = True
        assert self._wake is not None
        self._wake.set()
        await self._task
        self._task = None
        # anything enqueued after the closing batch was taken
        if self._pending:
            self.journal.append_many(self._pending)
            self._pending.clear()
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._waiters.clear()

    async def _run(self) -> None:
        assert self._wake is not None
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            if self.window > 0 and len(self._pending) < self.max_batch:
                # latency-bounded gather: let concurrent submits join
                # this window before paying the fsync
                await asyncio.sleep(self.window)
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            waiters, self._waiters = self._waiters, []
            try:
                await loop.run_in_executor(
                    None, self.journal.append_many, batch
                )
            except Exception as exc:
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_exception(exc)
            else:
                self.commits += 1
                self.committed += len(batch)
                if len(batch) > self.max_batch_seen:
                    self.max_batch_seen = len(batch)
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_result(None)

    def stats(self) -> Dict[str, Any]:
        """Group-commit telemetry (``service.commit_window`` metrics)."""
        return {
            "window": self.window,
            "commits": self.commits,
            "events": self.committed,
            "avg_events_per_sync": (
                round(self.committed / self.commits, 2) if self.commits
                else None
            ),
            "max_events_per_sync": self.max_batch_seen,
        }
