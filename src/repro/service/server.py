"""The experiment server: asyncio unix-socket serving of campaign jobs.

``ExperimentServer`` wraps the hardened campaign machinery of
:mod:`repro.experiments.parallel` behind a long-running job-submission
API. One JSON object per line in each direction over a unix socket:

- ``{"op": "submit", "job": {...}, "wait": true}`` — admit a job
  (see :class:`~repro.service.jobs.JobSpec` for the payload); with
  ``wait`` the response arrives when the job is terminal, otherwise
  immediately with the assigned ``job_id``. Rejections carry ``error``
  (``queue_full`` / ``budget_exceeded`` / ``circuit_open`` /
  ``draining``) and a ``retry_after`` hint in seconds.
- ``{"op": "status", "job_id": ...}`` — one job's record.
- ``{"op": "result", "key": ...}`` — the stored result itself: a JSON
  header line followed by the raw CRC-framed bytes of its cache entry,
  read once and checked against their CRC, never re-encoded. ``key``
  must be a 64-hex-digit content key (or pass ``job_id`` instead).
- ``{"op": "stats"}`` — server-wide counters.
- ``{"op": "drain"}`` — stop admitting, finish in-flight work, reply.
- ``{"op": "ping"}`` — liveness.

Robustness model: admission control with explicit backpressure,
crash-isolated ``forkserver`` workers with bounded retries, per-kind
circuit breaking, journal-before-ack crash consistency, and
drain-on-SIGTERM. Every admitted job runs at the fidelity tier it asked
for, through one path: the fair queue hands it out, the store is
checked once more, and one worker runs it. The hot path applies the
paper's core lesson (per-operation overheads dominate at scale;
batched/staged paths amortize them) to the serving layer itself:

- **group-commit journaling** — concurrent submits share one buffered
  write + one ``fsync`` per commit window (:data:`COMMIT_WINDOW_S`,
  :class:`~repro.service.journal.GroupCommitter`) instead of paying a
  per-job ``fsync``; the barrier contract (no ack before durable) is
  kept by awaiting the window's commit future.
- **one copy of each result** — a result's metadata resolves through
  the store's in-memory LRU index of keys, and its bytes stay in the
  cache entry, the only copy
  (:class:`~repro.service.store.SharedResultStore`); the serving path
  never decodes or re-encodes a stored result.
- **worker-encoded results** — a worker hands back a job's result
  already encoded, with its fingerprint and makespan
  (:func:`~repro.service.worker._execute_job`), and the server files
  the bytes as they are. A job's tier validates against
  :class:`~repro.workflow.spec.Fidelity`, so the server process loads
  neither the DES kernel, the workflow runner nor numpy, and ``serve``
  starts it without OpenSSL (:mod:`repro.service.__main__`). ``stats``
  reports each under ``loaded``.
- **batched admission** — every submit that arrives in one event-loop
  tick is admitted with a single
  :meth:`~repro.service.admission.FairQueue.submit_batch` (one heap
  repair, one commit window).
- **pipelined dispatch** — each worker has its next job waiting in the
  pool behind the one it runs, so the server's per-result bookkeeping
  (store publish, journal) overlaps the worker's next
  computation instead of idling it. Timeouts and crash charges still
  apply only from the moment a worker actually takes a job.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import AdmissionError, ReproError, ServiceError
from repro.experiments.parallel import (
    _default_task_retries,
    _default_task_timeout,
)
from repro.perf.metrics import MetricsTimeline
from repro.service.admission import FairQueue
from repro.service.breaker import CircuitBreaker
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
    RejectedSpec,
)
from repro.service.journal import GroupCommitter, Journal, iter_events
from repro.service.pool import WorkerPool
from repro.service.store import DECODE_MODULES, SharedResultStore
from repro.service.worker import _execute_job

__all__ = ["ServerConfig", "ExperimentServer"]

#: pool tasks in flight per worker: the one it runs plus the next, which
#: waits in the pool so the worker never idles on the server's bookkeeping
PIPELINE_DEPTH = 2
#: admitted jobs queued across all tenants before submits are rejected
#: with ``queue_full``; every tenant has the same fair-share weight
QUEUE_DEPTH = 64
#: jobs one tenant may have admitted (queued + running) at once before
#: its submits are rejected with ``budget_exceeded``
TENANT_BUDGET = 16
#: consecutive failures of one kind that open its circuit breaker, and
#: the seconds it then stays open
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 30.0
#: group-commit latency bound: how long the journal waits for more
#: events to share an fsync
COMMIT_WINDOW_S = 0.002
#: size bound of one group commit
COMMIT_MAX_BATCH = 512
#: boot-time journal compaction triggers at this size (bytes); small
#: journals replay faster than they compact
COMPACT_MIN_BYTES = 1 << 20
#: result-store LRU index capacity (keys resolved without disk I/O)
LRU_ENTRIES = 512
#: unix-socket listen backlog: it must absorb a client herd's
#: simultaneous connects (the asyncio default of 100 drops them)
BACKLOG = 512
#: modules the server process never needs, which ``stats`` reports as
#: ``loaded``: the simulator (workflow runner, DES kernel, fluid
#: engine), numpy, and OpenSSL's ``_ssl``, which ``serve`` keeps asyncio
#: from importing. Only decoding a stored key the server neither
#: published nor read from its journal loads the simulator
UNNEEDED_MODULES = DECODE_MODULES + ("numpy", "_ssl")


@dataclass
class ServerConfig:
    """Everything that shapes one server's behaviour."""

    socket_path: str
    journal_path: str
    cache_dir: Optional[str] = None
    workers: int = 2
    #: per-attempt wall budget; None falls back to REPRO_TASK_TIMEOUT
    task_timeout: Optional[float] = None
    #: crash/timeout re-submissions per job; None -> REPRO_TASK_RETRIES
    max_retries: Optional[int] = None
    #: run jobs on threads instead of worker processes — fast for tests
    #: and benches that do not exercise the crash paths
    inline: bool = False
    #: write the perf-metrics timeline (commit window / LRU / admission
    #: gauges) to this JSON file at shutdown
    metrics_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")


class ExperimentServer:
    """One long-running serving instance (see the module docstring)."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = SharedResultStore(config.cache_dir,
                                       lru_entries=LRU_ENTRIES)
        self.journal = Journal(config.journal_path)
        self.committer = GroupCommitter(
            self.journal, window=COMMIT_WINDOW_S,
            max_batch=COMMIT_MAX_BATCH,
        )
        self.queue = FairQueue(
            max_depth=QUEUE_DEPTH, budget=TENANT_BUDGET,
            retry_after=self._retry_after,
        )
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN_S)
        self.task_timeout = _default_task_timeout(config.task_timeout)
        self.max_retries = _default_task_retries(config.max_retries)
        self.records: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, str] = {}  # key -> primary id
        self._events: Dict[str, asyncio.Event] = {}
        self._seq = 0
        self._running = 0
        self._draining = False
        self._stopping = False
        self._work: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._runners: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self.pool = WorkerPool(config.workers, inline=config.inline)
        #: submissions staged for the current event-loop tick's batch
        self._staged: List[Tuple[JobRecord, asyncio.Future]] = []
        self._flush_scheduled = False
        # seconds per job, for Retry-After hints; starts optimistic (warm
        # jobs are ~ms) and converges on real service times — a
        # pessimistic start makes every client of a freshly restarted
        # server oversleep its first rejection
        self._service_ewma = 0.02
        self.counters = {
            "submitted": 0, "accepted": 0, "completed": 0, "failed": 0,
            "dedup_inflight": 0, "retries": 0, "resumed": 0,
            "rejected_circuit": 0, "rejected_draining": 0,
        }
        # jobs handed to a worker. ``fused_jobs`` stays 0: no job shares
        # a worker task with another, and the benchmark's
        # ``service.fused_jobs`` metric still reads the key
        self.dispatch = {"jobs": 0, "fused_jobs": 0}
        self.admission = {"batches": 0, "jobs": 0, "max_batch": 0}
        self.latencies: List[float] = []
        self._t0 = time.monotonic()
        self.timeline = MetricsTimeline(
            clock=lambda: time.monotonic() - self._t0
        )

    # -- lifecycle ---------------------------------------------------------
    async def start(self, handle_signals: bool = False) -> None:
        """Replay the journal, bind the socket, start the runner tasks,
        then launch the worker pool off the event loop."""
        loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        # resume with the committer stopped: boot-time events append
        # synchronously, so compaction sees a settled journal
        self._resume()
        self.committer.start()
        sock_dir = os.path.dirname(os.path.abspath(self.config.socket_path))
        os.makedirs(sock_dir, exist_ok=True)
        try:
            os.unlink(self.config.socket_path)
        except FileNotFoundError:
            pass
        self._server = await asyncio.start_unix_server(
            self._handle_client, path=self.config.socket_path,
            limit=4 * 1024 * 1024, backlog=BACKLOG,
        )
        # the socket answers from here on. The pool launches last and
        # off the loop: its first submit blocks until the forkserver has
        # imported what a worker runs, and pings, status polls and store
        # hits must not wait for that; jobs wait in WorkerPool.run
        self.pool.launch()
        self._runners = [
            asyncio.ensure_future(self._runner())
            for _ in range(PIPELINE_DEPTH * self.config.workers)
        ]
        if handle_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown())
                )

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` cancels the accept loop."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Graceful drain: finish in-flight jobs, journal, close, stop."""
        if self._stopping:
            return
        self._draining = True
        await self._idle.wait()
        self._stopping = True
        self._work.set()  # release idle runners so they observe stopping
        for runner in self._runners:
            runner.cancel()
        await asyncio.gather(*self._runners, return_exceptions=True)
        await self.committer.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # a pool still launching is torn down once it exists
        await self.pool.close()
        if self.config.metrics_path:
            self.timeline.write_json(self.config.metrics_path)
        self.journal.close()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass

    # -- journal resume ----------------------------------------------------
    def _resume(self) -> None:
        """Stream journal events into records; finish or re-enqueue them.

        Events are folded one at a time (:func:`iter_events`), so a
        journal of any size resumes in O(records-alive) memory, not
        O(events-ever).
        """
        replayed = 0
        for event in iter_events(self.journal.path):
            replayed += 1
            ev, job_id = event["ev"], event.get("id")
            if ev == "submit":
                try:
                    spec, error = JobSpec.from_wire(event["job"]), None
                except ServiceError as exc:
                    # written by a version that accepted it (a retired
                    # tier, say): the job fails, the server still boots
                    spec, error = RejectedSpec(event["job"]), str(exc)
                record = JobRecord(
                    job_id=job_id, spec=spec, key=event.get("key"),
                    submitted_at=event.get("t", 0.0), error=error,
                    state=QUEUED if error is None else FAILED,
                )
                self.records[job_id] = record
                num = int(job_id.split("-")[-1])
                if num >= self._seq:
                    self._seq = num + 1
            elif job_id not in self.records:
                continue  # event for a compacted-away record (or a flush)
            elif ev == "retry":
                self.records[job_id].attempts = event["attempts"]
            elif ev == "done":
                record = self.records[job_id]
                record.state, record.error = DONE, None
                record.key = event.get("key", record.key)
                record.fingerprint = event.get("fingerprint")
                record.makespan = event.get("makespan")
                record.latency = event.get("latency")
                record.source = event.get("source", "computed")
            elif ev == "failed":
                record = self.records[job_id]
                record.state = FAILED
                record.error = event.get("error")
        # fold replayed history into the counters so stats() reports
        # lifetime-of-the-journal numbers, not just this incarnation's
        for record in self.records.values():
            self.counters["submitted"] += 1
            self.counters["accepted"] += 1
            self.counters["retries"] += record.attempts
            if record.state == DONE:
                self.counters["completed"] += 1
                if record.fingerprint is not None:
                    # a repeat is then served without decoding the result
                    self.store.recall(record.key, record.fingerprint,
                                      record.makespan)
            elif record.state == FAILED:
                self.counters["failed"] += 1
        pending = [r for r in self.records.values() if not r.terminal]
        for record in pending:
            # a job that was RUNNING at the crash never finished: treat it
            # as queued — deterministic re-execution is side-effect-free
            record.state = QUEUED
            key = self.store.key_for(record.spec)
            record.key = key
            stored = self.store.fetch(key, record.spec.tenant)
            if stored is not None:
                # finished before the crash but after the last durable
                # "done" record — the content-addressed store is the
                # source of truth, so complete it without recomputing
                self._finish(record, makespan=stored.makespan,
                             fingerprint=stored.fingerprint, source="hit")
                self.counters["resumed"] += 1
                continue
            self.queue.submit(record, force=True)
            # restore singleflight so post-restart duplicates coalesce
            self._inflight.setdefault(key, record.job_id)
            self.counters["resumed"] += 1
        if replayed and self.journal.size() >= COMPACT_MIN_BYTES:
            self._compact()
        if self.queue.depth:
            self._work.set()
            self._idle.clear()

    def _compact(self) -> None:
        """Rewrite the journal as one submit (+ terminal) line per job."""
        folded: List[Dict[str, Any]] = []
        for record in self.records.values():
            folded.append({
                "ev": "submit", "id": record.job_id,
                "job": record.spec.to_wire(), "key": record.key,
                "t": record.submitted_at,
            })
            if record.attempts:
                folded.append({"ev": "retry", "id": record.job_id,
                               "attempts": record.attempts})
            if record.state == DONE:
                folded.append({
                    "ev": "done", "id": record.job_id, "key": record.key,
                    "fingerprint": record.fingerprint,
                    "makespan": record.makespan,
                    "latency": record.latency, "source": record.source,
                })
            elif record.state == FAILED:
                folded.append({"ev": "failed", "id": record.job_id,
                               "error": record.error})
        self.journal.compact(folded)

    # -- wire --------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                payload: Optional[bytes] = None
                try:
                    request = json.loads(line)
                    response = await self._dispatch(request)
                    if isinstance(response, tuple):
                        response, payload = response
                except (ServiceError, ValueError) as exc:
                    response = {"ok": False, "error": "bad_request",
                                "detail": str(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                if payload is not None:
                    # the cache entry's framed bytes, as read
                    writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # shutdown cancels handler tasks; finish cleanly instead of
            # ending CANCELLED (asyncio.streams logs a spurious traceback
            # for cancelled connection tasks)
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, request: Dict[str, Any]):
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "submit":
            return await self._submit(request)
        if op == "status":
            record = self.records.get(request.get("job_id", ""))
            if record is None:
                return {"ok": False, "error": "unknown_job"}
            return {"ok": True, **record.to_dict()}
        if op == "result":
            return self._result(request)
        if op == "stats":
            return {"ok": True, **self.stats()}
        if op == "drain":
            await self.shutdown()
            return {"ok": True, "drained": True}
        return {"ok": False, "error": "unknown_op", "detail": str(op)}

    def _result(self, request: Dict[str, Any]):
        """Delivery: JSON header + the raw framed bytes of the entry."""
        key = request.get("key")
        if not key:
            record = self.records.get(request.get("job_id", ""))
            if record is None:
                return {"ok": False, "error": "unknown_job"}
            if record.state != DONE or not record.key:
                return {"ok": False, "error": "not_done",
                        "state": record.state}
            key = record.key
        blob = self.store.payload(key)
        if blob is None:
            return {"ok": False, "error": "unknown_result"}
        return {"ok": True, "key": key, "length": len(blob)}, blob

    async def _submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.counters["submitted"] += 1
        spec = JobSpec.from_wire(request.get("job"))
        if self._draining:
            self.counters["rejected_draining"] += 1
            return {"ok": False, "error": "draining", "retry_after": 5.0}
        allowed, retry_after = self.breaker.check(spec.kind)
        if not allowed:
            self.counters["rejected_circuit"] += 1
            return {"ok": False, "error": "circuit_open",
                    "retry_after": retry_after}
        key = self.store.key_for(spec)
        job_id = f"job-{self._seq}"
        self._seq += 1
        record = JobRecord(job_id=job_id, spec=spec, key=key,
                           submitted_at=time.time())
        # already computed -> serve straight from the shared store (one
        # LRU lookup on the warm path; no disk read, no unpickle). No
        # commit barrier: the ack is already terminal, so losing this
        # record to a crash loses nothing a resubmission would not
        # re-derive from the store in O(1)
        stored = self.store.fetch(key, spec.tenant)
        if stored is not None:
            self.records[job_id] = record
            self.counters["accepted"] += 1
            self.committer.enqueue(self._submit_event(record))
            self._finish(record, makespan=stored.makespan,
                         fingerprint=stored.fingerprint, source="hit")
            return await self._respond(record, request)
        # everything else — in-flight dedup and queue admission — is
        # decided in this tick's batch, where the checks are race-free
        disposition = await self._stage(record)
        if isinstance(disposition, AdmissionError):
            return {"ok": False, "error": disposition.reason,
                    "retry_after": disposition.retry_after}
        return await self._respond(record, request)

    def _submit_event(self, record: JobRecord) -> Dict[str, Any]:
        return {"ev": "submit", "id": record.job_id,
                "job": record.spec.to_wire(), "key": record.key,
                "t": record.submitted_at}

    def _stage(self, record: JobRecord) -> "asyncio.Future":
        """Defer a submission to the end-of-tick admission batch."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._staged.append((record, future))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            # call_soon runs after every already-ready submit coroutine
            # has staged its record — that set IS the batch
            loop.call_soon(self._flush_staged)
        return future

    def _flush_staged(self) -> None:
        """Admit one tick's submissions: one queue batch, one barrier.

        Runs synchronously on the loop (no awaits), so the singleflight
        and budget decisions inside are atomic with respect to every
        other coroutine.
        """
        self._flush_scheduled = False
        staged, self._staged = self._staged, []
        if not staged:
            return
        self.admission["batches"] += 1
        self.admission["jobs"] += len(staged)
        if len(staged) > self.admission["max_batch"]:
            self.admission["max_batch"] = len(staged)
        self.timeline.gauge("admission.batch_size").set(len(staged))
        events: List[Dict[str, Any]] = []
        barriered: List[asyncio.Future] = []
        to_admit: List[Tuple[JobRecord, asyncio.Future]] = []
        # duplicates *within* this batch coalesce onto the batch's first
        # record for their key; their fate follows its admission outcome
        batch_followers: Dict[str, List[Tuple[JobRecord, asyncio.Future]]] = {}

        def _attach(primary: JobRecord, record: JobRecord,
                    future: asyncio.Future) -> None:
            record.dedup_of = primary.job_id
            self.records[record.job_id] = record
            primary.followers.append(record.job_id)
            self.counters["accepted"] += 1
            self.counters["dedup_inflight"] += 1
            events.append(self._submit_event(record))
            barriered.append(future)

        for record, future in staged:
            # singleflight: identical content already in flight
            primary_id = self._inflight.get(record.key)
            primary = self.records.get(primary_id) if primary_id else None
            if primary is not None and not primary.terminal:
                _attach(primary, record, future)
                continue
            if record.key in batch_followers:
                batch_followers[record.key].append((record, future))
                continue
            batch_followers[record.key] = []
            to_admit.append((record, future))
        admitted_any = False
        if to_admit:
            outcomes = self.queue.submit_batch(
                [record for record, _ in to_admit]
            )
            for (record, future), error in zip(to_admit, outcomes):
                followers = batch_followers.get(record.key, [])
                if error is not None:
                    if not future.done():
                        future.set_result(error)
                    # batchmates that coalesced onto a rejected primary
                    # share its rejection (and its retry hint)
                    for _f_record, f_future in followers:
                        self.queue.rejected[error.reason] += 1
                        if not f_future.done():
                            f_future.set_result(error)
                    continue
                self.records[record.job_id] = record
                self._inflight[record.key] = record.job_id
                self.counters["accepted"] += 1
                events.append(self._submit_event(record))
                barriered.append(future)
                admitted_any = True
                for f_record, f_future in followers:
                    _attach(record, f_record, f_future)
        if events:
            barrier = self.committer.commit_batch(events)

            def _release(fut: "asyncio.Future", waiters=barriered) -> None:
                exc = fut.exception()
                for waiter in waiters:
                    if waiter.done():
                        continue
                    if exc is not None:
                        waiter.set_exception(exc)
                    else:
                        waiter.set_result(None)

            barrier.add_done_callback(_release)
        if admitted_any:
            self._idle.clear()
            self._work.set()
        self._sample_metrics()

    async def _respond(self, record: JobRecord,
                       request: Dict[str, Any]) -> Dict[str, Any]:
        if request.get("wait"):
            await self._event(record.job_id).wait()
        return {"ok": True, **record.to_dict()}

    def _event(self, job_id: str) -> asyncio.Event:
        event = self._events.get(job_id)
        if event is None:
            event = asyncio.Event()
            if self.records[job_id].terminal:
                event.set()  # nothing left to wake: keep no reference
            else:
                self._events[job_id] = event
        return event

    # -- execution ---------------------------------------------------------
    async def _runner(self) -> None:
        """One dispatch loop; ``PIPELINE_DEPTH * config.workers`` of these
        run concurrently, each with at most one task in the pool."""
        while not self._stopping:
            record = self.queue.next_job()
            if record is None:
                if self._running == 0:
                    self._idle.set()
                self._work.clear()
                try:
                    await self._work.wait()
                except asyncio.CancelledError:
                    return
                continue
            self._running += 1
            try:
                await self._run(record)
            finally:
                self._running -= 1
                if self._running == 0 and self.queue.depth == 0:
                    self._idle.set()

    async def _run(self, record: JobRecord) -> None:
        """Run one admitted job at its requested tier."""
        # a twin of this job may have published while it waited in the
        # queue (a crash-resumed duplicate): one LRU lookup beats
        # recomputing. Its submit or resume already missed this key and
        # counted the miss
        stored = self.store.fetch(record.key, record.spec.tenant,
                                  recheck=True)
        if stored is not None:
            self._finish(record, makespan=stored.makespan,
                         fingerprint=stored.fingerprint, source="hit")
            return
        record.state = RUNNING
        self.committer.enqueue({"ev": "start", "id": record.job_id,
                                "fidelity": record.spec.fidelity})
        self.dispatch["jobs"] += 1
        await self._execute_single(record, record.spec.run_task())

    async def _execute_single(self, record: JobRecord, task) -> None:
        """Run one job on a worker; crashes and timeouts are retried
        within the retry budget, a simulation error fails the job."""
        while True:
            try:
                stored, elapsed = await self.pool.run(
                    self.task_timeout, _execute_job, task)
                break
            except asyncio.TimeoutError:
                reason = "task timeout"
            except BrokenProcessPool:
                reason = "worker crashed"
            except ReproError as exc:
                # deterministic simulation failure: retrying cannot help
                self._fail(record, f"{type(exc).__name__}: {exc}")
                return
            except asyncio.CancelledError:
                record.state = QUEUED  # server stopping; resume re-runs it
                raise
            if not self._note_retry(record, reason):
                return
        self._observe_service_time(elapsed)
        self._publish(record, *stored)

    def _publish(self, record: JobRecord, blob: bytes, fingerprint: str,
                 makespan: float) -> None:
        """File a worker's encoded result as it is and finish its job."""
        self.store.publish(record.key, record.spec.tenant, blob,
                           fingerprint, makespan)
        self._finish(record, makespan=makespan, fingerprint=fingerprint,
                     source="computed")

    def _note_retry(self, record: JobRecord, reason: str) -> bool:
        """Charge one crash/timeout attempt; False when budget exhausted."""
        record.attempts += 1
        self.counters["retries"] += 1
        self.committer.enqueue({"ev": "retry", "id": record.job_id,
                                "attempts": record.attempts,
                                "reason": reason})
        if record.attempts > self.max_retries:
            self._fail(record, f"{reason}; retry budget exhausted "
                               f"after {record.attempts} attempts")
            return False
        return True

    def _observe_service_time(self, elapsed: float) -> None:
        self._service_ewma += 0.2 * (elapsed - self._service_ewma)

    def _finish(self, record: JobRecord, *, makespan: Optional[float],
                fingerprint: Optional[str], source: str,
                journal: bool = True) -> None:
        record.state = DONE
        record.source = source
        record.makespan = makespan
        record.fingerprint = fingerprint
        record.finished_at = time.time()
        record.latency = max(record.finished_at - record.submitted_at, 0.0)
        if journal:
            # no barrier: a lost "done" event re-derives from the
            # content-addressed store at resume
            self.committer.enqueue({
                "ev": "done", "id": record.job_id, "key": record.key,
                "fingerprint": record.fingerprint,
                "makespan": record.makespan, "latency": record.latency,
                "source": source,
            })
        self.counters["completed"] += 1
        self.latencies.append(record.latency)
        del self.latencies[:-10000]  # bound the stats buffer
        self.breaker.record_success(record.spec.kind)
        self.queue.release(record.spec.tenant)
        self._wake(record)
        self._resolve_followers(record, failed=False)

    def _fail(self, record: JobRecord, error: str) -> None:
        record.state = FAILED
        record.error = error
        record.finished_at = time.time()
        record.latency = max(record.finished_at - record.submitted_at, 0.0)
        self.committer.enqueue({"ev": "failed", "id": record.job_id,
                                "error": error})
        self.counters["failed"] += 1
        self.breaker.record_failure(record.spec.kind)
        self.queue.release(record.spec.tenant)
        self._wake(record)
        self._resolve_followers(record, failed=True)

    def _resolve_followers(self, primary: JobRecord, failed: bool) -> None:
        if self._inflight.get(primary.key) == primary.job_id:
            del self._inflight[primary.key]
        for follower_id in primary.followers:
            follower = self.records.get(follower_id)
            if follower is None or follower.terminal:
                continue
            if failed:
                follower.state = FAILED
                follower.error = primary.error
                self.committer.enqueue({"ev": "failed", "id": follower_id,
                                        "error": primary.error})
                self.counters["failed"] += 1
            else:
                follower.state = DONE
                follower.source = "dedup"
                follower.key = primary.key
                follower.makespan = primary.makespan
                follower.fingerprint = primary.fingerprint
                follower.finished_at = time.time()
                follower.latency = max(
                    follower.finished_at - follower.submitted_at, 0.0)
                self.committer.enqueue({
                    "ev": "done", "id": follower_id, "key": follower.key,
                    "fingerprint": follower.fingerprint,
                    "makespan": follower.makespan,
                    "latency": follower.latency, "source": "dedup",
                })
                self.counters["completed"] += 1
                self.latencies.append(follower.latency)
            self._wake(follower)
        primary.followers.clear()

    def _wake(self, record: JobRecord) -> None:
        # waiters hold the event themselves; the server forgets it
        event = self._events.pop(record.job_id, None)
        if event is not None:
            event.set()

    # -- reporting ---------------------------------------------------------
    def _retry_after(self, depth: int) -> float:
        """Backpressure hint: projected time to drain the backlog.

        Capped at half a second — a re-poll is two cheap syscalls, so
        even a deep post-restart backlog should not park clients for
        multiples of the real drain time.
        """
        return min(0.5, max(
            0.05, depth * self._service_ewma / max(self.config.workers, 1)
        ))

    def _sample_metrics(self) -> None:
        """Refresh the LRU and commit-window gauges on the perf timeline."""
        lru = self.timeline.counter("store.lru_hits")
        delta = self.store.lru_hits - lru.value
        if delta > 0:
            lru.add(delta)
        window = self.committer.stats()["avg_events_per_sync"]
        if window is not None:
            self.timeline.gauge("service.commit_window").set(window)

    def stats(self) -> Dict[str, Any]:
        """Counters, queue/breaker/store state, and latency percentiles."""
        latencies = sorted(self.latencies)

        def pct(p: float) -> Optional[float]:
            if not latencies:
                return None
            return latencies[min(int(p * len(latencies)), len(latencies) - 1)]

        pending = sum(1 for r in self.records.values() if not r.terminal)
        return {
            "counters": dict(self.counters),
            "pending": pending,
            "draining": self._draining,
            "queue": self.queue.stats(),
            "breaker": self.breaker.stats(),
            "store": self.store.stats(),
            "dispatch": {**self.dispatch, "pipelined": self.pool.pipelined},
            "admission_batches": dict(self.admission),
            "journal": {
                "records": self.journal.appended,
                "syncs": self.journal.syncs,
                "size_bytes": self.journal.size(),
                **self.committer.stats(),
            },
            "latency_p50": pct(0.50),
            "latency_p99": pct(0.99),
            "journal_records": self.journal.appended,
            "loaded": {name: name in sys.modules
                       for name in UNNEEDED_MODULES},
        }
