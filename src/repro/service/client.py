"""Clients for the experiment server's JSON-lines unix-socket API.

:class:`ServiceClient` is the asyncio client the load harness and the
CLI build on. It is deliberately resilient: connection establishment
retries with capped exponential backoff (a restarting server is a
normal event, not an error), and :meth:`submit_resilient` re-submits
through rejections and connection loss until the job reaches a terminal
state — safe because submissions are idempotent on the server (dedup by
content address) and the journal makes accepted jobs durable.

Backoff follows the same schedule as :class:`~repro.dyad.config.
DyadConfig` retries — capped exponential with deterministic,
seed-derived jitter — so a herd of clients reconnecting to a restarted
server de-synchronizes instead of stampeding, and a fixed seed still
reproduces the exact same retry timeline run over run.

:class:`SyncServiceClient` wraps it for synchronous callers (the CLI
subcommands) with one short-lived event loop per call.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError

__all__ = ["ServiceClient", "SyncServiceClient"]

#: rejection reasons that mean "try again later", not "give up"
RETRYABLE = {"queue_full", "budget_exceeded", "circuit_open", "draining"}


class ServiceClient:
    """One connection to the server (open lazily, reconnect on demand)."""

    def __init__(self, socket_path: str, connect_timeout: float = 30.0,
                 connect_backoff: float = 0.02,
                 backoff_cap: float = 0.1, backoff_jitter: float = 0.25,
                 seed: int = 0) -> None:
        self.socket_path = socket_path
        self.connect_timeout = connect_timeout
        self.connect_backoff = connect_backoff
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        # deterministic jitter: a fixed seed reproduces the exact retry
        # timeline, but distinct seeds (one per client) spread the herd
        self._rng = random.Random(seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.reconnects = 0

    def _backoff_delay(self, attempt: int) -> float:
        """DyadConfig-style retry schedule: ``min(base * 2^attempt, cap)``
        stretched by up to ``backoff_jitter`` from the seeded stream."""
        delay = min(self.connect_backoff * (2.0 ** attempt),
                    self.backoff_cap)
        if self.backoff_jitter > 0:
            delay *= 1.0 + self.backoff_jitter * self._rng.random()
        return delay

    async def _connect(self) -> None:
        deadline = time.monotonic() + self.connect_timeout
        attempt = 0
        while True:
            try:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.socket_path, limit=4 * 1024 * 1024
                )
                return
            except (ConnectionError, FileNotFoundError, OSError):
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"server at {self.socket_path} unreachable for "
                        f"{self.connect_timeout:.0f}s"
                    )
                await asyncio.sleep(self._backoff_delay(attempt))
                attempt += 1

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip (connecting if needed)."""
        if self._writer is None or self._writer.is_closing():
            await self._connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    # -- operations --------------------------------------------------------
    async def ping(self) -> bool:
        """Liveness probe; True when the server answers."""
        return bool((await self.request({"op": "ping"})).get("ok"))

    async def submit(self, job: Dict[str, Any],
                     wait: bool = True) -> Dict[str, Any]:
        """One submission attempt; returns the raw server response."""
        return await self.request({"op": "submit", "job": job, "wait": wait})

    async def submit_resilient(self, job: Dict[str, Any],
                               deadline: float = 120.0) -> Dict[str, Any]:
        """Submit until terminal, riding out rejections and restarts.

        Duplicate re-submissions after a connection drop are safe: an
        identical job coalesces onto the in-flight primary or hits the
        result store. Returns the terminal response; raises
        :class:`ServiceError` past the deadline. The ``retries`` field of
        the response is augmented with this client's resubmission count.
        """
        end = time.monotonic() + deadline
        resubmits = 0
        drops = 0
        while True:
            try:
                response = await self.submit(job, wait=True)
            except (ConnectionError, ServiceError, asyncio.IncompleteReadError):
                self._drop()
                resubmits += 1
                drops += 1
                if time.monotonic() >= end:
                    raise ServiceError("submission deadline exhausted "
                                       "(server unreachable)")
                if drops > 1:
                    # first drop reconnects immediately (a restarting
                    # server is the common case; _connect has its own
                    # backoff while the socket is gone)
                    await asyncio.sleep(self._backoff_delay(drops - 2))
                self.reconnects += 1
                continue
            if response.get("ok"):
                response["client_resubmits"] = resubmits
                return response
            if response.get("error") in RETRYABLE:
                resubmits += 1
                if time.monotonic() >= end:
                    raise ServiceError(
                        f"submission deadline exhausted (last rejection: "
                        f"{response.get('error')})"
                    )
                pause = min(float(response.get("retry_after", 0.5)),
                            max(end - time.monotonic(), 0.01), 2.0)
                if self.backoff_jitter > 0:
                    # stagger retries of equally-hinted clients
                    pause *= 1.0 + self.backoff_jitter * self._rng.random()
                await asyncio.sleep(pause)
                continue
            return response  # terminal failure (bad request, job failed)

    async def status(self, job_id: str) -> Dict[str, Any]:
        """Current record of ``job_id`` (state, fidelity, result fields)."""
        return await self.request({"op": "status", "job_id": job_id})

    async def fetch_result(
        self, key: Optional[str] = None, job_id: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """Fetch a stored result through the ``result`` op.

        The server answers with a JSON header line followed by the raw
        CRC-framed bytes of the result's cache entry; this decodes them
        client-side. Returns ``(header, result)`` — ``result`` is
        ``None`` when the header is an error.
        """
        if self._writer is None or self._writer.is_closing():
            await self._connect()
        assert self._reader is not None and self._writer is not None
        request: Dict[str, Any] = {"op": "result"}
        if key is not None:
            request["key"] = key
        if job_id is not None:
            request["job_id"] = job_id
        self._writer.write(json.dumps(request).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        header = json.loads(line)
        if not header.get("ok"):
            return header, None
        blob = await self._reader.readexactly(int(header["length"]))
        # the codec needs the result classes (the simulator): load them
        # on the first fetch, not when the CLI imports the client
        from repro.experiments.persist import decode_result

        return header, decode_result(blob)

    async def stats(self) -> Dict[str, Any]:
        """Server counters, queue/breaker/store state, and latency tails."""
        return await self.request({"op": "stats"})

    async def drain(self) -> Dict[str, Any]:
        """Ask the server to finish in-flight work and stop."""
        return await self.request({"op": "drain"})

    def _drop(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def close(self) -> None:
        """Close the connection (safe to call repeatedly)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = self._writer = None


class SyncServiceClient:
    """Synchronous façade for CLI use: one event loop per call."""

    def __init__(self, socket_path: str, connect_timeout: float = 30.0) -> None:
        self.socket_path = socket_path
        self.connect_timeout = connect_timeout

    def _call(self, coro_factory):
        async def _run():
            client = ServiceClient(self.socket_path, self.connect_timeout)
            try:
                return await coro_factory(client)
            finally:
                await client.close()

        return asyncio.run(_run())

    def ping(self) -> bool:
        """Blocking :meth:`ServiceClient.ping`."""
        return self._call(lambda c: c.ping())

    def submit(self, job: Dict[str, Any], wait: bool = True) -> Dict[str, Any]:
        """Blocking :meth:`ServiceClient.submit`."""
        return self._call(lambda c: c.submit(job, wait=wait))

    def status(self, job_id: str) -> Dict[str, Any]:
        """Blocking :meth:`ServiceClient.status`."""
        return self._call(lambda c: c.status(job_id))

    def fetch_result(self, key: Optional[str] = None,
                     job_id: Optional[str] = None):
        """Blocking :meth:`ServiceClient.fetch_result`."""
        return self._call(lambda c: c.fetch_result(key=key, job_id=job_id))

    def stats(self) -> Dict[str, Any]:
        """Blocking :meth:`ServiceClient.stats`."""
        return self._call(lambda c: c.stats())

    def drain(self) -> Dict[str, Any]:
        """Blocking :meth:`ServiceClient.drain`."""
        return self._call(lambda c: c.drain())
