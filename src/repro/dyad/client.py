"""DYAD producer/consumer clients (the POSIX-interposition layer).

The clients implement the paper's Fig. 2 data path:

Producer ``produce``:
  1. ``write_single_buf`` — stage the frame on the node-local SSD under an
     exclusive flock (plus fsync, so the service can serve it);
  2. ``dyad_commit`` — publish the ownership record to the KVS (the
     metadata-management overhead that makes DYAD production ~1.4× XFS).

Consumer ``consume``:
  1. ``dyad_fetch`` — look up the ownership record. On a miss (frame not
     yet produced) fall back to the loosely-coupled KVS watch: the nested
     ``dyad_wait_data`` region is *idle* time. Once producers run ahead,
     this lookup always hits — the multi-protocol adaptive
     synchronization of the paper;
  2. ``dyad_get_data`` — if the owner is remote: ask the owner's service
     to read the staged frame, then pull it over RDMA;
  3. ``dyad_cons_store`` — store the pulled frame into the local staging
     cache;
  4. ``read_single_buf`` — read the (now local) frame under a shared
     flock, exactly like any POSIX consumer would.

Every step annotates a Caliper region so experiments and the Fig. 9 call
trees fall out of the same instrumentation.
"""

from __future__ import annotations

import posixpath
import sys
from typing import Generator, Optional, Tuple

from repro.dyad.mdm import OwnerRecord
from repro.dyad.service import DyadRuntime
from repro.errors import DyadError, IntegrityError, KeyNotFound, TransferError
from repro.perf.caliper import Annotator, Category
from repro.sim.resources import Signal
from repro.storage.locks import LockMode
from repro.storage.posixfs import normalize

__all__ = ["DyadProducerClient", "DyadConsumerClient"]


class _Regions:
    """Null-safe annotation helper shared by both clients."""

    def __init__(self, annotator: Optional[Annotator]) -> None:
        self._ann = annotator

    def begin(self, region: str, category: Optional[str] = None) -> None:
        if self._ann is not None:
            self._ann.begin(region, category)

    def end(self, region: str) -> None:
        if self._ann is not None:
            self._ann.end(region)


class DyadProducerClient:
    """Produces managed files from one node."""

    def __init__(self, runtime: DyadRuntime, node_id: str, name: str) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.name = name
        self.service = runtime.service(node_id)
        self.env = runtime.env
        #: simulation time of the last KVS publish (the commit instant the
        #: invariant checker's causality rule anchors on)
        self.last_commit_time: Optional[float] = None

    def produce(
        self,
        path: str,
        nbytes: int,
        data: Optional[bytes] = None,
        annotator: Optional[Annotator] = None,
    ) -> Generator:
        """Generator: stage a frame and publish it; returns elapsed seconds.

        ``path`` must live under the managed root; ``data`` is an optional
        real payload (requires the runtime's ``store_data=True``).
        """
        cfg = self.runtime.config
        path = normalize(path)
        if not path.startswith(cfg.managed_root):
            raise DyadError(f"{path} is outside managed root {cfg.managed_root}")
        regions = _Regions(annotator)
        staging = self.service.staging
        start = self.env._now

        regions.begin("dyad_produce", Category.MOVEMENT)
        yield self.env.timeout(cfg.client_overhead)

        # ``stale_metadata`` window: the KVS record is published *before*
        # the bytes are staged — metadata runs ahead of data, the exact
        # race the adaptive sync normally prevents. Checked consumers
        # absorb it (the service refuses un-staged frames, they retry).
        stale = self.service.stale_publish
        if stale:
            regions.begin("dyad_commit")
            yield from self.runtime.mdm.publish(self.node_id, path, nbytes)
            self.last_commit_time = self.env._now
            regions.end("dyad_commit")

        regions.begin("write_single_buf")
        yield self.env.timeout(cfg.flock_time)
        lock = yield from staging.locks.acquire(
            path, LockMode.EXCLUSIVE, owner=self.name
        )
        try:
            # DYAD creates managed subdirectories on demand.
            staging.makedirs(posixpath.dirname(path))
            handle = yield from staging.open(path, "w", client=self.node_id)
            try:
                yield from handle.write(nbytes, data)
                if cfg.fsync_on_produce:
                    yield from handle.fsync()
            finally:
                # A run abandoned mid-frame is closed by the garbage
                # collector: simulating the close would yield during
                # GeneratorExit, so only live runs close the handle.
                if sys.exc_info()[0] is not GeneratorExit:
                    yield from handle.close()
        finally:
            staging.locks.release(lock)
        regions.end("write_single_buf")

        if not stale:
            regions.begin("dyad_commit")
            yield from self.runtime.mdm.publish(self.node_id, path, nbytes)
            self.last_commit_time = self.env._now
            regions.end("dyad_commit")

        regions.end("dyad_produce")
        return self.env._now - start


class DyadConsumerClient:
    """Consumes managed files on one node."""

    def __init__(self, runtime: DyadRuntime, node_id: str, name: str) -> None:
        self.runtime = runtime
        self.node_id = node_id
        self.name = name
        self.service = runtime.service(node_id)
        self.env = runtime.env
        #: consumptions that needed the loosely-coupled KVS wait
        self.kvs_waits = 0
        #: consumptions served by the flock fast path
        self.fast_hits = 0
        #: transfer attempts retried after an injected/transient fault
        self.transfer_retries = 0
        #: remote consumptions served from this node's staging cache
        self.cache_hits = 0
        #: consumptions that parked behind another consumer's in-flight
        #: pull of the same frame (the shared-read single-flight tier)
        self.shared_read_waits = 0
        #: bytes actually obtained by the last :meth:`consume` (may be
        #: short of the committed size in unchecked mode under torn_write)
        self.last_consume_bytes: Optional[int] = None
        #: True when the last consume returned a damaged payload that
        #: integrity checking was not enabled to catch
        self.last_consume_corrupt = False

    # -- protocol steps ------------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic seeded jitter.

        Attempt ``a`` waits ``min(retry_backoff * 2**a, retry_backoff_cap)``,
        scaled by a uniform draw from ``[1, 1 + retry_jitter]`` out of the
        cluster's named RNG streams — so the whole retry schedule is
        seed-reproducible while still de-synchronizing retry storms.
        """
        cfg = self.runtime.config
        delay = min(cfg.retry_backoff * (2.0 ** attempt), cfg.retry_backoff_cap)
        if cfg.retry_jitter > 0.0 and delay > 0.0:
            draw = self.runtime.cluster.rng.stream("dyad.retry").random()
            delay *= 1.0 + cfg.retry_jitter * draw
        return delay

    def _fetch(self, path: str, regions: _Regions,
               subscribe: bool = False) -> Generator:
        """dyad_fetch: ownership lookup with multi-protocol fallback.

        With ``subscribe=True`` (the ``pubsub`` streaming mode) the
        adaptive lookup-first protocol is bypassed: the consumer arms the
        KVS watch for *every* frame, paying the registration RPC and
        pushed notification each time — per-frame pub/sub rather than
        first-touch-then-fast-path.
        """
        mdm = self.runtime.mdm
        regions.begin("dyad_fetch")
        if subscribe:
            self.kvs_waits += 1
            regions.begin("dyad_wait_data", Category.IDLE)
            record = yield from mdm.wait(self.node_id, path)
            regions.end("dyad_wait_data")
            regions.end("dyad_fetch")
            return record
        try:
            record = yield from mdm.fetch(self.node_id, path)
            self.fast_hits += 1
        except KeyNotFound:
            # Loosely-coupled synchronization: block on the KVS watch. Only
            # the blocking wait is idle time; the registration RPC cost is
            # inside it, which matches the paper's accounting of DYAD idle
            # as "time spent waiting for data availability".
            self.kvs_waits += 1
            regions.begin("dyad_wait_data", Category.IDLE)
            record = yield from mdm.wait(self.node_id, path)
            regions.end("dyad_wait_data")
        regions.end("dyad_fetch")
        return record

    def _get_remote(self, record: OwnerRecord, regions: _Regions) -> Generator:
        """dyad_get_data (+ dyad_cons_store) for a remotely-owned frame.

        Transfer attempts that fail with :class:`TransferError` (injected
        faults, transient network errors, or a crashed owner service) are
        retried under capped exponential backoff with deterministic
        seeded jitter, up to the configured budget. Returns the pulled
        payload (``None`` in size-only mode).
        """
        cfg = self.runtime.config
        runtime = self.runtime
        owner_service = runtime.service(record.owner)

        regions.begin("dyad_get_data")
        attempts = cfg.max_transfer_retries + 1
        count, payload = record.size, None
        for attempt in range(attempts):
            try:
                # Ask the owner's service to read the staged frame...
                yield from runtime.cluster.fabric.message(
                    self.node_id, record.owner
                )
                _elapsed, count, payload = yield from owner_service.serve_get(
                    record.path, record.size
                )
                # ...then pull the bytes.
                yield from runtime.rdma.get(
                    self.node_id, record.owner, count
                )
                # ``bit_corrupt`` window: the pull itself may damage the
                # payload in flight. Checked consumers see the checksum
                # fail and re-pull (a retry re-draws); unchecked ones
                # carry the damage home.
                if (runtime.corrupt_rate > 0.0
                        and runtime.corrupt_draw() < runtime.corrupt_rate):
                    runtime.corrupt_transfers += 1
                    if cfg.integrity_checks:
                        raise TransferError(
                            f"{record.path}: transfer failed checksum "
                            "verification (corrupted in flight)"
                        )
                    self.last_consume_corrupt = True
                    if payload:
                        payload = (bytes([payload[0] ^ 0xFF])
                                   + bytes(payload[1:]))
                break
            except TransferError:
                if attempt == attempts - 1:
                    regions.end("dyad_get_data")
                    raise
                self.transfer_retries += 1
                if runtime.metrics_retries is not None:
                    runtime.metrics_retries.inc()
                yield self.env.timeout(self._backoff_delay(attempt))
        regions.end("dyad_get_data")

        if not cfg.cache_on_consume:
            return count, payload

        regions.begin("dyad_cons_store")
        staging = self.service.staging
        yield self.env.timeout(cfg.flock_time)
        lock = yield from staging.locks.acquire(
            record.path, LockMode.EXCLUSIVE, owner=self.name
        )
        try:
            staging.makedirs(posixpath.dirname(record.path))
            handle = yield from staging.open(record.path, "w", client=self.node_id)
            try:
                yield from handle.write(count, payload)
            finally:
                if sys.exc_info()[0] is not GeneratorExit:
                    yield from handle.close()
        finally:
            staging.locks.release(lock)
        regions.end("dyad_cons_store")
        return count, payload

    def _read_local(self, record: OwnerRecord, regions: _Regions) -> Generator:
        """read_single_buf: flock-guarded read from local staging."""
        cfg = self.runtime.config
        # Collocated frames are read straight from the producer's staging.
        staging = self.runtime.service(
            record.owner if record.owner == self.node_id else self.node_id
        ).staging
        regions.begin("read_single_buf", Category.MOVEMENT)
        yield self.env.timeout(cfg.flock_time)
        lock = yield from staging.locks.acquire(
            record.path, LockMode.SHARED, owner=self.name
        )
        try:
            handle = yield from staging.open(record.path, "r", client=self.node_id)
            try:
                count, payload = yield from handle.read(record.size)
            finally:
                if sys.exc_info()[0] is not GeneratorExit:
                    yield from handle.close()
        finally:
            staging.locks.release(lock)
        if count != record.size and cfg.integrity_checks:
            raise DyadError(
                f"{record.path}: read {count} bytes, expected {record.size}"
            )
        self.last_consume_bytes = count
        if staging.is_corrupt(record.path):
            if cfg.integrity_checks:
                raise IntegrityError(
                    f"{record.path}: staged frame failed checksum "
                    "verification"
                )
            self.last_consume_corrupt = True
        if (cfg.unlink_after_consume
                and record.owner != self.node_id
                and staging is self.service.staging):
            # drop the consumer-side cached copy to bound staging growth;
            # the producer's original stays (it owns the data's lifetime)
            yield from staging.unlink(record.path, client=self.node_id)
        regions.end("read_single_buf")
        return payload

    # -- public API ------------------------------------------------------------
    def consume(
        self,
        path: str,
        annotator: Optional[Annotator] = None,
        subscribe: bool = False,
    ) -> Generator:
        """Generator: obtain a managed frame; returns ``(record, payload)``.

        Blocks (idle) until the frame is produced when necessary. The
        payload is ``None`` unless the runtime stores real data.
        ``subscribe=True`` arms a per-frame KVS watch instead of the
        adaptive lookup-first protocol (the ``pubsub`` streaming mode).
        """
        cfg = self.runtime.config
        path = normalize(path)
        if not path.startswith(cfg.managed_root):
            raise DyadError(f"{path} is outside managed root {cfg.managed_root}")
        regions = _Regions(annotator)

        self.last_consume_bytes = None
        self.last_consume_corrupt = False
        regions.begin("dyad_consume", Category.MOVEMENT)
        yield self.env.timeout(cfg.client_overhead)
        record = yield from self._fetch(path, regions, subscribe=subscribe)
        remote = record.owner != self.node_id
        pulled = None
        if remote and cfg.cache_on_consume:
            # The managed staging directory doubles as a consumer-side
            # cache: another consumer on this node may have pulled the
            # frame already (fan-out workloads). One stat verifies it.
            staging = self.service.staging
            while True:
                if staging.exists(record.path):
                    st = yield from staging.stat(record.path,
                                                 client=self.node_id)
                    if st.size == record.size:
                        remote = False
                        self.cache_hits += 1
                    break
                pending = (self.service.inflight_pulls.get(record.path)
                           if cfg.shared_read_cache else None)
                if pending is None:
                    break
                # Shared-read tier: another consumer on this node is
                # already pulling this frame. Park on its completion
                # instead of issuing a duplicate RDMA pull, then re-check
                # the staging cache (the pull may have failed, in which
                # case this consumer takes over as the puller).
                self.shared_read_waits += 1
                regions.begin("dyad_shared_wait", Category.IDLE)
                yield pending.wait()
                regions.end("dyad_shared_wait")
        if remote:
            guard = None
            if cfg.cache_on_consume and cfg.shared_read_cache:
                guard = Signal(self.env)
                self.service.inflight_pulls[record.path] = guard
            try:
                pulled_count, pulled = yield from self._get_remote(
                    record, regions
                )
                self.last_consume_bytes = pulled_count
            finally:
                # Fire even on a failed pull so parked consumers re-check
                # (and re-pull themselves) instead of deadlocking. With no
                # waiters the fire is pure bookkeeping — no event is
                # scheduled — so uncontended (pairwise) timelines are
                # untouched.
                if guard is not None:
                    self.service.inflight_pulls.pop(record.path, None)
                    guard.fire_once(self.env._now)
        regions.end("dyad_consume")

        if remote and not cfg.cache_on_consume:
            # Uncached ablation: consume straight from the pulled buffer
            # (a memory deserialize, not a file read).
            regions.begin("read_single_buf", Category.MOVEMENT)
            yield self.env.timeout(cfg.client_overhead)
            regions.end("read_single_buf")
            return record, pulled
        payload = yield from self._read_local(record, regions)
        return record, payload
