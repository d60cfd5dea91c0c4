"""Shared multi-tenant result store over the content-addressed cache.

The service promotes :class:`~repro.experiments.persist.ResultCache`
to a shared store: every tenant's results land in one sharded,
atomically-published, CRC-framed cache, keyed purely by the *content*
of the computation — so two tenants submitting identical configurations
share one computation and one entry. The cache entry is the only copy
of a result: the server's memory holds keys and metadata, never result
bytes. This wrapper adds the tenancy accounting the serving layer
reports (per-tenant hit/miss/store counters, cross-tenant dedup) and an
**in-memory LRU index** of keys (:attr:`lru_entries` deep) that keeps
the lookup path cheap enough for the serving hot loop.

A hit on the index resolves a result's metadata (fingerprint, makespan)
with one ordered-dict lookup — no ``stat``, file read, or unpickle.
Metadata outlives the index: published results arrive with it and a
restarted server reads it from its journal
(:meth:`SharedResultStore.recall`), so only a key this process was
never told about is decoded, once. Delivering a result
(:meth:`SharedResultStore.payload`) is one CRC-validated read of its
entry file.

Tenant isolation here is accounting, not confidentiality: results are
pure functions of their inputs, so sharing entries leaks nothing a
tenant could not compute themselves.
"""

from __future__ import annotations

import re
from collections import OrderedDict, defaultdict
from typing import Dict, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.experiments.persist import ResultCache
from repro.service.jobs import JobSpec

__all__ = ["SharedResultStore", "StoredResult"]

#: what decoding a stored result loads: unpickling it imports the
#: workflow runner, and with it the DES kernel and the fluid engine
DECODE_MODULES = ("repro.workflow.runner", "repro.sim.core",
                  "repro.sim.fluid")

#: the form :meth:`~repro.experiments.parallel.RunTask.key` produces;
#: anything else could address a file outside the cache directory
_KEY = re.compile(r"[0-9a-f]{64}")


class StoredResult:
    """A cached result resolved to its metadata."""

    __slots__ = ("key", "fingerprint", "makespan")

    def __init__(self, key: str, fingerprint: str,
                 makespan: Optional[float]) -> None:
        self.key = key
        self.fingerprint = fingerprint
        self.makespan = makespan


class SharedResultStore:
    """Tenancy-aware façade over the content-addressed result cache."""

    def __init__(self, root: Optional[str] = None,
                 lru_entries: int = 512) -> None:
        if lru_entries < 1:
            raise ReproError(
                f"lru_entries must be >= 1, got {lru_entries}"
            )
        self.cache = ResultCache(root)
        self.lru_entries = lru_entries
        #: keys whose entry this process has seen, most recent last
        #: (every key here has its metadata in :attr:`_known`)
        self._index: "OrderedDict[str, None]" = OrderedDict()
        #: content-key memo: JobSpec construction is eagerly validating
        #: and hashing is pure, so spec -> key never changes
        self._key_cache: Dict[JobSpec, str] = {}
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        self.stores: Dict[str, int] = defaultdict(int)
        self.lru_hits = 0
        self.lru_misses = 0
        self.cross_tenant_dedup = 0
        #: results decoded to learn their metadata (each loads
        #: :data:`DECODE_MODULES`)
        self.decoded = 0
        #: key -> tenant that first published it (this process's view)
        self._publisher: Dict[str, str] = {}
        #: key -> (fingerprint, makespan), kept past the LRU: a key this
        #: process published or read from its journal (:meth:`recall`)
        #: is served without decoding its result
        self._known: Dict[str, Tuple[str, Optional[float]]] = {}

    @property
    def root(self) -> str:
        return self.cache.root

    def key_for(self, spec: JobSpec) -> str:
        """Content address of the job's result."""
        key = self._key_cache.get(spec)
        if key is None:
            key = spec.run_task().key()
            if len(self._key_cache) >= 4096:
                self._key_cache.clear()
            self._key_cache[spec] = key
        return key

    # -- index internals ---------------------------------------------------
    def _touch(self, key: str) -> None:
        self._index[key] = None
        self._index.move_to_end(key)
        while len(self._index) > self.lru_entries:
            self._index.popitem(last=False)

    def _metadata(self, key: str,
                  recheck: bool) -> Optional[Tuple[str, Optional[float]]]:
        """``(fingerprint, makespan)`` of a stored key, or ``None``.

        An index hit reads no disk. A miss reads the entry file once (a
        ``recheck`` miss is not counted: see :meth:`fetch`) and decodes
        the result only when this process was never told its metadata.
        An entry that does not decode is removed by the cache's
        self-heal (:meth:`~repro.experiments.persist.ResultCache.load`)
        and reads as a miss, so its job is computed again.
        """
        if key in self._index:
            self.lru_hits += 1
            self._index.move_to_end(key)
            return self._known[key]
        if not recheck:
            self.lru_misses += 1
        meta = self._known.get(key)
        if meta is not None:
            if self.cache.load_bytes(key) is None:
                return None
        else:
            from repro.experiments.parallel import result_fingerprint

            result = self.cache.load(key)
            if result is None:
                return None
            self.decoded += 1
            try:
                fingerprint = result_fingerprint(result)
            except Exception:
                # not a WorkflowResult (foreign cache content): fetchers
                # get no fingerprint, but the payload stays servable
                fingerprint = ""
            meta = (fingerprint, getattr(result, "makespan", None))
            self._known[key] = meta
        self._touch(key)
        return meta

    # -- access ------------------------------------------------------------
    def fetch(self, key: str, tenant: str,
              recheck: bool = False) -> Optional[StoredResult]:
        """Resolved result metadata or ``None``.

        This is the hot-path read: after the first touch of a key it is
        one LRU lookup — no disk I/O, no deserialization. A ``recheck``
        looks again for a key the same job already missed (a twin may
        have published it since); its miss is not counted twice.
        """
        meta = self._metadata(key, recheck)
        if meta is None:
            if not recheck:
                self.misses[tenant] += 1
            return None
        self.hits[tenant] += 1
        publisher = self._publisher.get(key)
        if publisher is not None and publisher != tenant:
            self.cross_tenant_dedup += 1
        return StoredResult(key, *meta)

    def payload(self, key: str) -> Optional[bytes]:
        """Framed bytes of the entry for ``key`` (no tenant accounting),
        read from its file and checked against their CRC.

        Raises :class:`~repro.errors.ServiceError` for a string that is
        not a content key, before it reaches the file system.
        """
        if not isinstance(key, str) or not _KEY.fullmatch(key):
            raise ServiceError(f"malformed result key {key!r}")
        return self.cache.load_bytes(key)

    def publish(self, key: str, tenant: str, blob: bytes, fingerprint: str,
                makespan: Optional[float]) -> str:
        """Publish an encoded result (atomic, last-writer-wins on equal
        bytes) with its metadata.

        ``blob`` is what :func:`~repro.experiments.persist.encode_cacheable`
        made of the result where it was computed. The same bytes go to
        the cache directory (durable, the only copy) and — untouched —
        to any client that later fetches the result.
        """
        path = self.cache.store_bytes(key, blob)
        self._known[key] = (fingerprint, makespan)
        self._touch(key)
        self.stores[tenant] += 1
        self._publisher.setdefault(key, tenant)
        return path

    def recall(self, key: str, fingerprint: str,
               makespan: Optional[float]) -> None:
        """Take a key's metadata from a journal record, so fetching it
        after a restart decodes nothing."""
        self._known[key] = (fingerprint, makespan)

    def stats(self) -> Dict[str, object]:
        """Entry count, per-tenant counters and LRU telemetry."""
        return {
            "root": self.root,
            "entries": len(self.cache),
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "stores": dict(self.stores),
            "cross_tenant_dedup": self.cross_tenant_dedup,
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "lru_entries": len(self._index),
            "lru_capacity": self.lru_entries,
            "decoded": self.decoded,
        }
