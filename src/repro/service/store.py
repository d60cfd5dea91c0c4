"""Shared multi-tenant result store over the content-addressed cache.

The service promotes :class:`~repro.experiments.persist.ResultCache`
to a shared store: every tenant's results land in one sharded,
atomically-published, CRC-framed cache, keyed purely by the *content*
of the computation — so two tenants submitting identical configurations
share one computation and one entry. This wrapper adds the tenancy
accounting the serving layer reports (per-tenant hit/miss/store
counters, cross-tenant dedup) plus the two structures that make the
read path cheap enough for the serving hot loop:

- an **in-memory LRU index** over keys (:attr:`lru_entries` deep).
  A hit resolves a result's location and metadata (fingerprint,
  makespan) with one ordered-dict lookup — no per-request ``stat``,
  file read, or unpickle. Metadata outlives the LRU: published results
  arrive with it and a restarted server reads it from its journal
  (:meth:`SharedResultStore.recall`), so only a key this process was
  never told about is decoded, once.
- an **mmap-backed payload segment** (:class:`PayloadSegment`): an
  append-only side file holding the exact CRC-framed bytes the cache
  published. :meth:`SharedResultStore.payload` returns a ``memoryview``
  into the mapping, so the server can stream a stored result to a
  socket without copying or re-encoding it — the zero-copy delivery
  path. The segment is a rebuildable acceleration structure; the
  sharded cache directory remains the source of truth, so a torn
  segment tail (crash mid-append) is simply truncated at boot.

Tenant isolation here is accounting, not confidentiality: results are
pure functions of their inputs, so sharing entries leaks nothing a
tenant could not compute themselves.
"""

from __future__ import annotations

import mmap
import os
import struct
from collections import OrderedDict, defaultdict
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.persist import ResultCache, decode_result
from repro.service.jobs import JobSpec

__all__ = ["PayloadSegment", "SharedResultStore", "StoredResult"]

#: segment record framing: magic, 64-hex-char key, framed-blob length.
#: The blob itself carries the cache's magic/length/CRC frame, so the
#: segment header only needs enough to walk records and rebuild the
#: index at boot.
_SEG_MAGIC = b"RPSG"
_SEG_HEADER = struct.Struct("<4s64sQ")


class PayloadSegment:
    """Append-only mmap-readable log of framed result payloads."""

    def __init__(self, path: str, max_boot_bytes: int = 64 * 1024 * 1024
                 ) -> None:
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if os.path.exists(path) and os.path.getsize(path) > max_boot_bytes:
            # the segment is a cache of a cache — recreating it is always
            # safe, and cheaper than compacting in place
            os.unlink(path)
        self._fh = open(path, "ab")
        self._size = self._fh.tell()
        self._map: Optional[mmap.mmap] = None
        self._mapped = 0
        self.appended = 0

    @property
    def size(self) -> int:
        return self._size

    def scan(self) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(key, offset, length)`` for every intact record.

        A torn tail (crash between header and blob) ends the scan and is
        truncated so subsequent appends start on a record boundary.
        """
        good_end = 0
        try:
            with open(self.path, "rb") as fh:
                while True:
                    header = fh.read(_SEG_HEADER.size)
                    if len(header) < _SEG_HEADER.size:
                        break
                    magic, key_raw, length = _SEG_HEADER.unpack(header)
                    if magic != _SEG_MAGIC:
                        break
                    offset = fh.tell()
                    blob = fh.read(length)
                    if len(blob) < length:
                        break
                    good_end = offset + length
                    yield key_raw.decode("ascii"), offset, length
        except OSError:
            return
        if good_end < self._size:
            self._fh.truncate(good_end)
            self._size = good_end

    def append(self, key: str, blob: bytes) -> Tuple[int, int]:
        """Append one framed blob; returns its ``(offset, length)``."""
        header = _SEG_HEADER.pack(
            _SEG_MAGIC, key.encode("ascii"), len(blob)
        )
        offset = self._size + _SEG_HEADER.size
        self._fh.write(header)
        self._fh.write(blob)
        # flush to the page cache so the mmap read path sees the bytes;
        # no fsync — durability belongs to the cache directory, not here
        self._fh.flush()
        self._size = offset + len(blob)
        self.appended += 1
        return offset, len(blob)

    def view(self, offset: int, length: int) -> memoryview:
        """Zero-copy window onto one record's framed bytes."""
        end = offset + length
        if end > self._size:
            raise ReproError(
                f"segment read past end ({end} > {self._size})"
            )
        if self._map is None or end > self._mapped:
            if self._map is not None:
                try:
                    self._map.close()
                except BufferError:
                    # a previously handed-out view is still referenced
                    # (e.g. buffered in a socket transport); drop our
                    # reference and let GC unmap when the view dies
                    pass
            # map through a read-only descriptor: the append handle is
            # write-only, which mmap refuses
            with open(self.path, "rb") as rfh:
                self._map = mmap.mmap(
                    rfh.fileno(), self._size, access=mmap.ACCESS_READ
                )
            self._mapped = self._size
        return memoryview(self._map)[offset:end]

    def close(self) -> None:
        """Release the mapping and the append handle."""
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                pass  # outstanding views; GC unmaps when they die
            self._map = None
        self._fh.close()

    def stats(self) -> Dict[str, object]:
        """Segment telemetry: path, byte size, records appended."""
        return {"path": self.path, "bytes": self._size,
                "records": self.appended}


class _Entry:
    __slots__ = ("offset", "length")

    def __init__(self, offset: int, length: int) -> None:
        self.offset = offset
        self.length = length


class StoredResult:
    """A cached result resolved to metadata + zero-copy payload access."""

    __slots__ = ("key", "fingerprint", "makespan", "_store")

    def __init__(self, key: str, fingerprint: str, makespan: float,
                 store: "SharedResultStore") -> None:
        self.key = key
        self.fingerprint = fingerprint
        self.makespan = makespan
        self._store = store

    def payload(self) -> Optional[memoryview]:
        """Framed bytes of the result (the delivery wire format)."""
        return self._store.payload(self.key)

    def result(self):
        """Decoded result object (pays one unpickle; hot paths avoid it)."""
        view = self.payload()
        if view is None:
            return None
        return decode_result(view)


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
        self.segment = PayloadSegment(
            os.path.join(self.cache.root, "payload.seg")
        )
        self._index: "OrderedDict[str, _Entry]" = OrderedDict()
        for key, offset, length in self.segment.scan():
            # later records win (a re-appended key supersedes its older
            # copy)
            self._index[key] = _Entry(offset, length)
            self._index.move_to_end(key)
        while len(self._index) > lru_entries:
            self._index.popitem(last=False)
        #: content-key memo: JobSpec construction is eagerly validating
        #: and hashing is pure, so (spec, tier) -> key never changes
        self._key_cache: Dict[Tuple[JobSpec, Optional[str]], str] = {}
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        self.stores: Dict[str, int] = defaultdict(int)
        self.lru_hits = 0
        self.lru_misses = 0
        self.cross_tenant_dedup = 0
        #: key -> tenant that first published it (this process's view)
        self._publisher: Dict[str, str] = {}
        #: key -> (fingerprint, makespan), kept past the LRU: a key this
        #: process published or read from its journal (:meth:`recall`)
        #: is served without decoding its result
        self._known: Dict[str, Tuple[str, Optional[float]]] = {}

    @property
    def root(self) -> str:
        return self.cache.root

    def key_for(self, spec: JobSpec, fidelity: Optional[str] = None) -> str:
        """Content address of the job at its effective fidelity tier."""
        memo = (spec, fidelity)
        key = self._key_cache.get(memo)
        if key is None:
            key = spec.run_task(fidelity).key()
            if len(self._key_cache) >= 4096:
                self._key_cache.clear()
            self._key_cache[memo] = key
        return key

    # -- index internals ---------------------------------------------------
    def _insert(self, key: str, blob: bytes) -> _Entry:
        offset, length = self.segment.append(key, blob)
        entry = _Entry(offset, length)
        self._index[key] = entry
        self._index.move_to_end(key)
        while len(self._index) > self.lru_entries:
            self._index.popitem(last=False)
        return entry

    def _locate(self, key: str, recheck: bool = False) -> Optional[_Entry]:
        """Index entry for ``key``, faulting from disk on an LRU miss (a
        ``recheck`` miss is not counted: see :meth:`fetch`)."""
        entry = self._index.get(key)
        if entry is not None:
            self.lru_hits += 1
            self._index.move_to_end(key)
            return entry
        if not recheck:
            self.lru_misses += 1
        blob = self.cache.load_bytes(key)
        if blob is None:
            return None
        return self._insert(key, blob)

    def _decode(self, key: str, entry: _Entry):
        """Decode one indexed record (self-heals a bad segment copy)."""
        try:
            return entry, decode_result(self.segment.view(
                entry.offset, entry.length))
        except Exception:
            # segment record unusable (layout drift): drop it and retry
            # through the authoritative cache directory
            self._index.pop(key, None)
            blob = self.cache.load_bytes(key)
            if blob is None:
                return None, None
            return self._insert(key, blob), decode_result(blob)

    def _metadata(self, key: str,
                  entry: _Entry) -> Optional[Tuple[str, Optional[float]]]:
        """``(fingerprint, makespan)`` of an indexed key, decoding its
        result only when this process was never told them."""
        meta = self._known.get(key)
        if meta is None:
            from repro.experiments.parallel import result_fingerprint

            entry, result = self._decode(key, entry)
            if entry is None:
                return None
            try:
                fingerprint = result_fingerprint(result)
            except Exception:
                # not a WorkflowResult (foreign cache content): fetchers
                # get no fingerprint, but the payload stays servable
                fingerprint = ""
            meta = (fingerprint, getattr(result, "makespan", None))
            self._known[key] = meta
        return meta

    # -- access ------------------------------------------------------------
    def fetch(self, key: str, tenant: str,
              recheck: bool = False) -> Optional[StoredResult]:
        """Resolved result (metadata + payload access) or ``None``.

        This is the hot-path read: after the first touch of a key it is
        one LRU lookup — no disk I/O, no deserialization. A ``recheck``
        looks again for a key the same job already missed (a twin may
        have published it since); its miss is not counted twice.
        """
        entry = self._locate(key, recheck)
        meta = self._metadata(key, entry) if entry is not None else None
        if meta is None:
            if not recheck:
                self.misses[tenant] += 1
            return None
        self.hits[tenant] += 1
        publisher = self._publisher.get(key)
        if publisher is not None and publisher != tenant:
            self.cross_tenant_dedup += 1
        return StoredResult(key, *meta, self)

    def load(self, key: str, tenant: str):
        """Decoded result or ``None`` (compat path; pays the unpickle)."""
        entry = self._locate(key)
        result = None
        if entry is not None:
            entry, result = self._decode(key, entry)
        if entry is None:
            self.misses[tenant] += 1
            return None
        self.hits[tenant] += 1
        publisher = self._publisher.get(key)
        if publisher is not None and publisher != tenant:
            self.cross_tenant_dedup += 1
        return result

    def payload(self, key: str) -> Optional[memoryview]:
        """Zero-copy framed bytes for ``key`` (no tenant accounting)."""
        entry = self._index.get(key)
        if entry is None:
            entry = self._locate(key)
            if entry is None:
                return None
        else:
            self._index.move_to_end(key)
        return self.segment.view(entry.offset, entry.length)

    def handle(self, key: str) -> Optional[Dict[str, object]]:
        """O(1) delivery handle for status polls (``None`` off-index)."""
        entry = self._index.get(key)
        if entry is None:
            return None
        return {"segment": self.segment.path, "offset": entry.offset,
                "length": entry.length}

    def publish(self, key: str, tenant: str, blob: bytes, fingerprint: str,
                makespan: Optional[float]) -> str:
        """Publish an encoded result (atomic, last-writer-wins on equal
        bytes) with its metadata.

        ``blob`` is what :func:`~repro.experiments.persist.encode_cacheable`
        made of the result where it was computed. The same bytes go to
        the cache directory (durable), the payload segment, and —
        untouched — to any client that later fetches the result.
        """
        path = self.cache.store_bytes(key, blob)
        self._insert(key, blob)
        self._known[key] = (fingerprint, makespan)
        self.stores[tenant] += 1
        self._publisher.setdefault(key, tenant)
        return path

    def recall(self, key: str, fingerprint: str,
               makespan: Optional[float]) -> None:
        """Take a key's metadata from a journal record, so fetching it
        after a restart decodes nothing."""
        self._known[key] = (fingerprint, makespan)

    def close(self) -> None:
        """Close the payload segment (the cache directory needs nothing)."""
        self.segment.close()

    def stats(self) -> Dict[str, object]:
        """Entry count, per-tenant counters, LRU and segment telemetry."""
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
            "segment": self.segment.stats(),
        }
