"""Persistence of experiment results: the repetition cache and its format.

:class:`ResultCache` is a content-addressed on-disk memo of individual
:class:`~repro.workflow.runner.WorkflowResult` repetitions, keyed on
everything that determines a repetition's outcome (spec fields, seed,
jitter, system configs, package version). Re-rendering EXPERIMENTS.md or
re-running a campaign skips already-computed cells; see
``docs/performance.md`` for location and invalidation rules.

CLI-free API: :class:`ResultCache`, :func:`default_cache_root`,
:func:`encode_result`, :func:`encode_cacheable`, :func:`decode_result`.

The CRC-framed wire format (:func:`encode_result` / :func:`decode_result`)
is shared with the service layer: the exact bytes the cache publishes are
what the server reads back and streams to clients. The job server's
workers encode each result where it was computed; the server only moves
the bytes.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
import zlib
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.experiments.parallel import _sha256_hex

__all__ = [
    "ResultCache",
    "default_cache_root",
    "encode_result",
    "encode_cacheable",
    "decode_result",
]

# ---------------------------------------------------------------------------
# content-addressed repetition cache
# ---------------------------------------------------------------------------

#: Bump to invalidate every cached repetition (e.g. after a change to the
#: WorkflowResult layout that keeps the package version constant).
#: 2: system_stats gained DYAD/fault counters; keys gained the fault plan.
#: 3: system_stats gained the channel_* kernel-health counters.
#: 4: system_stats gained invariant_* counters; results gained
#:    invariant_violations; keys gained the invariant-checker config and
#:    integrity-fault plan fields.
#: 5: system_stats gained fidelity/fluid_epochs/rate_solves; results gained
#:    the fidelity field; keys gained the fidelity tier.
#: 6: entries gained the CRC-framed on-disk format and the sharded
#:    ``root/<key[:2]>/`` layout (multi-tenant store prerequisites).
#: 7: specs gained topology/producers/consumers; DyadConfig gained
#:    shared_read_cache (config reprs key the cache); system_stats gained
#:    dyad_shared_read_waits and the pool_* counters.
_CACHE_SCHEMA = 7

#: On-disk entry framing: magic + payload length + CRC32 ahead of the
#: pickle. A crashed writer (power loss between write and rename on a
#: non-atomic filesystem, or a torn page) leaves an entry whose length or
#: checksum disagrees; ``load`` discards it as a miss instead of
#: unpickling garbage. Legacy raw-pickle entries fail the magic check and
#: take the same self-heal path.
_ENTRY_MAGIC = b"RPRC"
_ENTRY_HEADER = struct.Struct("<4sQI")  # magic, payload length, crc32


def encode_result(result) -> bytes:
    """Pickle + CRC-frame a result into the cache's on-disk/wire bytes.

    The returned blob is self-validating (magic, length, CRC32) and is
    the unit of result delivery: stored verbatim on disk, streamed
    verbatim to clients.
    """
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    header = _ENTRY_HEADER.pack(
        _ENTRY_MAGIC, len(payload), zlib.crc32(payload)
    )
    return header + payload


def encode_cacheable(result) -> bytes:
    """:func:`encode_result` for a result a cache may hold, in its
    canonical form: the bytes every writer of the result publishes.

    A traced or metered run carries its instruments, which no cache
    entry keeps, so it is refused.

    The bytes encode the result as a reader decodes it, so decoding and
    re-encoding them gives the same bytes, whichever process computed
    the result: unpickling interns instance attribute names, which a
    fresh result may share with equal dictionary keys, so a fresh result
    and its decoded copy pickle differently.
    """
    if getattr(result, "tracer", None) is not None:
        raise ReproError("refusing to cache a traced run")
    if getattr(result, "metrics", None) is not None:
        raise ReproError("refusing to cache a metered run")
    return encode_result(decode_result(encode_result(result)))


def decode_result(blob: bytes):
    """Validate framing and unpickle; raises :class:`ReproError` on damage."""
    header = bytes(blob[: _ENTRY_HEADER.size])
    if len(header) < _ENTRY_HEADER.size:
        raise ReproError("cache entry truncated before header")
    magic, length, crc = _ENTRY_HEADER.unpack(header)
    payload = bytes(blob[_ENTRY_HEADER.size:])
    if (magic != _ENTRY_MAGIC or len(payload) != length
            or zlib.crc32(payload) != crc):
        raise ReproError("cache entry failed integrity check")
    return pickle.loads(payload)


def default_cache_root() -> str:
    """Cache directory: ``REPRO_CACHE_DIR`` or ``~/.cache/repro/results``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get(
        "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
    )
    return os.path.join(xdg, "repro", "results")


class ResultCache:
    """Content-addressed on-disk store of single-repetition results.

    The key digests every input that determines a repetition's outcome:
    the full spec (``repr`` of the frozen dataclass, which includes the
    molecular model's calibration constants), the seed, the jitter, the
    ``repr`` of each system config, the package version, and the cache
    schema. Two processes computing the same cell therefore agree on the
    key, and any recalibration that changes an input changes the key.

    Values are pickled :class:`~repro.workflow.runner.WorkflowResult`
    objects (tracers are never cached — a traced run bypasses the cache),
    framed with a magic/length/CRC32 header so a torn or truncated write
    is detected on load. Corrupt or unreadable entries count as misses
    and are removed — recomputed, never fatal.

    The store is safe for concurrent writers across processes and
    tenants: entries are published with fsync + ``os.replace`` (readers
    see either nothing or a complete entry), keys are content addresses,
    and every writer stores a result's canonical bytes
    (:func:`encode_cacheable`), so two writers racing on the same cell —
    a serial campaign, a campaign worker, the job server — publish
    byte-equal entries and last-rename-wins is harmless. Entries are sharded
    into 256 ``root/<key[:2]>/`` directories so a campaign-scale store
    never degrades a single directory's listing.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_root()
        self.hits = 0
        self.misses = 0

    # -- keying ------------------------------------------------------------
    @staticmethod
    def key(spec, seed: int, jitter_cv: float,
            system_configs: Optional[Dict[str, Any]] = None,
            fault_plan: Optional[Any] = None,
            invariants: Optional[Any] = None,
            fidelity: str = "exact") -> str:
        """Hex digest identifying one repetition's inputs.

        ``fault_plan`` and ``invariants`` participate in the digest (via
        their deterministic dataclass ``repr``) so faulty, fault-free,
        checked, and unchecked runs of the same spec can never collide.
        ``fidelity`` keys the simulation tier — exact and fluid runs of
        the same cell are distinct entries.
        """
        import repro

        material = json.dumps(
            {
                "schema": _CACHE_SCHEMA,
                "version": repro.__version__,
                "spec": repr(spec),
                "seed": int(seed),
                "jitter_cv": float(jitter_cv).hex(),
                "configs": {
                    name: repr(cfg)
                    for name, cfg in sorted((system_configs or {}).items())
                    if cfg is not None
                },
                "fault_plan": repr(fault_plan) if fault_plan is not None
                else None,
                "invariants": repr(invariants) if invariants is not None
                else None,
                "fidelity": str(fidelity),
            },
            sort_keys=True,
        )
        return _sha256_hex(material)

    def path(self, key: str) -> str:
        """On-disk location of one entry (sharded by key prefix)."""
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    # -- access ------------------------------------------------------------
    def load_bytes(self, key: str) -> Optional[bytes]:
        """Validated framed blob for ``key`` or ``None`` (counts hit/miss).

        The returned bytes are exactly what :func:`decode_result` (and
        any reader of the on-disk format) accepts — no unpickling
        happens here, so callers that only forward bytes skip the
        deserialization cost entirely. Corrupt entries self-heal as in
        :meth:`load`.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
            header = blob[: _ENTRY_HEADER.size]
            magic, length, crc = _ENTRY_HEADER.unpack(header)
            payload = blob[_ENTRY_HEADER.size:]
            if (magic != _ENTRY_MAGIC or len(payload) != length
                    or zlib.crc32(payload) != crc):
                raise ReproError("cache entry failed integrity check")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated write, torn page, legacy unframed entry, ... —
            # self-heal by recomputing.
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return blob

    def load(self, key: str):
        """Cached result for ``key`` or ``None`` (corrupt entries vanish)."""
        blob = self.load_bytes(key)
        if blob is None:
            return None
        try:
            return pickle.loads(blob[_ENTRY_HEADER.size:])
        except Exception:
            # framing was intact but the pickle layout drifted
            self.hits -= 1
            self.misses += 1
            try:
                os.unlink(self.path(key))
            except OSError:
                pass
            return None

    def store(self, key: str, result) -> str:
        """Persist a result atomically; returns the entry path.

        Safe under concurrent writers: the framed payload is written to a
        same-shard temp file, flushed to stable storage (``fsync``), then
        published with ``os.replace`` — a reader never observes a partial
        entry, and racing writers of the same key overwrite each other
        with byte-equal content (the canonical bytes of
        :func:`encode_cacheable`).
        """
        return self.store_bytes(key, encode_cacheable(result))

    def store_bytes(self, key: str, blob: bytes) -> str:
        """Atomically publish an already-framed blob under ``key``: the
        :func:`encode_cacheable` bytes a worker made of its result."""
        path = self.path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def _entries(self):
        """Yield the path of every entry, across shards (and any legacy
        flat-layout files still sitting in the root)."""
        if not os.path.isdir(self.root):
            return
        for name in sorted(os.listdir(self.root)):
            full = os.path.join(self.root, name)
            if name.endswith(".pkl"):
                yield full  # legacy flat entry
            elif len(name) == 2 and os.path.isdir(full):
                for entry in sorted(os.listdir(full)):
                    if entry.endswith(".pkl"):
                        yield os.path.join(full, entry)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())
