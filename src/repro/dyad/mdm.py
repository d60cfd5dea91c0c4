"""Global metadata management (MDM) over the KVS.

DYAD publishes an ownership record per managed file: which node staged it
and how large it is. Keys are derived from the managed path with a stable
hash, namespaced under ``dyad/``, mirroring the real implementation's use
of the Flux KVS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.errors import KeyNotFound
from repro.kvs.store import KVS
from repro.storage.posixfs import normalize

__all__ = ["OwnerRecord", "MetadataManager"]


@dataclass(frozen=True)
class OwnerRecord:
    """Where a managed file lives."""

    path: str
    owner: str   # node id of the producing node
    size: int    # bytes


def _key_hash(path: str) -> int:
    """Stable 32-bit FNV-1a hash of a managed path."""
    acc = 2166136261
    for byte in path.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


class MetadataManager:
    """Publish/fetch/wait on ownership records."""

    def __init__(self, kvs: KVS, namespace: str = "dyad") -> None:
        self.kvs = kvs
        self.namespace = namespace
        self._keys: Dict[str, str] = {}  # path -> key, for this run's paths

    def key(self, path: str) -> str:
        """KVS key for a managed path."""
        key = self._keys.get(path)
        if key is None:
            key = f"{self.namespace}/{_key_hash(normalize(path)):08x}"
            self._keys[path] = key
        return key

    def publish(self, client: str, path: str, size: int) -> Generator:
        """Generator: commit the ownership record; returns elapsed seconds."""
        record = OwnerRecord(path=normalize(path), owner=client, size=size)
        return (yield from self.kvs.commit(client, self.key(path), record))

    def fetch(self, client: str, path: str) -> Generator:
        """Generator: lookup the record; raises :class:`KeyNotFound` on miss."""
        record = yield from self.kvs.lookup(client, self.key(path))
        return record

    def wait(self, client: str, path: str) -> Generator:
        """Generator: block until the record is published; returns it."""
        record = yield from self.kvs.wait_for(client, self.key(path))
        return record

    def peek(self, path: str) -> Optional[OwnerRecord]:
        """Untimed server-state read (tests/assertions only)."""
        try:
            return self.kvs.value(self.key(path))
        except KeyNotFound:
            return None
