"""XFS-like node-local file system on the node's NVMe SSD model.

XFS is the paper's "fastest local storage solution": its relevant costs are
the SSD's bandwidth/latency plus small fixed metadata costs (journaled
creates/unlinks, extent allocation on growth). The model charges:

- ``open`` — dentry lookup; creating adds a journal transaction;
- ``write`` — extent allocation for newly grown extents, then the SSD
  write path (bandwidth-shared with other writers on the node — this is
  the coupling behind the linear growth in Fig. 5);
- ``read`` — the SSD read path;
- ``fsync`` — journal flush plus device cache flush;
- ``close``/``stat`` — in-memory costs.

XFS cannot move data between nodes: every handle must be used from the
node the file system is mounted on (enforced — cf. the paper's remark that
XFS-based workflows must collocate producer and consumer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cluster.node import Node
from repro.errors import ConfigError, StorageError
from repro.storage.locks import LockTable
from repro.storage.posixfs import FileHandle, PosixFileSystem
from repro.units import mib, usec

__all__ = ["XFSConfig", "XFSFileSystem"]


@dataclass(frozen=True)
class XFSConfig:
    """Metadata-path costs of the XFS model (device costs live in SSDConfig)."""

    lookup_time: float = usec(3.0)
    create_journal_time: float = usec(25.0)
    unlink_journal_time: float = usec(20.0)
    close_time: float = usec(2.0)
    stat_time: float = usec(2.0)
    fsync_journal_time: float = usec(50.0)
    extent_alloc_time: float = usec(4.0)
    extent_size: int = mib(8)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid values."""
        for name in (
            "lookup_time",
            "create_journal_time",
            "unlink_journal_time",
            "close_time",
            "stat_time",
            "fsync_journal_time",
            "extent_alloc_time",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.extent_size <= 0:
            raise ConfigError("extent_size must be positive")


class XFSFileSystem(PosixFileSystem):
    """One XFS mount on one node's local SSD."""

    kind = "xfs"

    def __init__(
        self,
        node: Node,
        config: Optional[XFSConfig] = None,
        store_data: bool = False,
    ) -> None:
        super().__init__(node.env, store_data=store_data)
        self.node = node
        self.config = config or XFSConfig()
        self.config.validate()
        self.locks = LockTable(node.env)

    # -- helpers -------------------------------------------------------------
    def _check_client(self, client: Optional[str]) -> None:
        if client is not None and client != self.node.node_id:
            raise StorageError(
                f"xfs on {self.node.node_id} is not reachable from {client}: "
                "node-local file systems cannot move data between nodes"
            )

    def _extents(self, nbytes: int) -> int:
        return -(-nbytes // self.config.extent_size) if nbytes else 0

    def _account_growth(self, delta: int) -> None:
        if delta >= 0:
            self.node.ssd.allocate(delta)
        else:
            self.node.ssd.release(-delta)

    # -- timing hooks -----------------------------------------------------------
    def _t_open(self, path: str, creating: bool, client: Optional[str]) -> Generator:
        self._check_client(client)
        cost = self.config.lookup_time
        if creating:
            cost += self.config.create_journal_time
        yield self.env.timeout(cost)
        return cost

    def _t_write(self, handle: FileHandle, nbytes: int) -> Generator:
        self._check_client(handle.client)
        start = self.env._now
        grow = max(handle.offset + nbytes - handle._inode.size, 0)
        if grow:
            yield self.env.timeout(self.config.extent_alloc_time * self._extents(grow))
        yield from self.node.ssd.write(nbytes)
        return self.env._now - start

    def _t_read(self, handle: FileHandle, nbytes: int) -> Generator:
        self._check_client(handle.client)
        return (yield from self.node.ssd.read(nbytes))

    def _t_close(self, handle: FileHandle) -> Generator:
        yield self.env.timeout(self.config.close_time)
        return self.config.close_time

    def _t_fsync(self, handle: FileHandle) -> Generator:
        start = self.env._now
        yield self.env.timeout(self.config.fsync_journal_time)
        # Device cache flush: modelled as a zero-byte write (latency only).
        yield from self.node.ssd.write(0)
        return self.env._now - start

    def _t_stat(self, path: str, client: Optional[str]) -> Generator:
        self._check_client(client)
        yield self.env.timeout(self.config.stat_time)
        return self.config.stat_time

    def _t_unlink(self, path: str, client: Optional[str]) -> Generator:
        self._check_client(client)
        yield self.env.timeout(self.config.unlink_journal_time)
        return self.config.unlink_journal_time
