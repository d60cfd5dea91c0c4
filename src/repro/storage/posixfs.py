"""POSIX-like namespace and file-handle layer shared by XFS and Lustre.

The namespace is a real hierarchical tree (directories, regular files,
``mkdir -p`` semantics, ENOENT/EEXIST/EISDIR errors) so workflow code using
these file systems behaves like code written against real POSIX. Timing is
delegated to subclasses through the ``_t_*`` generator hooks; the base class
never advances the clock itself.

Payload storage is optional: the simulated experiments move *sizes* (a
28 MiB STMV frame as an integer), while integration tests enable
``store_data=True`` and move real bytes end-to-end to validate protocol
correctness.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidHandle,
    IsADirectory,
    NotADirectory,
    StorageError,
)
from repro.sim.core import Environment

__all__ = ["FileStat", "FileHandle", "PosixFileSystem", "normalize"]


@lru_cache(maxsize=2048)
def normalize(path: str) -> str:
    """Normalize to an absolute, ``/``-separated path.

    Memoised (bounded): every open, stat and DYAD key normalizes the same
    few frame paths over and over.
    """
    if not path:
        raise StorageError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    if norm.startswith("//"):
        # normpath keeps exactly two leading slashes (POSIX leaves their
        # meaning to the implementation); this namespace has one root, so
        # "//dyad/x" is "/dyad/x" to keys and layouts just as to _walk.
        norm = "/" + norm.lstrip("/")
    return norm


@dataclass
class FileStat:
    """Subset of ``struct stat`` the workflows need."""

    path: str
    size: int
    is_dir: bool
    version: int  # bumped on every completed write; used by polling sync
    ctime: float
    mtime: float


class _Inode:
    """Internal node of the namespace tree."""

    __slots__ = ("name", "is_dir", "size", "payload", "children", "version",
                 "ctime", "mtime", "nlink", "intended_size", "corrupt", "prev")

    def __init__(self, name: str, is_dir: bool, now: float) -> None:
        self.name = name
        self.is_dir = is_dir
        self.size = 0
        self.payload: Optional[bytearray] = None
        self.children: Dict[str, "_Inode"] = {}
        self.version = 0
        self.ctime = now
        self.mtime = now
        self.nlink = 1  # open handles keep unlinked files alive
        self.intended_size = 0   # declared size when a torn write shortened us
        self.corrupt = False     # a bit_corrupt window damaged the payload
        self.prev: Optional[Tuple[int, int, float]] = None  # (size, version,
        # mtime) before the last metadata change, for stale-stat windows


class FileHandle:
    """An open file description (offset + mode), as returned by ``open``.

    All data operations are generators; drive them with ``yield from`` from
    a simulation process. Reads return ``(nbytes, payload_or_None)``.
    """

    _WRITE_MODES = {"w", "a", "r+", "w+"}

    def __init__(
        self,
        fs: "PosixFileSystem",
        path: str,
        inode: _Inode,
        mode: str,
        client: Optional[str],
    ) -> None:
        self.fs = fs
        self.path = path
        self.mode = mode
        self.client = client
        self._inode = inode
        self._offset = inode.size if mode == "a" else 0
        self._open = True

    # -- guards ------------------------------------------------------------
    def _check_open(self) -> None:
        if not self._open:
            raise InvalidHandle(f"{self.path}: handle is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self.mode not in self._WRITE_MODES:
            raise InvalidHandle(f"{self.path}: opened read-only ({self.mode})")

    def _check_readable(self) -> None:
        self._check_open()
        if self.mode in ("w", "a"):
            raise InvalidHandle(f"{self.path}: opened write-only ({self.mode})")

    @property
    def offset(self) -> int:
        """Current file offset in bytes."""
        return self._offset

    # -- data plane -----------------------------------------------------------
    def write(self, nbytes: int, data: Optional[bytes] = None) -> Generator:
        """Write ``nbytes`` at the current offset; returns elapsed seconds.

        ``data`` (optional real payload) must match ``nbytes`` when given
        and is only retained when the file system stores payloads.
        """
        self._check_writable()
        if nbytes < 0:
            raise StorageError(f"negative write size: {nbytes}")
        if data is not None and len(data) != nbytes:
            raise StorageError(
                f"payload length {len(data)} != declared size {nbytes}"
            )
        fs = self.fs
        inode = self._inode
        # Integrity windows (armed by the fault injector): a torn write
        # lands only a fraction of its declared bytes — the "producer
        # crashed mid-frame" state. The application-visible contract is
        # unchanged (offset advances by the declared size); only the
        # persisted bytes are short.
        landed = nbytes
        torn = False
        if fs._torn_fraction is not None:
            landed = int(nbytes * fs._torn_fraction)
            torn = landed < nbytes
        elapsed = yield from fs._t_write(self, landed)
        inode.prev = (inode.size, inode.version, inode.mtime)
        end = self._offset + landed
        grow = end - inode.size
        if grow > 0:
            fs._account_growth(grow)
            inode.size = end
        if fs.store_data:
            if inode.payload is None:
                inode.payload = bytearray(inode.size)
            elif len(inode.payload) < inode.size:
                inode.payload.extend(
                    b"\0" * (inode.size - len(inode.payload))
                )
            if data is not None:
                inode.payload[self._offset:end] = data[:landed]
        if torn:
            inode.intended_size = max(
                inode.intended_size, self._offset + nbytes
            )
            fs._torn.setdefault(self.path, []).append(
                (inode, self._offset, nbytes, data)
            )
        if fs._corrupt_rate > 0.0 and fs._corrupt_draw() < fs._corrupt_rate:
            inode.corrupt = True
            if fs.store_data and inode.payload is not None and end > self._offset:
                inode.payload[self._offset] ^= 0xFF  # flip a payload byte
        self._offset += nbytes
        inode.version += 1
        inode.mtime = fs.env._now
        return elapsed

    def read(self, nbytes: Optional[int] = None) -> Generator:
        """Read up to ``nbytes`` (default: to EOF) from the current offset.

        Returns ``(count, payload)`` where payload is ``None`` unless the
        file system stores payloads.
        """
        self._check_readable()
        if nbytes is not None and nbytes < 0:
            raise StorageError(f"negative read size: {nbytes}")
        avail = max(self._inode.size - self._offset, 0)
        count = avail if nbytes is None else min(nbytes, avail)
        yield from self.fs._t_read(self, count)
        payload: Optional[bytes] = None
        if self.fs.store_data and self._inode.payload is not None:
            payload = bytes(self._inode.payload[self._offset:self._offset + count])
        self._offset += count
        return count, payload

    def fsync(self) -> Generator:
        """Force data to stable storage; returns elapsed seconds."""
        self._check_open()
        return (yield from self.fs._t_fsync(self))

    def close(self) -> Generator:
        """Close the handle; returns elapsed seconds."""
        if not self._open:
            return 0.0
        elapsed = yield from self.fs._t_close(self)
        self._open = False
        self._inode.nlink -= 1
        self.fs._reap(self._inode)
        return elapsed


class PosixFileSystem:
    """Namespace bookkeeping common to XFS and Lustre models.

    Subclasses implement the ``_t_*`` timing hooks (generators returning
    elapsed seconds) and may override :meth:`_account_growth` to track
    device capacity.
    """

    #: human-readable name used in traces ("xfs", "lustre")
    kind = "posix"

    def __init__(self, env: Environment, store_data: bool = False) -> None:
        self.env = env
        self.store_data = store_data
        self._root = _Inode("/", is_dir=True, now=env._now)
        # Integrity-fault state, armed/disarmed by the fault injector.
        self._torn_fraction: Optional[float] = None
        self._torn: Dict[str, List[Tuple[_Inode, int, int, Optional[bytes]]]] = {}
        self._corrupt_rate = 0.0
        self._corrupt_draw = None  # zero-arg callable -> uniform [0, 1)

    # -- namespace helpers ------------------------------------------------------
    def _walk(self, path: str) -> Tuple[Optional[_Inode], _Inode, List[str]]:
        """Resolve ``path``; returns (inode_or_None, parent, parts)."""
        norm = normalize(path)
        if norm == "/":
            return self._root, self._root, []
        parts = norm.strip("/").split("/")
        parent = self._root
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None:
                raise FileNotFound(f"{path}: no such directory component {part!r}")
            if not child.is_dir:
                raise NotADirectory(f"{path}: {part!r} is not a directory")
            parent = child
        return parent.children.get(parts[-1]), parent, parts

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves (no device time: dcache hit)."""
        try:
            inode, _, _ = self._walk(path)
        except (FileNotFound, NotADirectory):
            return False
        return inode is not None

    def makedirs(self, path: str) -> None:
        """Create directories recursively; existing directories are fine."""
        norm = normalize(path)
        if norm == "/":
            return
        parent = self._root
        for part in norm.strip("/").split("/"):
            child = parent.children.get(part)
            if child is None:
                child = _Inode(part, is_dir=True, now=self.env._now)
                parent.children[part] = child
            elif not child.is_dir:
                raise NotADirectory(f"{path}: {part!r} is a regular file")
            parent = child

    def listdir(self, path: str) -> List[str]:
        """Names in a directory, sorted."""
        inode, _, _ = self._walk(path)
        if inode is None:
            raise FileNotFound(path)
        if not inode.is_dir:
            raise NotADirectory(path)
        return sorted(inode.children)

    # -- metadata plane (timed) ------------------------------------------------
    def open(self, path: str, mode: str = "r", client: Optional[str] = None) -> Generator:
        """Open (and with ``w``/``a``/``w+``, maybe create) a file.

        Generator returning a :class:`FileHandle`. Modes: ``r``, ``r+``,
        ``w`` (truncate/create), ``w+``, ``a`` (append/create), ``x``
        (exclusive create, returned handle is write-only).
        """
        if mode not in ("r", "r+", "w", "w+", "a", "x"):
            raise StorageError(f"unsupported open mode {mode!r}")
        inode, parent, parts = self._walk(path)
        creating = inode is None
        if inode is not None and inode.is_dir:
            raise IsADirectory(path)
        if mode in ("r", "r+") and creating:
            raise FileNotFound(path)
        if mode == "x":
            if not creating:
                raise FileExists(path)
            mode = "w"
        yield from self._t_open(path, creating=creating, client=client)
        if creating:
            inode = _Inode(parts[-1], is_dir=False, now=self.env._now)
            parent.children[parts[-1]] = inode
        assert inode is not None
        if mode in ("w", "w+") and inode.size:
            inode.prev = (inode.size, inode.version, inode.mtime)
            self._account_growth(-inode.size)
            inode.size = 0
            inode.payload = bytearray() if self.store_data else None
            inode.version += 1
        if mode in ("w", "w+"):
            # A truncating rewrite supersedes any earlier torn/corrupt state.
            inode.intended_size = 0
            inode.corrupt = False
            self._torn.pop(normalize(path), None)
        inode.nlink += 1
        return FileHandle(self, normalize(path), inode, mode, client)

    def stat(self, path: str, client: Optional[str] = None) -> Generator:
        """Timed stat; returns a :class:`FileStat`.

        During a ``stale_metadata`` window (:meth:`_metadata_lag` > 0,
        Lustre only) a file modified less than the lag ago reports the
        metadata it had *before* that modification — the client-cache
        size/mtime lag that defeats polling-based synchronization.
        """
        yield from self._t_stat(path, client=client)
        inode, _, _ = self._walk(path)
        if inode is None:
            raise FileNotFound(path)
        size, version, mtime = inode.size, inode.version, inode.mtime
        lag = self._metadata_lag()
        if (lag > 0.0 and inode.prev is not None
                and self.env._now - inode.mtime < lag):
            size, version, mtime = inode.prev
        return FileStat(
            path=normalize(path),
            size=size,
            is_dir=inode.is_dir,
            version=version,
            ctime=inode.ctime,
            mtime=mtime,
        )

    def unlink(self, path: str, client: Optional[str] = None) -> Generator:
        """Timed unlink of a regular file."""
        inode, parent, parts = self._walk(path)
        if inode is None:
            raise FileNotFound(path)
        if inode.is_dir:
            raise IsADirectory(path)
        yield from self._t_unlink(path, client=client)
        del parent.children[parts[-1]]
        inode.nlink -= 1
        self._reap(inode)
        return None

    # -- integrity-fault hooks ---------------------------------------------------
    def arm_torn_writes(self, fraction: float) -> None:
        """Start a torn-write window: writes land ``fraction`` of their bytes."""
        if not 0.0 < fraction < 1.0:
            raise StorageError(
                f"torn-write fraction must be in (0, 1), got {fraction}"
            )
        self._torn_fraction = fraction

    def disarm_torn_writes(self, repair: bool = False) -> int:
        """End the torn-write window; returns how many writes were repaired.

        ``repair=True`` replays every torn write in full (size, payload,
        version) — the "producer re-publishes after restart" recovery of
        DYAD's staging directory. ``repair=False`` leaves files short and
        merely forgets the torn marks: XFS journal replay truncating to
        the last consistent extent, or Lustre exposing the torn file
        as-is until the sync barrier.
        """
        self._torn_fraction = None
        torn, self._torn = self._torn, {}
        repaired = 0
        if not repair:
            return repaired
        for entries in torn.values():
            for inode, offset, nbytes, data in entries:
                if inode.nlink <= 0:
                    continue  # unlinked before the producer could recover
                end = offset + nbytes
                grow = end - inode.size
                if grow > 0:
                    self._account_growth(grow)
                    inode.size = end
                if self.store_data:
                    if inode.payload is None:
                        inode.payload = bytearray(inode.size)
                    elif len(inode.payload) < inode.size:
                        inode.payload.extend(
                            b"\0" * (inode.size - len(inode.payload))
                        )
                    if data is not None:
                        inode.payload[offset:end] = data
                inode.intended_size = 0
                inode.version += 1
                inode.mtime = self.env._now
                repaired += 1
        return repaired

    def arm_corruption(self, rate: float, draw) -> None:
        """Start a bit-corruption window: each write is damaged with
        probability ``rate``, decided by ``draw()`` (a seeded stream)."""
        if not 0.0 < rate <= 1.0:
            raise StorageError(
                f"corruption rate must be in (0, 1], got {rate}"
            )
        self._corrupt_rate = rate
        self._corrupt_draw = draw

    def disarm_corruption(self) -> None:
        """End the bit-corruption window (damaged files stay damaged)."""
        self._corrupt_rate = 0.0
        self._corrupt_draw = None

    def is_corrupt(self, path: str) -> bool:
        """True when a corruption window damaged this file's payload."""
        try:
            inode, _, _ = self._walk(path)
        except (FileNotFound, NotADirectory):
            return False
        return inode is not None and inode.corrupt

    def is_torn(self, path: str) -> bool:
        """True when the file is still short of a torn write's declared size."""
        try:
            inode, _, _ = self._walk(path)
        except (FileNotFound, NotADirectory):
            return False
        return inode is not None and inode.size < inode.intended_size

    def _metadata_lag(self) -> float:
        """Stale-metadata window in seconds (0 = always fresh); Lustre
        overrides this to expose its client-cache lag."""
        return 0.0

    # -- accounting hooks --------------------------------------------------------
    def _account_growth(self, delta: int) -> None:
        """Capacity accounting hook; default: unlimited."""

    def _reap(self, inode: _Inode) -> None:
        """Free space when the last reference to an unlinked file drops."""
        if inode.nlink <= 0 and not inode.is_dir:
            self._account_growth(-inode.size)
            inode.size = 0
            inode.payload = None

    # -- timing hooks (subclass responsibility) -----------------------------------
    def _t_open(self, path: str, creating: bool, client: Optional[str]) -> Generator:
        raise NotImplementedError

    def _t_write(self, handle: FileHandle, nbytes: int) -> Generator:
        raise NotImplementedError

    def _t_read(self, handle: FileHandle, nbytes: int) -> Generator:
        raise NotImplementedError

    def _t_close(self, handle: FileHandle) -> Generator:
        raise NotImplementedError

    def _t_fsync(self, handle: FileHandle) -> Generator:
        raise NotImplementedError

    def _t_stat(self, path: str, client: Optional[str]) -> Generator:
        raise NotImplementedError

    def _t_unlink(self, path: str, client: Optional[str]) -> Generator:
        raise NotImplementedError
