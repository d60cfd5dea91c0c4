"""Advisory whole-file reader/writer locks (``flock``-style).

DYAD's fast-path synchronization takes a shared lock on a produced file
before reading it and relies on the producer's exclusive lock being released
at close time; XFS/Lustre workflows may also use locks for manual
synchronization. Locks are fair (FIFO): a queued exclusive request blocks
later shared requests, preventing writer starvation.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.errors import LockError
from repro.sim.core import Environment, Event

__all__ = ["LockMode", "Lock", "LockTable"]


class LockMode(enum.Enum):
    """Lock compatibility: any number of SHARED xor one EXCLUSIVE."""

    SHARED = "sh"
    EXCLUSIVE = "ex"


class Lock:
    """A granted lock; release through :meth:`LockTable.release`."""

    __slots__ = ("path", "mode", "owner", "_released")

    def __init__(self, path: str, mode: LockMode, owner: str) -> None:
        self.path = path
        self.mode = mode
        self.owner = owner
        self._released = False

    def __repr__(self) -> str:
        state = "released" if self._released else "held"
        return f"<Lock {self.mode.value} {self.path} by {self.owner} ({state})>"


class _PathLockState:
    """Holders and FIFO waiters for one path."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: List[Lock] = []
        self.waiters: Deque[Tuple[Lock, Event]] = deque()

    def compatible(self, mode: LockMode) -> bool:
        if not self.holders:
            return True
        if mode is LockMode.EXCLUSIVE:
            return False
        return all(h.mode is LockMode.SHARED for h in self.holders)


class LockTable:
    """All advisory locks of one file system."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._paths: Dict[str, _PathLockState] = {}

    def _state(self, path: str) -> _PathLockState:
        state = self._paths.get(path)
        if state is None:
            state = _PathLockState()
            self._paths[path] = state
        return state

    def holders(self, path: str) -> List[Lock]:
        """Currently granted locks on ``path`` (copy)."""
        return list(self._paths.get(path, _PathLockState()).holders)

    def queue_len(self, path: str) -> int:
        """Number of blocked acquisitions on ``path``."""
        state = self._paths.get(path)
        return len(state.waiters) if state else 0

    def acquire(self, path: str, mode: LockMode, owner: str):
        """Generator: block until the lock is granted; returns the Lock."""
        state = self._state(path)
        if not state.waiters and state.compatible(mode):
            lock = Lock(path, mode, owner)
            state.holders.append(lock)
            return lock
        lock = Lock(path, mode, owner)
        granted = Event(self.env)
        state.waiters.append((lock, granted))
        yield granted
        return lock

    def release(self, lock: Lock) -> None:
        """Release a granted lock and grant as many waiters as now fit."""
        if lock._released:
            raise LockError(f"double release of {lock!r}")
        state = self._paths.get(lock.path)
        if state is None or lock not in state.holders:
            raise LockError(f"release of non-held {lock!r}")
        state.holders.remove(lock)
        lock._released = True
        # Grant in FIFO order while the head is compatible.
        while state.waiters:
            head_lock, head_event = state.waiters[0]
            if not state.compatible(head_lock.mode):
                break
            state.waiters.popleft()
            state.holders.append(head_lock)
            head_event.succeed(head_lock)
        if not state.holders and not state.waiters:
            del self._paths[lock.path]
