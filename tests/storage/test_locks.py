"""Unit tests for advisory reader/writer file locks."""

import pytest

from repro.errors import LockError
from repro.storage.locks import LockMode, LockTable


@pytest.fixture
def locks(env):
    return LockTable(env)


def _grab(locks, path, mode, owner):
    """The lock if ``acquire`` grants it without waiting, else ``None``
    (the request then stays queued behind the holders)."""
    request = locks.acquire(path, mode, owner)
    try:
        next(request)
    except StopIteration as granted:
        return granted.value
    return None


def test_shared_locks_coexist(env, locks):
    a = _grab(locks, "/f", LockMode.SHARED, "a")
    b = _grab(locks, "/f", LockMode.SHARED, "b")
    assert a is not None and b is not None
    assert len(locks.holders("/f")) == 2


def test_exclusive_excludes_everything(env, locks):
    ex = _grab(locks, "/f", LockMode.EXCLUSIVE, "w")
    assert ex is not None
    assert _grab(locks, "/f", LockMode.SHARED, "r") is None
    assert _grab(locks, "/f", LockMode.EXCLUSIVE, "w2") is None


def test_shared_blocks_exclusive(env, locks):
    _grab(locks, "/f", LockMode.SHARED, "r")
    assert _grab(locks, "/f", LockMode.EXCLUSIVE, "w") is None


def test_locks_per_path_independent(env, locks):
    assert _grab(locks, "/a", LockMode.EXCLUSIVE, "x") is not None
    assert _grab(locks, "/b", LockMode.EXCLUSIVE, "y") is not None


def test_blocking_acquire_waits_for_release(env, locks):
    order = []

    def writer():
        lock = yield from locks.acquire("/f", LockMode.EXCLUSIVE, "w")
        order.append(("w-got", env.now))
        yield env.timeout(2.0)
        locks.release(lock)

    def reader():
        yield env.timeout(0.5)
        lock = yield from locks.acquire("/f", LockMode.SHARED, "r")
        order.append(("r-got", env.now))
        locks.release(lock)

    env.process(writer())
    env.process(reader())
    env.run()
    assert order == [("w-got", 0.0), ("r-got", 2.0)]


def test_fifo_fairness_writer_not_starved(env, locks):
    """A queued exclusive request blocks later shared requests."""
    order = []

    def holder():
        lock = yield from locks.acquire("/f", LockMode.SHARED, "s1")
        yield env.timeout(1.0)
        locks.release(lock)

    def writer():
        yield env.timeout(0.1)
        lock = yield from locks.acquire("/f", LockMode.EXCLUSIVE, "w")
        order.append(("w", env.now))
        yield env.timeout(1.0)
        locks.release(lock)

    def late_reader():
        yield env.timeout(0.2)
        # compatible with s1, but must queue behind the writer
        lock = yield from locks.acquire("/f", LockMode.SHARED, "s2")
        order.append(("s2", env.now))
        locks.release(lock)

    env.process(holder())
    env.process(writer())
    env.process(late_reader())
    env.run()
    assert order == [("w", 1.0), ("s2", 2.0)]


def test_release_grants_multiple_shared(env, locks):
    got = []

    def holder():
        lock = yield from locks.acquire("/f", LockMode.EXCLUSIVE, "w")
        yield env.timeout(1.0)
        locks.release(lock)

    def reader(name):
        lock = yield from locks.acquire("/f", LockMode.SHARED, name)
        got.append((name, env.now))
        locks.release(lock)

    env.process(holder())
    env.process(reader("r1"))
    env.process(reader("r2"))
    env.run()
    assert got == [("r1", 1.0), ("r2", 1.0)]


def test_double_release_rejected(env, locks):
    lock = _grab(locks, "/f", LockMode.SHARED, "a")
    locks.release(lock)
    with pytest.raises(LockError):
        locks.release(lock)


def test_release_foreign_lock_rejected(env, locks):
    from repro.storage.locks import Lock

    with pytest.raises(LockError):
        locks.release(Lock("/f", LockMode.SHARED, "ghost"))


def test_queue_len_reporting(env, locks):
    _grab(locks, "/f", LockMode.EXCLUSIVE, "w")

    def waiter():
        yield from locks.acquire("/f", LockMode.SHARED, "r")

    env.process(waiter())
    env.run(until=0.0)
    assert locks.queue_len("/f") == 1
    assert locks.queue_len("/other") == 0


def test_state_cleaned_up_after_full_release(env, locks):
    lock = _grab(locks, "/f", LockMode.SHARED, "a")
    locks.release(lock)
    assert locks.holders("/f") == []
    assert "/f" not in locks._paths
