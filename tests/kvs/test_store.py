"""Unit tests for the Flux-like KVS model."""

import pytest

from repro.cluster.network import Fabric, FabricConfig
from repro.errors import ConfigError, KeyNotFound
from repro.kvs.store import KVS, KVSConfig
from repro.sim.rng import RngStreams


@pytest.fixture
def kvs(env):
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    fabric.attach("node00")
    fabric.attach("node01")
    return KVS(env, fabric, "broker")


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_commit_then_lookup(env, kvs):
    def flow():
        yield from kvs.commit("node00", "k", {"v": 1})
        value = yield from kvs.lookup("node01", "k")
        return value

    assert _drive(env, flow()) == {"v": 1}


def test_lookup_missing_raises_after_paying_rpc(env, kvs):
    def flow():
        start = env.now
        try:
            yield from kvs.lookup("node00", "nope")
        except KeyNotFound:
            return env.now - start
        return None

    elapsed = _drive(env, flow())
    assert elapsed is not None and elapsed > 0


def test_wait_for_blocks_until_commit(env, kvs):
    got = []

    def waiter():
        value = yield from kvs.wait_for("node01", "late")
        got.append((env.now, value))

    def committer():
        yield env.timeout(3.0)
        yield from kvs.commit("node00", "late", 99)

    env.process(waiter())
    env.process(committer())
    env.run()
    assert got and got[0][1] == 99
    assert got[0][0] >= 3.0


def test_wait_for_existing_key_returns_fast(env, kvs):
    def flow():
        yield from kvs.commit("node00", "k", 1)
        start = env.now
        value = yield from kvs.wait_for("node01", "k")
        return value, env.now - start

    value, elapsed = _drive(env, flow())
    assert value == 1
    assert elapsed < 0.001


def test_multiple_watchers_all_woken(env, kvs):
    got = []

    def waiter(name):
        value = yield from kvs.wait_for("node01", "k")
        got.append((name, value))

    def committer():
        yield env.timeout(1.0)
        yield from kvs.commit("node00", "k", "x")

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.process(committer())
    env.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_commit_overwrites(env, kvs):
    def flow():
        yield from kvs.commit("node00", "k", 1)
        yield from kvs.commit("node00", "k", 2)
        return (yield from kvs.lookup("node00", "k"))

    assert _drive(env, flow()) == 2


def test_server_queue_serializes_bursts(env, kvs):
    done_times = []

    def committer(i):
        yield from kvs.commit("node00", f"k{i}", i)
        done_times.append(env.now)

    for i in range(5):
        env.process(committer(i))
    env.run()
    # single service thread: completions are spaced by >= the service time
    gaps = [b - a for a, b in zip(done_times, done_times[1:])]
    assert all(g >= kvs.config.commit_service * 0.99 for g in gaps)


def test_stats_counters(env, kvs):
    def flow():
        yield from kvs.commit("node00", "k", 1)
        yield from kvs.lookup("node00", "k")
        yield from kvs.wait_for("node00", "k")

    _drive(env, flow())
    assert kvs.stats.commits == 1
    assert kvs.stats.lookups == 1
    assert kvs.stats.watches == 1
    assert kvs.stats.total_queue_wait >= 0.0


def test_untimed_peeks(env, kvs):
    assert not kvs.exists("k")
    _drive(env, kvs.commit("node00", "k", 7))
    assert kvs.exists("k")


def test_loopback_client_cheaper_than_remote(env, kvs):
    def flow():
        yield from kvs.commit("broker", "a", 1)   # loopback
        start = env.now
        yield from kvs.lookup("broker", "a")
        loop = env.now - start
        start = env.now
        yield from kvs.lookup("node00", "a")
        remote = env.now - start
        return loop, remote

    loop, remote = _drive(env, flow())
    assert loop < remote


def test_config_validation():
    with pytest.raises(ConfigError):
        KVSConfig(server_capacity=0).validate()
    with pytest.raises(ConfigError):
        KVSConfig(commit_service=-1).validate()
    with pytest.raises(ConfigError):
        KVSConfig(value_size=-1).validate()
