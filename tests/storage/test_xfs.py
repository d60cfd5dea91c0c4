"""Unit tests for the XFS node-local file system model."""

import pytest

from repro.cluster.network import Fabric, FabricConfig
from repro.cluster.node import Node, NodeConfig
from repro.cluster.ssd import SSDConfig
from repro.errors import ConfigError, StorageError
from repro.sim.rng import RngStreams
from repro.storage.xfs import XFSConfig, XFSFileSystem
from repro.units import mib, usec


@pytest.fixture
def node(env):
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    config = NodeConfig(ssd=SSDConfig(
        read_bandwidth=1e6, write_bandwidth=1e6,
        read_latency=0.0, write_latency=0.0, capacity=10 * mib(1),
    ))
    return Node(env, "node00", config, fabric, RngStreams(0))


@pytest.fixture
def fs(node):
    return XFSFileSystem(node)


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_create_charges_journal(env, fs):
    def flow():
        start = env.now
        h = yield from fs.open("/new", "w")
        create_time = env.now - start
        yield from h.close()
        start = env.now
        h = yield from fs.open("/new", "r")
        reopen_time = env.now - start
        yield from h.close()
        return create_time, reopen_time

    create_time, reopen_time = _drive(env, flow())
    cfg = fs.config
    assert create_time == pytest.approx(cfg.lookup_time + cfg.create_journal_time)
    assert reopen_time == pytest.approx(cfg.lookup_time)


def test_write_charges_extent_allocation(env, fs):
    def flow():
        h = yield from fs.open("/f", "w")
        start = env.now
        yield from h.write(mib(9))  # 9 MiB = 2 extents of 8 MiB
        elapsed = env.now - start
        yield from h.close()
        return elapsed

    elapsed = _drive(env, flow())
    expected = 2 * fs.config.extent_alloc_time + mib(9) / 1e6
    assert elapsed == pytest.approx(expected)


def test_overwrite_skips_extent_allocation(env, fs):
    def flow():
        h = yield from fs.open("/f", "w")
        yield from h.write(1000)
        yield from h.close()
        h = yield from fs.open("/f", "r+")  # at offset 0
        start = env.now
        yield from h.write(1000)  # no growth
        return env.now - start

    elapsed = _drive(env, flow())
    assert elapsed == pytest.approx(1000 / 1e6)


def test_remote_client_rejected(env, fs):
    def flow():
        yield from fs.open("/f", "w", client="node01")

    with pytest.raises(StorageError, match="node-local"):
        _drive(env, flow())


def test_local_client_accepted(env, fs):
    def flow():
        h = yield from fs.open("/f", "w", client="node00")
        yield from h.write(10)
        yield from h.close()
        return True

    assert _drive(env, flow())


def test_fsync_charges_journal_flush(env, fs):
    def flow():
        h = yield from fs.open("/f", "w")
        yield from h.write(100)
        start = env.now
        yield from h.fsync()
        return env.now - start

    elapsed = _drive(env, flow())
    assert elapsed >= fs.config.fsync_journal_time


def test_capacity_enforced_through_fs(env, fs):
    def flow():
        h = yield from fs.open("/big", "w")
        yield from h.write(11 * mib(1))  # over the 10 MiB device

    with pytest.raises(StorageError, match="capacity"):
        _drive(env, flow())


def test_stat_and_unlink_costs(env, fs):
    def flow():
        h = yield from fs.open("/f", "w")
        yield from h.close()
        start = env.now
        yield from fs.stat("/f")
        stat_time = env.now - start
        start = env.now
        yield from fs.unlink("/f")
        unlink_time = env.now - start
        return stat_time, unlink_time

    stat_time, unlink_time = _drive(env, flow())
    assert stat_time == pytest.approx(fs.config.stat_time)
    assert unlink_time == pytest.approx(fs.config.unlink_journal_time)


def test_config_validation():
    with pytest.raises(ConfigError):
        XFSConfig(extent_size=0).validate()
    with pytest.raises(ConfigError):
        XFSConfig(lookup_time=-1).validate()


def test_concurrent_writers_share_device(env, node):
    fs = XFSFileSystem(node, config=XFSConfig(
        lookup_time=0, create_journal_time=0, extent_alloc_time=0, close_time=0,
    ))
    times = {}

    def writer(name):
        h = yield from fs.open(f"/{name}", "w")
        start = env.now
        yield from h.write(500_000)
        times[name] = env.now - start
        yield from h.close()

    env.process(writer("a"))
    env.process(writer("b"))
    env.run()
    # 1 MB total through a 1 MB/s device: each write sees ~1s
    assert times["a"] == pytest.approx(1.0, rel=1e-6)
    assert times["b"] == pytest.approx(1.0, rel=1e-6)
