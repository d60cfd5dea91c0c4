"""Unit tests for the Lustre parallel file system model."""

import pytest

from repro.cluster.network import Fabric, FabricConfig
from repro.dyad.mdm import MetadataManager
from repro.errors import ConfigError
from repro.kvs.store import KVS
from repro.sim.rng import RngStreams
from repro.storage.lustre import LustreConfig, LustreFileSystem, LustreServers
from repro.units import mib, usec


def make_fs(env, config=None, clients=("node00", "node01")):
    fabric = Fabric(env, FabricConfig(jitter_cv=0.0), RngStreams(0))
    for client in clients:
        fabric.attach(client)
    servers = LustreServers(env, fabric, config, RngStreams(0))
    return LustreFileSystem(servers), servers


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_servers_attached_to_fabric(env):
    fs, servers = make_fs(env)
    assert servers.fabric.nic("lustre-mds")
    for i in range(servers.config.n_oss):
        assert servers.fabric.nic(f"lustre-oss{i}")


def test_global_namespace_across_clients(env):
    fs, _ = make_fs(env)

    def flow():
        h = yield from fs.open("/shared", "w", client="node00")
        yield from h.write(100)
        yield from h.close()
        h = yield from fs.open("/shared", "r", client="node01")
        count, _ = yield from h.read()
        yield from h.close()
        return count

    assert _drive(env, flow()) == 100


def test_client_required(env):
    fs, _ = make_fs(env)

    def flow():
        yield from fs.open("/x", "w")

    with pytest.raises(ConfigError, match="client"):
        _drive(env, flow())


def test_create_costs_two_mds_rpcs(env):
    fs, servers = make_fs(env)

    def flow():
        start = env.now
        h = yield from fs.open("/new", "w", client="node00")
        create = env.now - start
        yield from h.close()
        start = env.now
        h = yield from fs.open("/new", "r", client="node00")
        reopen = env.now - start
        yield from h.close()
        return create, reopen

    create, reopen = _drive(env, flow())
    assert create > reopen  # layout allocation = extra MDS round trip
    assert create >= 2 * servers.config.mds_service


def test_stripe_split_covers_all_bytes(env):
    fs, servers = make_fs(env)
    for size in (1, 1000, mib(1), mib(3) + 17, mib(64)):
        parts = fs._stripe_split("/f", size)
        assert sum(share for _, share in parts) == size
        assert len(parts) <= servers.config.stripe_count
        assert all(0 <= ost < servers.n_osts for ost, _ in parts)


def test_small_file_single_stripe(env):
    fs, _ = make_fs(env)
    parts = fs._stripe_split("/small", 1000)
    assert len(parts) == 1


def test_large_file_uses_multiple_stripes(env):
    fs, servers = make_fs(env)
    parts = fs._stripe_split("/big", mib(8))
    assert len(parts) == servers.config.stripe_count


def test_layout_deterministic_per_path(env):
    fs, _ = make_fs(env)
    assert fs._layout("/a/b") == fs._layout("/a/b")
    # different paths usually land on different first OSTs
    firsts = {fs._layout(f"/f{i}") for i in range(50)}
    assert len(firsts) > 1


def test_write_then_read_timing_asymmetry(env):
    """Cold reads are slower than (cache-absorbed) writes for bulk data."""
    fs, _ = make_fs(env)

    def flow():
        h = yield from fs.open("/bulk", "w", client="node00")
        start = env.now
        yield from h.write(mib(16))
        write_time = env.now - start
        yield from h.close()
        h = yield from fs.open("/bulk", "r", client="node01")
        start = env.now
        yield from h.read()
        read_time = env.now - start
        yield from h.close()
        return write_time, read_time

    write_time, read_time = _drive(env, flow())
    assert read_time > write_time


def test_concurrent_readers_contend_on_oss(env):
    n = 32
    config = LustreConfig()
    fs, _ = make_fs(env, config, clients=[f"node{i:02d}" for i in range(n)])

    def produce(path):
        h = yield from fs.open(path, "w", client="node00")
        yield from h.write(mib(32))
        yield from h.close()

    for i in range(n):
        _drive(env, produce(f"/f{i}"))

    solo_time = {}

    def read_one(path, client, log):
        h = yield from fs.open(path, "r", client=client)
        start = env.now
        yield from h.read()
        log[path] = env.now - start
        yield from h.close()

    _drive(env, read_one("/f0", "node01", solo_time))

    crowd_time = {}
    procs = [
        env.process(read_one(f"/f{i}", f"node{i:02d}", crowd_time))
        for i in range(n)
    ]
    env.run()
    mean_crowd = sum(crowd_time.values()) / len(crowd_time)
    assert mean_crowd > solo_time["/f0"] * 1.5


def test_read_stream_floor_applies_to_large_reads(env):
    """Per-stream read floor: large reads cannot beat the sustained rate."""
    fs, servers = make_fs(env)
    cfg = servers.config

    def flow():
        h = yield from fs.open("/stream", "w", client="node00")
        yield from h.write(mib(16))
        yield from h.close()
        h = yield from fs.open("/stream", "r", client="node01")
        start = env.now
        yield from h.read()
        return env.now - start

    elapsed = _drive(env, flow())
    per_stripe = mib(16) // cfg.stripe_count
    floor = servers._stream_floor(per_stripe)
    assert elapsed >= floor


def test_interference_adds_variance(env):
    config = LustreConfig(interference_cv=0.3)
    fs, _ = make_fs(env, config)

    def one(i, log):
        h = yield from fs.open(f"/v{i}", "w", client="node00")
        start = env.now
        yield from h.write(mib(1))
        log.append(env.now - start)
        yield from h.close()

    log = []
    for i in range(6):
        _drive(env, one(i, log))
    assert len(set(round(t, 9) for t in log)) > 1


def test_mds_queueing_under_burst(env):
    config = LustreConfig(mds_capacity=1)
    fs, servers = make_fs(env, config,
                          clients=[f"node{i:02d}" for i in range(4)])
    times = []

    def opener(i):
        start = env.now
        h = yield from fs.open(f"/q{i}", "w", client=f"node{i:02d}")
        times.append(env.now - start)
        yield from h.close()

    for i in range(4):
        env.process(opener(i))
    env.run()
    # with a single MDS thread, a simultaneous burst of creates serializes:
    # the last opener queues behind 3 predecessors for each of its RPCs
    assert max(times) >= min(times) + 2 * servers.config.mds_service


def test_config_validation():
    with pytest.raises(ConfigError):
        LustreConfig(stripe_count=0).validate()
    with pytest.raises(ConfigError):
        LustreConfig(n_oss=0).validate()
    with pytest.raises(ConfigError):
        LustreConfig(oss_read_bandwidth=0).validate()
    with pytest.raises(ConfigError):
        LustreConfig(max_rpcs_in_flight=0).validate()
    with pytest.raises(ConfigError):
        LustreConfig(interference_cv=-1).validate()


def test_unlink_and_stat_cost_mds_rpc(env):
    fs, servers = make_fs(env)

    def flow():
        h = yield from fs.open("/meta", "w", client="node00")
        yield from h.close()
        start = env.now
        yield from fs.stat("/meta", client="node00")
        stat_time = env.now - start
        start = env.now
        yield from fs.unlink("/meta", client="node00")
        unlink_time = env.now - start
        return stat_time, unlink_time

    stat_time, unlink_time = _drive(env, flow())
    assert stat_time >= servers.config.mds_service
    assert unlink_time >= servers.config.mds_service


def test_double_leading_slash_names_the_same_file(env):
    # "//dyad/x" and "/dyad/x" resolve to one file, so they must also share
    # its DYAD ownership key and its Lustre stripe layout.
    fs, servers = make_fs(env)
    mdm = MetadataManager(KVS(env, servers.fabric, "broker"))
    fs.makedirs("/dyad")

    def flow():
        handle = yield from fs.open("/dyad/x", "w", client="node00")
        yield from handle.close()

    _drive(env, flow())
    assert fs.exists("//dyad/x")
    assert mdm.key("//dyad/x") == mdm.key("/dyad/x")
    assert fs._layout("//dyad/x") == fs._layout("/dyad/x")
