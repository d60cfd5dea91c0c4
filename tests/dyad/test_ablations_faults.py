"""Tests for DYAD ablation knobs (transport, cache, fsync) and fault injection."""

import pytest

from repro.cluster.corona import corona
from repro.dyad.config import DyadConfig
from repro.dyad.rdma import EagerTransport, RdmaTransport, make_transport
from repro.dyad.service import DyadRuntime
from repro.errors import ConfigError, TransferError
from repro.sim.rng import RngStreams
from repro.units import KiB, mib


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def _consume_n(config, n_frames=4, size=mib(8), store_data=False, seed=0):
    """Produce+consume n frames under a config; returns (runtime, cons, mean_t)."""
    cluster = corona(nodes=2, seed=seed)
    runtime = DyadRuntime(cluster, config=config, store_data=store_data)
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    times = []

    def flow():
        for i in range(n_frames):
            yield from producer.produce(f"/dyad/f{i}", size)
            start = cluster.env.now
            yield from consumer.consume(f"/dyad/f{i}")
            times.append(cluster.env.now - start)

    _drive(cluster.env, flow())
    return runtime, consumer, sum(times) / len(times)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation_new_fields():
    with pytest.raises(ConfigError):
        DyadConfig(transport="carrier-pigeon").validate()
    with pytest.raises(ConfigError):
        DyadConfig(eager_chunk=0).validate()
    with pytest.raises(ConfigError):
        DyadConfig(fault_rate=1.0).validate()
    with pytest.raises(ConfigError):
        DyadConfig(fault_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        DyadConfig(max_transfer_retries=-1).validate()
    DyadConfig(transport="eager", fault_rate=0.5).validate()


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


def test_make_transport_dispatch():
    cluster = corona(nodes=2)
    assert isinstance(
        make_transport(DyadConfig(), cluster.fabric), RdmaTransport
    )
    assert isinstance(
        make_transport(DyadConfig(transport="eager"), cluster.fabric),
        EagerTransport,
    )


def test_eager_slower_than_rdma_for_large_frames():
    _, _, t_rdma = _consume_n(DyadConfig(), size=mib(24))
    _, _, t_eager = _consume_n(DyadConfig(transport="eager"), size=mib(24))
    assert t_eager > t_rdma


def test_eager_transfer_timing_components():
    cluster = corona(nodes=2)
    transport = EagerTransport(cluster.fabric, chunk=64 * KiB, pipeline=4)
    elapsed = _drive(cluster.env, transport.get("node01", "node00", mib(4)))
    # 64 chunks / pipeline 4 = 16 serialized setups on top of the stream
    assert elapsed >= 16 * cluster.fabric.config.message_setup


def test_eager_collocated_free():
    cluster = corona(nodes=2)
    transport = EagerTransport(cluster.fabric, chunk=64 * KiB)
    assert _drive(cluster.env, transport.get("node00", "node00", mib(1))) == 0.0


def test_transport_validation():
    cluster = corona(nodes=2)
    with pytest.raises(TransferError):
        EagerTransport(cluster.fabric, chunk=0)
    with pytest.raises(TransferError):
        RdmaTransport(cluster.fabric, chunk=mib(1), fault_rate=1.5)


# ---------------------------------------------------------------------------
# cache ablation
# ---------------------------------------------------------------------------


def test_nocache_skips_cons_store_region():
    from repro.perf.caliper import Caliper

    cluster = corona(nodes=2, seed=1)
    runtime = DyadRuntime(cluster, config=DyadConfig(cache_on_consume=False))
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    caliper = Caliper(clock=lambda: cluster.env.now)
    ann = caliper.annotator("c")

    def flow():
        yield from producer.produce("/dyad/f", mib(2))
        yield from consumer.consume("/dyad/f", annotator=ann)

    _drive(cluster.env, flow())
    tree = ann.finish()
    assert tree.find("dyad_consume", "dyad_get_data") is not None
    assert tree.find("dyad_consume", "dyad_cons_store") is None
    # no local copy was staged
    assert not runtime.service("node01").staging.exists("/dyad/f")


def test_nocache_preserves_payload_integrity():
    cluster = corona(nodes=2, seed=2)
    runtime = DyadRuntime(
        cluster, config=DyadConfig(cache_on_consume=False), store_data=True,
    )
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    payload = b"integrity" * 1000

    def flow():
        yield from producer.produce("/dyad/f", len(payload), payload)
        record, data = yield from consumer.consume("/dyad/f")
        return data

    assert _drive(cluster.env, flow()) == payload


def test_nocache_faster_consumption():
    _, _, t_cache = _consume_n(DyadConfig(), size=mib(16))
    _, _, t_nocache = _consume_n(DyadConfig(cache_on_consume=False), size=mib(16))
    assert t_nocache < t_cache


# ---------------------------------------------------------------------------
# fsync ablation
# ---------------------------------------------------------------------------


def test_fsync_raises_production_cost():
    cluster = corona(nodes=1, seed=3)

    def produce_time(config):
        runtime = DyadRuntime(cluster_for[config], config=config)
        producer = runtime.producer("node00", "p")
        return _drive(
            cluster_for[config].env, producer.produce("/dyad/f", mib(4))
        )

    cluster_for = {
        DyadConfig(): corona(nodes=1, seed=3),
        DyadConfig(fsync_on_produce=True): corona(nodes=1, seed=3),
    }
    plain, fsynced = [produce_time(cfg) for cfg in cluster_for]
    assert fsynced > plain


# ---------------------------------------------------------------------------
# fault injection + retry
# ---------------------------------------------------------------------------


def test_faults_injected_and_retried():
    runtime, consumer, _ = _consume_n(
        DyadConfig(fault_rate=0.3, max_transfer_retries=10),
        n_frames=8, size=512 * KiB, seed=7,
    )
    assert runtime.rdma.faults_injected > 0
    assert consumer.transfer_retries == runtime.rdma.faults_injected


def test_faults_cost_time_but_all_frames_arrive():
    _, cons_ok, t_clean = _consume_n(DyadConfig(), n_frames=8, seed=9)
    _, cons_faulty, t_faulty = _consume_n(
        DyadConfig(fault_rate=0.4, max_transfer_retries=8),
        n_frames=8, seed=9,
    )
    assert t_faulty > t_clean
    assert cons_faulty.fast_hits + cons_faulty.kvs_waits == 8


def test_retry_budget_exhaustion_propagates():
    with pytest.raises(TransferError):
        _consume_n(
            DyadConfig(fault_rate=0.95, max_transfer_retries=1),
            n_frames=4, seed=11,
        )


def test_zero_fault_rate_never_fails():
    runtime, consumer, _ = _consume_n(DyadConfig(), n_frames=6, seed=13)
    assert runtime.rdma.faults_injected == 0
    assert consumer.transfer_retries == 0


def test_fault_determinism_per_seed():
    r1, c1, t1 = _consume_n(
        DyadConfig(fault_rate=0.3, max_transfer_retries=6), n_frames=6, seed=21,
    )
    r2, c2, t2 = _consume_n(
        DyadConfig(fault_rate=0.3, max_transfer_retries=6), n_frames=6, seed=21,
    )
    assert r1.rdma.faults_injected == r2.rdma.faults_injected
    assert t1 == t2


# ---------------------------------------------------------------------------
# staging cleanup
# ---------------------------------------------------------------------------


def test_unlink_after_consume_bounds_staging():
    cluster = corona(nodes=2, seed=5)
    runtime = DyadRuntime(
        cluster, config=DyadConfig(unlink_after_consume=True),
    )
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    consumer_ssd = cluster.node(1).ssd

    def flow():
        for i in range(5):
            yield from producer.produce(f"/dyad/f{i}", mib(1))
            yield from consumer.consume(f"/dyad/f{i}")

    _drive(cluster.env, flow())
    # consumer staging fully reclaimed after each read
    assert consumer_ssd.used == 0
    # the producer's originals remain (it owns the data)
    assert cluster.node(0).ssd.used == 5 * mib(1)
    for i in range(5):
        assert not runtime.service("node01").staging.exists(f"/dyad/f{i}")
        assert runtime.service("node00").staging.exists(f"/dyad/f{i}")


def test_default_keeps_cached_copies():
    cluster = corona(nodes=2, seed=5)
    runtime = DyadRuntime(cluster)
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")

    def flow():
        yield from producer.produce("/dyad/f", mib(2))
        yield from consumer.consume("/dyad/f")

    _drive(cluster.env, flow())
    assert cluster.node(1).ssd.used == mib(2)


def test_unlink_never_touches_collocated_producer_copy():
    cluster = corona(nodes=1, seed=5)
    runtime = DyadRuntime(
        cluster, config=DyadConfig(unlink_after_consume=True),
    )
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node00", "c")

    def flow():
        yield from producer.produce("/dyad/f", mib(1))
        yield from consumer.consume("/dyad/f")

    _drive(cluster.env, flow())
    # collocated: the consumer read the producer's own copy — still there
    assert runtime.service("node00").staging.exists("/dyad/f")
