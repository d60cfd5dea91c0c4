"""Tests for the DYAD consumer's node-local staging cache."""

from repro.cluster.corona import corona
from repro.dyad.service import DyadRuntime


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_second_consumer_on_node_hits_cache():
    cluster = corona(nodes=2, seed=0)
    runtime = DyadRuntime(cluster)
    producer = runtime.producer("node00", "p")
    first = runtime.consumer("node01", "c1")
    second = runtime.consumer("node01", "c2")

    def flow():
        yield from producer.produce("/dyad/f", 100_000)
        yield from first.consume("/dyad/f")
        yield from second.consume("/dyad/f")

    before = cluster.fabric.stats.rdma_transfers
    _drive(cluster.env, flow())
    assert first.cache_hits == 0
    assert second.cache_hits == 1
    # only the first consumer transferred
    assert cluster.fabric.stats.rdma_transfers == before + 1


def test_cache_ignored_when_disabled():
    from repro.dyad.config import DyadConfig

    cluster = corona(nodes=2, seed=0)
    runtime = DyadRuntime(cluster, config=DyadConfig(cache_on_consume=False))
    producer = runtime.producer("node00", "p")
    first = runtime.consumer("node01", "c1")
    second = runtime.consumer("node01", "c2")

    def flow():
        yield from producer.produce("/dyad/f", 50_000)
        yield from first.consume("/dyad/f")
        yield from second.consume("/dyad/f")

    _drive(cluster.env, flow())
    assert second.cache_hits == 0
    assert cluster.fabric.stats.rdma_transfers == 2


def test_cache_hit_consumption_cheaper():
    cluster = corona(nodes=2, seed=0)
    runtime = DyadRuntime(cluster)
    producer = runtime.producer("node00", "p")
    first = runtime.consumer("node01", "c1")
    second = runtime.consumer("node01", "c2")
    times = {}

    def flow():
        yield from producer.produce("/dyad/f", 10_000_000)
        start = cluster.env.now
        yield from first.consume("/dyad/f")
        times["pull"] = cluster.env.now - start
        start = cluster.env.now
        yield from second.consume("/dyad/f")
        times["hit"] = cluster.env.now - start

    _drive(cluster.env, flow())
    assert times["hit"] < 0.5 * times["pull"]
