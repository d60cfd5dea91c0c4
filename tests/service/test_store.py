"""Shared multi-tenant result store accounting."""

import dataclasses
import os
from types import SimpleNamespace

import pytest

from repro.errors import ServiceError
from repro.experiments.persist import encode_result
from repro.service.jobs import JobSpec
from repro.service.store import SharedResultStore


@pytest.fixture()
def open_store(tmp_path):
    """Open stores over ``tmp_path``."""
    return lambda **kwargs: SharedResultStore(str(tmp_path), **kwargs)


def _spec(**kwargs):
    kwargs.setdefault("tenant", "alice")
    kwargs.setdefault("frames", 2)
    return JobSpec(**kwargs)


def _publish(store, key, result, tenant="alice", fingerprint="fp"):
    """Publish ``result`` as a worker hands it over: already encoded."""
    return store.publish(key, tenant, encode_result(result), fingerprint,
                         getattr(result, "makespan", None))


def test_key_is_content_addressed_not_tenant_addressed(open_store):
    store = open_store()
    alice = store.key_for(_spec(tenant="alice"))
    bob = store.key_for(_spec(tenant="bob"))
    assert alice == bob  # same computation, same address


def test_key_depends_on_effective_fidelity(open_store):
    store = open_store()
    spec = _spec()
    hybrid = dataclasses.replace(spec, fidelity="hybrid")
    assert store.key_for(spec) != store.key_for(hybrid)
    assert store.key_for(dataclasses.replace(hybrid, fidelity="exact")) \
        == store.key_for(spec)


def test_per_tenant_counters_and_cross_tenant_dedup(open_store):
    store = open_store()
    key = store.key_for(_spec())
    assert store.fetch(key, "alice") is None
    assert store.payload(key) is None
    assert store.misses["alice"] == 1

    blob = encode_result(SimpleNamespace(makespan=1.0))
    store.publish(key, "alice", blob, "fp", 1.0)
    assert store.fetch(key, "alice").makespan == 1.0
    assert store.payload(key) == blob
    assert store.cross_tenant_dedup == 0

    # bob hitting alice's entry is the cross-tenant dedup the service
    # advertises
    assert store.fetch(key, "bob").fingerprint == "fp"
    assert store.cross_tenant_dedup == 1
    assert store.hits == {"alice": 1, "bob": 1}

    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["stores"] == {"alice": 1}
    assert stats["cross_tenant_dedup"] == 1


# -- the LRU index and delivery --------------------------------------------

def test_fetch_resolves_metadata_and_zero_copy_payload(open_store):
    """``fetch`` answers metadata only; ``payload`` hands over the entry's
    framed bytes as stored, with no re-encode on the server's side."""
    from repro.experiments.persist import decode_result

    store = open_store()
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=2.5), fingerprint="fp-1")
    stored = store.fetch(key, "bob")
    assert stored.key == key
    assert stored.fingerprint == "fp-1"
    assert stored.makespan == 2.5
    # the framed bytes stream verbatim: decoding them client-side gives
    # back the published result
    assert decode_result(store.payload(key)) == SimpleNamespace(makespan=2.5)


@pytest.mark.parametrize("key", [
    "../../etc/passwd", "/abs/path/victim", "0" * 63, "A" * 64, "g" * 64,
    "0" * 65, "", None, 7,
])
def test_payload_refuses_anything_but_a_content_key(open_store, key):
    store = open_store()
    with pytest.raises(ServiceError, match="malformed result key"):
        store.payload(key)


def test_lru_eviction_falls_back_to_cache_directory(open_store):
    store = open_store(lru_entries=2)
    keys = []
    for seed in range(3):
        key = store.key_for(_spec(seed=seed))
        _publish(store, key, SimpleNamespace(makespan=float(seed)))
        keys.append(key)
    assert store.stats()["lru_entries"] == 2
    # capacity 2: the newest key is indexed...
    assert store.fetch(keys[2], "alice").makespan == 2.0
    assert (store.lru_hits, store.lru_misses) == (1, 0)
    # ...the first was evicted, but the cache directory still serves it
    assert store.fetch(keys[0], "alice").makespan == 0.0
    assert (store.lru_hits, store.lru_misses) == (1, 1)
    # ...and the miss re-warmed the index
    assert store.fetch(keys[0], "alice").makespan == 0.0
    assert (store.lru_hits, store.lru_misses) == (2, 1)
    assert store.stats()["lru_entries"] == 2


def test_lru_hit_counters_feed_the_perf_gate(open_store):
    store = open_store()
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=1.0))
    for _ in range(5):
        assert store.fetch(key, "alice") is not None
    stats = store.stats()
    assert stats["lru_hits"] == 5
    assert stats["lru_misses"] == 0
    assert (stats["lru_entries"], stats["lru_capacity"]) == (1, 512)


def test_fresh_store_reads_entries_from_their_files(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    path = _publish(store, key, SimpleNamespace(makespan=3.0))
    # a fresh store over the same root starts with an empty index: its
    # first fetch is a miss served from the entry file
    reopened = SharedResultStore(str(tmp_path))
    assert reopened.fetch(key, "bob").makespan == 3.0
    assert (reopened.lru_hits, reopened.lru_misses) == (0, 1)
    with open(path, "rb") as fh:
        assert reopened.payload(key) == fh.read()


def test_publish_files_the_bytes_as_they_are(open_store):
    store = open_store()
    key = store.key_for(_spec())
    blob = encode_result(SimpleNamespace(makespan=4.0))
    path = store.publish(key, "alice", blob, "fp-4", 4.0)
    with open(path, "rb") as fh:
        assert fh.read() == blob
    assert store.payload(key) == blob
    assert store.stats()["stores"] == {"alice": 1}


def test_known_metadata_spares_fetches_a_decode(tmp_path, monkeypatch):
    def no_decode(key):
        raise AssertionError("the store decoded a result it was told about")

    store = SharedResultStore(str(tmp_path), lru_entries=1)
    keys = [store.key_for(_spec(seed=seed)) for seed in (1, 2)]
    for seed, key in zip((1, 2), keys):
        _publish(store, key, SimpleNamespace(makespan=float(seed)),
                 fingerprint=f"fp-{seed}")
    with monkeypatch.context() as patched:
        patched.setattr(store.cache, "load", no_decode)
        # published, evicted from the index, faulted in from the cache
        # directory: its metadata stayed
        assert store.fetch(keys[0], "alice").fingerprint == "fp-1"
    reopened = SharedResultStore(str(tmp_path), lru_entries=1)
    # what a restarted server reads from its journal's "done" records
    for seed, key in zip((1, 2), keys):
        reopened.recall(key, f"fp-{seed}", float(seed))
    monkeypatch.setattr(reopened.cache, "load", no_decode)
    for seed, key in zip((1, 2), keys):
        stored = reopened.fetch(key, "bob")
        assert (stored.fingerprint, stored.makespan) == (f"fp-{seed}",
                                                         float(seed))
    assert store.stats()["decoded"] == reopened.stats()["decoded"] == 0


def test_an_unknown_entry_decodes_once(tmp_path):
    # a key this process neither published nor recalled: the one decode
    # is counted, and the metadata it learned serves every later fetch
    writer = SharedResultStore(str(tmp_path))
    key = writer.key_for(_spec(seed=1))
    _publish(writer, key, SimpleNamespace(makespan=1.0), fingerprint="fp-1")
    store = SharedResultStore(str(tmp_path), lru_entries=1)
    other = store.key_for(_spec(seed=2))
    _publish(store, other, SimpleNamespace(makespan=2.0), fingerprint="fp-2")
    for _ in range(2):
        assert store.fetch(key, "alice").makespan == 1.0
        assert store.fetch(other, "alice").makespan == 2.0
    assert store.stats()["decoded"] == 1


def test_an_entry_that_does_not_decode_reads_as_a_miss(open_store,
                                                       undecodable_entry):
    store = open_store()
    key = store.key_for(_spec())
    path = store.cache.store_bytes(key, undecodable_entry)
    assert store.fetch(key, "alice") is None
    assert not os.path.exists(path)
    assert store.misses["alice"] == 1
