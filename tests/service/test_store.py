"""Shared multi-tenant result store accounting."""

from types import SimpleNamespace

import pytest

import repro.service.store as store_mod
from repro.experiments.persist import encode_result
from repro.service.jobs import JobSpec
from repro.service.store import SharedResultStore


@pytest.fixture()
def open_store(tmp_path):
    """Open stores over ``tmp_path``; each one is closed after the test."""
    opened = []

    def _open(**kwargs):
        store = SharedResultStore(str(tmp_path), **kwargs)
        opened.append(store)
        return store

    yield _open
    for store in opened:
        store.close()


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
    assert store.key_for(spec) != store.key_for(spec, "fluid")
    assert store.key_for(spec, "exact") == store.key_for(spec)


def test_per_tenant_counters_and_cross_tenant_dedup(open_store):
    store = open_store()
    key = store.key_for(_spec())
    assert store.load(key, "alice") is None
    assert store.misses["alice"] == 1

    _publish(store, key, {"makespan": 1.0})
    assert store.load(key, "alice") == {"makespan": 1.0}
    assert store.cross_tenant_dedup == 0

    # bob hitting alice's entry is the cross-tenant dedup the service
    # advertises
    assert store.load(key, "bob") == {"makespan": 1.0}
    assert store.cross_tenant_dedup == 1
    assert store.hits == {"alice": 1, "bob": 1}

    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["stores"] == {"alice": 1}
    assert stats["cross_tenant_dedup"] == 1


# -- zero-copy delivery structures ----------------------------------------

def test_fetch_resolves_metadata_and_zero_copy_payload(open_store):
    from repro.experiments.persist import decode_result

    store = open_store()
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=2.5), fingerprint="fp-1")
    stored = store.fetch(key, "bob")
    assert stored.key == key
    assert stored.fingerprint == "fp-1"
    assert stored.makespan == 2.5
    view = stored.payload()
    assert isinstance(view, memoryview)
    # the framed bytes stream verbatim: decoding them client-side gives
    # back the published result
    assert decode_result(view) == SimpleNamespace(makespan=2.5)
    assert stored.result() == SimpleNamespace(makespan=2.5)


def test_handle_is_an_index_only_lookup(open_store):
    store = open_store()
    key = store.key_for(_spec())
    assert store.handle(key) is None
    _publish(store, key, SimpleNamespace(makespan=1.0))
    handle = store.handle(key)
    assert handle["segment"] == store.segment.path
    view = store.segment.view(handle["offset"], handle["length"])
    assert len(view) == handle["length"]


def test_lru_eviction_falls_back_to_cache_directory(open_store):
    store = open_store(lru_entries=2)
    keys = []
    for seed in range(3):
        key = store.key_for(_spec(seed=seed))
        _publish(store, key, SimpleNamespace(makespan=float(seed)))
        keys.append(key)
    # capacity 2: the first key was evicted from the in-memory index
    assert store.handle(keys[0]) is None
    assert store.handle(keys[2]) is not None
    before = store.lru_misses
    # ...but the cache directory still serves it (and re-warms the LRU)
    assert store.fetch(keys[0], "alice").makespan == 0.0
    assert store.lru_misses == before + 1
    assert store.handle(keys[0]) is not None


def test_lru_hit_counters_feed_the_perf_gate(open_store):
    store = open_store()
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=1.0))
    for _ in range(5):
        assert store.fetch(key, "alice") is not None
    stats = store.stats()
    assert stats["lru_hits"] >= 5
    assert stats["lru_misses"] == 0
    assert stats["segment"]["records"] == 1


def test_segment_rebuilds_index_across_restart(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=3.0))
    store.close()
    # a fresh store over the same root re-scans the segment: the handle
    # is servable again without touching the cache directory
    reopened = SharedResultStore(str(tmp_path))
    assert reopened.handle(key) is not None
    assert reopened.fetch(key, "bob").makespan == 3.0
    reopened.close()


def test_torn_segment_tail_is_truncated_not_fatal(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    _publish(store, key, SimpleNamespace(makespan=1.0))
    store.close()
    seg_path = store.segment.path
    with open(seg_path, "ab") as fh:
        fh.write(b"RPSG" + b"\x00" * 10)  # crash mid-append
    reopened = SharedResultStore(str(tmp_path))
    assert reopened.fetch(key, "alice").makespan == 1.0
    assert reopened.segment.stats()["records"] == 0  # nothing re-appended
    reopened.close()


def test_publish_files_the_bytes_as_they_are(open_store):
    store = open_store()
    key = store.key_for(_spec())
    blob = encode_result(SimpleNamespace(makespan=4.0))
    path = store.publish(key, "alice", blob, "fp-4", 4.0)
    with open(path, "rb") as fh:
        assert fh.read() == blob
    assert bytes(store.payload(key)) == blob
    assert store.stats()["stores"] == {"alice": 1}


def test_known_metadata_spares_fetches_a_decode(tmp_path, monkeypatch):
    def no_decode(blob):
        raise AssertionError("the store decoded a result it was told about")

    store = SharedResultStore(str(tmp_path), lru_entries=1)
    keys = [store.key_for(_spec(seed=seed)) for seed in (1, 2)]
    for seed, key in zip((1, 2), keys):
        _publish(store, key, SimpleNamespace(makespan=float(seed)),
                 fingerprint=f"fp-{seed}")
    with monkeypatch.context() as patched:
        patched.setattr(store_mod, "decode_result", no_decode)
        # published, evicted from the index, faulted in from the cache
        # directory: its metadata stayed
        assert store.fetch(keys[0], "alice").fingerprint == "fp-1"
    store.close()
    reopened = SharedResultStore(str(tmp_path), lru_entries=1)
    # what a restarted server reads from its journal's "done" records
    for seed, key in zip((1, 2), keys):
        reopened.recall(key, f"fp-{seed}", float(seed))
    monkeypatch.setattr(store_mod, "decode_result", no_decode)
    for seed, key in zip((1, 2), keys):
        stored = reopened.fetch(key, "bob")
        assert (stored.fingerprint, stored.makespan) == (f"fp-{seed}",
                                                         float(seed))
    reopened.close()
