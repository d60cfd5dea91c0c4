"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.rng import RngStreams, _mix, _stable_hash


def _draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = _draws(RngStreams(7).stream("ssd"), 5)
    b = _draws(RngStreams(7).stream("ssd"), 5)
    assert a == b


def test_different_names_independent():
    streams = RngStreams(7)
    a = _draws(streams.stream("ssd"), 5)
    b = _draws(streams.stream("network"), 5)
    assert a != b


def test_stream_creation_order_irrelevant():
    one = RngStreams(3)
    one.stream("a")
    first = _draws(one.stream("b"), 4)

    two = RngStreams(3)
    second = _draws(two.stream("b"), 4)  # created without "a"
    assert first == second


def test_stream_is_cached():
    streams = RngStreams(0)
    assert streams.stream("x") is streams.stream("x")


def test_jitter_zero_cv_is_exact(rng):
    assert rng.jitter("any", 5.0, 0.0) == 5.0


def test_jitter_zero_mean_is_zero(rng):
    assert rng.jitter("any", 0.0, 0.5) == 0.0


def test_jitter_positive(rng):
    samples = [rng.jitter("lat", 1.0, 0.3) for _ in range(200)]
    assert all(s > 0 for s in samples)


def test_jitter_mean_approximately_right(rng):
    samples = [rng.jitter("lat", 2.0, 0.1) for _ in range(3000)]
    assert np.mean(samples) == pytest.approx(2.0, rel=0.02)


def test_jitter_cv_approximately_right(rng):
    samples = np.array([rng.jitter("lat", 1.0, 0.2) for _ in range(5000)])
    assert samples.std() / samples.mean() == pytest.approx(0.2, rel=0.1)


def test_jitter_validation(rng):
    with pytest.raises(ValueError):
        rng.jitter("x", -1.0, 0.1)
    with pytest.raises(ValueError):
        rng.jitter("x", 1.0, -0.1)


def test_spawn_children_differ():
    root = RngStreams(9)
    c0 = _draws(root.spawn(0).stream("s"), 4)
    c1 = _draws(root.spawn(1).stream("s"), 4)
    assert c0 != c1


def test_spawn_deterministic():
    a = _draws(RngStreams(9).spawn(3).stream("s"), 4)
    b = _draws(RngStreams(9).spawn(3).stream("s"), 4)
    assert a == b


def test_stable_hash_is_pinned_fnv1a():
    # Stream names key every draw: these values must never change across
    # versions or platforms. "", "a" and "foobar" are FNV-1a test vectors.
    assert _stable_hash("") == 0x811C9DC5
    assert _stable_hash("a") == 0xE40C292C
    assert _stable_hash("foobar") == 0xBF9CF968
    assert _stable_hash("ssd") == 0xBA3EF905
    assert _stable_hash("pair0.frame0") == 0x1702B694


def test_jitter_outputs_are_pinned():
    # Recorded from one scalar numpy lognormal per sample; any drift in
    # the draw engine (derivation, buffering, arithmetic) fails here.
    fabric = RngStreams(0)
    assert [fabric.jitter("fabric.latency", 2.2e-05, 0.05).hex()
            for _ in range(3)] == ["0x1.605848e0edb00p-16",
                                   "0x1.62e27818c0144p-16",
                                   "0x1.60a0593030f5fp-16"]
    wide = RngStreams(2**40 + 17)  # entropy wider than 32 bits
    assert [wide.jitter("pair3.frame7", 0.8201916265891211, 0.05).hex()
            for _ in range(2)] == ["0x1.96f046dbf2bd8p-1",
                                   "0x1.af846ccd5f008p-1"]
    ssd = RngStreams(12345)
    twentieth = [ssd.jitter("node00.ssd.wlat", 2e-05, 0.3)
                 for _ in range(20)][-1]  # past the first block
    assert twentieth.hex() == "0x1.a3b14dafa4a1ep-16"


def test_mix_distributes():
    outputs = {_mix(1, i) for i in range(100)}
    assert len(outputs) == 100


def test_names_iterates_created():
    streams = RngStreams(0)
    streams.stream("a")
    streams.stream("b")
    assert sorted(streams.names()) == ["a", "b"]


def test_names_include_jitter_streams():
    streams = RngStreams(0)
    streams.stream("fault")
    streams.jitter("lat", 1.0, 0.1)
    streams.jitter("off", 1.0, 0.0)  # cv = 0 never touches a stream
    assert sorted(streams.names()) == ["fault", "lat"]


def test_raw_stream_then_jitter_rejected():
    # stream() and jitter() would each step the name's PCG64 state from
    # its start and repeat each other's draws, so one name may use only
    # one draw path.
    streams = RngStreams(0)
    streams.stream("transport.fault").random()
    with pytest.raises(SimulationError, match="transport.fault"):
        streams.jitter("transport.fault", 1.0, 0.1)


def test_jitter_then_raw_stream_rejected():
    streams = RngStreams(0)
    streams.jitter("fabric.latency", 1.0, 0.1)
    with pytest.raises(SimulationError, match="fabric.latency"):
        streams.stream("fabric.latency")
    # the failed request leaves the buffered stream usable
    assert streams.jitter("fabric.latency", 1.0, 0.1) > 0


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)
