"""Unit tests for Resource, Signal, and SharedBandwidth."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.resources import Resource, SharedBandwidth, Signal


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert res.count == 2 and res.queue_len == 1
    env.run()
    assert r1.processed and r2.processed
    assert not r3.processed


def test_resource_release_wakes_fifo(env):
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    res.release(first)
    env.run()
    assert second.processed and not third.processed


def test_resource_release_queued_request_cancels(env):
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    res.release(queued)  # cancel while queued
    assert res.queue_len == 0
    res.release(held)
    assert res.count == 0


def test_resource_double_release_rejected(env):
    res = Resource(env, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_acquire_reports_queue_wait(env):
    res = Resource(env, capacity=1)
    waits = {}

    def worker(name):
        waited = yield from res.acquire(2.0)
        waits[name] = waited

    env.process(worker("first"))
    env.process(worker("second"))
    env.run()
    assert waits["first"] == 0.0
    assert waits["second"] == 2.0
    assert env.now == 4.0


def test_acquire_releases_on_failure(env):
    res = Resource(env, capacity=1)
    holder = res.acquire(1.0)
    next(holder)  # the request, granted at once
    holder.send(None)  # now in service
    assert res.count == 1
    # a failure thrown into the holder mid-service releases the slot
    with pytest.raises(RuntimeError):
        holder.throw(RuntimeError("crashed mid-service"))
    assert res.count == 0


# ---------------------------------------------------------------------------
# Signal
# ---------------------------------------------------------------------------


def test_signal_wakes_all_waiters(env):
    sig = Signal(env)
    got = []

    def waiter(name):
        value = yield sig.wait()
        got.append((name, value))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def firer():
        yield env.timeout(1.0)
        assert sig.fire("v") == 2

    env.process(firer())
    env.run()
    assert sorted(got) == [("a", "v"), ("b", "v")]


def test_signal_fire_once_latches(env):
    sig = Signal(env)
    got = []

    def late_waiter():
        yield env.timeout(5.0)
        value = yield sig.wait()
        got.append((env.now, value))

    def firer():
        yield env.timeout(1.0)
        sig.fire_once("latched")

    env.process(late_waiter())
    env.process(firer())
    env.run()
    assert got == [(5.0, "latched")]
    assert sig.latched


def test_signal_double_latch_rejected(env):
    sig = Signal(env)
    sig.fire_once()
    with pytest.raises(SimulationError):
        sig.fire_once()


def test_signal_refires_for_new_waiters(env):
    sig = Signal(env)
    got = []

    def waiter(delay):
        yield env.timeout(delay)
        value = yield sig.wait()
        got.append(value)

    def firer():
        yield env.timeout(1.0)
        sig.fire("first")
        yield env.timeout(2.0)
        sig.fire("second")

    env.process(waiter(0.5))
    env.process(waiter(1.5))
    env.process(firer())
    env.run()
    assert got == ["first", "second"]


# ---------------------------------------------------------------------------
# SharedBandwidth
# ---------------------------------------------------------------------------


def _move(env, chan, nbytes, delay=0.0, log=None, name=None):
    def proc():
        if delay:
            yield env.timeout(delay)
        yield chan.transfer(nbytes)
        if log is not None:
            log[name] = env.now

    return env.process(proc())


def test_single_flow_full_bandwidth(env):
    chan = SharedBandwidth(env, bandwidth=100.0)
    done = {}
    _move(env, chan, 50, log=done, name="x")
    env.run()
    assert done["x"] == pytest.approx(0.5)


def test_two_flows_share_equally(env):
    chan = SharedBandwidth(env, bandwidth=100.0)
    done = {}
    _move(env, chan, 50, log=done, name="a")
    _move(env, chan, 50, log=done, name="b")
    env.run()
    assert done["a"] == pytest.approx(1.0)
    assert done["b"] == pytest.approx(1.0)


def test_staggered_flows_fluid_model(env):
    chan = SharedBandwidth(env, bandwidth=10.0)
    done = {}
    _move(env, chan, 10, log=done, name="x")
    _move(env, chan, 10, delay=0.5, log=done, name="y")
    env.run()
    # x: 5 bytes alone (0.5s), 5 bytes shared (1.0s) -> 1.5s
    # y: 5 bytes shared (1.0s), 5 bytes alone (0.5s) -> 2.0s
    assert done["x"] == pytest.approx(1.5)
    assert done["y"] == pytest.approx(2.0)


def test_per_flow_cap_limits_single_flow(env):
    chan = SharedBandwidth(env, bandwidth=100.0, per_flow_cap=10.0)
    done = {}
    _move(env, chan, 10, log=done, name="x")
    env.run()
    assert done["x"] == pytest.approx(1.0)


def test_per_flow_cap_many_flows_use_aggregate(env):
    chan = SharedBandwidth(env, bandwidth=30.0, per_flow_cap=10.0)
    done = {}
    for i in range(6):
        _move(env, chan, 10, log=done, name=i)
    env.run()
    # 6 flows on 30 B/s aggregate -> 5 B/s each -> 2 s
    assert all(done[i] == pytest.approx(2.0) for i in range(6))


def test_zero_byte_transfer_completes_immediately(env):
    chan = SharedBandwidth(env, bandwidth=10.0)
    ev = chan.transfer(0)
    env.run()
    assert ev.processed and env.now == 0.0


def test_negative_transfer_rejected(env):
    chan = SharedBandwidth(env, bandwidth=10.0)
    with pytest.raises(ValueError):
        chan.transfer(-1)


def test_bandwidth_validation(env):
    with pytest.raises(ValueError):
        SharedBandwidth(env, bandwidth=0)
    with pytest.raises(ValueError):
        SharedBandwidth(env, bandwidth=10, per_flow_cap=0)


def test_bytes_moved_accounting(env):
    chan = SharedBandwidth(env, bandwidth=100.0)
    _move(env, chan, 30)
    _move(env, chan, 70)
    env.run()
    assert chan.bytes_moved == pytest.approx(100.0)
    assert chan.active_flows == 0


def test_tiny_residue_does_not_hang(env):
    """Regression: sub-ULP residues once caused an infinite zero-delay loop."""
    chan = SharedBandwidth(env, bandwidth=3.0)
    done = {}
    # sizes chosen to produce non-terminating binary fractions
    _move(env, chan, 1e-7, log=done, name="t")
    _move(env, chan, 0.1, delay=1e-9, log=done, name="u")
    env.run()
    assert "t" in done and "u" in done


def test_current_rate_reporting(env):
    chan = SharedBandwidth(env, bandwidth=100.0)
    assert chan.current_rate() == float("inf")
    chan.transfer(1000)
    assert chan.current_rate() == pytest.approx(100.0)
    chan.transfer(1000)
    assert chan.current_rate() == pytest.approx(50.0)


def test_set_bandwidth_with_zero_flows_active(env):
    """Mutating an idle channel is safe and governs the next admission.

    The fault layer degrades/restores links whether or not traffic is in
    flight; an idle-channel mutation must neither raise nor schedule a
    spurious wake-up, and the new capacity must apply to later flows.
    """
    chan = SharedBandwidth(env, bandwidth=100.0)
    chan.set_bandwidth(10.0)  # no flows in flight
    done = {}
    _move(env, chan, 10, delay=1.0, log=done, name="x")
    env.run()
    assert done["x"] == pytest.approx(2.0)
    assert chan.active_flows == 0
    # and again after the channel drained back to idle
    chan.set_bandwidth(40.0)
    done2 = {}
    _move(env, chan, 20, log=done2, name="y")
    env.run()
    assert done2["y"] == pytest.approx(env.now)


def test_per_flow_cap_change_between_epochs(env):
    """Cap changes between service epochs govern subsequent flows.

    ``per_flow_cap`` is a segmenting property: assigning it advances the
    virtual clock first (like ``set_bandwidth``), so between-epoch changes
    simply govern the next epoch's flows at the new ceiling.
    """
    chan = SharedBandwidth(env, bandwidth=100.0, per_flow_cap=10.0)
    done = {}
    _move(env, chan, 100, log=done, name="x")
    env.run()
    assert done["x"] == pytest.approx(10.0)  # 100 B at 10 B/s
    # loosen while idle: the next epoch's flow runs at the new cap
    chan.per_flow_cap = 50.0
    start = env.now
    done2 = {}
    _move(env, chan, 100, log=done2, name="y")
    env.run()
    assert done2["y"] - start == pytest.approx(2.0)  # 100 B at 50 B/s
    # lift entirely: full channel bandwidth from the next epoch on
    chan.per_flow_cap = None
    start = env.now
    done3 = {}
    _move(env, chan, 100, log=done3, name="z")
    env.run()
    assert done3["z"] - start == pytest.approx(1.0)  # 100 B at 100 B/s


def test_per_flow_cap_assignment_mid_epoch_segments(env):
    """Mid-epoch cap assignment prices the elapsed interval at the OLD cap.

    The setter advances the virtual clock *before* mutating — the same
    discipline as ``set_bandwidth`` and the fluid tier's
    ``FluidLink.per_flow_cap`` — so a cap change never retroactively
    re-prices service already rendered. Historically this was a plain
    attribute and the elapsed epoch was re-priced at the *new* cap at the
    next rating event (the flow below would have "moved" 5 s x 50 B/s =
    250 virtual units and completed instantly at t=5 despite running
    under a 10 B/s cap in real time).
    """
    chan = SharedBandwidth(env, bandwidth=100.0, per_flow_cap=10.0)
    done = {}
    _move(env, chan, 100, log=done, name="x")

    def controller():
        yield env.timeout(5.0)
        chan.per_flow_cap = 50.0  # segments: 0..5 s stays priced at 10 B/s
        _move(env, chan, 50, log=done, name="y")

    env.process(controller())
    env.run()
    # x: 50 B at 10 B/s (0..5 s), then 50 B at min(100/2, 50) = 50 B/s
    # shared with y -> completes at t = 6; y moves its 50 B in the same
    # shared second.
    assert done["x"] == pytest.approx(6.0)
    assert done["y"] == pytest.approx(6.0)


def test_per_flow_cap_setter_validates(env):
    chan = SharedBandwidth(env, bandwidth=100.0, per_flow_cap=10.0)
    with pytest.raises(ValueError):
        chan.per_flow_cap = 0.0
    with pytest.raises(ValueError):
        chan.per_flow_cap = -1.0
    assert chan.per_flow_cap == 10.0
    chan.per_flow_cap = None  # lifting the cap entirely is legal
    assert chan.per_flow_cap is None
