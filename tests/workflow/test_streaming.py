"""Tests for the streaming transports (windowed / pubsub / nbuffer).

Three levels:

- **unit** — :class:`~repro.workflow.streaming.StreamChannel` credit
  window, condition-loop wake-up tolerance, and the injector-facing
  hold/release fault surface;
- **invariants** — the flow-control family (bounded-window,
  credit-conservation, backpressure-liveness, stream-drain) trips on
  exactly its own lie;
- **end-to-end** — every mode x system combination completes with a
  balanced credit ledger and zero violations, nbuffer is exactly the
  W=2 windowed schedule, runs are fingerprint-deterministic, and a
  crafted leak deadlocks into a *cycle-naming* StallError (not a
  timeout).
"""

import pytest

from repro.errors import StallError, WorkflowError
from repro.experiments.parallel import result_fingerprint
from repro.faults.plan import FaultEvent, FaultPlan
from repro.invariants import InvariantChecker, InvariantConfig
from repro.md.models import JAC
from repro.perf.caliper import Category
from repro.sim.core import Environment
from repro.workflow.runner import run_workflow
from repro.workflow.spec import Placement, SyncMode, System, WorkflowSpec
from repro.workflow.streaming import (
    BACKPRESSURE_REGION,
    STREAM_WAIT_REGION,
    StreamChannel,
    flow_occupancy,
)

MODES = (SyncMode.WINDOWED, SyncMode.PUBSUB, SyncMode.NBUFFER)
SYSTEMS = (System.DYAD, System.XFS, System.LUSTRE)

FRAMES = 6
PAIRS = 2

#: ``invariant_checks`` of one clean FRAMES x PAIRS streaming run, any mode
CLEAN_RUN_CHECKS = {System.DYAD: 162.0, System.XFS: 157.0,
                    System.LUSTRE: 171.0}


def _spec(system, mode, frames=FRAMES, pairs=PAIRS, window=2, **kwargs):
    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    return WorkflowSpec(system=system, model=JAC, stride=880, frames=frames,
                        pairs=pairs, placement=placement, sync_mode=mode,
                        window=window, **kwargs)


def _channel(env, window=2):
    return StreamChannel(env, pair=0, window=window,
                         producer_role="producer0", consumer_role="consumer0",
                         producer_node="node00", consumer_node="node01")


# ---------------------------------------------------------------------------
# spec surface
# ---------------------------------------------------------------------------


def test_window_validation():
    with pytest.raises(WorkflowError, match="window"):
        _spec(System.XFS, SyncMode.WINDOWED, window=0)


def test_nbuffer_is_fixed_double_buffer():
    with pytest.raises(WorkflowError, match="W=2 special case"):
        _spec(System.XFS, SyncMode.NBUFFER, window=3)
    assert _spec(System.XFS, SyncMode.NBUFFER).effective_window == 2


def test_streaming_flag_and_repr_neutrality():
    assert not WorkflowSpec(system=System.DYAD).is_streaming
    assert _spec(System.DYAD, SyncMode.PUBSUB).is_streaming
    # Cache keys / fingerprints hash repr(spec): pre-streaming specs must
    # render byte-identically, so the default window stays invisible.
    assert "window" not in repr(WorkflowSpec(system=System.XFS))
    assert "window=4" in repr(_spec(System.XFS, SyncMode.WINDOWED, window=4))


# ---------------------------------------------------------------------------
# unit: StreamChannel credit window
# ---------------------------------------------------------------------------


def test_backpressure_blocks_producer_at_window():
    env = Environment()
    channel = _channel(env, window=2)
    acquired = []

    def producer():
        for k in range(4):
            yield from channel.acquire_credit(k)
            acquired.append((k, env.now))
            channel.publish(k)

    def consumer():
        for k in range(4):
            yield from channel.wait_frame(k)
            yield env.timeout(0.5)
            channel.release_credit(k)

    env.process(producer())
    env.process(consumer())
    env.run()
    # Frames 0/1 fill the window at t=0; every further credit waits for
    # a consumer return at t=0.5k.
    assert [k for k, _ in acquired] == [0, 1, 2, 3]
    assert acquired[0][1] == 0.0 and acquired[1][1] == 0.0
    assert acquired[2][1] == pytest.approx(0.5)
    assert acquired[3][1] == pytest.approx(1.0)
    assert channel.peak_in_flight == 2
    assert channel.producer_blocks == 2
    assert channel.blocked_time == pytest.approx(1.0)
    assert channel.credits_issued == channel.credits_returned == 4
    assert channel.armed_watches() == []


def test_wait_frame_tolerates_foreign_and_duplicate_wakeups():
    env = Environment()
    channel = _channel(env)
    woke = []

    def consumer():
        yield from channel.wait_frame(1)
        woke.append(env.now)

    def producer():
        yield env.timeout(0.1)
        channel.publish(0)   # foreign frame: broadcast wakes the watcher
        yield env.timeout(0.1)
        channel.publish(1)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert woke == [pytest.approx(0.2)]
    assert channel.spurious_wakeups == 1


def test_hold_notifications_queues_and_redelivers():
    env = Environment()
    channel = _channel(env)
    woke = []

    def consumer():
        yield from channel.wait_frame(0)
        woke.append(env.now)

    def producer():
        yield env.timeout(0.1)
        channel.publish(0)           # plane is down: wake-up lost
        yield env.timeout(0.4)
        channel.release_notifications()

    channel.hold_notifications()
    env.process(consumer())
    env.process(producer())
    env.run()
    assert channel.lost_wakeups == 1
    assert channel.redeliveries == 1
    assert channel.undelivered_frames() == []
    assert woke == [pytest.approx(0.5)]


def test_hold_returns_leaks_credit_until_release():
    env = Environment()
    channel = _channel(env, window=1)
    acquired = []

    def producer():
        yield from channel.acquire_credit(0)
        channel.publish(0)
        yield from channel.acquire_credit(1)
        acquired.append(env.now)

    def consumer():
        yield from channel.wait_frame(0)
        channel.release_credit(0)    # deferred: the credit leaks
        yield env.timeout(1.0)
        channel.release_returns()    # recovery flushes the return

    channel.hold_returns()
    env.process(producer())
    env.process(consumer())
    env.run()
    assert channel.deferred_return_count == 1
    assert channel.deferred_returns() == []
    assert acquired == [pytest.approx(1.0)]
    assert channel.credits_issued == 2
    assert channel.credits_returned == 1  # frame 1's credit is still held


def test_occupancy_names_holders_and_waiters():
    env = Environment()
    channel = _channel(env, window=1)

    def producer():
        yield from channel.acquire_credit(0)
        channel.publish(0)
        yield from channel.acquire_credit(1)  # blocks forever

    def consumer():
        yield from channel.wait_frame(1)      # never delivered

    env.process(producer())
    env.process(consumer())
    env.run()
    text = flow_occupancy([channel])
    assert "1/1 credit(s) in flight" in text
    assert "held for frame(s) 0" in text
    assert "awaiting return by consumer0" in text
    assert "producer0 blocked" in text
    assert "consumer0 watch armed on frame(s) 1" in text


# ---------------------------------------------------------------------------
# invariants: the flow-control family trips on its own lie
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0


def _nonfatal():
    return InvariantChecker(_Clock(), InvariantConfig(fatal=False))


def test_bounded_window_invariant_trips():
    checker = _nonfatal()
    checker.credit_issued("producer0", 0, 2, in_flight=3, window=2)
    assert any("bounded-window" in v for v in checker.violations)


def test_credit_conservation_invariant_trips():
    checker = _nonfatal()
    checker.credit_returned("consumer0", 0, 1, issued=5, returned=3, held=1)
    assert any("credit-conservation" in v for v in checker.violations)


def test_backpressure_liveness_invariant_trips():
    checker = _nonfatal()
    checker.producer_unblocked("producer0", 0, waited=2.0, horizon=1.0)
    assert any("backpressure-liveness" in v for v in checker.violations)
    # no horizon declared: counted, never tripped
    checker2 = _nonfatal()
    checker2.producer_unblocked("producer0", 0, waited=2.0, horizon=None)
    assert checker2.violations == []


def test_stream_drain_invariant_trips_on_leak():
    env = Environment()
    channel = _channel(env, window=2)
    channel.credits_issued = 3   # one credit never returned
    channel.credits_returned = 2
    checker = _nonfatal()
    checker.check_stream_drain([channel], frames=3)
    assert any("leaked 1 credit" in v for v in checker.violations)


def test_stream_drain_invariant_trips_on_extra_credit():
    # Balanced ledger, but the edge issued a credit for a frame it never
    # had: only the one-credit-per-frame comparison sees it.
    env = Environment()
    channel = _channel(env, window=2)
    channel.credits_issued = channel.credits_returned = 4
    checker = _nonfatal()
    checker.check_stream_drain([channel], frames=3)
    assert checker.violations == [
        "credit-conservation: pair 0 issued 4 credit(s) for 3 frame(s)"]
    # folded into the conservation comparison: still three checks a channel
    assert checker.checks == 3


# ---------------------------------------------------------------------------
# end-to-end: every mode x system combination
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.value)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_streaming_completes_with_balanced_ledger(system, mode):
    result = run_workflow(_spec(system, mode))   # checker fatal by default
    assert result.invariant_violations == []
    stats = result.system_stats
    # checks are fingerprinted: the per-frame credit count adds none
    assert stats["invariant_checks"] == CLEAN_RUN_CHECKS[system]
    expected = float(FRAMES * PAIRS)
    assert stats["stream_credits_issued"] == expected
    assert stats["stream_credits_returned"] == expected
    assert stats["stream_peak_in_flight"] <= 2
    assert stats["stream_lost_wakeups"] == 0


def test_nbuffer_is_windowed_w2_schedule():
    windowed = run_workflow(_spec(System.XFS, SyncMode.WINDOWED, window=2))
    nbuffer = run_workflow(_spec(System.XFS, SyncMode.NBUFFER))
    assert nbuffer.makespan == windowed.makespan


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_streaming_runs_are_deterministic(mode):
    a = run_workflow(_spec(System.DYAD, mode), seed=3, jitter_cv=0.05)
    b = run_workflow(_spec(System.DYAD, mode), seed=3, jitter_cv=0.05)
    assert result_fingerprint(a) == result_fingerprint(b)


def test_streaming_regions_in_call_trees():
    result = run_workflow(_spec(System.XFS, SyncMode.WINDOWED, window=1))
    producer = result.producer_trees[0]
    consumer = result.consumer_trees[0]
    assert producer.find(BACKPRESSURE_REGION) is not None
    assert producer.find(BACKPRESSURE_REGION).category == Category.IDLE
    assert consumer.find(STREAM_WAIT_REGION) is not None
    assert consumer.find(STREAM_WAIT_REGION).category == Category.IDLE


def test_crafted_leak_deadlocks_with_cycle_naming_stall(monkeypatch):
    # Leak every credit: the window drains, the producer parks forever,
    # and the fault-free runner must *diagnose* the cycle, not hang or
    # time out.
    monkeypatch.setattr(StreamChannel, "release_credit",
                        lambda self, frame: None)
    with pytest.raises(StallError) as exc:
        run_workflow(_spec(System.XFS, SyncMode.WINDOWED, pairs=1))
    msg = str(exc.value)
    assert "streaming deadlock" in msg
    assert "producer0" in msg
    assert "awaiting return by consumer0" in msg
    assert "credit(s) in flight" in msg
    assert "timeout" not in msg.lower()


def test_backpressure_liveness_horizon_end_to_end():
    # A consumer-side link flap stalls reads; the producer's block
    # outlives a deliberately tight declared horizon.
    spec = _spec(System.LUSTRE, SyncMode.WINDOWED, pairs=1, frames=8,
                 window=1)
    plan = FaultPlan(events=(
        FaultEvent("link_flap", at=1.0, target="1", duration=3.0),
    ))
    strict = run_workflow(
        spec, fault_plan=plan,
        invariants=InvariantConfig(fatal=False, liveness_horizon=0.5),
    )
    assert any("backpressure-liveness" in v
               for v in strict.invariant_violations)
    # The same run under the default (derived) horizon is clean.
    clean = run_workflow(spec, fault_plan=plan)
    assert clean.invariant_violations == []
    assert clean.system_stats["stream_producer_blocks"] >= 1
