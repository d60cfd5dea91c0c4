"""Differential tests: SharedBandwidth vs the naive reference oracle.

The production channel (virtual-time processor sharing, O(log n) per
event) and :class:`repro.sim.reference.ReferenceSharedBandwidth` (the
retained pre-rewrite O(n²) implementation, which materializes every
flow's remaining bytes) must agree on *what happens*: same completion
order, same completion times, same bytes accounted — across randomized
arrival schedules with mixed transfer sizes, ``per_flow_cap`` on and
off, mid-stream ``set_bandwidth`` (the fault-injection path), and
zero-byte transfers.

Times are compared with a tight relative tolerance rather than exactly:
the two implementations accumulate rounding differently in general
(virtual-clock segments vs per-flow subtraction), even though the
experiment-level fingerprints happen to be bit-identical (see
``test_channel_fingerprints.py``).
"""

import math
import random

import pytest

from repro.sim.core import Environment, Event, Process
from repro.sim.reference import ReferenceSharedBandwidth
from repro.sim.resources import SharedBandwidth

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _random_case(seed, with_cap, with_bw_changes, n_transfers=60,
                 with_cap_changes=False):
    """One reproducible scenario: arrivals, sizes, bandwidth timeline."""
    rng = random.Random(seed)
    schedule = []
    t = 0.0
    for _ in range(n_transfers):
        t += rng.expovariate(200.0)  # bursty arrivals, ~5 ms apart
        roll = rng.random()
        if roll < 0.06:
            size = 0.0  # metadata-only op: must complete instantly
        elif roll < 0.5:
            size = rng.uniform(1e4, 1e6)  # small frames
        else:
            size = rng.uniform(1e6, 5e7)  # bulk frames, long-lived flows
        schedule.append((t, size))
    cap = rng.uniform(2e7, 2e8) if with_cap else None
    changes = []
    if with_bw_changes:
        horizon = schedule[-1][0] * 1.5
        for _ in range(5):
            # degrade/restore swings like the fault layer's, mid-stream
            changes.append((rng.uniform(0.0, horizon),
                            ("bw", rng.uniform(2e7, 4e8))))
    if with_cap_changes:
        horizon = schedule[-1][0] * 1.5
        for _ in range(5):
            # mid-stream cap tightenings/loosenings, with the occasional
            # lift (None) — must segment, never re-price history
            new_cap = None if rng.random() < 0.2 else rng.uniform(1e7, 3e8)
            changes.append((rng.uniform(0.0, horizon), ("cap", new_cap)))
    changes.sort(key=lambda c: c[0])
    return schedule, cap, changes


def _run(cls, schedule, cap, changes, bandwidth=1e8):
    """Drive one implementation through the scenario; log completions."""
    env = Environment()
    chan = cls(env, bandwidth, per_flow_cap=cap)
    completions = []

    def submitter():
        for i, (at, size) in enumerate(schedule):
            if at > env.now:
                yield env.timeout(at - env.now)
            done = chan.transfer(size)
            done.callbacks.append(
                lambda _ev, i=i: completions.append((i, env.now))
            )

    def controller():
        for at, (kind, value) in changes:
            if at > env.now:
                yield env.timeout(at - env.now)
            if kind == "bw":
                chan.set_bandwidth(value)
            else:
                chan.per_flow_cap = value

    Process(env, submitter())
    if changes:
        Process(env, controller())
    env.run()
    assert chan.active_flows == 0, "flows left in-flight after drain"
    return completions, chan.bytes_moved, env.now


CASES = [(seed, cap, bw)
         for seed in (1, 7, 23, 91, 1234)
         for cap in (False, True)
         for bw in (False, True)]


@pytest.mark.parametrize("seed,with_cap,with_bw_changes", CASES)
def test_matches_reference_on_random_schedule(seed, with_cap,
                                              with_bw_changes):
    schedule, cap, changes = _random_case(seed, with_cap, with_bw_changes)
    got, got_bytes, got_end = _run(SharedBandwidth, schedule, cap, changes)
    want, want_bytes, want_end = _run(
        ReferenceSharedBandwidth, schedule, cap, changes
    )
    assert len(got) == len(want) == len(schedule)
    assert [i for i, _ in got] == [i for i, _ in want], (
        "completion order diverged from the reference oracle"
    )
    for (i, t_new), (_, t_ref) in zip(got, want):
        assert math.isclose(t_new, t_ref, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"flow {i}: completion at {t_new!r} vs reference {t_ref!r}"
        )
    assert math.isclose(got_bytes, want_bytes, rel_tol=REL_TOL)
    assert math.isclose(got_end, want_end, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.mark.parametrize("seed", (3, 17, 42, 99, 4321))
def test_matches_reference_with_mid_stream_cap_changes(seed):
    """Mid-stream ``per_flow_cap`` assignment must segment identically.

    Random cap tightenings, loosenings, and lifts (``None``) land while
    bulk flows are in flight on both implementations; the production
    setter's advance-then-mutate must agree with the oracle's
    materialized drain to float tolerance. Composes with mid-stream
    ``set_bandwidth`` swings — the fault layer fires both.
    """
    schedule, cap, changes = _random_case(
        seed, with_cap=True, with_bw_changes=(seed % 2 == 0),
        with_cap_changes=True,
    )
    got, got_bytes, got_end = _run(SharedBandwidth, schedule, cap, changes)
    want, want_bytes, want_end = _run(
        ReferenceSharedBandwidth, schedule, cap, changes
    )
    assert len(got) == len(want) == len(schedule)
    assert [i for i, _ in got] == [i for i, _ in want]
    for (i, t_new), (_, t_ref) in zip(got, want):
        assert math.isclose(t_new, t_ref, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"flow {i}: completion at {t_new!r} vs reference {t_ref!r}"
        )
    assert math.isclose(got_bytes, want_bytes, rel_tol=REL_TOL)
    assert math.isclose(got_end, want_end, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _burst_rounds(cls, flows=64, rounds=300):
    """``rounds`` bursts of ``flows`` mixed-size transfers into one channel,
    each drained before the next: a many-pair fan-out on one OSS or NIC."""
    env = Environment()
    chan = cls(env, bandwidth=1e9)
    rng = random.Random(42)
    sizes = [rng.choice((1e5, 1e6, 5e6, 2e7)) for _ in range(flows)]

    def driver():
        for _ in range(rounds):
            gate = Event(env)
            left = [flows]

            def _done(_ev, gate=gate, left=left):
                left[0] -= 1
                if not left[0]:
                    gate.succeed(None)

            for size in sizes:
                chan.transfer(size).callbacks.append(_done)
            yield gate

    Process(env, driver())
    env.run()
    assert chan.bytes_moved == rounds * sum(sizes)
    return env, chan


def test_64_flow_bursts_match_reference():
    """Same event timeline as the oracle, with pinned channel counters."""
    env, chan = _burst_rounds(SharedBandwidth)
    ref_env, _ = _burst_rounds(ReferenceSharedBandwidth)
    assert env._seq == ref_env._seq == 39_602
    assert env.now == ref_env.now
    assert chan.reschedules == 20_100
    assert chan.stale_wakeups_defused == 18_900


def test_equal_flows_complete_fifo_together():
    """Same-size simultaneous flows: equal finish time, submission order."""
    for cls in (SharedBandwidth, ReferenceSharedBandwidth):
        env = Environment()
        chan = cls(env, bandwidth=1e8)
        order = []
        done = [chan.transfer(1e6) for _ in range(8)]
        for i, ev in enumerate(done):
            ev.callbacks.append(lambda _ev, i=i: order.append((i, env.now)))
        env.run()
        assert [i for i, _ in order] == list(range(8))
        times = {t for _, t in order}
        assert len(times) == 1, f"{cls.__name__}: finish times diverged"
        # 8 equal flows over 100 MB/s: each gets 1/8th of the channel
        (finish,) = times
        assert math.isclose(finish, 8 * 1e6 / 1e8, rel_tol=1e-6)


def test_zero_byte_transfer_completes_instantly():
    for cls in (SharedBandwidth, ReferenceSharedBandwidth):
        env = Environment()
        chan = cls(env, bandwidth=1e8)
        chan.transfer(5e6)  # a bulk flow must not delay the zero-byte op
        seen = []
        chan.transfer(0).callbacks.append(
            lambda _ev: seen.append(env.now)
        )
        env.run()
        assert seen == [0.0], f"{cls.__name__}: zero-byte op was queued"


def test_negative_transfer_rejected_by_both():
    for cls in (SharedBandwidth, ReferenceSharedBandwidth):
        env = Environment()
        chan = cls(env, bandwidth=1e8)
        with pytest.raises(ValueError):
            chan.transfer(-1.0)
