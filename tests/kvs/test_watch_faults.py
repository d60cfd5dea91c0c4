"""KVS watch delivery under races and broker faults.

Pins the watch machinery's delivery contract the pubsub streaming mode
leans on:

- **exactly-once at timestep boundaries** — a watcher armed in the very
  timestep its key commits is woken exactly once, whichever side the
  event heap schedules first, and a commit racing the registration RPC
  is found by the post-registration data check (no notification fires);
- **duplicate tolerance** — re-committing a watched key never re-fires
  the latched signal (no double wake-up, no SimulationError);
- **lost-wakeup recovery** — ``drop_watches()`` (the broker's
  crash/restart fault surface) wakes parked watchers with a loss
  sentinel; they back off, re-register, re-check, and still return the
  committed value — including when the commit itself raced the outage;
- **end-to-end** — a ``dyad_crash`` striking while pubsub consumers are
  parked on watches drops those watches and the run still completes
  with zero invariant violations.
"""

import pytest

from repro.cluster.network import Fabric, FabricConfig
from repro.dyad.config import DyadConfig
from repro.faults.plan import FaultEvent, FaultPlan
from repro.kvs.store import KVS, KVSConfig
from repro.md.models import JAC
from repro.sim.rng import RngStreams
from repro.workflow.runner import run_workflow
from repro.workflow.spec import Placement, SyncMode, System, WorkflowSpec


@pytest.fixture
def kvs(env):
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    fabric.attach("node00")
    fabric.attach("node01")
    return KVS(env, fabric, "broker")


def _timings(env_factory):
    """Deterministic (registration, commit) durations for this fabric."""
    from repro.sim.core import Environment

    env = Environment()
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    fabric.attach("node00")
    fabric.attach("node01")
    probe = KVS(env, fabric, "broker")
    times = {}

    def commit_probe():
        start = env.now
        yield from probe.commit("node00", "probe", 1)
        times["commit"] = env.now - start

    def watch_probe():
        start = env.now
        yield from probe.wait_for("node01", "probe")
        times["watch_hit"] = env.now - start

    proc = env.process(commit_probe())
    env.run()
    env.process(watch_probe())
    env.run()
    return times


# ---------------------------------------------------------------------------
# exactly-once at timestep boundaries
# ---------------------------------------------------------------------------


def test_watch_armed_same_timestep_as_commit_fires_exactly_once(env, kvs):
    # Calibrate the deterministic RPC durations, then start the commit so
    # it lands at the exact simulated instant the watcher parks (the
    # registration RPC time), putting both on the same event timestep.
    times = _timings(None)
    # wait_for's registration pays a watch RPC, so a watcher started at
    # t=w parks at w + times["watch_hit"]; a commit started at t=c lands
    # at c + times["commit"]. Offset the slower starter so both land on
    # the same instant.
    skew = times["commit"] - times["watch_hit"]
    got = []

    def watcher():
        yield env.timeout(max(skew, 0.0))
        value = yield from kvs.wait_for("node01", "k")
        got.append((env.now, value))

    def committer():
        yield env.timeout(max(-skew, 0.0))
        yield from kvs.commit("node00", "k", 42)

    env.process(watcher())
    env.process(committer())
    env.run()
    assert got == [(pytest.approx(got[0][0]), 42)]
    assert len(got) == 1
    assert kvs.stats.lost_wakeups == 0


def test_commit_racing_registration_found_by_data_check(env, kvs):
    # The commit lands while the watcher's registration RPC is still in
    # flight: no notification ever fires (the signal latches with nobody
    # parked) and the post-registration data check returns the value.
    got = []

    def watcher():
        value = yield from kvs.wait_for("node01", "k")
        got.append(value)

    def committer():
        yield from kvs.commit("node00", "k", 7)

    env.process(watcher())
    env.process(committer())
    env.run()
    assert got == [7]


def test_duplicate_commit_never_refires_latched_signal(env, kvs):
    got = []

    def watcher():
        value = yield from kvs.wait_for("node01", "k")
        got.append(value)

    def committer():
        yield env.timeout(1.0)
        yield from kvs.commit("node00", "k", 1)
        yield from kvs.commit("node00", "k", 2)   # duplicate: no re-fire
        yield from kvs.commit("node00", "k", 3)

    def reader():
        value = yield from kvs.lookup("node01", "k")
        got.append(value)

    env.process(watcher())
    env.process(committer())
    env.run()
    assert got == [1]
    # the last commit is the stored value
    env.process(reader())
    env.run()
    assert got == [1, 3]


# ---------------------------------------------------------------------------
# lost-wakeup recovery
# ---------------------------------------------------------------------------


def test_drop_watches_wakes_and_rearms_parked_watcher(env, kvs):
    got = []

    def watcher():
        value = yield from kvs.wait_for("node01", "k")
        got.append((env.now, value))

    def chaos():
        yield env.timeout(1.0)
        dropped = kvs.drop_watches()
        assert dropped == 1
        yield env.timeout(2.0)
        yield from kvs.commit("node00", "k", 42)

    env.process(watcher())
    env.process(chaos())
    env.run()
    assert got and got[0][1] == 42
    assert got[0][0] > 3.0
    assert kvs.stats.dropped_watches == 1
    assert kvs.stats.lost_wakeups == 1
    assert kvs.stats.watches == 2       # original + re-registration


def test_commit_racing_outage_found_on_rearm(env, kvs):
    # The commit lands inside the re-arm backoff window: the recovering
    # watcher's re-registration data check finds it instead of parking
    # on a notification that will never come.
    slow_rearm = KVSConfig(watch_rearm_delay=1.0)
    fabric = Fabric(env, FabricConfig(), RngStreams(0))
    fabric.attach("node00")
    fabric.attach("node01")
    store = KVS(env, fabric, "broker", config=slow_rearm)
    got = []

    def watcher():
        value = yield from store.wait_for("node01", "k")
        got.append(value)

    def chaos():
        yield env.timeout(1.0)
        store.drop_watches()
        yield env.timeout(0.5)           # inside the 1.0s backoff
        yield from store.commit("node00", "k", 99)

    env.process(watcher())
    env.process(chaos())
    env.run()
    assert got == [99]
    assert store.stats.lost_wakeups == 1


def test_drop_watches_ignores_latched_signals(env, kvs):
    def flow():
        yield from kvs.commit("node00", "k", 1)
        value = yield from kvs.wait_for("node01", "k")
        return value

    proc = env.process(flow())
    env.run()
    assert proc.value == 1
    assert kvs.drop_watches() == 0
    assert kvs.stats.dropped_watches == 0


# ---------------------------------------------------------------------------
# end-to-end: pubsub consumers survive a broker crash
# ---------------------------------------------------------------------------


def test_pubsub_run_recovers_from_dyad_crash():
    spec = WorkflowSpec(system=System.DYAD, model=JAC, stride=880, frames=8,
                        pairs=2, placement=Placement.SPLIT,
                        sync_mode=SyncMode.PUBSUB)
    # t=0.4 lands inside the consumers' frame-0 watch window, so the
    # crash drops armed watches; the retry budget must outlast the
    # 2-second service outage (see repro.experiments.resilience).
    plan = FaultPlan(events=(
        FaultEvent("dyad_crash", at=0.4, target="0", duration=2.0),
    ))
    result = run_workflow(spec, fault_plan=plan,
                          dyad_config=DyadConfig(max_transfer_retries=80))
    assert result.invariant_violations == []
    stats = result.system_stats
    assert stats["dyad_dropped_watches"] > 0
    assert stats["dyad_lost_wakeups"] > 0
    assert stats["dyad_lost_wakeups"] >= stats["dyad_dropped_watches"]
    assert stats["stream_credits_issued"] == stats["stream_credits_returned"]
    assert stats["stream_credits_issued"] == 16.0


def test_pubsub_crash_run_is_reproducible():
    from repro.experiments.parallel import result_fingerprint

    spec = WorkflowSpec(system=System.DYAD, model=JAC, stride=880, frames=6,
                        pairs=1, placement=Placement.SPLIT,
                        sync_mode=SyncMode.PUBSUB)
    plan = FaultPlan(events=(
        FaultEvent("dyad_crash", at=0.4, target="0", duration=2.0),
    ))
    config = DyadConfig(max_transfer_retries=80)
    a = run_workflow(spec, fault_plan=plan, dyad_config=config, seed=5)
    b = run_workflow(spec, fault_plan=plan, dyad_config=config, seed=5)
    assert result_fingerprint(a) == result_fingerprint(b)
