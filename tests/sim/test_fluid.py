"""FluidNetwork tests: differential vs the oracle, max-min, weights.

Single-link fluid behaviour is pinned to
:class:`repro.sim.reference.ReferenceSharedBandwidth` — the same oracle,
the same randomized schedules, and the same tight tolerance as the exact
channel's differential suite — because a one-link FluidNetwork *is* a
processor-sharing channel and must time flows identically. On top of
that, multi-link max-min rates, weighted flows (the chunk-collapse
mechanism), per-slot caps and mid-stream mutations are checked
against hand-computed scenarios. Three
scale gates at the end pin the tiers' cost in exact counts.
"""

import math
import random

import pytest

from repro.cluster.topology import Cluster, ClusterConfig
from repro.dyad.rdma import RdmaTransport
from repro.errors import ConfigError
from repro.sim.core import Environment, Process
from repro.sim.fluid import Fidelity, FluidNetwork
from repro.sim.reference import ReferenceSharedBandwidth

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _random_case(seed, with_cap, with_bw_changes, n_transfers=60):
    """Same scenario generator as the exact channel's differential suite."""
    rng = random.Random(seed)
    schedule = []
    t = 0.0
    for _ in range(n_transfers):
        t += rng.expovariate(200.0)
        roll = rng.random()
        if roll < 0.06:
            size = 0.0
        elif roll < 0.5:
            size = rng.uniform(1e4, 1e6)
        else:
            size = rng.uniform(1e6, 5e7)
        schedule.append((t, size))
    cap = rng.uniform(2e7, 2e8) if with_cap else None
    changes = []
    if with_bw_changes:
        horizon = schedule[-1][0] * 1.5
        for _ in range(5):
            changes.append((rng.uniform(0.0, horizon),
                            rng.uniform(2e7, 4e8)))
        changes.sort()
    return schedule, cap, changes


def _fluid_link(env, bandwidth, per_flow_cap=None):
    """A single-link FluidNetwork posing as a bandwidth channel."""
    return FluidNetwork(env).link(bandwidth, per_flow_cap=per_flow_cap)


def _run(make_chan, schedule, cap, changes, bandwidth=1e8):
    """Drive one implementation through a scenario; log completions."""
    env = Environment()
    chan = make_chan(env, bandwidth, per_flow_cap=cap)
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
        for at, bw in changes:
            if at > env.now:
                yield env.timeout(at - env.now)
            chan.set_bandwidth(bw)

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
def test_single_link_matches_reference(seed, with_cap, with_bw_changes):
    """One-link fluid network == processor-sharing channel, per the oracle."""
    schedule, cap, changes = _random_case(seed, with_cap, with_bw_changes)
    got, got_bytes, got_end = _run(_fluid_link, schedule, cap, changes)
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


def _collect(env, events):
    """Run to completion; return each event's finish time."""
    times = {}
    for name, ev in events.items():
        ev.callbacks.append(lambda _ev, n=name: times.setdefault(n, env.now))
    env.run()
    return times


def test_multi_link_max_min_rates():
    """Progressive filling across a shared bottleneck, hand-computed.

    Links: A (10 B/s), B (10 B/s), shared S (12 B/s). Flow x crosses
    (A, S), flow y crosses (B, S). Max-min: both raised to 6 until S
    saturates — each finishes 60 bytes at rate 6 in 10 s.
    """
    env = Environment()
    net = FluidNetwork(env)
    a, b, s = net.link(10.0), net.link(10.0), net.link(12.0)
    times = _collect(env, {
        "x": net.transfer(60.0, (a, s)),
        "y": net.transfer(60.0, (b, s)),
    })
    assert math.isclose(times["x"], 10.0, rel_tol=1e-9)
    assert math.isclose(times["y"], 10.0, rel_tol=1e-9)


def test_multi_link_asymmetric_bottlenecks():
    """A capped class frees headroom the other class picks up.

    Links: A (4 B/s), B (10 B/s), shared S (10 B/s). Flow x (A, S) is
    bottlenecked by A at 4; flow y (B, S) then gets S's remaining 6.
    x: 40 bytes / 4 = 10 s. y: 60 bytes / 6 = 10 s.
    """
    env = Environment()
    net = FluidNetwork(env)
    a, b, s = net.link(4.0), net.link(10.0), net.link(10.0)
    times = _collect(env, {
        "x": net.transfer(40.0, (a, s)),
        "y": net.transfer(60.0, (b, s)),
    })
    assert math.isclose(times["x"], 10.0, rel_tol=1e-9)
    assert math.isclose(times["y"], 10.0, rel_tol=1e-9)


def test_weighted_flow_equals_chunk_pipeline():
    """A weight-k flow times identically to k concurrent unit flows.

    Both contend with one extra unit flow on the same link, so the
    collapsed representation must claim exactly k of the k+1 shares.
    """
    def run(collapsed):
        env = Environment()
        net = FluidNetwork(env)
        link = net.link(100.0)
        if collapsed:
            chunks = {"c": net.transfer(400.0, (link,), weight=4.0)}
        else:
            chunks = {f"c{i}": net.transfer(100.0, (link,))
                      for i in range(4)}
        chunks["other"] = net.transfer(100.0, (link,))
        times = _collect(env, chunks)
        pipeline_done = max(t for n, t in times.items() if n != "other")
        return pipeline_done, times["other"]

    exact_done, exact_other = run(collapsed=False)
    fluid_done, fluid_other = run(collapsed=True)
    assert math.isclose(fluid_done, exact_done, rel_tol=1e-9)
    assert math.isclose(fluid_other, exact_other, rel_tol=1e-9)


def test_weighted_flow_cap_applies_per_slot():
    """Per-flow caps bound each slot: weight 4 may reach 4x the cap.

    One weight-4 flow alone on a 100 B/s link with per_flow_cap=10
    moves at 40 B/s — exactly what 4 unit flows capped at 10 achieve.
    """
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(100.0, per_flow_cap=10.0)
    times = _collect(env, {"c": net.transfer(400.0, (link,), weight=4.0)})
    assert math.isclose(times["c"], 10.0, rel_tol=1e-9)


def test_cap_change_re_rates_between_epochs():
    """per_flow_cap assignment re-rates a live flow mid-stream.

    100 bytes on a 100 B/s link, capped at 10 B/s. After 5 s (50 bytes
    in) the cap lifts to 50 B/s: remaining 50 bytes take 1 s more.
    """
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(100.0, per_flow_cap=10.0)

    def controller():
        yield env.timeout(5.0)
        link.per_flow_cap = 50.0

    done = net.transfer(100.0, (link,))
    Process(env, controller())
    times = _collect(env, {"f": done})
    assert math.isclose(times["f"], 6.0, rel_tol=1e-9)


def test_set_bandwidth_re_rates_mid_stream():
    """Degrade/restore path: live flows re-rate from the change instant."""
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(10.0)

    def controller():
        yield env.timeout(4.0)  # 40 bytes in
        link.set_bandwidth(30.0)  # remaining 60 bytes in 2 s

    done = net.transfer(100.0, (link,))
    Process(env, controller())
    times = _collect(env, {"f": done})
    assert math.isclose(times["f"], 6.0, rel_tol=1e-9)


def test_set_bandwidth_with_zero_flows_active():
    """Mutating an idle network is safe and affects the next admission."""
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(10.0)
    link.set_bandwidth(20.0)  # no flows in flight: must not blow up
    link.per_flow_cap = 5.0

    def driver():
        yield env.timeout(1.0)
        elapsed = yield net.transfer(50.0, (link,))
        assert math.isclose(elapsed, 10.0, rel_tol=1e-9)  # capped at 5 B/s

    Process(env, driver())
    env.run()
    assert net.active_flows == 0


def test_zero_byte_flow_completes_instantly():
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(10.0)
    net.transfer(1000.0, (link,))  # a bulk flow must not delay it
    times = _collect(env, {"z": net.transfer(0.0, (link,))})
    assert times["z"] == 0.0
    assert link.active_flows == 0


def test_negative_transfer_rejected():
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(10.0)
    with pytest.raises(ValueError):
        net.transfer(-1.0, (link,))
    with pytest.raises(ValueError):
        net.link(0.0)
    with pytest.raises(ValueError):
        net.link(10.0, per_flow_cap=0.0)


def test_kernel_health_counters():
    """fluid_epochs / rate_solves advance; admissions balance completions."""
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(10.0)

    def driver():
        yield net.transfer(10.0, (link,))
        yield net.transfer(10.0, (link,))

    Process(env, driver())
    env.run()
    assert net.flows_admitted == 2
    assert net.flows_completed == 2
    assert net.fluid_epochs >= 2
    assert net.rate_solves >= 2
    assert link.bytes_moved == 20.0
    assert link.peak_concurrent_flows == 1


def test_same_instant_burst_is_one_solve():
    """A burst of same-instant arrivals is rated by a single solve tick."""
    env = Environment()
    net = FluidNetwork(env)
    link = net.link(100.0)
    events = {f"f{i}": net.transfer(100.0, (link,)) for i in range(10)}
    solves_before_run = net.rate_solves
    assert solves_before_run == 0  # deferred to the tick, not per arrival
    times = _collect(env, events)
    assert len({round(t, 9) for t in times.values()}) == 1
    assert math.isclose(times["f0"], 10.0, rel_tol=1e-9)


def test_fidelity_coerce():
    assert Fidelity.coerce("exact") is Fidelity.EXACT
    assert Fidelity.coerce("HYBRID") is Fidelity.HYBRID
    assert Fidelity.coerce(Fidelity.HYBRID) is Fidelity.HYBRID
    assert [f.ordinal for f in Fidelity] == [0, 1]
    assert not Fidelity.EXACT.uses_fluid
    assert Fidelity.HYBRID.uses_fluid
    # the retired flow-level tier is an unknown name like any other
    with pytest.raises(ConfigError, match="choose from: exact, hybrid$"):
        Fidelity.coerce("fluid")
    with pytest.raises(ConfigError):
        Fidelity.coerce("approximate")
    with pytest.raises(ConfigError):
        Fidelity.coerce(3)


# ---------------------------------------------------------------------------
# Scale gates. Kernel events, epochs and rate solves are exact counts of a
# deterministic simulation: they pin the tiers' cost on any machine.
# ---------------------------------------------------------------------------

MIB = 1 << 20

#: Kernel events per tier for the 64-puller chunked-RDMA fan-in: 31x
#: fewer on the hybrid tier than on the exact one.
FAN_IN_EVENTS = {"exact": 83_328, "hybrid": 2_728}
#: The documented tier-agreement tolerance on makespans.
TIER_REL_TOL = 1e-3


def _fan_in(fidelity, pullers=64, frame=32 * MIB, chunk=4 * MIB, rounds=20):
    """``pullers`` nodes each pull ``rounds`` chunked frames from node 0,
    up to ``pullers * frame / chunk`` concurrent flows on its egress."""
    cluster = Cluster(ClusterConfig(nodes=pullers + 1, fidelity=fidelity))
    transport = RdmaTransport(cluster.fabric, chunk)
    target = cluster.node(0).node_id

    def puller(me):
        for _ in range(rounds):
            yield from transport.get(me, target, frame)

    for node in cluster.nodes[1:]:
        cluster.env.process(puller(node.node_id))
    cluster.env.run()
    return cluster


def test_contended_fan_in_tiers():
    clusters = {tier: _fan_in(tier) for tier in FAN_IN_EVENTS}
    assert {tier: c.env._seq for tier, c in clusters.items()} == FAN_IN_EVENTS
    hybrid = clusters["hybrid"]
    assert math.isclose(hybrid.env.now, clusters["exact"].env.now,
                        rel_tol=TIER_REL_TOL)
    net = hybrid.fluid
    assert (net.fluid_epochs, net.rate_solves, net.flows_admitted) == (
        20, 40, 1_280)


def test_fanout_10k_nodes_matches_analytic_makespan():
    nodes, frame, rounds = 10_000, MIB, 2
    cluster = Cluster(ClusterConfig(nodes=nodes, fidelity="hybrid"))
    fabric = cluster.fabric
    src = cluster.node(0).node_id

    def pusher(dst):
        for _ in range(rounds):
            yield from fabric.transfer(src, dst, frame)

    for node in cluster.nodes[1:]:
        cluster.env.process(pusher(node.node_id))
    cluster.env.run()
    flows = rounds * (nodes - 1)
    # every push shares the source's egress link
    analytic = flows * frame / fabric.config.link_bandwidth
    net = cluster.fluid
    assert net.flows_completed == flows
    # leading latencies add microseconds to a multi-second makespan
    assert abs(cluster.env.now - analytic) / analytic < 1e-2
    assert (net.fluid_epochs, net.rate_solves) == (9, 11)


def test_burst_workload_drains_every_flow():
    """80,000 flows in four 20k bursts over 64 two-hop paths."""
    total, burst, npaths = 80_000, 20_000, 64
    env = Environment()
    net = FluidNetwork(env)
    # two bandwidth tiers, so every burst drains in distinct epochs
    paths = [(net.link(4e9 if i % 2 else 2e9), net.link(4e9))
             for i in range(npaths)]
    sizes = (1e5, 1e6, 5e6, 2e7)

    def driver():
        for round_no in range(total // burst):
            yield env.all_of([net.transfer(sizes[round_no], paths[j % npaths])
                              for j in range(burst)])

    Process(env, driver())
    env.run()
    assert net.flows_completed == total
    assert net.active_flows == 0
    assert (net.fluid_epochs, net.rate_solves) == (16, 20)
