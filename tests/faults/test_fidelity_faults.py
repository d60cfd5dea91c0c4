"""Faults × fidelity: injected faults act on the hybrid tier's kernel too.

The fault layer was written against the exact tier's per-channel
:class:`~repro.sim.resources.SharedBandwidth`. On the ``hybrid`` tier
every bulk byte-movement channel is a
:class:`~repro.sim.fluid.FluidLink` on the cluster-wide solver instead,
and the injector's apply/revert closures go through the same surface
(``set_bandwidth``, ``fail_link``). These tests pin that contract at two
levels:

- **kernel**: ``ssd.degrade`` / ``lustre.degrade`` re-rate *in-flight*
  fluid flows mid-stream (completion times match the analytic
  re-rated schedule), and ``fabric.fail_link`` stalls fluid transfers
  until ``restore_link`` fires;
- **end-to-end**: the resilience experiment's ``build_plan`` plans
  (``dyad_crash``/``link_flap``/``ssd_degrade``/``lustre_slowdown``)
  run to completion under the hybrid tier, apply and revert every
  event, cost makespan versus the clean same-tier run, and stay a pure
  function of (spec, seed, plan, tier).
"""

import math

import pytest

from repro.cluster.topology import Cluster, ClusterConfig
from repro.experiments import resilience
from repro.experiments.parallel import result_fingerprint
from repro.sim.core import Process
from repro.sim.fluid import Fidelity, FluidLink
from repro.sim.resources import SharedBandwidth
from repro.storage.lustre import LustreServers
from repro.workflow.runner import run_workflow
from repro.workflow.spec import System

REL_TOL = 1e-9

SEED = 11
FRAMES = 4
INTENSITY = 0.5
TIERS = ("hybrid",)


# ---------------------------------------------------------------------------
# kernel level: fault hooks re-rate FluidLink flows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tier", TIERS)
def test_reduced_tier_channels_are_fluid_links(tier):
    cluster = Cluster(ClusterConfig(nodes=2, fidelity=tier))
    node = cluster.node(0)
    for chan in (*node.ssd.channels(), *node.nic.channels()):
        assert isinstance(chan, FluidLink)


def test_exact_tier_channels_stay_shared_bandwidth():
    cluster = Cluster(ClusterConfig(nodes=2, fidelity="exact"))
    assert cluster.fluid is None
    node = cluster.node(0)
    for chan in (*node.ssd.channels(), *node.nic.channels()):
        assert isinstance(chan, SharedBandwidth)


def test_ssd_degrade_rerates_inflight_fluid_flow():
    # hybrid tier: access latency is a separate timeout, so the flow
    # streams from t = write_latency and the schedule is hand-computable
    cluster = Cluster(ClusterConfig(nodes=1, fidelity="hybrid"))
    env, ssd = cluster.env, cluster.node(0).ssd
    bandwidth = ssd.config.write_bandwidth
    latency = ssd.config.write_latency
    size = bandwidth * 0.4           # 0.4 s of streaming when healthy
    hit_at = latency + 0.2           # half the bytes are through
    factor = 4.0

    elapsed = {}

    def writer():
        elapsed["write"] = yield from ssd.write(int(size))

    def saboteur():
        yield env.timeout(hit_at)
        ssd.degrade(factor)

    Process(env, writer())
    Process(env, saboteur())
    env.run()

    assert ssd.degraded == factor
    # 0.2 s at full rate, the remaining half re-rated to bandwidth/4
    expected = latency + 0.2 + (size - bandwidth * 0.2) * factor / bandwidth
    assert math.isclose(elapsed["write"], expected, rel_tol=REL_TOL)

    # restore() re-rates back: a fresh write runs at the healthy schedule
    ssd.restore()
    assert ssd.degraded == 1.0

    def second():
        elapsed["second"] = yield from ssd.write(int(size))

    Process(env, second())
    env.run()
    assert math.isclose(elapsed["second"], latency + 0.4, rel_tol=REL_TOL)


def test_lustre_slowdown_rerates_fluid_oss_channels():
    cluster = Cluster(ClusterConfig(nodes=2, fidelity="hybrid"))
    env = cluster.env
    servers = LustreServers(env, cluster.fabric)
    oss = servers.oss[0]
    assert isinstance(oss.read_disk, FluidLink)
    assert isinstance(oss.write_disk, FluidLink)

    rate = servers.config.oss_read_bandwidth
    size = rate * 1.0                # 1 s alone on a healthy channel
    hit_at, factor = 0.5, 3.0

    finished = {}
    done = oss.read_disk.transfer(size)
    done.callbacks.append(lambda _ev: finished.setdefault("at", env.now))

    def saboteur():
        yield env.timeout(hit_at)
        servers.degrade(factor)

    Process(env, saboteur())
    env.run()

    # half streamed healthy, the rest at rate/3: 0.5 + 0.5 * 3
    assert math.isclose(finished["at"], hit_at + (1.0 - hit_at) * factor,
                        rel_tol=REL_TOL)
    # degrade("") touches the whole complex, metadata included
    assert servers.mds_factor == factor
    servers.restore()
    assert servers.mds_factor == 1.0
    assert oss.read_disk.bandwidth == rate


def test_link_flap_stalls_fluid_transfer_until_restore():
    cluster = Cluster(ClusterConfig(nodes=2, fidelity="hybrid"))
    env, fabric = cluster.env, cluster.fabric
    size = 10_000_000
    down_for = 0.25

    # clean twin: same transfer on a healthy fabric
    clean_cluster = Cluster(ClusterConfig(nodes=2, fidelity="hybrid"))
    timings = {}

    def mover(key, cl):
        start = cl.env.now
        yield from cl.fabric.transfer("node00", "node01", size)
        timings[key] = cl.env.now - start

    Process(clean_cluster.env, mover("clean", clean_cluster))
    clean_cluster.env.run()

    fabric.fail_link("node01")
    assert fabric.link_is_down("node01")

    def repair():
        yield env.timeout(down_for)
        fabric.restore_link("node01")

    Process(env, mover("flapped", cluster))
    Process(env, repair())
    env.run()

    # the transfer held at the downed endpoint, then ran the clean
    # schedule from the instant the link came back
    assert fabric.stats.link_stalls == 1
    assert not fabric.link_is_down("node01")
    assert math.isclose(timings["flapped"], down_for + timings["clean"],
                        rel_tol=REL_TOL)


# ---------------------------------------------------------------------------
# end to end: resilience plans under reduced fidelity
# ---------------------------------------------------------------------------


_clean_cache = {}


def _clean(system, tier):
    if (system, tier) not in _clean_cache:
        spec = resilience._spec(system, FRAMES)
        _clean_cache[system, tier] = run_workflow(
            spec, seed=SEED, jitter_cv=0.0, fidelity=tier)
    return _clean_cache[system, tier]


def _faulty(system, tier):
    spec = resilience._spec(system, FRAMES)
    plan, config = resilience.build_plan(system, INTENSITY, spec)
    return run_workflow(spec, seed=SEED, jitter_cv=0.0, fidelity=tier,
                        fault_plan=plan, dyad_config=config)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("system", [System.DYAD, System.XFS, System.LUSTRE])
def test_resilience_plan_completes_under_reduced_fidelity(system, tier):
    faulty = _faulty(system, tier)
    clean = _clean(system, tier)

    # ran on the requested tier, with the solver actually engaged
    assert faulty.fidelity == tier
    assert faulty.system_stats["fidelity"] == float(
        Fidelity.coerce(tier).ordinal)
    assert faulty.system_stats["fluid_epochs"] > 0.0
    assert faulty.system_stats["rate_solves"] > 0.0

    # every planned event fired and was reverted, and the degradation
    # shows up as makespan versus the clean same-tier run
    applied = faulty.system_stats["faults_applied"]
    assert applied >= 1.0
    assert faulty.system_stats["faults_reverted"] == applied
    assert faulty.makespan > clean.makespan


@pytest.mark.parametrize("tier", TIERS)
def test_faulty_reduced_fidelity_run_is_reproducible(tier):
    a = _faulty(System.DYAD, tier)
    b = _faulty(System.DYAD, tier)
    assert result_fingerprint(a) == result_fingerprint(b)
    # DYAD's plan stalls remote gets (crash + flap): retries happened
    assert a.system_stats["dyad_transfer_retries"] > 0


# ---------------------------------------------------------------------------
# end to end: streaming transports under faults at reduced fidelity
# ---------------------------------------------------------------------------


def _streaming_spec(system):
    from repro.md.models import JAC
    from repro.workflow.spec import Placement, SyncMode, WorkflowSpec

    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    return WorkflowSpec(system=system, model=JAC, stride=880, frames=FRAMES,
                        pairs=2, placement=placement,
                        sync_mode=SyncMode.WINDOWED, window=2)


def _streaming_plan(system):
    from repro.faults.plan import FaultEvent, FaultPlan

    if system is System.XFS:
        return FaultPlan(events=(
            FaultEvent("ssd_degrade", at=0.5, target="0", duration=1.5,
                       severity=6.0),
        ))
    return FaultPlan(events=(
        FaultEvent("link_flap", at=0.5, target="1", duration=1.0),
    ))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("system", [System.XFS, System.LUSTRE])
def test_windowed_streaming_completes_under_reduced_tier_faults(system, tier):
    spec = _streaming_spec(system)
    result = run_workflow(spec, seed=SEED, jitter_cv=0.0, fidelity=tier,
                          fault_plan=_streaming_plan(system))
    # fatal checker: completing at all means zero flow-control violations
    assert result.invariant_violations == []
    assert result.fidelity == tier
    applied = result.system_stats["faults_applied"]
    assert applied >= 1.0
    assert result.system_stats["faults_reverted"] == applied
    # the credit ledger balanced across the fault window
    issued = result.system_stats["stream_credits_issued"]
    assert issued == result.system_stats["stream_credits_returned"]
    assert issued == float(FRAMES * spec.pairs)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("system", [System.XFS, System.LUSTRE])
def test_faulty_streaming_reduced_tier_run_is_reproducible(system, tier):
    spec = _streaming_spec(system)
    plan = _streaming_plan(system)
    a = run_workflow(spec, seed=SEED, jitter_cv=0.0, fidelity=tier,
                     fault_plan=plan)
    b = run_workflow(spec, seed=SEED, jitter_cv=0.0, fidelity=tier,
                     fault_plan=plan)
    assert result_fingerprint(a) == result_fingerprint(b)
