"""End-to-end tests for the non-pairwise workflow topologies.

Four levels:

- **completion** — every shape x system x sync combination runs through
  the full workflow layer with the invariant checker fatal and reports
  zero violations;
- **shared-read tier** — DYAD fan-out pulls each frame over RDMA once
  per consumer node (the single-flight staging tier); disabling the
  tier restores per-consumer pulls;
- **ledgers** — streaming topologies balance per-edge credit ledgers
  and the pool accounts every task exactly once;
- **determinism / chaos** — runs are fingerprint-deterministic, the
  DYAD polling spelling is end-to-end identical to coarse, and the
  chaos topology grid survives seeded fault plans.
"""

import pytest

from repro.chaos import chaos_workloads, execute_plan, random_plan
from repro.dyad.config import DyadConfig
from repro.experiments.parallel import result_fingerprint
from repro.md.models import JAC
from repro.workflow.runner import run_workflow
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

FRAMES = 4

SHAPES = {
    Topology.FANOUT: {"consumers": 3},
    Topology.FANIN: {"producers": 3},
    Topology.POOL: {"producers": 2, "consumers": 3},
}


def _spec(topology, system, sync=SyncMode.COARSE, frames=FRAMES, **overrides):
    sizes = dict(SHAPES[topology], **overrides)
    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    extras = {"window": 2} if sync.is_streaming else {}
    return WorkflowSpec(system=system, model=JAC, frames=frames, pairs=1,
                        placement=placement, sync_mode=sync,
                        topology=topology, **sizes, **extras)


# ---------------------------------------------------------------------------
# completion: every shape x system x sync
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
@pytest.mark.parametrize("topology", list(SHAPES), ids=lambda t: t.value)
@pytest.mark.parametrize(
    "sync", (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED),
    ids=lambda m: m.value,
)
def test_topology_completes_zero_violations(topology, system, sync):
    result = run_workflow(_spec(topology, system, sync))  # checker fatal
    assert result.invariant_violations == []
    assert result.makespan > 0
    spec = result.spec
    assert len(result.producer_trees) == spec.n_producers
    assert len(result.consumer_trees) == spec.n_consumers


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
def test_topology_pubsub_completes(system):
    result = run_workflow(_spec(Topology.FANOUT, system, SyncMode.PUBSUB))
    assert result.invariant_violations == []


# ---------------------------------------------------------------------------
# the shared-read staging tier
# ---------------------------------------------------------------------------


def test_dyad_fanout_single_flight_pull_per_frame_per_node():
    # 4 consumers share one split node: the first miss pulls, the other
    # three wait on the in-flight pull and then hit the staging cache.
    spec = _spec(Topology.FANOUT, System.DYAD, consumers=4)
    result = run_workflow(spec)
    stats = result.system_stats
    assert stats["fabric_rdma_transfers"] == float(FRAMES)
    assert stats["dyad_cache_hits"] == float(3 * FRAMES)
    assert stats["dyad_shared_read_waits"] == float(3 * FRAMES)


def test_shared_read_tier_disabled_restores_per_consumer_pulls():
    spec = _spec(Topology.FANOUT, System.DYAD, consumers=4)
    result = run_workflow(
        spec, dyad_config=DyadConfig(shared_read_cache=False)
    )
    stats = result.system_stats
    assert stats["dyad_shared_read_waits"] == 0.0
    # Without single-flight coalescing the concurrent misses each pull.
    assert stats["fabric_rdma_transfers"] > float(FRAMES)


def test_fanin_pulls_every_stream():
    # No sharing to exploit: the reduce consumer pulls N streams x K
    # frames, each exactly once.
    spec = _spec(Topology.FANIN, System.DYAD)
    result = run_workflow(spec)
    assert result.system_stats["fabric_rdma_transfers"] == float(3 * FRAMES)


# ---------------------------------------------------------------------------
# ledgers: per-edge credits, pool exactly-once accounting
# ---------------------------------------------------------------------------


def test_fanout_windowed_one_ledger_per_edge():
    # Fan-out runs one credit window per consumer edge: M x frames
    # credits issued and every one returned.
    spec = _spec(Topology.FANOUT, System.DYAD, sync=SyncMode.WINDOWED,
                 consumers=4)
    stats = run_workflow(spec).system_stats
    assert stats["stream_credits_issued"] == float(4 * FRAMES)
    assert stats["stream_credits_returned"] == float(4 * FRAMES)
    assert stats["stream_lost_wakeups"] == 0


def test_fanin_windowed_one_ledger_per_stream():
    spec = _spec(Topology.FANIN, System.LUSTRE, sync=SyncMode.WINDOWED)
    stats = run_workflow(spec).system_stats
    assert stats["stream_credits_issued"] == float(3 * FRAMES)
    assert stats["stream_credits_returned"] == float(3 * FRAMES)


@pytest.mark.parametrize("sync", (SyncMode.COARSE, SyncMode.WINDOWED),
                         ids=lambda m: m.value)
def test_pool_accounts_every_task_exactly_once(sync):
    spec = _spec(Topology.POOL, System.DYAD, sync=sync)
    stats = run_workflow(spec).system_stats
    assert stats["pool_tasks_total"] == float(2 * FRAMES)
    assert stats["pool_workers"] == 3.0
    assert stats["pool_max_claimed"] >= stats["pool_min_claimed"]
    assert stats["pool_max_claimed"] <= float(2 * FRAMES)


def test_pool_work_actually_spreads():
    # With more tasks than one worker can monopolize, at least two
    # workers claim something (greedy stealing, frame-major order).
    spec = _spec(Topology.POOL, System.XFS, frames=8)
    stats = run_workflow(spec).system_stats
    assert stats["pool_max_claimed"] < stats["pool_tasks_total"]


# ---------------------------------------------------------------------------
# determinism + sync aliasing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("topology", list(SHAPES), ids=lambda t: t.value)
def test_topology_runs_are_deterministic(topology):
    spec = _spec(topology, System.DYAD)
    a = run_workflow(spec, seed=3, jitter_cv=0.05)
    b = run_workflow(spec, seed=3, jitter_cv=0.05)
    assert result_fingerprint(a) == result_fingerprint(b)


def test_dyad_polling_spelling_is_end_to_end_identical():
    polling = run_workflow(
        _spec(Topology.FANOUT, System.DYAD, SyncMode.POLLING), seed=5
    )
    coarse = run_workflow(
        _spec(Topology.FANOUT, System.DYAD, SyncMode.COARSE), seed=5
    )
    assert result_fingerprint(polling) == result_fingerprint(coarse)


_ONE_TO_ONE = {
    Topology.PAIRWISE: {},
    Topology.FANOUT: {"consumers": 1},
    Topology.FANIN: {"producers": 1},
    Topology.POOL: {"producers": 1, "consumers": 1},
}

_EQUIVALENT_STATS = (
    "fabric_bytes_moved", "ssd_bytes_written", "ssd_bytes_read",
    "fabric_rdma_transfers", "fabric_messages",
)


def _one_to_one_view(result):
    values = [result.makespan,
              result.production_movement, result.production_idle,
              result.consumption_movement, result.consumption_idle]
    values += [result.system_stats[k] for k in _EQUIVALENT_STATS]
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("system", list(System), ids=lambda s: s.value)
@pytest.mark.parametrize("sync", list(SyncMode), ids=lambda m: m.value)
def test_one_to_one_shapes_agree(system, sync):
    # Pairwise is N disjoint 1:1 edges: with one edge, every shape is
    # the same graph and must produce the same timeline and traffic.
    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    views = {
        topology: _one_to_one_view(run_workflow(WorkflowSpec(
            system=system, model=JAC, frames=FRAMES, placement=placement,
            sync_mode=sync, topology=topology, **sizes,
        ), jitter_cv=0.0))
        for topology, sizes in _ONE_TO_ONE.items()
    }
    pairwise = views.pop(Topology.PAIRWISE)
    for topology, view in views.items():
        assert view == pairwise, topology.value


# ---------------------------------------------------------------------------
# chaos: the topology workload grid survives seeded fault plans
# ---------------------------------------------------------------------------


def test_chaos_topology_grid_survives_seeded_plans():
    workloads = chaos_workloads(4)["topology"]
    assert len(workloads) == 6
    assert all(w.topology is not Topology.PAIRWISE for w in workloads)
    for i, spec in enumerate(workloads):
        plan = random_plan(seed=100 + i, spec=spec)
        outcome = execute_plan(spec, plan, seed=i)
        assert not outcome.failed, (
            f"{spec.describe()}: {outcome.classification}: {outcome.detail}"
        )
