"""Integration tests for the workflow runner (small configurations)."""

import random

import pytest

from repro.md.models import JAC
from repro.perf.caliper import Category
from repro.workflow.emulator import READ_REGION, SYNC_REGION, WRITE_REGION
from repro.workflow.runner import (
    WorkflowResult, run_repetitions, run_workflow,
)
from repro.workflow.spec import Placement, System, WorkflowSpec


def small_spec(system, pairs=1, frames=6, placement=None):
    if placement is None:
        placement = (Placement.SPLIT if system is System.LUSTRE
                     else Placement.SINGLE_NODE)
    return WorkflowSpec(system=system, model=JAC, stride=880, frames=frames,
                        pairs=pairs, placement=placement)


@pytest.mark.parametrize("system", [System.DYAD, System.XFS, System.LUSTRE])
def test_runner_completes_and_counts(system):
    spec = small_spec(system)
    result = run_workflow(spec)
    assert len(result.producer_trees) == 1
    assert len(result.consumer_trees) == 1
    assert result.makespan > spec.frames * spec.stride_time


def test_result_metric_decomposition_dyad():
    result = run_workflow(small_spec(System.DYAD))
    assert result.production_movement > 0
    assert result.production_idle == 0.0
    assert result.consumption_movement > 0
    assert result.consumption_idle > 0  # first-frame KVS wait
    assert result.consumption_time == pytest.approx(
        result.consumption_movement + result.consumption_idle
    )


def test_result_metric_decomposition_xfs():
    spec = small_spec(System.XFS)
    result = run_workflow(spec)
    # coarse sync: consumer idle per frame ~ the production period
    assert result.consumption_idle == pytest.approx(
        spec.stride_time, rel=0.05
    )
    assert result.production_idle == 0.0


def test_lustre_trees_have_paper_region_names():
    result = run_workflow(small_spec(System.LUSTRE))
    consumer = result.consumer_trees[0]
    assert consumer.find(SYNC_REGION) is not None
    assert consumer.find(READ_REGION) is not None
    assert consumer.find(SYNC_REGION).category == Category.IDLE
    producer = result.producer_trees[0]
    assert producer.find(WRITE_REGION) is not None
    assert producer.find("md_sleep").category == Category.COMPUTE


def test_dyad_trees_have_paper_region_names():
    result = run_workflow(small_spec(System.DYAD))
    consumer = result.consumer_trees[0]
    for path in [("dyad_consume",), ("dyad_consume", "dyad_fetch"),
                 ("read_single_buf",)]:
        assert consumer.find(*path) is not None, path
    producer = result.producer_trees[0]
    assert producer.find("dyad_produce", "dyad_commit") is not None


def test_dyad_single_node_no_rdma_regions():
    result = run_workflow(small_spec(System.DYAD,
                                     placement=Placement.SINGLE_NODE))
    consumer = result.consumer_trees[0]
    assert consumer.find("dyad_consume", "dyad_get_data") is None
    assert consumer.find("dyad_consume", "dyad_cons_store") is None


def test_dyad_split_has_rdma_regions():
    result = run_workflow(small_spec(System.DYAD, placement=Placement.SPLIT))
    consumer = result.consumer_trees[0]
    assert consumer.find("dyad_consume", "dyad_get_data") is not None
    assert consumer.find("dyad_consume", "dyad_cons_store") is not None


def test_read_counts_match_frames():
    spec = small_spec(System.XFS, pairs=2, frames=5)
    result = run_workflow(spec)
    for tree in result.consumer_trees:
        assert tree.find(READ_REGION).count == 5


def test_determinism_same_seed():
    spec = small_spec(System.DYAD, pairs=2)
    a = run_workflow(spec, seed=42, jitter_cv=0.05)
    b = run_workflow(spec, seed=42, jitter_cv=0.05)
    assert a.consumption_time == b.consumption_time
    assert a.makespan == b.makespan


def test_different_seeds_differ_with_jitter():
    spec = small_spec(System.DYAD, pairs=2)
    a = run_workflow(spec, seed=1, jitter_cv=0.05)
    b = run_workflow(spec, seed=2, jitter_cv=0.05)
    assert a.makespan != b.makespan


def test_run_repetitions_distinct_seeds():
    spec = small_spec(System.DYAD)
    results = run_repetitions(spec, runs=3, jitter_cv=0.05)
    assert len(results) == 3
    assert len({r.seed for r in results}) == 3


def test_run_repetitions_validation():
    with pytest.raises(Exception):
        run_repetitions(small_spec(System.DYAD), runs=0)


def test_thicket_export_tags():
    result = run_workflow(small_spec(System.DYAD, pairs=2))
    ensemble = result.thicket(extra="tag")
    assert len(ensemble) == 4  # 2 producers + 2 consumers
    consumers = ensemble.filter(role="consumer")
    assert len(consumers) == 2
    meta = consumers.metadata()[0]
    assert meta["system"] == "dyad" and meta["model"] == "JAC"
    assert meta["extra"] == "tag"


def test_compute_cv_override():
    spec = small_spec(System.DYAD)
    jittered = run_workflow(spec, seed=3, jitter_cv=0.0, compute_cv=0.1)
    exact = run_workflow(spec, seed=3, jitter_cv=0.0, compute_cv=0.0)
    assert jittered.makespan != exact.makespan


class _FixedTree:
    """A stand-in call tree whose every category totals ``total``."""

    def __init__(self, total):
        self.total = total

    def total_by_category(self, _category):
        return self.total


def test_per_frame_mean_is_numpys_bit_for_bit():
    # The per-frame metrics were numpy means; they are summed in numpy's
    # pairwise order so every result and pin stays bit-identical.
    np = pytest.importorskip("numpy")
    rnd = random.Random(5)
    spec = small_spec(System.DYAD, frames=7)
    naive_misses = 0
    for i in range(3000):
        n = i % 300 + 1
        totals = [rnd.lognormvariate(-7.0, 2.0) * rnd.choice((1, 1, -1))
                  for _ in range(n)]
        result = WorkflowResult(spec, 0, 0.0,
                                [_FixedTree(t) for t in totals], [])
        got = result.production_movement
        assert got.hex() == (float(np.mean(totals)) / spec.frames).hex(), n
        naive_misses += (sum(totals) / n / spec.frames) != got
    assert naive_misses > 0  # the order matters on these inputs
