"""Unit tests for the workflow specification and placement rules."""

import pytest

from repro.errors import WorkflowError
from repro.md.models import JAC, STMV
from repro.workflow.spec import PROCS_PER_NODE, Placement, System, WorkflowSpec


def test_defaults_are_paper_defaults():
    spec = WorkflowSpec(system=System.DYAD)
    assert spec.model is JAC
    assert spec.stride == 880
    assert spec.frames == 128


def test_xfs_must_be_single_node():
    with pytest.raises(WorkflowError, match="single-node"):
        WorkflowSpec(system=System.XFS, placement=Placement.SPLIT)


def test_lustre_must_be_split():
    with pytest.raises(WorkflowError, match="distributed"):
        WorkflowSpec(system=System.LUSTRE, placement=Placement.SINGLE_NODE)


def test_dyad_allows_both_placements():
    WorkflowSpec(system=System.DYAD, placement=Placement.SINGLE_NODE)
    WorkflowSpec(system=System.DYAD, pairs=8, placement=Placement.SPLIT)


def test_single_node_gpu_limit():
    WorkflowSpec(system=System.XFS, pairs=4)  # 8 procs = 8 GPUs, ok
    with pytest.raises(WorkflowError, match="GPUs"):
        WorkflowSpec(system=System.XFS, pairs=5)


def test_parameter_validation():
    with pytest.raises(WorkflowError):
        WorkflowSpec(system=System.DYAD, stride=0)
    with pytest.raises(WorkflowError):
        WorkflowSpec(system=System.DYAD, frames=0)
    with pytest.raises(WorkflowError):
        WorkflowSpec(system=System.DYAD, pairs=0)


def test_derived_times():
    spec = WorkflowSpec(system=System.DYAD, model=JAC, stride=880)
    assert spec.stride_time == pytest.approx(880 / 1072.92)
    assert spec.analytics_time == spec.stride_time
    assert spec.frame_bytes == JAC.frame_bytes


def test_nodes_required_single():
    spec = WorkflowSpec(system=System.DYAD, pairs=4)
    assert spec.nodes_required == 1


@pytest.mark.parametrize("pairs,nodes", [
    (1, 2), (8, 2), (9, 4), (16, 4), (64, 16), (256, 64),
])
def test_nodes_required_split(pairs, nodes):
    spec = WorkflowSpec(system=System.LUSTRE, pairs=pairs,
                        placement=Placement.SPLIT)
    assert spec.nodes_required == nodes


def test_placements_single_node_collocated():
    spec = WorkflowSpec(system=System.XFS, pairs=3)
    assert spec.placements() == [(0, 0), (0, 0), (0, 0)]


def test_placements_split_halves():
    spec = WorkflowSpec(system=System.LUSTRE, pairs=16,
                        placement=Placement.SPLIT)
    placements = spec.placements()
    producer_nodes = {p for p, _ in placements}
    consumer_nodes = {c for _, c in placements}
    assert producer_nodes == {0, 1}
    assert consumer_nodes == {2, 3}
    # at most 8 processes per node
    for node in range(4):
        count = sum(1 for p, c in placements for x in (p, c) if x == node)
        assert count <= PROCS_PER_NODE


def test_placements_split_balanced():
    spec = WorkflowSpec(system=System.LUSTRE, pairs=12,
                        placement=Placement.SPLIT)
    placements = spec.placements()
    assert len(placements) == 12
    assert max(p for p, _ in placements) < spec.nodes_required // 2


def test_describe_mentions_key_facts():
    spec = WorkflowSpec(system=System.DYAD, model=STMV, stride=28, pairs=2)
    text = spec.describe()
    assert "dyad" in text and "STMV" in text and "pairs=2" in text


def test_spec_is_frozen():
    spec = WorkflowSpec(system=System.DYAD)
    with pytest.raises(AttributeError):
        spec.pairs = 7
