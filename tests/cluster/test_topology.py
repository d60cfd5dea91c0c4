"""Unit tests for nodes, cluster assembly, and the Corona preset."""

import pytest

from repro.cluster.corona import CORONA_MAX_NODES, corona
from repro.cluster.node import Node, NodeConfig
from repro.cluster.topology import Cluster, ClusterConfig
from repro.errors import ConfigError, WorkflowError
from repro.units import TiB


def test_cluster_builds_requested_nodes():
    cluster = Cluster(ClusterConfig(nodes=3))
    assert len(cluster) == 3
    assert [n.node_id for n in cluster.nodes] == ["node00", "node01", "node02"]


def test_cluster_node_lookup():
    cluster = Cluster(ClusterConfig(nodes=2))
    assert cluster.node(1).node_id == "node01"
    assert cluster.node(-1).node_id == "node01"


def test_cluster_validation():
    with pytest.raises(ConfigError):
        Cluster(ClusterConfig(nodes=0))


def test_nodes_attached_to_fabric():
    cluster = Cluster(ClusterConfig(nodes=2))
    assert cluster.fabric.nic("node00") is cluster.node(0).nic
    assert cluster.fabric.nic("node01") is cluster.node(1).nic


def test_gpu_claiming_enforces_limit():
    cluster = Cluster(ClusterConfig(nodes=1))
    node = cluster.node(0)
    for i in range(node.config.gpus):
        assert node.claim_gpu() == i
    with pytest.raises(WorkflowError):
        node.claim_gpu()


def test_node_config_validation():
    with pytest.raises(ConfigError):
        NodeConfig(cores=0).validate()
    with pytest.raises(ConfigError):
        NodeConfig(gpus=-1).validate()


def test_corona_preset_shape():
    cluster = corona(nodes=2)
    node = cluster.node(0)
    assert node.config.cores == 48
    assert node.config.gpus == 8
    assert node.config.ssd.capacity == int(3.5 * TiB)


def test_corona_node_limit():
    with pytest.raises(ValueError):
        corona(nodes=CORONA_MAX_NODES + 1)
    with pytest.raises(ValueError):
        corona(nodes=0)


def test_corona_seed_isolation():
    a = corona(nodes=1, seed=1, jitter_cv=0.1)
    b = corona(nodes=1, seed=2, jitter_cv=0.1)
    ja = a.rng.jitter("x", 1.0, 0.1)
    jb = b.rng.jitter("x", 1.0, 0.1)
    assert ja != jb


def test_corona_jitter_propagates_to_devices():
    cluster = corona(nodes=1, jitter_cv=0.07)
    assert cluster.node(0).config.ssd.jitter_cv == 0.07
    assert cluster.config.fabric.jitter_cv == 0.07
