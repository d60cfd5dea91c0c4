"""Simulated cluster hardware substrate.

Models the hardware the paper ran on — LLNL's Corona cluster — at the level
of detail the study's findings depend on: node-local NVMe SSDs with
bandwidth/latency and concurrency sharing, an InfiniBand-like fabric with
per-NIC bandwidth sharing and per-hop latency, and nodes with a bounded
number of cores/GPUs (the paper's 8-processes-per-node placement limit
comes from Corona's 8 GPUs per node).

Public API
----------
- :class:`~repro.cluster.ssd.SSDModel`, :class:`~repro.cluster.ssd.SSDConfig`
- :class:`~repro.cluster.network.Fabric`, :class:`~repro.cluster.network.FabricConfig`,
  :class:`~repro.cluster.network.NIC`
- :class:`~repro.cluster.node.Node`, :class:`~repro.cluster.node.NodeConfig`
- :class:`~repro.cluster.topology.Cluster`, :class:`~repro.cluster.topology.ClusterConfig`
- :func:`~repro.cluster.corona.corona` — the Corona machine preset.
"""

from repro import lazy_exports

__all__ = [
    "CORONA_NODE",
    "corona",
    "NIC",
    "Fabric",
    "FabricConfig",
    "Node",
    "NodeConfig",
    "SSDConfig",
    "SSDModel",
    "Cluster",
    "ClusterConfig",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.corona": ["CORONA_NODE", "corona"],
    "repro.cluster.network": ["NIC", "Fabric", "FabricConfig"],
    "repro.cluster.node": ["Node", "NodeConfig"],
    "repro.cluster.ssd": ["SSDConfig", "SSDModel"],
    "repro.cluster.topology": ["Cluster", "ClusterConfig"],
})
