"""Machine preset for LLNL's Corona cluster (the paper's testbed).

Corona (as described in the paper and the LLNL systems page): 121 compute
nodes, each with one 48-core AMD EPYC 7401, 8 AMD MI50 GPUs, and a 3.5 TB
NVMe SSD, connected by InfiniBand QDR.

The numeric values here are *calibration constants* for the device models,
chosen to be physically plausible for that hardware generation. They are
deliberately centralized in this module so that EXPERIMENTS.md can point at
a single source of truth for the timing model.
"""

from __future__ import annotations

from repro.cluster.network import FabricConfig
from repro.cluster.node import NodeConfig
from repro.cluster.ssd import SSDConfig
from repro.cluster.topology import Cluster, ClusterConfig
from repro.units import TiB, gb_per_s, usec

__all__ = ["CORONA_NODE", "CORONA_FABRIC", "corona"]

#: Per-node hardware of Corona: 48 cores, 8 GPUs, 3.5 TB NVMe.
CORONA_NODE = NodeConfig(
    cores=48,
    gpus=8,
    ssd=SSDConfig(
        read_bandwidth=gb_per_s(6.0),
        write_bandwidth=gb_per_s(5.0),
        read_latency=usec(10.0),
        write_latency=usec(20.0),
        capacity=int(3.5 * TiB),
        jitter_cv=0.0,  # experiments override per-run
    ),
)

#: InfiniBand QDR: 4 GB/s per port, ~2 us/hop, 2 hops through the switch.
CORONA_FABRIC = FabricConfig(
    link_bandwidth=gb_per_s(4.0),
    hop_latency=usec(2.0),
    hops=2,
    rdma_setup=usec(5.0),
    message_setup=usec(15.0),
    bisection_bandwidth=None,
    jitter_cv=0.0,
)

#: Corona has 121 compute nodes; experiments use at most 64.
CORONA_MAX_NODES = 121


def corona(nodes: int = 2, seed: int = 0, jitter_cv: float = 0.0,
           fidelity: str = "exact") -> Cluster:
    """Build a Corona-like cluster of ``nodes`` compute nodes.

    ``jitter_cv`` turns on lognormal service-time jitter across all devices
    (the experiments use a small value, ~0.05, to produce the run-to-run
    variance the paper reports; unit tests use 0 for exact determinism).
    ``fidelity`` selects the simulation tier (``exact`` / ``hybrid``, see
    :class:`repro.sim.fluid.Fidelity`).
    """
    if not 1 <= nodes <= CORONA_MAX_NODES:
        raise ValueError(
            f"Corona has {CORONA_MAX_NODES} nodes; requested {nodes}"
        )
    node = NodeConfig(
        cores=CORONA_NODE.cores,
        gpus=CORONA_NODE.gpus,
        ssd=SSDConfig(
            read_bandwidth=CORONA_NODE.ssd.read_bandwidth,
            write_bandwidth=CORONA_NODE.ssd.write_bandwidth,
            read_latency=CORONA_NODE.ssd.read_latency,
            write_latency=CORONA_NODE.ssd.write_latency,
            capacity=CORONA_NODE.ssd.capacity,
            jitter_cv=jitter_cv,
        ),
    )
    fabric = FabricConfig(
        link_bandwidth=CORONA_FABRIC.link_bandwidth,
        hop_latency=CORONA_FABRIC.hop_latency,
        hops=CORONA_FABRIC.hops,
        rdma_setup=CORONA_FABRIC.rdma_setup,
        message_setup=CORONA_FABRIC.message_setup,
        bisection_bandwidth=CORONA_FABRIC.bisection_bandwidth,
        jitter_cv=jitter_cv,
    )
    return Cluster(ClusterConfig(nodes=nodes, node=node, fabric=fabric,
                                 seed=seed, fidelity=fidelity))
