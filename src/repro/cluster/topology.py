"""Cluster assembly: environment + fabric + homogeneous nodes.

A :class:`Cluster` is the root object experiments build: it owns the DES
:class:`~repro.sim.core.Environment`, the RNG stream family for the run,
the :class:`~repro.cluster.network.Fabric`, and the list of
:class:`~repro.cluster.node.Node` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cluster.network import Fabric, FabricConfig
from repro.cluster.node import Node, NodeConfig
from repro.errors import ConfigError
from repro.sim.core import Environment
from repro.sim.fluid import Fidelity, FluidNetwork
from repro.sim.rng import RngStreams

__all__ = ["ClusterConfig", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a homogeneous cluster.

    ``fidelity`` selects the simulation tier (see
    :class:`repro.sim.fluid.Fidelity`): ``exact`` is the bit-reproducible
    per-channel kernel, ``hybrid`` delegates bulk byte movement to a
    cluster-wide flow-level solver.
    """

    nodes: int = 2
    node: NodeConfig = NodeConfig()
    fabric: FabricConfig = FabricConfig()
    seed: int = 0
    fidelity: str = "exact"

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid values."""
        if self.nodes < 1:
            raise ConfigError("cluster needs at least one node")
        Fidelity.coerce(self.fidelity)
        self.node.validate()
        self.fabric.validate()


class Cluster:
    """A running simulated cluster.

    Node ids are ``node00 … nodeNN``; experiments address nodes by index
    through :meth:`node`.
    """

    def __init__(self, config: ClusterConfig) -> None:
        config.validate()
        self.config = config
        self.env = Environment()
        self.rng = RngStreams(config.seed)
        self.fidelity = Fidelity.coerce(config.fidelity)
        #: One flow-level engine shared by every substrate on the
        #: `hybrid` tier; `None` on `exact`.
        self.fluid = (FluidNetwork(self.env) if self.fidelity.uses_fluid
                      else None)
        self.fabric = Fabric(self.env, config.fabric, self.rng,
                             fluid=self.fluid)
        self.nodes: List[Node] = [
            Node(self.env, f"node{i:02d}", config.node, self.fabric, self.rng)
            for i in range(config.nodes)
        ]

    def node(self, index: int) -> Node:
        """Node by index (supports negative indexing)."""
        return self.nodes[index]

    def channels(self) -> List:
        """Every fluid-flow channel of the fabric and the node SSDs."""
        channels = list(self.fabric.channels())
        for node in self.nodes:
            channels.extend(node.ssd.channels())
        return channels

    def attach_metrics(self, timeline) -> None:
        """Meter the fabric and every node's SSD onto ``timeline``."""
        self.fabric.attach_metrics(timeline)
        for node in self.nodes:
            node.ssd.attach_metrics(timeline, f"ssd.{node.node_id}")

    def stats(self) -> Dict[str, float]:
        """Fabric and SSD traffic plus the fidelity tier's counters; the
        tier is its ordinal (``system_stats`` values are floats)."""
        fabric = self.fabric.stats
        out = {f"fabric_{name}": float(getattr(fabric, name))
               for name in ("transfers", "rdma_transfers", "messages",
                            "bytes_moved", "link_stalls")}
        for name in ("bytes_written", "bytes_read"):
            out[f"ssd_{name}"] = float(
                sum(getattr(node.ssd.stats, name) for node in self.nodes))
        fluid = self.fluid
        out["fidelity"] = float(self.fidelity.ordinal)
        out["fluid_epochs"] = float(fluid.fluid_epochs if fluid else 0)
        out["rate_solves"] = float(fluid.rate_solves if fluid else 0)
        return out

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<Cluster nodes={len(self.nodes)} seed={self.config.seed}>"
