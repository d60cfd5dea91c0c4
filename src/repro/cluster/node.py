"""Compute node model: cores, GPUs, a local SSD, and a NIC.

Nodes enforce the paper's placement rule — at most one workflow process per
GPU ("we only place up to 8 processes per node because we only have 8 GPUs
per node") — via :meth:`Node.claim_gpu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.network import NIC, Fabric
from repro.cluster.ssd import SSDConfig, SSDModel
from repro.errors import ConfigError, WorkflowError
from repro.sim.core import Environment
from repro.sim.rng import RngStreams

__all__ = ["NodeConfig", "Node"]


@dataclass(frozen=True)
class NodeConfig:
    """Static description of one compute node."""

    cores: int = 48
    gpus: int = 8
    ssd: SSDConfig = SSDConfig()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid values."""
        if self.cores < 1:
            raise ConfigError("node needs at least one core")
        if self.gpus < 0:
            raise ConfigError("gpu count cannot be negative")
        self.ssd.validate()


class Node:
    """One compute node attached to a cluster fabric."""

    def __init__(
        self,
        env: Environment,
        node_id: str,
        config: NodeConfig,
        fabric: Fabric,
        rng: RngStreams,
    ) -> None:
        config.validate()
        self.env = env
        self.node_id = node_id
        self.config = config
        self.ssd = SSDModel(env, config.ssd, rng, name=f"{node_id}.ssd",
                            fluid=fabric.fluid)
        self.nic: NIC = fabric.attach(node_id)
        self._gpus_claimed = 0

    def claim_gpu(self) -> int:
        """Claim one GPU slot; returns its index.

        Raises :class:`WorkflowError` when the node is full — this is the
        mechanism that caps placement at 8 processes/node in experiments.
        """
        if self._gpus_claimed >= self.config.gpus:
            raise WorkflowError(
                f"{self.node_id}: all {self.config.gpus} GPUs claimed"
            )
        idx = self._gpus_claimed
        self._gpus_claimed += 1
        return idx

    def __repr__(self) -> str:
        return (
            f"<Node {self.node_id} cores={self.config.cores} "
            f"gpus={self._gpus_claimed}/{self.config.gpus}>"
        )
