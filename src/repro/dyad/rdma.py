"""Data transports for DYAD remote gets.

:class:`RdmaTransport` is the paper's DYAD path: a thin layer over the
fabric's one-sided read with DYAD's chunking (``rdma_chunk``) — large
frames move as a pipeline of bounded chunks, each paying one RDMA setup.
Chunks of one transfer are issued concurrently (the fabric's bandwidth
sharing serializes them onto the wire), matching UCX rendezvous behaviour
to first order.

:class:`EagerTransport` is the ablation: two-sided eager messages in
small (~64 KiB) units, paying per-chunk message setup with bounded
sender-side pipelining — what a DYAD without RDMA support would do.

Both support probabilistic fault injection (``fault_rate``): an attempt
fails with :class:`repro.errors.TransferError` after a partial delay; the
consumer client retries.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.network import Fabric
from repro.errors import TransferError
from repro.sim.rng import RngStreams

__all__ = ["RdmaTransport", "EagerTransport", "make_transport"]


class _FaultModel:
    """Shared fault-injection logic."""

    def __init__(self, fault_rate: float, rng: Optional[RngStreams]) -> None:
        if not 0.0 <= fault_rate < 1.0:
            raise TransferError(f"fault_rate must be in [0, 1), got {fault_rate}")
        self.fault_rate = fault_rate
        self.rng = rng
        self.faults_injected = 0

    def should_fail(self) -> bool:
        if self.fault_rate == 0.0 or self.rng is None:
            return False
        failed = self.rng.stream("transport.fault").random() < self.fault_rate
        if failed:
            self.faults_injected += 1
        return failed


class RdmaTransport(_FaultModel):
    """Chunked one-sided pulls between two nodes."""

    kind = "rdma"

    def __init__(
        self,
        fabric: Fabric,
        chunk: int,
        fault_rate: float = 0.0,
        rng: Optional[RngStreams] = None,
    ) -> None:
        super().__init__(fault_rate, rng)
        if chunk <= 0:
            raise TransferError(f"rdma chunk must be positive, got {chunk}")
        self.fabric = fabric
        self.chunk = chunk

    def get(self, initiator: str, target: str, nbytes: int) -> Generator:
        """Generator: pull ``nbytes`` from ``target``; returns elapsed seconds."""
        if nbytes < 0:
            raise TransferError(f"negative rdma size: {nbytes}")
        env = self.fabric.env
        start = env._now
        if nbytes == 0 or initiator == target:
            # Collocated or empty get: served from the local page cache.
            return 0.0
        if self.should_fail():
            # the failure surfaces after part of the transfer happened
            yield from self.fabric.rdma_get(initiator, target, nbytes // 2)
            raise TransferError(
                f"injected rdma fault pulling {nbytes} B from {target}"
            )
        if self.fabric.fluid is not None:
            # Hybrid tier: the chunk pipeline collapses into weighted
            # flows with the same bandwidth footprint (equal concurrent
            # chunks on a shared path get exactly k flow-shares),
            # eliminating the per-chunk processes that dominate the
            # exact tier's contended-transfer cost.
            yield from self.fabric.rdma_get_bulk(
                initiator, target, nbytes, self.chunk
            )
            return env._now - start
        remaining = nbytes
        jobs = []
        rdma_get = self.fabric.rdma_get
        while remaining > 0:
            size = min(self.chunk, remaining)
            remaining -= size
            jobs.append(env.process(rdma_get(initiator, target, size)))
        yield env.all_of(jobs)
        return env._now - start


class EagerTransport(_FaultModel):
    """Two-sided eager transfers (the no-RDMA ablation).

    Every ``chunk`` bytes pay one eager message setup; setups overlap
    ``pipeline`` deep (the per-chunk fixed costs are charged as
    ``ceil(n_chunks / pipeline)`` serialized setups, then the payload
    streams through the fabric as one flow — a first-order model that
    keeps the event count bounded for multi-MiB frames).
    """

    kind = "eager"

    def __init__(
        self,
        fabric: Fabric,
        chunk: int,
        pipeline: int = 4,
        fault_rate: float = 0.0,
        rng: Optional[RngStreams] = None,
    ) -> None:
        super().__init__(fault_rate, rng)
        if chunk <= 0 or pipeline < 1:
            raise TransferError("eager chunk/pipeline must be positive")
        self.fabric = fabric
        self.chunk = chunk
        self.pipeline = pipeline

    def get(self, initiator: str, target: str, nbytes: int) -> Generator:
        """Generator: request+receive ``nbytes`` via eager messages."""
        if nbytes < 0:
            raise TransferError(f"negative transfer size: {nbytes}")
        env = self.fabric.env
        start = env._now
        if nbytes == 0 or initiator == target:
            return 0.0
        if self.should_fail():
            yield from self.fabric.transfer(target, initiator, nbytes // 2)
            raise TransferError(
                f"injected eager fault pulling {nbytes} B from {target}"
            )
        n_chunks = -(-nbytes // self.chunk)
        serialized = -(-n_chunks // self.pipeline)
        setup = self.fabric.config.message_setup * serialized
        yield env.timeout(setup)
        yield from self.fabric.transfer(target, initiator, nbytes)
        return env._now - start


def make_transport(config, fabric: Fabric, rng: Optional[RngStreams] = None):
    """Build the transport selected by a :class:`~repro.dyad.config.DyadConfig`."""
    if config.transport == "eager":
        return EagerTransport(
            fabric, config.eager_chunk, config.eager_pipeline,
            fault_rate=config.fault_rate, rng=rng,
        )
    return RdmaTransport(
        fabric, config.rdma_chunk, fault_rate=config.fault_rate, rng=rng,
    )
