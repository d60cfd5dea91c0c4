"""Lustre-like parallel file system model.

Architecture (matching real Lustre at the granularity the paper's findings
depend on):

- one **MDS** (metadata server) services open/create, close-commit, stat,
  and unlink RPCs through a FIFO queue — the fixed small-file costs that
  make Lustre slow for JAC-sized frames (Figs. 6, 7, 11);
- several **OSS** (object storage servers), each fronting a set of **OST**
  devices. An OSS has an aggregate disk bandwidth shared by every bulk RPC
  it is servicing — the cross-client contention that widens DYAD's lead as
  model size grows (Fig. 8);
- **striping**: a file is striped round-robin over ``stripe_count`` OSTs in
  ``stripe_size`` chunks, so large files engage several servers in parallel
  — the "inherent parallelization" visible in the Fig. 10 call trees;
- bulk data moves over the cluster :class:`~repro.cluster.network.Fabric`
  in ``rpc_size`` chunks with ``max_rpcs_in_flight`` pipelining, as in the
  real client.

Servers are attached to the fabric as pseudo-nodes (``lustre-mds``,
``lustre-oss0`` …), so client traffic to Lustre shares the client NIC with
everything else the node does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.cluster.network import Fabric
from repro.errors import ConfigError
from repro.sim.core import Environment
from repro.sim.resources import Resource, SharedBandwidth
from repro.sim.rng import RngStreams
from repro.storage.locks import LockTable
from repro.storage.posixfs import FileHandle, PosixFileSystem, normalize
from repro.units import gb_per_s, mb_per_s, mib, usec

__all__ = ["LustreConfig", "LustreServers", "LustreFileSystem"]


@dataclass(frozen=True)
class LustreConfig:
    """Calibration constants of the Lustre model.

    Defaults approximate a mid-size HDD-backed Lustre appliance of the
    Corona era reachable over the cluster fabric.
    """

    # metadata path
    mds_service: float = usec(150.0)       # per metadata RPC at the MDS
    mds_capacity: int = 4                  # concurrent MDS service threads
    client_overhead: float = usec(50.0)    # llite + LDLM lock handling per op

    # data path. Writes and reads are asymmetric on purpose: client
    # write-back caching and grants absorb writes near wire speed, while
    # consumer reads are cold (the data was produced by another node) and
    # bottleneck on the OST spindles. Cold reads additionally have a
    # two-regime per-stream profile: the first ``read_burst_bytes`` of a
    # stream come from OSS read-ahead/cache at ``read_burst_bandwidth``;
    # beyond that the stream drops to the sustained spindle rate
    # ``read_stream_bandwidth``. This is what makes small (JAC) frames
    # latency-bound but large (STMV) frames stream-bound — the mechanism
    # behind the widening consumption gap of Fig. 8b.
    n_oss: int = 2                         # object storage servers
    osts_per_oss: int = 8                  # OSTs behind each OSS
    oss_write_bandwidth: float = gb_per_s(2.0)   # aggregate absorb per OSS
    ost_write_bandwidth: float = gb_per_s(1.0)   # per-flow write ceiling
    oss_read_bandwidth: float = gb_per_s(2.0)    # aggregate cold-read per OSS
    read_burst_bytes: int = mib(1)               # read-ahead window per stream
    read_burst_bandwidth: float = mb_per_s(600.0)  # cache-burst rate
    read_stream_bandwidth: float = mb_per_s(150.0)  # sustained spindle rate
    oss_capacity: int = 32                 # concurrent bulk RPCs per OSS
    rpc_size: int = mib(1)                 # bulk RPC granularity
    rpc_overhead: float = usec(120.0)      # per bulk RPC fixed cost
    max_rpcs_in_flight: int = 8            # client-side pipelining window

    # striping
    stripe_size: int = mib(1)
    stripe_count: int = 2

    # run-to-run variability from shared-facility interference
    interference_cv: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid values."""
        if self.mds_service < 0 or self.client_overhead < 0 or self.rpc_overhead < 0:
            raise ConfigError("service times must be non-negative")
        if self.mds_capacity < 1 or self.oss_capacity < 1:
            raise ConfigError("server capacities must be >= 1")
        if self.n_oss < 1 or self.osts_per_oss < 1:
            raise ConfigError("need at least one OSS and one OST")
        if min(self.oss_write_bandwidth, self.ost_write_bandwidth,
               self.oss_read_bandwidth, self.read_burst_bandwidth,
               self.read_stream_bandwidth) <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.read_burst_bytes < 0:
            raise ConfigError("read_burst_bytes must be non-negative")
        if self.rpc_size <= 0 or self.stripe_size <= 0:
            raise ConfigError("rpc_size and stripe_size must be positive")
        if self.stripe_count < 1:
            raise ConfigError("stripe_count must be >= 1")
        if self.max_rpcs_in_flight < 1:
            raise ConfigError("max_rpcs_in_flight must be >= 1")
        if self.interference_cv < 0:
            raise ConfigError("interference_cv must be non-negative")


class _OSS:
    """One object storage server: a service queue + asymmetric disk channels.

    On the fluid tiers the disk channels live on the cluster-wide
    :class:`~repro.sim.fluid.FluidNetwork` (preserving the per-OST write
    cap as a per-flow cap); the RPC service queue stays an exact-tier
    :class:`Resource` either way — queueing is protocol, not byte movement.
    """

    def __init__(self, env: Environment, index: int, config: LustreConfig,
                 fluid=None) -> None:
        self.node_id = f"lustre-oss{index}"
        self.queue = Resource(env, config.oss_capacity)
        if fluid is not None:
            self.write_disk = fluid.link(
                config.oss_write_bandwidth,
                per_flow_cap=config.ost_write_bandwidth,
                label=f"{self.node_id}.write",
            )
            self.read_disk = fluid.link(config.oss_read_bandwidth,
                                        label=f"{self.node_id}.read")
        else:
            self.write_disk = SharedBandwidth(
                env, config.oss_write_bandwidth,
                per_flow_cap=config.ost_write_bandwidth
            )
            self.read_disk = SharedBandwidth(env, config.oss_read_bandwidth)


class LustreServers:
    """The server side of the file system, attachable to a fabric."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        config: Optional[LustreConfig] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.config = config or LustreConfig()
        self.config.validate()
        self.env = env
        self.fabric = fabric
        self.rng = rng or RngStreams(0)
        self.mds_id = "lustre-mds"
        fabric.attach(self.mds_id)
        self.mds = Resource(env, self.config.mds_capacity)
        self.oss: List[_OSS] = []
        for i in range(self.config.n_oss):
            server = _OSS(env, i, self.config, fluid=fabric.fluid)
            fabric.attach(server.node_id)
            self.oss.append(server)
        self.n_osts = self.config.n_oss * self.config.osts_per_oss
        self.mds_factor = 1.0  # fault-injection slowdown on metadata service
        # ``stale_metadata`` window: stats of files modified less than this
        # many seconds ago report pre-modification size/mtime (client-cache
        # coherence lag). 0 = always fresh.
        self.stale_lag = 0.0

    # -- fault injection -----------------------------------------------------
    def _fault_targets(self, target: str) -> tuple:
        """Resolve a degrade/restore selector → (touch_mds, [oss indices])."""
        if target == "":
            return True, list(range(len(self.oss)))
        if target == "mds":
            return True, []
        if target.startswith("oss"):
            try:
                index = int(target[3:])
            except ValueError:
                raise ConfigError(f"bad Lustre target {target!r}") from None
            if not 0 <= index < len(self.oss):
                raise ConfigError(f"no such OSS {target!r} (have {len(self.oss)})")
            return False, [index]
        raise ConfigError(f"bad Lustre target {target!r}")

    def degrade(self, factor: float, target: str = "") -> None:
        """Slow down servers by ``factor`` (fault injection).

        ``target`` selects what degrades: ``""`` (all servers), ``"mds"``
        (metadata service time multiplied), or ``"oss<i>"`` (that server's
        disk channels throttled). Models an overloaded/failing appliance —
        the shared-facility interference the paper's Lustre numbers are
        exposed to at scale.
        """
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        cfg = self.config
        touch_mds, indices = self._fault_targets(target)
        if touch_mds:
            self.mds_factor = float(factor)
        for i in indices:
            server = self.oss[i]
            server.write_disk.set_bandwidth(cfg.oss_write_bandwidth / factor)
            server.read_disk.set_bandwidth(cfg.oss_read_bandwidth / factor)

    def restore(self, target: str = "") -> None:
        """Undo a prior :meth:`degrade` for ``target`` (same selectors)."""
        cfg = self.config
        touch_mds, indices = self._fault_targets(target)
        if touch_mds:
            self.mds_factor = 1.0
        for i in indices:
            server = self.oss[i]
            server.write_disk.set_bandwidth(cfg.oss_write_bandwidth)
            server.read_disk.set_bandwidth(cfg.oss_read_bandwidth)

    def oss_for_ost(self, ost_index: int) -> _OSS:
        """The OSS fronting a given OST (block assignment)."""
        return self.oss[(ost_index // self.config.osts_per_oss) % len(self.oss)]

    def channels(self):
        """Every OSS disk channel, for kernel-health aggregation."""
        for server in self.oss:
            yield server.write_disk
            yield server.read_disk

    # -- telemetry -----------------------------------------------------------
    def attach_metrics(self, timeline) -> None:
        """Meter the servers: ``lustre.mds.rpcs`` occupancy plus, per OSS,
        ``lustre.oss{i}.rpcs`` (in-flight bulk RPCs) and the
        ``lustre.oss{i}.write`` / ``.read`` disk-channel gauge families.
        """
        self.mds.attach_metrics(timeline, "lustre.mds.rpcs")
        for i, server in enumerate(self.oss):
            server.queue.attach_metrics(timeline, f"lustre.oss{i}.rpcs")
            server.write_disk.attach_metrics(timeline, f"lustre.oss{i}.write")
            server.read_disk.attach_metrics(timeline, f"lustre.oss{i}.read")

    def _interfere(self, stream: str, base: float) -> float:
        if self.config.interference_cv == 0.0:
            return base
        return self.rng.jitter(stream, base, self.config.interference_cv)

    def _stream_floor(self, nbytes: int) -> float:
        """Minimum time to stream ``nbytes`` from one OST (burst + sustained)."""
        cfg = self.config
        burst = min(nbytes, cfg.read_burst_bytes)
        rest = nbytes - burst
        return burst / cfg.read_burst_bandwidth + rest / cfg.read_stream_bandwidth

    # -- RPC primitives ------------------------------------------------------
    def mds_rpc(self, client: str) -> Generator:
        """Generator: round trip to the MDS including queueing; returns elapsed."""
        start = self.env._now
        yield from self.fabric.message(client, self.mds_id)
        service = self._interfere("lustre.mds", self.config.mds_service)
        if self.mds_factor != 1.0:
            service *= self.mds_factor
        yield from self.mds.acquire(service)
        yield from self.fabric.message(self.mds_id, client)
        return self.env._now - start

    def bulk_rpcs(self, client: str, ost_index: int, nbytes: int, write: bool) -> Generator:
        """Generator: move ``nbytes`` between ``client`` and one OST.

        Chunks into bulk RPCs of ``rpc_size``, pipelined ``max_rpcs_in_flight``
        deep; each chunk pays the RPC fixed cost, a fabric transfer, and a
        bandwidth-shared pass through the owning OSS's disks.
        """
        if nbytes <= 0:
            return 0.0
        cfg = self.config
        server = self.oss_for_ost(ost_index)
        start = self.env._now
        n_rpcs = -(-nbytes // cfg.rpc_size)
        # Fixed per-RPC costs overlap within the in-flight window.
        serialized_rpcs = -(-n_rpcs // cfg.max_rpcs_in_flight)
        overhead = self._interfere(
            "lustre.rpc", cfg.rpc_overhead * serialized_rpcs
        )
        yield self.env.timeout(overhead)
        slot = yield from _held(server.queue)
        try:
            if write:
                yield from self.fabric.transfer(client, server.node_id, nbytes)
                yield server.write_disk.transfer(nbytes)
            else:
                # Two constraints bound a cold read: sharing of the OSS's
                # aggregate bandwidth, and the per-stream burst/sustained
                # floor. Charge the aggregate-shared transfer, then pad up
                # to the stream floor if the spindles are the bottleneck.
                disk_start = self.env._now
                yield server.read_disk.transfer(nbytes)
                elapsed = self.env._now - disk_start
                floor = self._stream_floor(nbytes)
                if elapsed < floor:
                    yield self.env.timeout(floor - elapsed)
                yield from self.fabric.transfer(server.node_id, client, nbytes)
        finally:
            server.queue.release(slot)
        return self.env._now - start


def _held(resource: Resource):
    """Generator: acquire a resource slot and return the request token."""
    req = resource.request()
    yield req
    return req


class LustreFileSystem(PosixFileSystem):
    """The client-visible file system: one global namespace, many clients.

    Pass the calling node's id as ``client`` to every operation (the
    workflow layer does this automatically); data then flows over that
    node's NIC.
    """

    kind = "lustre"

    def __init__(self, servers: LustreServers, store_data: bool = False) -> None:
        super().__init__(servers.env, store_data=store_data)
        self.servers = servers
        self.config = servers.config
        self.locks = LockTable(servers.env)
        self._next_ost = 0
        self._layouts: Dict[str, int] = {}  # path -> first OST

    def _metadata_lag(self) -> float:
        return self.servers.stale_lag

    # -- striping ------------------------------------------------------------
    def _layout(self, path: str) -> int:
        """First OST index of a file's stripe layout (round-robin by path)."""
        first = self._layouts.get(path)
        if first is None:
            digest = 0
            for ch in normalize(path).encode():
                digest = (digest * 131 + ch) % 1_000_003
            first = self._layouts[path] = digest % self.servers.n_osts
        return first

    def _stripe_split(self, path: str, nbytes: int) -> List[tuple]:
        """Split a contiguous extent over the stripe OSTs.

        Returns ``[(ost_index, bytes), …]`` — one entry per engaged OST.
        Interleaving detail below stripe granularity is irrelevant to
        timing, so each OST's share is its total across the extent.
        """
        cfg = self.config
        first = self._layout(path)
        if nbytes <= 0:
            return []
        n_stripes = min(cfg.stripe_count, -(-nbytes // cfg.stripe_size))
        shares = [0] * n_stripes
        full, rem = divmod(nbytes, cfg.stripe_size)
        for i in range(n_stripes):
            shares[i] = (full // n_stripes) * cfg.stripe_size
        # distribute leftover stripe-size blocks and the tail
        leftover = (full % n_stripes) * cfg.stripe_size + rem
        idx = 0
        while leftover > 0:
            take = min(cfg.stripe_size, leftover)
            shares[idx % n_stripes] += take
            leftover -= take
            idx += 1
        return [
            ((first + i) % self.servers.n_osts, share)
            for i, share in enumerate(shares)
            if share > 0
        ]

    # -- timing hooks -------------------------------------------------------------
    def _require_client(self, client: Optional[str]) -> str:
        if client is None:
            raise ConfigError(
                "lustre operations need the calling node id (client=...)"
            )
        return client

    def _t_open(self, path: str, creating: bool, client: Optional[str]) -> Generator:
        node = self._require_client(client)
        start = self.env._now
        yield self.env.timeout(self.config.client_overhead)
        yield from self.servers.mds_rpc(node)
        if creating:
            # Layout allocation: a second MDS round trip (LOV EA write).
            yield from self.servers.mds_rpc(node)
        return self.env._now - start

    def _t_write(self, handle: FileHandle, nbytes: int) -> Generator:
        node = self._require_client(handle.client)
        start = self.env._now
        yield self.env.timeout(self.config.client_overhead)
        if nbytes:
            parts = self._stripe_split(handle.path, nbytes)
            jobs = [
                self.env.process(
                    self.servers.bulk_rpcs(node, ost, share, write=True)
                )
                for ost, share in parts
            ]
            yield self.env.all_of(jobs)
        return self.env._now - start

    def _t_read(self, handle: FileHandle, nbytes: int) -> Generator:
        node = self._require_client(handle.client)
        start = self.env._now
        yield self.env.timeout(self.config.client_overhead)
        if nbytes:
            parts = self._stripe_split(handle.path, nbytes)
            jobs = [
                self.env.process(
                    self.servers.bulk_rpcs(node, ost, share, write=False)
                )
                for ost, share in parts
            ]
            yield self.env.all_of(jobs)
        return self.env._now - start

    def _t_close(self, handle: FileHandle) -> Generator:
        node = self._require_client(handle.client)
        start = self.env._now
        # close-commit to the MDS (size/timestamps update)
        yield from self.servers.mds_rpc(node)
        return self.env._now - start

    def _t_fsync(self, handle: FileHandle) -> Generator:
        node = self._require_client(handle.client)
        start = self.env._now
        yield from self.servers.mds_rpc(node)
        return self.env._now - start

    def _t_stat(self, path: str, client: Optional[str]) -> Generator:
        node = self._require_client(client)
        start = self.env._now
        yield self.env.timeout(self.config.client_overhead)
        yield from self.servers.mds_rpc(node)
        return self.env._now - start

    def _t_unlink(self, path: str, client: Optional[str]) -> Generator:
        node = self._require_client(client)
        start = self.env._now
        yield from self.servers.mds_rpc(node)
        return self.env._now - start
