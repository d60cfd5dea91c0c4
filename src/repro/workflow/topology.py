"""The workflow graph: one spawner for every producer/consumer shape.

Every :class:`~repro.workflow.spec.Topology` is a set of producer →
consumer *edges* spawned on the same substrates, sync modes and
invariant machinery:

- **pairwise (N × 1:1)** — the paper's shape: producer *j* writes stream
  *j* and consumer *j* reads it, over N disjoint edges.
- **fan-out (1→M)** — one producer writes stream 0; every consumer reads
  every frame of it. With DYAD and split placement the consumers share a
  node-local staging cache, so the shared-read single-flight tier (see
  :class:`~repro.dyad.config.DyadConfig.shared_read_cache`) bounds the
  workload to one RDMA pull per frame per node, against Lustre's one
  cold OST read per frame per *consumer* — the read-amplification
  comparison the ``topology`` experiment reports.
- **fan-in (N→1)** — N producers each write their own stream; one reduce
  consumer folds frame *k* of every stream before its per-frame
  analytics step. Drain adds the *aggregation-completeness* invariant.
- **pool (N→M work stealing)** — per-frame ``(stream, frame)`` tasks go
  into a shared frame-major :class:`TaskQueue`; M workers claim greedily,
  so a slow worker sheds load to fast ones. Drain adds the pool-wide
  exactly-once invariant (per-role bookkeeping cannot see two *different*
  workers claiming the same task).

Every shape runs the same producer body and one of two consumer bodies
(frame-major over the streams a consumer reads, or pool claims). The
sync mode and the system under test plug in as per-edge hooks, built
once each below: ``write_frame(k)`` (DYAD produce or POSIX write),
``read_task(s, k)`` (DYAD consume or POSIX read), ``wait_ready()`` (the
coarse barrier), ``wait_task(s, k)`` (stat() polling or a streaming
wait) and ``release(s, k)`` (a streaming credit return).

Streaming sync modes work per **edge**: each producer→consumer edge gets
its own :class:`~repro.workflow.streaming.StreamChannel` with its own
credit ledger — a fan-out producer must hold a credit on *every*
consumer's channel before writing a frame (the slowest consumer applies
backpressure), every other producer only on its own edge. The fault
injector composes with the per-edge channels unchanged: holds key on
each channel's ``producer_node``/``consumer_node``.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.errors import FileNotFound
from repro.perf.caliper import Category
from repro.sim.core import Environment
from repro.sim.resources import Signal
from repro.workflow import emulator
from repro.workflow.spec import SyncMode, System, Topology, WorkflowSpec
from repro.workflow.streaming import (
    BACKPRESSURE_REGION,
    STREAM_WAIT_REGION,
    StreamChannel,
    default_liveness_horizon,
    stream_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.invariants import InvariantChecker

__all__ = ["TaskQueue", "TopologySetup", "spawn_topology"]


class TaskQueue:
    """Deterministic work-stealing queue of ``(stream, frame)`` tasks.

    Tasks are ordered frame-major (frame 0 of every stream before frame 1
    of any), matching how a trajectory-analysis pool drains time steps.
    ``claim`` is pure bookkeeping — no simulated time — so the steal
    order is decided entirely by when each worker finishes its previous
    task. Claims are recorded per worker for load-balance reporting.
    """

    def __init__(self, streams: int, frames: int) -> None:
        self._tasks = deque(
            (s, k) for k in range(frames) for s in range(streams)
        )
        self.total = streams * frames
        #: worker role -> tasks it claimed, in claim order
        self.claimed: Dict[str, List[Tuple[int, int]]] = {}

    def claim(self, role: str) -> Optional[Tuple[int, int]]:
        """Next unclaimed task, or ``None`` when the queue is drained."""
        if not self._tasks:
            return None
        task = self._tasks.popleft()
        self.claimed.setdefault(role, []).append(task)
        return task

    def per_worker(self) -> Dict[str, int]:
        """Tasks claimed per worker (load-balance view)."""
        return {role: len(tasks) for role, tasks in self.claimed.items()}


@dataclass
class TopologySetup:
    """Everything the runner needs back from :func:`spawn_topology`."""

    spec: WorkflowSpec
    #: ``(role, Process)`` pairs for stall diagnostics
    processes: List = field(default_factory=list)
    #: one :class:`StreamChannel` per producer→consumer edge (streaming
    #: modes only; empty otherwise)
    channels: List[StreamChannel] = field(default_factory=list)
    #: the POSIX pub/sub control-plane broker (``None`` otherwise)
    broker: Optional[object] = None
    #: DYAD consumer clients (``[]`` for POSIX systems)
    consumers: List = field(default_factory=list)
    #: the work-stealing queue (``POOL`` topology only)
    queue: Optional[TaskQueue] = None

    def check_complete(self, checker: "InvariantChecker") -> None:
        """Run the topology-appropriate drain-completeness invariants."""
        spec = self.spec
        if spec.topology is Topology.PAIRWISE:
            checker.check_complete_edges(
                [(f"consumer{j}", j) for j in range(spec.pairs)],
                spec.frames,
            )
        elif spec.topology is Topology.FANOUT:
            checker.check_complete_edges(
                [(f"consumer{j}", 0) for j in range(spec.consumers)],
                spec.frames,
            )
        elif spec.topology is Topology.FANIN:
            checker.check_aggregation("consumer0", spec.streams, spec.frames)
        else:  # POOL
            checker.check_pool(
                [f"consumer{j}" for j in range(spec.consumers)],
                spec.streams, spec.frames,
            )

    def recovery_errors(self) -> List[str]:
        """Per-consumer completion accounting after a faulted run.

        Every consumer must report ``fast_hits + kvs_waits`` equal to the
        frame reads its shape owes (only DYAD clients carry these
        counters; POSIX runs return ``[]``).
        """
        if not self.consumers:
            return []
        spec = self.spec
        errors: List[str] = []
        if spec.topology is Topology.POOL:
            got = sum(c.fast_hits + c.kvs_waits for c in self.consumers)
            want = spec.streams * spec.frames
            if got != want:
                errors.append(
                    f"the consumer pool completed {got} of {want} tasks "
                    "despite finishing"
                )
            return errors
        want = (spec.streams * spec.frames if spec.topology is Topology.FANIN
                else spec.frames)
        for j, consumer in enumerate(self.consumers):
            got = consumer.fast_hits + consumer.kvs_waits
            if got != want:
                errors.append(
                    f"consumer{j} completed {got} of {want} frame reads "
                    "despite finishing"
                )
        return errors


# ---------------------------------------------------------------------------
# per-system write/read hooks
# ---------------------------------------------------------------------------


def _dyad_write_frame(spec, client, ann, s, root, checker) -> Callable:
    """``write_frame(k)``: produce frame ``k`` of stream ``s`` via DYAD."""

    def write_frame(k: int) -> Generator:
        yield from client.produce(
            emulator.frame_path(root, s, k), spec.frame_bytes, annotator=ann,
        )
        if checker is not None:
            # The commit instant is the KVS publish (which a stale_metadata
            # window moves ahead of the staged bytes).
            checker.frame_committed(
                f"producer{s}", s, k, spec.frame_bytes,
                at=client.last_commit_time,
            )

    return write_frame


def _posix_write_frame(spec, fs, node_id, ann, s, checker, broker=None,
                       root: str = "/data") -> Callable:
    """``write_frame(k)``: write frame ``k`` of stream ``s`` through ``fs``.

    With a pub/sub ``broker`` the write is followed by a per-frame commit
    on the control plane (one RPC).
    """

    def write_frame(k: int) -> Generator:
        ann.begin(emulator.WRITE_REGION, Category.MOVEMENT)
        handle = yield from fs.open(emulator.frame_path(root, s, k), "w",
                                    client=node_id)
        try:
            yield from handle.write(spec.frame_bytes)
            if checker is not None:
                # Data is fully visible once the write lands (a polling
                # consumer may legally read before close completes).
                checker.frame_committed(
                    f"producer{s}", s, k, spec.frame_bytes
                )
        finally:
            # A run abandoned mid-frame is closed by the garbage
            # collector: simulating the close would yield during
            # GeneratorExit, so only live runs close the handle.
            if sys.exc_info()[0] is not GeneratorExit:
                yield from handle.close()
        ann.end(emulator.WRITE_REGION)
        if broker is not None:
            yield from broker.commit(node_id, stream_key(s, k),
                                     spec.frame_bytes)

    return write_frame


def _dyad_read_task(spec, client, ann, role, root, checker,
                    subscribe: bool = False) -> Callable:
    """``read_task(s, k)``: consume one frame through a DYAD client."""

    def read_task(s: int, k: int) -> Generator:
        yield from client.consume(
            emulator.frame_path(root, s, k), annotator=ann,
            subscribe=subscribe,
        )
        if checker is not None:
            checker.frame_consumed(
                role, s, k, spec.frame_bytes,
                client.last_consume_bytes, client.last_consume_corrupt,
            )

    return read_task


def _posix_read_task(spec, fs, node_id, ann, role, checker,
                     root: str = "/data") -> Callable:
    """``read_task(s, k)``: read one frame of one stream through ``fs``."""

    def read_task(s: int, k: int) -> Generator:
        path = emulator.frame_path(root, s, k)
        ann.begin(emulator.READ_REGION, Category.MOVEMENT)
        handle = yield from fs.open(path, "r", client=node_id)
        try:
            count, _payload = yield from handle.read()
        finally:
            if sys.exc_info()[0] is not GeneratorExit:
                yield from handle.close()
        ann.end(emulator.READ_REGION)
        if checker is not None:
            checker.frame_consumed(
                role, s, k, spec.frame_bytes, count, fs.is_corrupt(path)
            )
        elif count != spec.frame_bytes:
            raise AssertionError(
                f"stream {s} frame {k}: read {count} bytes, "
                f"expected {spec.frame_bytes}"
            )

    return read_task


# ---------------------------------------------------------------------------
# sync hooks
# ---------------------------------------------------------------------------


def _barrier_wait_ready(ann, barriers) -> Callable:
    """``wait_ready()``: park until each listed producer barrier fires.

    The coarse-grained manual pattern: the consumer's iterations begin
    only after its producers complete, and all of that waiting lands in
    one ``explicit_sync`` idle region.
    """

    def wait_ready() -> Generator:
        ann.begin(emulator.SYNC_REGION, Category.IDLE)
        for barrier in barriers:
            yield barrier.wait()
        ann.end(emulator.SYNC_REGION)

    return wait_ready


def _poll_wait_task(env, spec, fs, node_id, ann,
                    root: str = "/data") -> Callable:
    """``wait_task(s, k)``: Pegasus-style two-stable-stats polling.

    The consumer discovers each frame by polling ``stat()`` every
    ``spec.poll_interval`` seconds until two consecutive polls report the
    same version (a poller can observe a file mid-write), so discovery
    costs at least one full poll interval after creation.
    """

    def wait_task(s: int, k: int) -> Generator:
        path = emulator.frame_path(root, s, k)
        ann.begin(emulator.POLL_REGION, Category.IDLE)
        last_version = None
        while True:
            try:
                st = yield from fs.stat(path, client=node_id)
            except FileNotFound:
                st = None
            if st is not None and st.version == last_version:
                break  # two consecutive identical observations: stable
            last_version = st.version if st is not None else None
            yield env.timeout(spec.poll_interval)
        ann.end(emulator.POLL_REGION)

    return wait_task


def _stream_wait_task(ann, wait_frame) -> Callable:
    """``wait_task(s, k)``: park on a streaming availability event.

    ``wait_frame(s, k)`` is the notification plane: the edge's channel
    (windowed/nbuffer) or the pub/sub broker's watch.
    """

    def wait_task(s: int, k: int) -> Generator:
        ann.begin(STREAM_WAIT_REGION, Category.IDLE)
        yield from wait_frame(s, k)
        ann.end(STREAM_WAIT_REGION)

    return wait_task


# ---------------------------------------------------------------------------
# process bodies
# ---------------------------------------------------------------------------


def _producer(env, spec, key, ann, compute, write_frame,
              channels: Sequence[StreamChannel],
              barrier: Optional[Signal]) -> Generator:
    """MD-sleep, take a credit on every edge, write, publish — per frame.

    Non-streaming runs have no channels; a coarse POSIX producer fires
    its phase barrier once every frame is written (by then its consumers
    are already parked in it, so producers show no idle time).
    """
    for k in range(spec.frames):
        ann.begin("md_sleep", Category.COMPUTE)
        yield env.timeout(compute.sample(f"{key}.frame{k}", spec.stride_time))
        ann.end("md_sleep")
        if channels:
            ann.begin(BACKPRESSURE_REGION, Category.IDLE)
            for channel in channels:
                yield from channel.acquire_credit(k)
            ann.end(BACKPRESSURE_REGION)
        yield from write_frame(k)
        for channel in channels:
            channel.publish(k)
    if barrier is not None:
        barrier.fire_once(env.now)


def _analytics(env, spec, ann, compute, key) -> Generator:
    ann.begin("analytics_sleep", Category.COMPUTE)
    yield env.timeout(compute.sample(key, spec.analytics_time))
    ann.end("analytics_sleep")


def _frame_consumer(env, spec, streams, key, ann, compute, wait_ready,
                    wait_task, read_task, release) -> Generator:
    """Fold frame ``k`` of every stream in ``streams``, then analyze it.

    A pairwise or fan-out consumer reads one stream; the fan-in reducer
    reads all of them before its per-frame analytics (the reduce) step.
    """
    if wait_ready is not None:
        yield from wait_ready()
    for k in range(spec.frames):
        for s in streams:
            if wait_task is not None:
                yield from wait_task(s, k)
            yield from read_task(s, k)
            if release is not None:
                release(s, k)
        yield from _analytics(env, spec, ann, compute, f"{key}.frame{k}")


def _pool_consumer(env, spec, j, queue, ann, compute, wait_ready, wait_task,
                   read_task, release) -> Generator:
    """Pool worker ``j``: greedily claim and analyze queued tasks."""
    if wait_ready is not None:
        yield from wait_ready()
    role = f"consumer{j}"
    step = 0
    while True:
        task = queue.claim(role)
        if task is None:
            break
        s, k = task
        if wait_task is not None:
            yield from wait_task(s, k)
        yield from read_task(s, k)
        if release is not None:
            release(s, k)
        yield from _analytics(env, spec, ann, compute, f"{role}.task{step}")
        step += 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _consumer_streams(spec: WorkflowSpec, j: int) -> Sequence[int]:
    """The streams consumer ``j`` reads."""
    if spec.topology is Topology.PAIRWISE:
        return (j,)
    if spec.topology is Topology.FANOUT:
        return (0,)
    return range(spec.streams)


def _edge_channels(env, spec, checker, liveness_horizon, producer_node_ids,
                   consumer_node_ids) -> List[StreamChannel]:
    """One :class:`StreamChannel` per producer→consumer edge.

    Fan-out channels are indexed by consumer, every other shape's by
    stream (the pool's channels name the whole worker pool as their
    consumer side).
    """

    def channel(s, consumer_role, consumer_node):
        return StreamChannel(
            env, s, spec.effective_window,
            producer_role=f"producer{s}", consumer_role=consumer_role,
            producer_node=producer_node_ids[s], consumer_node=consumer_node,
            checker=checker, liveness_horizon=liveness_horizon,
        )

    if spec.topology is Topology.FANOUT:
        return [channel(0, f"consumer{j}", node)
                for j, node in enumerate(consumer_node_ids)]
    if spec.topology is Topology.PAIRWISE:
        return [channel(s, f"consumer{s}", consumer_node_ids[s])
                for s in range(spec.streams)]
    role = "pool" if spec.topology is Topology.POOL else "consumer0"
    return [channel(s, role, consumer_node_ids[0])
            for s in range(spec.streams)]


def spawn_topology(
    env: Environment,
    spec: WorkflowSpec,
    cluster,
    producer_anns,
    consumer_anns,
    compute,
    checker: Optional["InvariantChecker"] = None,
    runtime=None,
    fs=None,
    liveness_horizon: Optional[float] = None,
) -> TopologySetup:
    """Spawn the workflow graph of ``spec`` for any system and sync mode.

    - DYAD under ``coarse``/``polling`` uses its automatic KVS
      synchronization (the spec normalizes both manual modes to COARSE):
      producer and consumer run pipelined.
    - XFS/Lustre ``coarse`` parks each consumer until the producers of
      every stream it reads fired their phase barriers; ``polling``
      stat-polls per frame.
    - The streaming modes run per-edge credit windows. DYAD keeps its KVS
      discovery (``pubsub`` subscribes per frame); XFS/Lustre wait on
      the edge channel's side channel or, for ``pubsub``, a node-0 KVS
      broker's per-frame watch.

    The staging tree is created before the timed phase, as the paper's
    harness does.
    """
    if liveness_horizon is None:
        liveness_horizon = default_liveness_horizon(spec)
    setup = TopologySetup(spec=spec)
    producer_node_ids = [cluster.node(n).node_id
                         for n in spec.producer_nodes()]
    consumer_node_ids = [cluster.node(n).node_id
                         for n in spec.consumer_nodes()]
    topology = spec.topology
    is_dyad = spec.system is System.DYAD
    streaming = spec.is_streaming
    pubsub = streaming and spec.sync_mode is SyncMode.PUBSUB
    root = runtime.config.managed_root if is_dyad else "/data"

    if not is_dyad:
        for s in range(spec.streams):
            fs.makedirs(f"/data/pair{s:04d}")
        if pubsub:
            from repro.kvs.store import KVS

            setup.broker = KVS(env, cluster.fabric, cluster.node(0).node_id,
                               attach=False)
    broker = setup.broker

    if streaming:
        setup.channels = _edge_channels(
            env, spec, checker, liveness_horizon,
            producer_node_ids, consumer_node_ids,
        )
    channels = setup.channels

    def edge(s: int, j: int) -> StreamChannel:
        return channels[j] if topology is Topology.FANOUT else channels[s]

    if topology is Topology.POOL:
        setup.queue = TaskQueue(spec.streams, spec.frames)

    # -- producers -----------------------------------------------------------
    # Compute-sample keys name per-key RNG streams: the non-pairwise
    # streaming producers have always drawn from ``stream{s}``.
    key = ("stream" if streaming and topology is not Topology.PAIRWISE
           else "pair")
    barriers: List[Signal] = []
    for s in range(spec.streams):
        ann = producer_anns[s]
        node_id = producer_node_ids[s]
        barrier = None
        if is_dyad:
            write_frame = _dyad_write_frame(
                spec, runtime.producer(node_id, f"prod{s}"), ann, s, root,
                checker,
            )
        else:
            write_frame = _posix_write_frame(
                spec, fs, node_id, ann, s, checker, broker=broker,
            )
            if not streaming:
                barrier = Signal(env)
                barriers.append(barrier)
        if not streaming:
            own = ()
        elif topology is Topology.FANOUT:
            own = channels
        else:
            own = (channels[s],)
        setup.processes.append((f"producer{s}", env.process(_producer(
            env, spec, f"{key}{s}", ann, compute, write_frame, own, barrier,
        ))))

    # -- consumers -----------------------------------------------------------
    for j in range(spec.n_consumers):
        ann = consumer_anns[j]
        node_id = consumer_node_ids[j]
        role = f"consumer{j}"
        streams = _consumer_streams(spec, j)
        wait_ready = None
        wait_task = None
        release = None
        if is_dyad:
            # DYAD's KVS is the discovery plane; streaming only adds the
            # per-edge credit window on top.
            client = runtime.consumer(node_id, f"cons{j}")
            setup.consumers.append(client)
            read_task = _dyad_read_task(
                spec, client, ann, role, root, checker, subscribe=pubsub,
            )
        else:
            read_task = _posix_read_task(spec, fs, node_id, ann, role,
                                         checker)
            if broker is not None:
                wait_task = _stream_wait_task(
                    ann, lambda s, k, _node=node_id: broker.wait_for(
                        _node, stream_key(s, k)),
                )
            elif streaming:
                wait_task = _stream_wait_task(
                    ann, lambda s, k, _j=j: edge(s, _j).wait_frame(k),
                )
            elif spec.sync_mode is SyncMode.POLLING:
                wait_task = _poll_wait_task(env, spec, fs, node_id, ann)
            else:
                wait_ready = _barrier_wait_ready(
                    ann, [barriers[s] for s in streams]
                )
        if streaming:
            def release(s, k, _j=j):
                edge(s, _j).release_credit(k)

        if topology is Topology.POOL:
            body = _pool_consumer(
                env, spec, j, setup.queue, ann, compute, wait_ready,
                wait_task, read_task, release,
            )
        else:
            key = f"pair{j}" if topology is Topology.PAIRWISE else role
            body = _frame_consumer(
                env, spec, streams, key, ann, compute, wait_ready,
                wait_task, read_task, release,
            )
        setup.processes.append((role, env.process(body)))
    return setup
