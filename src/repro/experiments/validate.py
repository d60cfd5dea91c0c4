"""Calibration self-check: the timing model's first principles, verified.

docs/calibration.md derives per-operation times from the device constants.
This module re-derives those predictions *from the live configuration
objects* and measures each primitive operation in isolation, asserting
they agree — so a recalibration that breaks the documented arithmetic is
caught programmatically, not by a stale document.

Run as ``python -m repro.experiments validate`` (also a test target); a
failed check fails the command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro.cluster.corona import CORONA_FABRIC, CORONA_NODE, corona
from repro.dyad.config import DyadConfig
from repro.dyad.service import DyadRuntime
from repro.errors import ReproError, TransferError
from repro.experiments.figures import Part
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.md.models import JAC, STMV
from repro.storage.lustre import LustreConfig, LustreFileSystem, LustreServers
from repro.storage.xfs import XFSConfig, XFSFileSystem
from repro.units import fmt_time

__all__ = ["Check", "ValidationResult", "plan", "run"]


@dataclass
class Check:
    """One predicted-vs-measured primitive operation."""

    name: str
    predicted: float
    measured: float
    tolerance: float = 0.10  # relative
    dimensionless: bool = False

    @property
    def ok(self) -> bool:
        """True when measured is within tolerance of predicted."""
        scale = max(abs(self.predicted), 1e-12)
        return abs(self.measured - self.predicted) / scale <= self.tolerance

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        if self.dimensionless:
            return (
                f"[{mark}] {self.name}: predicted {self.predicted:.2f}x, "
                f"measured {self.measured:.2f}x"
            )
        return (
            f"[{mark}] {self.name}: predicted {fmt_time(self.predicted)}, "
            f"measured {fmt_time(self.measured)}"
        )


@dataclass
class ValidationResult:
    """All checks of one validation run."""

    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[str]:
        """The failed checks' lines; any fails the command."""
        return [str(c) for c in self.checks if not c.ok]

    def render(self) -> str:
        """One line per check plus an overall verdict."""
        lines = ["=== calibration self-check (predicted vs measured) ==="]
        lines.extend(str(c) for c in self.checks)
        lines.append("all checks passed" if self.ok else "CHECK FAILURES")
        return "\n".join(lines)


def _measure(cluster, gen) -> float:
    start = cluster.env.now
    proc = cluster.env.process(gen)
    cluster.env.run(proc)
    return cluster.env.now - start


def run(runs=None, frames=None, quick: bool = False) -> ValidationResult:
    """Execute every calibration check (the arguments are ignored; the
    checks are single deterministic operations)."""
    result = ValidationResult()
    ssd = CORONA_NODE.ssd
    xfs_cfg = XFSConfig()
    lustre_cfg = LustreConfig()
    dyad_cfg = DyadConfig()
    kvs_cfg = dyad_cfg.kvs
    fabric = CORONA_FABRIC
    jac = JAC.frame_bytes
    stmv = STMV.frame_bytes

    # -- XFS frame write: create + extent alloc + device write + close ----
    cluster = corona(nodes=1, seed=0)
    fs = XFSFileSystem(cluster.node(0))

    def xfs_write():
        handle = yield from fs.open("/f", "w", client="node00")
        yield from handle.write(jac)
        yield from handle.close()

    predicted = (
        xfs_cfg.lookup_time + xfs_cfg.create_journal_time
        + xfs_cfg.extent_alloc_time * 1
        + ssd.write_latency + jac / ssd.write_bandwidth
        + xfs_cfg.close_time
    )
    result.checks.append(
        Check("XFS JAC frame write (create+write+close)", predicted,
              _measure(cluster, xfs_write()))
    )

    # -- DYAD produce = XFS write + flock + client overhead + KVS commit --
    cluster = corona(nodes=1, seed=0)
    runtime = DyadRuntime(cluster)
    producer = runtime.producer("node00", "p")
    loopback = fabric.message_setup / 2
    commit = 2 * loopback + kvs_cfg.commit_service
    predicted_dyad = (
        dyad_cfg.client_overhead + dyad_cfg.flock_time
        + xfs_cfg.lookup_time + xfs_cfg.create_journal_time
        + xfs_cfg.extent_alloc_time
        + ssd.write_latency + jac / ssd.write_bandwidth
        + xfs_cfg.close_time
        + commit
    )
    result.checks.append(
        Check("DYAD JAC produce (stage+commit)", predicted_dyad,
              _measure(cluster, producer.produce("/dyad/f", jac)))
    )

    # the documented 1.4x production ratio follows from the two above
    result.checks.append(
        Check("DYAD/XFS production ratio", 1.4,
              predicted_dyad / predicted, tolerance=0.15,
              dimensionless=True)
    )

    # -- fabric RDMA pull of one JAC frame --------------------------------
    cluster = corona(nodes=2, seed=0)
    predicted = (
        fabric.rdma_setup + fabric.hop_latency * fabric.hops
        + jac / fabric.link_bandwidth
    )
    result.checks.append(
        Check("RDMA pull, JAC frame", predicted,
              _measure(cluster,
                       cluster.fabric.rdma_get("node01", "node00", jac)))
    )

    # -- Lustre cold read of one STMV frame (uncontended) -----------------
    cluster = corona(nodes=2, seed=0)
    servers = LustreServers(cluster.env, cluster.fabric)
    lfs = LustreFileSystem(servers)

    def lustre_cycle():
        handle = yield from lfs.open("/big", "w", client="node00")
        yield from handle.write(stmv)
        yield from handle.close()

    _measure(cluster, lustre_cycle())

    def lustre_read():
        handle = yield from lfs.open("/big", "r", client="node01")
        yield from handle.read()
        yield from handle.close()

    per_stripe = -(-stmv // lustre_cfg.stripe_count)
    stream_floor = servers._stream_floor(per_stripe)
    mds_rtt = (2 * (fabric.message_setup + fabric.hop_latency * fabric.hops)
               + lustre_cfg.mds_service)
    n_rpcs = -(-per_stripe // lustre_cfg.rpc_size)
    rpc_overhead = lustre_cfg.rpc_overhead * -(-n_rpcs // lustre_cfg.max_rpcs_in_flight)
    transfer = (fabric.message_setup + fabric.hop_latency * fabric.hops
                + per_stripe / fabric.link_bandwidth)
    predicted = (
        mds_rtt + 2 * lustre_cfg.client_overhead   # open + read op
        + rpc_overhead + stream_floor + transfer
        + mds_rtt                                   # close-commit
    )
    result.checks.append(
        Check("Lustre STMV cold read (solo)", predicted,
              _measure(cluster, lustre_read()), tolerance=0.15)
    )

    # -- DYAD retry backoff schedule against a crashed service ------------
    # With jitter off, the time a consumer spends failing against a dead
    # owner service is exactly: client overhead + one KVS lookup round
    # trip + one control message per attempt (the service refuses on
    # arrival) + the capped exponential backoff series. This pins the
    # recovery arithmetic that docs/resilience.md documents.
    retry_cfg = DyadConfig(retry_jitter=0.0)
    cluster = corona(nodes=2, seed=0)
    runtime = DyadRuntime(cluster, config=retry_cfg)
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    _measure(cluster, producer.produce("/dyad/f", jac))
    runtime.service("node00").crash()

    def failing_consume():
        try:
            yield from consumer.consume("/dyad/f")
        except TransferError:
            pass
        else:  # pragma: no cover - the crash above makes success a bug
            raise ReproError("consume succeeded against a crashed service")

    msg0 = fabric.message_setup + fabric.hop_latency * fabric.hops
    lookup_rtt = (2 * (msg0 + kvs_cfg.value_size / fabric.link_bandwidth)
                  + kvs_cfg.lookup_service)
    n_retries = retry_cfg.max_transfer_retries
    backoffs = sum(
        min(retry_cfg.retry_backoff * 2.0 ** a, retry_cfg.retry_backoff_cap)
        for a in range(n_retries)
    )
    predicted = (retry_cfg.client_overhead + lookup_rtt
                 + (n_retries + 1) * msg0 + backoffs)
    result.checks.append(
        Check("DYAD retry backoff schedule (service down)", predicted,
              _measure(cluster, failing_consume()), tolerance=0.01)
    )

    # -- DYAD recovery retry count after a transient crash ----------------
    # Crash the owner service for 10 ms via the fault injector and count
    # how many retries the consumer needs before the restart: a mirror of
    # the client's schedule (attempt a lands at cumulative time t; it
    # succeeds once t passes the restart instant) predicts the count
    # exactly, and the frame must still arrive.
    recover_cfg = DyadConfig(retry_jitter=0.0, max_transfer_retries=30)
    cluster = corona(nodes=2, seed=0)
    runtime = DyadRuntime(cluster, config=recover_cfg)
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    _measure(cluster, producer.produce("/dyad/g", jac))
    downtime = 0.01
    plan = FaultPlan(events=(
        FaultEvent("dyad_crash", at=cluster.env.now, target="0",
                   duration=downtime),
    ))
    FaultInjector(plan, cluster, dyad=runtime).start()
    _measure(cluster, consumer.consume("/dyad/g"))
    if consumer.fast_hits + consumer.kvs_waits != 1:
        raise ReproError("frame did not arrive after service restart")
    t = recover_cfg.client_overhead + lookup_rtt
    predicted_retries = 0
    while True:
        t += msg0
        if t >= downtime:
            break
        predicted_retries += 1
        t += min(recover_cfg.retry_backoff * 2.0 ** (predicted_retries - 1),
                 recover_cfg.retry_backoff_cap)
    result.checks.append(
        Check("DYAD recovery retries after 10ms crash",
              float(predicted_retries), float(consumer.transfer_retries),
              tolerance=0.01, dimensionless=True)
    )
    return result


def plan(runs=None, frames=None, quick: bool = False) -> Part:
    """The self-check as a part of a plan: no cells, its build is
    :func:`run`."""
    return Part({}, lambda raw: run(runs, frames, quick))
