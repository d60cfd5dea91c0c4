"""Workflow orchestration: build, run, and summarize one configuration.

:func:`run_workflow` assembles a Corona-like cluster sized for the spec,
instantiates the system under test (DYAD runtime, an XFS mount, or Lustre
servers + client FS), spawns the spec's producer/consumer graph with
Caliper annotation (:func:`repro.workflow.topology.spawn_topology`),
runs the simulation to completion, and returns a :class:`WorkflowResult` with the per-process call trees and the
paper's headline metrics (per-frame production/consumption time split into
data movement and idle).

:func:`run_repetitions` repeats a spec with different seeds (the paper
runs every configuration 10 times) and returns the list of results.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.corona import corona
from repro.dyad.config import DyadConfig
from repro.dyad.service import DyadRuntime
from repro.errors import StallError, WorkflowError
from repro.faults.plan import FaultPlan
from repro.invariants import InvariantChecker, InvariantConfig
from repro.perf.caliper import Caliper, Category
from repro.perf.calltree import CallTree
from repro.perf.metrics import MetricsTimeline
from repro.perf.trace import Tracer
from repro.sim.fluid import Fidelity
from repro.sim.resources import channel_health
from repro.storage.lustre import LustreConfig, LustreFileSystem, LustreServers
from repro.storage.xfs import XFSConfig, XFSFileSystem
from repro.workflow import emulator, streaming, topology
from repro.workflow.spec import System, WorkflowSpec

if TYPE_CHECKING:
    from repro.perf.thicket import Thicket

__all__ = ["WorkflowResult", "run_workflow", "run_repetitions"]


@dataclass
class WorkflowResult:
    """Instrumented outcome of one workflow run."""

    spec: WorkflowSpec
    seed: int
    makespan: float
    producer_trees: List[CallTree]
    consumer_trees: List[CallTree]
    #: populated when run_workflow(..., trace=True): the full timeline
    tracer: Optional[Tracer] = None
    #: populated when run_workflow(..., metrics=True): substrate telemetry
    metrics: Optional[MetricsTimeline] = None
    #: system-level counters of the run (network transfers, bytes, ...)
    system_stats: Dict[str, float] = field(default_factory=dict)
    #: invariant violations recorded by a non-fatal checker (fatal
    #: checkers raise instead; clean runs leave this empty)
    invariant_violations: List[str] = field(default_factory=list)
    #: simulation tier the run used ("exact" / "hybrid" / "fluid"); the
    #: numeric ordinal is also in ``system_stats["fidelity"]``
    fidelity: str = "exact"

    # -- the paper's metrics ------------------------------------------------------
    def _per_frame(self, trees: List[CallTree], category: str) -> float:
        """Mean per-frame seconds of a category across processes."""
        if not trees:
            return 0.0
        totals = [t.total_by_category(category) for t in trees]
        return _mean(totals) / self.spec.frames

    @property
    def production_movement(self) -> float:
        """Mean data-movement seconds per produced frame."""
        return self._per_frame(self.producer_trees, Category.MOVEMENT)

    @property
    def production_idle(self) -> float:
        """Mean idle (synchronization) seconds per produced frame."""
        return self._per_frame(self.producer_trees, Category.IDLE)

    @property
    def production_time(self) -> float:
        """Movement + idle per produced frame (the paper's bar height)."""
        return self.production_movement + self.production_idle

    @property
    def consumption_movement(self) -> float:
        """Mean data-movement seconds per consumed frame."""
        return self._per_frame(self.consumer_trees, Category.MOVEMENT)

    @property
    def consumption_idle(self) -> float:
        """Mean idle (synchronization) seconds per consumed frame."""
        return self._per_frame(self.consumer_trees, Category.IDLE)

    @property
    def consumption_time(self) -> float:
        """Movement + idle per consumed frame."""
        return self.consumption_movement + self.consumption_idle

    def thicket(self, **extra_tags) -> Thicket:
        """All trees of this run as a Thicket ensemble."""
        from repro.perf.thicket import Thicket

        ensemble = Thicket()
        for i, tree in enumerate(self.producer_trees):
            ensemble.add(
                tree, role="producer", pair=i, seed=self.seed,
                system=self.spec.system.value, model=self.spec.model.name,
                stride=self.spec.stride, pairs=self.spec.pairs, **extra_tags,
            )
        for i, tree in enumerate(self.consumer_trees):
            ensemble.add(
                tree, role="consumer", pair=i, seed=self.seed,
                system=self.spec.system.value, model=self.spec.model.name,
                stride=self.spec.stride, pairs=self.spec.pairs, **extra_tags,
            )
        return ensemble


def _mean(values: List[float]) -> float:
    """``float(np.mean(values))``, bit for bit, without numpy.

    The paper's metrics were numpy means. Summing in numpy's order (its
    add-reduction starts from 0.0 and sums pairwise) keeps every result
    and fingerprint identical to them; a plain ``sum`` rounds differently.
    """
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def _pairwise_sum(values: List[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of ``values[lo:lo + n]``: plain below 8
    values, 8 interleaved accumulators up to 128, halves above."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += values[i]
        return res
    if n <= 128:
        r = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            res += values[i]
        return res
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, lo, half)
            + _pairwise_sum(values, lo + half, n - half))


def _default_event_budget(spec: WorkflowSpec) -> int:
    """Stall-watchdog event budget scaled to the workload size.

    A healthy run dispatches a few hundred events per frame per pair;
    20k leaves two orders of magnitude of headroom for retry storms and
    degraded windows while still tripping long before a spin becomes a
    multi-minute hang. For non-pairwise topologies the wider side of the
    graph (``max(producers, consumers)``) plays the role of ``pairs``.
    """
    span = max(spec.pairs, spec.n_producers, spec.n_consumers)
    return 1_000_000 + 20_000 * spec.frames * span


def run_workflow(
    spec: WorkflowSpec,
    seed: int = 0,
    jitter_cv: float = 0.0,
    compute_cv: Optional[float] = None,
    dyad_config: Optional[DyadConfig] = None,
    xfs_config: Optional[XFSConfig] = None,
    lustre_config: Optional[LustreConfig] = None,
    trace: bool = False,
    metrics: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    invariants: Optional[InvariantConfig] = None,
    fidelity: str = "exact",
) -> WorkflowResult:
    """Run one workflow configuration on a fresh simulated cluster.

    ``jitter_cv`` controls device-time jitter; ``compute_cv`` (defaulting
    to ``jitter_cv``) controls MD/analytics sleep jitter, which
    decorrelates the ensemble's otherwise perfectly lockstep pairs.
    With ``trace=True`` the result additionally carries a
    :class:`~repro.perf.trace.Tracer` with the full region timeline
    (Chrome-trace exportable). With ``metrics=True`` it carries a
    :class:`~repro.perf.metrics.MetricsTimeline` with every substrate's
    utilization series (see ``docs/observability.md``); telemetry is pure
    observation — results are bit-identical with it on or off.

    ``fault_plan`` injects scheduled/probabilistic faults (see
    :mod:`repro.faults`) and switches the DES loop to the guarded variant:
    a run whose recovery deadlocks or spins raises
    :class:`~repro.errors.StallError` naming the stuck processes instead
    of hanging or returning silently-incomplete metrics.

    ``invariants`` configures the run's
    :class:`~repro.invariants.InvariantChecker` (default: enabled and
    fatal). The checker is pure bookkeeping — it adds no simulated time
    and clean-run results are bit-identical with it on or off.

    ``fidelity`` selects the simulation tier (``exact`` / ``hybrid`` /
    ``fluid``, see :class:`repro.sim.fluid.Fidelity`): ``exact`` keeps
    bit-reproducible per-channel timelines; the others delegate bulk byte
    movement to a flow-level solver within the tolerances documented in
    ``docs/performance.md``.
    """
    tier = Fidelity.coerce(fidelity)
    cluster = corona(nodes=spec.nodes_required, seed=seed, jitter_cv=jitter_cv,
                     fidelity=tier.value)
    env = cluster.env
    checker = InvariantChecker(env, invariants)
    compute = emulator.ComputeModel(
        cluster.rng, jitter_cv if compute_cv is None else compute_cv
    )
    # a C-level read of the simulation clock: annotation reads it twice
    # per region
    clock = functools.partial(getattr, env, "_now")
    tracer = Tracer(clock=clock) if trace else None
    timeline = MetricsTimeline(clock=clock) if metrics else None
    caliper = Caliper(clock=clock)
    annotate = tracer.annotator if tracer else caliper.annotator
    producer_anns = [
        annotate(f"producer{p:04d}") for p in range(spec.n_producers)
    ]
    consumer_anns = [
        annotate(f"consumer{p:04d}") for p in range(spec.n_consumers)
    ]
    # claim one GPU per process, as the paper's placement does
    for n in spec.producer_nodes() + spec.consumer_nodes():
        cluster.node(n).claim_gpu()

    runtime = None
    servers = None
    fs = None
    if spec.system is System.DYAD:
        config = dyad_config
        if fault_plan is not None and fault_plan.transfer_fault_rate > 0.0:
            # Merge the plan's probabilistic transfer faults into the DYAD
            # config (the plan wins; an explicit config fault_rate of the
            # same value is a no-op replace and keys identically).
            config = dataclasses.replace(
                config or DyadConfig(),
                fault_rate=fault_plan.transfer_fault_rate,
            )
        runtime = DyadRuntime(cluster, config=config)
    elif spec.system is System.XFS:
        fs = XFSFileSystem(cluster.node(0), config=xfs_config)
        fs.makedirs("/data")
    elif spec.system is System.LUSTRE:
        servers = LustreServers(env, cluster.fabric, lustre_config, cluster.rng)
        fs = LustreFileSystem(servers)
        fs.makedirs("/data")
    else:  # pragma: no cover - enum is exhaustive
        raise WorkflowError(f"unknown system {spec.system!r}")

    graph = topology.spawn_topology(
        env, spec, cluster, producer_anns, consumer_anns, compute,
        checker=checker, runtime=runtime, fs=fs,
        liveness_horizon=checker.config.liveness_horizon,
    )
    processes = graph.processes
    # one StreamChannel per edge under the streaming sync modes, else []
    edges = graph.channels

    if timeline is not None:
        # Attach probes after every substrate exists but before the first
        # event runs; attachment only registers gauges, it never schedules.
        cluster.attach_metrics(timeline)
        if runtime is not None:
            runtime.attach_metrics(timeline)
        if servers is not None:
            servers.attach_metrics(timeline)

    ann_by_role: Dict[str, object] = {}
    for p, ann in enumerate(producer_anns):
        ann_by_role[f"producer{p}"] = ann
    for p, ann in enumerate(consumer_anns):
        ann_by_role[f"consumer{p}"] = ann

    def _stuck_detail() -> List[str]:
        """Describe each stuck process by the last event it completed."""
        parts = []
        for role, proc in processes:
            if not proc.is_alive:
                continue
            last = getattr(ann_by_role.get(role), "last_completed", None)
            if last is not None:
                parts.append(
                    f"{role} (last completed {last[0]!r} at t={last[1]:.6g}s)"
                )
            else:
                parts.append(f"{role} (completed no events)")
        return parts

    injector = None
    if fault_plan is None:
        env.run()
        if edges:
            # Streaming can deadlock without any fault (a mis-tuned window
            # against a consumer that never returns a credit), and run()
            # silently drains the heap in that case. Name the flow-control
            # cycle — who holds which credit, which watch is armed —
            # instead of returning a short makespan.
            streaming.raise_if_stalled(
                env, processes, edges, "fault-free run drained the heap",
            )
    else:
        from repro.faults.inject import FaultInjector

        injector = FaultInjector(
            fault_plan, cluster, dyad=runtime, lustre=servers, fs=fs,
            metrics=timeline, streams=edges,
            brokers=[graph.broker] if graph.broker is not None else None,
        )
        injector.start()
        guard_detail = None
        if edges:
            guard_detail = lambda: (  # noqa: E731 - one-shot diagnosis hook
                "window state: " + streaming.flow_occupancy(edges)
            )
        try:
            env.run_guarded(
                max_events=fault_plan.max_events or _default_event_budget(spec),
                max_time=fault_plan.max_time,
                detail=guard_detail,
            )
        except StallError as err:
            # Budget/horizon exhausted: name what each stuck process was
            # last seen finishing so a shrunk chaos repro is readable.
            detail = _stuck_detail()
            if detail:
                raise StallError(
                    f"{err} — stuck: {'; '.join(detail)}"
                ) from None
            raise
        # The guarded loop returning is necessary but not sufficient: a
        # recovery deadlock (e.g. a consumer parked on a link that never
        # came back) drains the heap with processes still waiting, which
        # run() would silently accept and report as a short makespan.
        stuck = _stuck_detail()
        if stuck:
            flow = ""
            if edges:
                flow = " — window state: " + streaming.flow_occupancy(edges)
            raise StallError(
                f"workflow ended at t={env.now:.6g}s with "
                f"{len(stuck)} process(es) still waiting: "
                f"{'; '.join(stuck)} — the fault plan's recovery never "
                f"completed{flow}"
            )
        # Recovery correctness: every frame must have arrived despite the
        # injected faults (the retry loop re-requests lost frames).
        errors = graph.recovery_errors()
        if errors:
            raise WorkflowError(
                "; ".join(errors) + " — recovery accounting is inconsistent"
            )
    # End-of-run invariants: no leaked locks or in-flight flows, and every
    # consumer drained its full frame sequence.
    channels = cluster.channels()
    if servers is not None:
        channels.extend(servers.channels())
    lock_tables = []
    if fs is not None:
        lock_tables.append(fs.locks)
    if runtime is not None:
        lock_tables.extend(
            s.staging.locks for s in runtime.services.values()
        )
    checker.check_drain(lock_tables, channels)
    if edges:
        # Flow-control drain: one credit per frame per edge, all home, no
        # armed watches, nothing published-but-undelivered, no deferred
        # credit returns.
        checker.check_stream_drain(edges, spec.frames)
    graph.check_complete(checker)
    # Each part of the run reports its own counters; kernel health over
    # every fluid-flow channel makes a kernel-bench regression (wake-up
    # churn, re-schedule storms) diagnosable from experiment output alone.
    system_stats = channel_health(channels)
    for part in (cluster, checker, graph, runtime, injector):
        if part is not None:
            system_stats.update(part.stats())
    return WorkflowResult(
        spec=spec,
        seed=seed,
        makespan=env.now,
        producer_trees=[ann.finish() for ann in producer_anns],
        consumer_trees=[ann.finish() for ann in consumer_anns],
        tracer=tracer,
        metrics=timeline,
        system_stats=system_stats,
        invariant_violations=list(checker.violations),
        fidelity=tier.value,
    )


def run_repetitions(
    spec: WorkflowSpec,
    runs: int = 10,
    base_seed: int = 0,
    jitter_cv: float = 0.05,
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    invariants: Optional[InvariantConfig] = None,
    fidelity: Optional[str] = None,
    **system_configs,
) -> List[WorkflowResult]:
    """Run ``runs`` repetitions with distinct seeds (paper: 10 runs).

    Each repetition is a pure function of ``(spec, seed, jitter_cv,
    fault_plan, system_configs, fidelity)``, so the set fans out across ``jobs``
    worker processes (default: ``REPRO_JOBS`` or the enclosing
    :func:`repro.experiments.parallel.campaign` scope, else serial) and
    can be memoized in the on-disk result cache (``use_cache``). Results
    are ordered by repetition index and bit-identical to a serial,
    uncached run.
    """
    if runs < 1:
        raise WorkflowError(f"runs must be >= 1, got {runs}")
    # Imported lazily: repro.experiments depends on this module at import
    # time; at call time both are fully initialized.
    from repro.experiments.parallel import repetition_tasks, run_campaign

    tasks = repetition_tasks(
        spec, runs, base_seed=base_seed, jitter_cv=jitter_cv,
        fault_plan=fault_plan, invariants=invariants, fidelity=fidelity,
        **system_configs,
    )
    return run_campaign(
        tasks, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir
    )
