"""Scenarios — the paper grids under streaming sync, and N:M topologies.

Not a paper figure: one extension sweep over a single table of figure
grids, each cell one :class:`~repro.workflow.spec.WorkflowSpec`.
``Streaming-*`` re-runs the fig5/fig7/fig8 and stride grids under the
``windowed`` (W = 4), ``pubsub`` and ``nbuffer`` transports of
:mod:`repro.workflow.streaming`. ``Topology-A/B/C`` sweep fan-out 1→M
(M DYAD consumers on one node trigger *one* RDMA pull per frame; every
Lustre consumer cold-reads it), fan-in N→1 and the N→M work-stealing
pool for DYAD / XFS / Lustre under coarse, polling and windowed sync.

Every grid runs at the ``exact`` and ``hybrid`` tiers with the invariant
checker armed and **fatal**, so a leaked credit, an edge issuing other
than one credit per frame, or a broken drain invariant raises instead of
producing a number. The one gate left to the sweep is DYAD fan-out's
shared-read bound — at most one RDMA pull per frame per consumer node,
which holds only fault-free; a broken bound lands in
``ScenarioReport.failures`` and fails the CLI invocation. Amplification
counters come from :func:`~repro.experiments.common.median_run`, one
representative run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    JITTER_CV,
    Cell,
    FigureResult,
    default_frames,
    default_runs,
    median_run,
)
from repro.experiments.figures import Part
from repro.experiments.parallel import repetition_tasks
from repro.md.models import JAC, MODELS
from repro.workflow.emulator import READ_REGION
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

__all__ = ["MODES", "FIDELITIES", "WINDOW", "ScenarioReport", "grids",
           "plan", "run"]

#: The three streaming transports, swept for every Streaming-* point.
MODES: Tuple[SyncMode, ...] = (
    SyncMode.WINDOWED, SyncMode.PUBSUB, SyncMode.NBUFFER,
)

#: Simulation tiers each grid runs under.
FIDELITIES: Tuple[str, ...] = ("exact", "hybrid")

#: In-flight window of every windowed cell (> 2, so it is
#: distinguishable from nbuffer); pubsub/nbuffer use W = 2.
WINDOW = 4

#: Producer-side width of the work-stealing pool cells.
POOL_PRODUCERS = 2

#: Topology sync columns per system. DYAD's polling spelling normalizes
#: to coarse (one canonical automatic-sync column).
_SYNCS = {
    System.DYAD: (SyncMode.COARSE, SyncMode.WINDOWED),
    System.XFS: (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED),
    System.LUSTRE: (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED),
}

#: One grid cell: x value, column label, and the spec it measures.
GridCell = Tuple[object, str, WorkflowSpec]
#: One figure: (figure_id, title, x_name, cells).
Grid = Tuple[str, str, str, List[GridCell]]


def _streamed(points, systems, frames: int) -> List[GridCell]:
    """Every ``(x, spec kwargs)`` point x system under every transport."""
    return [
        (x, f"{system.value}/{mode.value}",
         WorkflowSpec(system=system, frames=frames, sync_mode=mode,
                      window=WINDOW if mode is SyncMode.WINDOWED else 2,
                      **kwargs))
        for x, kwargs in points for system in systems for mode in MODES
    ]


def _widths(topology: Topology, system: System,
            quick: bool) -> Tuple[int, ...]:
    """Swept graph widths. Split systems reach the acceptance fan-out of
    8; single-node XFS is capped by the 8 procs/node budget (1 producer
    + 7 consumers, or 2 pool producers + 6 workers)."""
    if topology is Topology.POOL:
        return ((2, 6) if quick else (2, 4, 6)) if system is System.XFS \
            else ((2, 8) if quick else (2, 4, 8))
    if system is System.XFS:
        return (2, 7) if quick else (2, 4, 7)
    return (2, 8) if quick else (2, 4, 8)


def _shaped(topology: Topology, quick: bool, frames: int) -> List[GridCell]:
    """Every width x system x sync column of one non-pairwise shape,
    widths ascending (so each system's top width comes last)."""
    systems = (System.DYAD, System.XFS, System.LUSTRE)
    widths = {system: _widths(topology, system, quick) for system in systems}
    cells = []
    for x in sorted(set().union(*widths.values())):
        sizes = {"consumers": x} if topology is Topology.FANOUT else \
            {"producers": x} if topology is Topology.FANIN else \
            {"producers": POOL_PRODUCERS, "consumers": x}
        for system in systems:
            if x not in widths[system]:
                continue
            placement = (Placement.SINGLE_NODE if system is System.XFS
                         else Placement.SPLIT)
            for sync in _SYNCS[system]:
                extras = {"window": WINDOW} if sync.is_streaming else {}
                spec = WorkflowSpec(
                    system=system, topology=topology, frames=frames,
                    pairs=1, placement=placement, sync_mode=sync,
                    **sizes, **extras,
                )
                cells.append((x, f"{system.value}/{sync.value}", spec))
    return cells


def grids(quick: bool, frames: Optional[int] = None) -> List[Grid]:
    """The figure table. Streaming sizes are scaled down from the paper
    figures — three transports x two tiers multiply every point six-fold
    and fig5/fig7/fig8 already cover the full scaling curves; topology
    runs cap at 32 frames."""
    stream_frames = default_frames(frames, 8 if quick else None)
    shape_frames = min(default_frames(frames, 8 if quick else None), 32)
    fig5_pairs = (1, 2) if quick else (1, 2, 4)
    # one split grid subsumes fig6's small two-node ensembles and
    # fig7's multi-node scaling foot
    fig7_pairs = (2, 8) if quick else (2, 8, 32)
    fig8_models = (MODELS[0], MODELS[-1]) if quick else MODELS
    fig8_pairs = 4 if quick else 16
    strides = (1, 10) if quick else (1, 5, 10, 50)
    stride_pairs = 4 if quick else 16
    split = (System.DYAD, System.LUSTRE)
    streaming = " — streaming transports"
    return [
        ("Streaming-5", "single node, JAC (XFS vs DYAD)" + streaming,
         "pairs",
         _streamed([(pairs, dict(model=JAC, pairs=pairs,
                                 placement=Placement.SINGLE_NODE))
                    for pairs in fig5_pairs],
                   (System.XFS, System.DYAD), stream_frames)),
        ("Streaming-6/7", "two nodes split, JAC (Lustre vs DYAD)"
         + streaming, "pairs",
         _streamed([(pairs, dict(model=JAC, pairs=pairs,
                                 placement=Placement.SPLIT))
                    for pairs in fig7_pairs], split, stream_frames)),
        ("Streaming-8", f"model scaling, {fig8_pairs} pairs "
         "(Lustre vs DYAD)" + streaming, "model",
         _streamed([(m.name, dict(model=m, pairs=fig8_pairs,
                                  placement=Placement.SPLIT))
                    for m in fig8_models], split, stream_frames)),
        ("Streaming-11", f"JAC stride sweep, {stride_pairs} pairs "
         "(Lustre vs DYAD)" + streaming, "stride",
         _streamed([(stride, dict(model=JAC, stride=stride,
                                  pairs=stride_pairs,
                                  placement=Placement.SPLIT))
                    for stride in strides], split, stream_frames)),
        ("Topology-A", "fan-out 1->M", "consumers",
         _shaped(Topology.FANOUT, quick, shape_frames)),
        ("Topology-B", "fan-in N->1 reduce", "producers",
         _shaped(Topology.FANIN, quick, shape_frames)),
        ("Topology-C", "work-stealing pool "
         f"({POOL_PRODUCERS} producers -> M workers)", "workers",
         _shaped(Topology.POOL, quick, shape_frames)),
    ]


_FLOW_KEYS = ("credits_issued", "credits_returned", "peak_in_flight",
              "producer_blocks", "blocked_time", "lost_wakeups",
              "spurious_wakeups")


@dataclass
class ScenarioReport:
    """The full sweep: one :class:`FigureResult` per grid and tier."""

    figures: List[FigureResult] = field(default_factory=list)
    #: per-mode flow-control totals across the pairwise streaming cells
    #: (credits, blocks, wake-ups), keyed by mode value
    flow_stats: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {
            mode.value: dict.fromkeys(_FLOW_KEYS, 0.0) for mode in MODES
        })
    #: fan-out read-amplification accounting at the top swept width,
    #: keyed by system label (exact tier, manual sync)
    amplification: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: gate trips: a broken shared-read bound
    failures: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Figures, flow-control totals, amplification, the gate line."""
        parts = [fig.render() for fig in self.figures]
        lines = ["=== streaming flow-control totals (pairwise grids) ==="]
        for mode, stats in self.flow_stats.items():
            lines.append(
                f"{mode:8s} credits {stats['credits_issued']:.0f} issued / "
                f"{stats['credits_returned']:.0f} returned, "
                f"peak in-flight {stats['peak_in_flight']:.0f}, "
                f"{stats['producer_blocks']:.0f} producer block(s) "
                f"({stats['blocked_time']:.4f}s), "
                f"{stats['lost_wakeups']:.0f} lost / "
                f"{stats['spurious_wakeups']:.0f} spurious wake-up(s)"
            )
        parts.append("\n".join(lines))
        if self.amplification:
            lines = ["=== fan-out read amplification (exact tier, manual "
                     "sync, top width) ==="]
            for label, stats in sorted(self.amplification.items()):
                if "rdma_transfers" in stats:
                    lines.append(
                        f"{label}: fan-out {stats['fanout']:.0f} x "
                        f"{stats['frames']:.0f} frames -> "
                        f"{stats['rdma_transfers']:.0f} RDMA pull(s), "
                        f"{stats['cache_hits']:.0f} staging-cache hit(s), "
                        f"{stats['shared_read_waits']:.0f} single-flight "
                        f"wait(s) — one pull per frame per node"
                    )
                else:
                    lines.append(
                        f"{label}: fan-out {stats['fanout']:.0f} x "
                        f"{stats['frames']:.0f} frames -> "
                        f"{stats['cold_reads']:.0f} cold read(s) from the "
                        f"server complex ({stats['fanout']:.0f}x read "
                        f"amplification)"
                    )
            parts.append("\n".join(lines))
        if self.failures:
            parts.append("FAILURES:\n" + "\n".join(self.failures))
        else:
            parts.append("gate: zero invariant violations, credit ledgers "
                         "balanced, shared-read bound held in every cell")
        return "\n\n".join(parts)


def _account(report: ScenarioReport, where: str, spec: WorkflowSpec,
             fidelity: str, results) -> None:
    """Fold one cell's runs into the flow totals, the amplification
    note, and the shared-read gate."""
    if spec.topology is Topology.PAIRWISE and spec.is_streaming:
        totals = report.flow_stats[spec.sync_mode.value]
        for r in results:
            for key in _FLOW_KEYS:
                value = r.system_stats.get(f"stream_{key}", 0.0)
                if key == "peak_in_flight":
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
    if spec.topology is not Topology.FANOUT:
        return
    if spec.system is System.DYAD:
        # At most one pull per frame per consumer node: the
        # single-flight staging tier's whole point.
        nodes = len(set(spec.consumer_nodes()))
        bound = float(spec.frames * nodes)
        for r in results:
            pulls = r.system_stats.get("fabric_rdma_transfers", 0.0)
            if pulls > bound:
                report.failures.append(
                    f"{where}: {pulls:.0f} RDMA pulls for {spec.frames} "
                    f"frames on {nodes} consumer node(s) — shared-read "
                    f"coalescing failed (bound {bound:.0f})"
                )
    if (fidelity == "exact" and spec.sync_mode is SyncMode.COARSE
            and spec.system is not System.XFS):
        # Widths ascend, so the top width's cell is recorded last.
        report.amplification[spec.system.value] = _amplification(
            spec, results)


def _amplification(spec: WorkflowSpec, results) -> Dict[str, float]:
    """Fan-out amplification counters of one cell, from the
    median-movement run (per-run-consistent counters)."""
    r = median_run(results, key=lambda res: res.consumption_movement)
    stats = r.system_stats
    counts = {"fanout": float(spec.consumers), "frames": float(spec.frames)}
    if spec.system is System.DYAD:
        counts.update(
            rdma_transfers=stats.get("fabric_rdma_transfers", 0.0),
            cache_hits=stats.get("dyad_cache_hits", 0.0),
            shared_read_waits=stats.get("dyad_shared_read_waits", 0.0),
        )
    else:
        counts["cold_reads"] = float(sum(
            tree.find(READ_REGION).count
            for tree in r.consumer_trees
            if tree.find(READ_REGION) is not None
        ))
    return counts


def plan(runs: Optional[int] = None, frames: Optional[int] = None,
         quick: bool = False) -> Part:
    """Every grid cell at every fidelity tier, as a part of a plan;
    its result carries the sweep's gate."""
    runs = default_runs(runs, 1 if quick else None)
    table = grids(quick, frames)
    tasks = {
        (figure_id, fidelity, x, label): repetition_tasks(
            spec, runs, jitter_cv=JITTER_CV, fidelity=fidelity)
        for figure_id, _, _, cells in table
        for fidelity in FIDELITIES
        for x, label, spec in cells
    }

    def build(raw) -> ScenarioReport:
        report = ScenarioReport()
        for figure_id, title, x_name, cells in table:
            for fidelity in FIDELITIES:
                fig = FigureResult(
                    figure_id=f"{figure_id} [{fidelity}]",
                    title=f"{title}, {fidelity} tier",
                    x_name=x_name, xs=[], systems=[], cells={},
                    runs=runs, frames=cells[0][2].frames,
                    notes=[f"windowed cells use W={WINDOW}, pubsub/nbuffer "
                           "W=2; xfs topology cells run single-node under "
                           "the 8 procs/node cap; checker fatal"],
                )
                for x, label, spec in cells:
                    if x not in fig.xs:
                        fig.xs.append(x)
                    if label not in fig.systems:
                        fig.systems.append(label)
                    results = raw[(figure_id, fidelity, x, label)]
                    fig.cells[(x, label)] = Cell.of(results)
                    _account(report, f"{figure_id}/{fidelity} {label} @ {x}",
                             spec, fidelity, results)
                report.figures.append(fig)
        return report

    return Part(tasks, build)


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> ScenarioReport:
    """Sweep every grid cell at every fidelity tier."""
    return plan(runs, frames, quick).run()
