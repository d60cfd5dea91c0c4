"""Topology — fan-out / fan-in / work-stealing grids on every system.

The paper measures 1:1 producer/consumer pairs; its future-work section
calls for "a more diverse set of workflows". This experiment sweeps the
three non-pairwise :class:`~repro.workflow.spec.Topology` shapes through
the full workflow layer:

- **fan-out (1→M)** — the headline read-amplification comparison: M
  DYAD consumers of a frame on one node trigger *one* RDMA pull (the
  shared-read staging tier single-flights the cache miss; the other
  M-1 consumers take cache hits), while every Lustre consumer cold-reads
  the frame from the OSS complex — M transfers per frame.
- **fan-in (N→1)** — one reduce consumer folds N streams per frame;
  drain adds the aggregation-completeness invariant.
- **pool (N→M)** — M workers steal ``(stream, frame)`` tasks from a
  shared queue; drain adds the pool-wide exactly-once invariant.

Each shape runs for DYAD / XFS / Lustre under coarse, polling, and
windowed-streaming sync (DYAD normalizes polling to coarse, so its
manual column is the single canonical spelling), at the ``exact`` and
``hybrid`` fidelity tiers. Every cell runs with the invariant checker
armed and fatal, and the run *gates* like the streaming sweep: recorded
violations, credit-ledger imbalances, or a broken shared-read bound
(DYAD pulling more than one copy of a frame per consumer node) land in
``TopologyReport.failures`` and fail the CLI invocation.

Cells aggregate with :func:`~repro.experiments.common.median_run` where
one representative run's counters are reported — never run 0's counters
under another run's movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import (
    Cell,
    FigureResult,
    default_frames,
    default_runs,
    measure,
    median_run,
)
from repro.workflow.emulator import READ_REGION
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

__all__ = ["FIDELITIES", "TopologyReport", "run", "main"]

#: Simulation tiers each grid runs under.
FIDELITIES: Tuple[str, ...] = ("exact", "hybrid")

#: In-flight window for the windowed streaming cells.
WINDOW = 4

#: Producer-side width of the work-stealing pool cells.
POOL_PRODUCERS = 2

#: Manual + streaming sync modes per system. DYAD's polling spelling
#: normalizes to coarse (one canonical automatic-sync column).
_SYNCS = {
    System.DYAD: (SyncMode.COARSE, SyncMode.WINDOWED),
    System.XFS: (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED),
    System.LUSTRE: (SyncMode.COARSE, SyncMode.POLLING, SyncMode.WINDOWED),
}


def _xs(system: System, quick: bool, pool: bool) -> Tuple[int, ...]:
    """Swept graph widths. Split systems reach the acceptance fan-out of
    8; single-node XFS is capped by the 8 procs/node budget (1 producer
    + 7 consumers, or 2 pool producers + 6 workers)."""
    if pool:
        return ((2, 6) if quick else (2, 4, 6)) if system is System.XFS \
            else ((2, 8) if quick else (2, 4, 8))
    if system is System.XFS:
        return (2, 7) if quick else (2, 4, 7)
    return (2, 8) if quick else (2, 4, 8)


def _placement(system: System) -> Placement:
    return (Placement.SINGLE_NODE if system is System.XFS
            else Placement.SPLIT)


def _spec(topology: Topology, system: System, sync: SyncMode, x: int,
          frames: int) -> WorkflowSpec:
    sizes = {"consumers": x} if topology is Topology.FANOUT else \
        {"producers": x} if topology is Topology.FANIN else \
        {"producers": POOL_PRODUCERS, "consumers": x}
    extras = {"window": WINDOW} if sync.is_streaming else {}
    return WorkflowSpec(
        system=system, topology=topology, frames=frames, pairs=1,
        placement=_placement(system), sync_mode=sync, **sizes, **extras,
    )


@dataclass
class TopologyReport:
    """The full sweep: one :class:`FigureResult` per shape and tier."""

    figures: List[FigureResult] = field(default_factory=list)
    #: fan-out read-amplification accounting at the top swept width,
    #: keyed by system label (exact tier, manual sync)
    amplification: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: gate trips: violations, ledger imbalances, broken shared-read bound
    failures: List[str] = field(default_factory=list)
    runs: int = 0
    frames: int = 0

    def render(self) -> str:
        """Every figure's report, the amplification note, the gate line."""
        parts = [fig.render() for fig in self.figures]
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


def _edges(spec: WorkflowSpec) -> int:
    """Producer→consumer edge count (credit-ledger expectation)."""
    return (spec.consumers if spec.topology is Topology.FANOUT
            else spec.streams)


def _gate(report: TopologyReport, where: str, spec: WorkflowSpec,
          results) -> None:
    """Fold one cell's runs into the gate checks."""
    for r in results:
        stats = r.system_stats
        if r.invariant_violations:
            report.failures.append(
                f"{where}: {len(r.invariant_violations)} invariant "
                f"violation(s): {r.invariant_violations[0]}"
            )
        if spec.is_streaming:
            issued = stats.get("stream_credits_issued", 0.0)
            returned = stats.get("stream_credits_returned", 0.0)
            if issued != returned:
                report.failures.append(
                    f"{where}: credit ledger imbalanced "
                    f"({issued:.0f} issued != {returned:.0f} returned)"
                )
            expected = float(_edges(spec) * spec.frames)
            if issued != expected:
                report.failures.append(
                    f"{where}: {issued:.0f} credits issued across "
                    f"{_edges(spec)} edge(s) for {spec.frames} frames "
                    f"(expected {expected:.0f})"
                )
        if (spec.system is System.DYAD
                and spec.topology is Topology.FANOUT):
            # Shared-read bound: at most one pull per frame per
            # consumer node (the single-flight tier's whole point).
            nodes = len(set(spec.consumer_nodes()))
            bound = float(spec.frames * nodes)
            pulls = stats.get("fabric_rdma_transfers", 0.0)
            if pulls > bound:
                report.failures.append(
                    f"{where}: {pulls:.0f} RDMA pulls for {spec.frames} "
                    f"frames on {nodes} consumer node(s) — shared-read "
                    f"coalescing failed (bound {bound:.0f})"
                )


def _account_amplification(report: TopologyReport, spec: WorkflowSpec,
                           results) -> None:
    """Record the fan-out amplification counters of one top-width cell,
    from the median-movement run (per-run-consistent counters)."""
    r = median_run(results, key=lambda res: res.consumption_movement)
    stats = r.system_stats
    if spec.system is System.DYAD:
        report.amplification[spec.system.value] = {
            "fanout": float(spec.consumers),
            "frames": float(spec.frames),
            "rdma_transfers": stats.get("fabric_rdma_transfers", 0.0),
            "cache_hits": stats.get("dyad_cache_hits", 0.0),
            "shared_read_waits": stats.get("dyad_shared_read_waits", 0.0),
        }
    else:
        reads = sum(
            tree.find(READ_REGION).count
            for tree in r.consumer_trees
            if tree.find(READ_REGION) is not None
        )
        report.amplification[spec.system.value] = {
            "fanout": float(spec.consumers),
            "frames": float(spec.frames),
            "cold_reads": float(reads),
        }


_SHAPES = (
    (Topology.FANOUT, "Topology-A", "fan-out 1->M", "consumers"),
    (Topology.FANIN, "Topology-B", "fan-in N->1 reduce", "producers"),
    (Topology.POOL, "Topology-C", "work-stealing pool "
     f"({POOL_PRODUCERS} producers -> M workers)", "workers"),
)


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> TopologyReport:
    """Sweep shape x system x sync x fidelity; gate on the invariants."""
    runs = default_runs(1 if quick else runs)
    frames = default_frames(8 if quick else min(default_frames(frames), 32))
    report = TopologyReport(runs=runs, frames=frames)
    for topology, figure_id, title, x_name in _SHAPES:
        for fidelity in FIDELITIES:
            cells: Dict[Tuple[object, str], Cell] = {}
            xs: List[object] = []
            systems: List[str] = []
            for system in (System.DYAD, System.XFS, System.LUSTRE):
                pool = topology is Topology.POOL
                for x in _xs(system, quick, pool):
                    if x not in xs:
                        xs.append(x)
                    for sync in _SYNCS[system]:
                        spec = _spec(topology, system, sync, x, frames)
                        label = f"{system.value}/{sync.value}"
                        if label not in systems:
                            systems.append(label)
                        cell, results = measure(spec, runs=runs,
                                                fidelity=fidelity)
                        cells[(x, label)] = cell
                        where = f"{figure_id}/{fidelity} {label} @ {x}"
                        _gate(report, where, spec, results)
                        if (topology is Topology.FANOUT
                                and fidelity == "exact"
                                and sync is SyncMode.COARSE
                                and system is not System.XFS
                                and x == max(_xs(system, quick, pool))):
                            _account_amplification(report, spec, results)
            fig = FigureResult(
                figure_id=f"{figure_id} [{fidelity}]",
                title=f"{title}, {fidelity} tier",
                x_name=x_name,
                xs=sorted(xs),
                systems=systems,
                cells=cells,
                runs=runs,
                frames=frames,
            )
            fig.notes = [
                "xfs runs single-node under the 8 procs/node cap; "
                "dyad/lustre run split; windowed cells use W="
                f"{WINDOW}; checker fatal",
            ]
            report.figures.append(fig)
    return report


def main(quick: bool = False) -> TopologyReport:
    """Run, print, and gate the sweep (raises on violations)."""
    from repro.errors import CampaignError

    report = run(quick=quick)
    print(report.render())
    if report.failures:
        raise CampaignError(
            f"topology sweep failed: {len(report.failures)} cell(s) "
            "tripped the gate"
        )
    return report


if __name__ == "__main__":
    main()
