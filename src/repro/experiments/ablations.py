"""Ablation study: which of DYAD's design choices buys what?

The paper credits DYAD's advantage to four mechanisms (its Fig. 2):
node-local staging, automatic multi-protocol synchronization, RDMA data
transfer, and global metadata management. This experiment switches the
switchable ones off one at a time — plus the synchronization alternatives
the paper describes for traditional systems — and measures the effect on
the JAC and STMV two-node workloads (16 pairs, Table II strides).

Variants
--------
``dyad``             the paper's DYAD (RDMA, flock fast path, consumer cache)
``dyad-eager``       two-sided eager messages instead of RDMA
``dyad-nocache``     no consumer-side staging (no ``dyad_cons_store``)
``dyad-fsync``       producer fsyncs every frame (durability tax)
``dyad-faulty``      5% of remote gets fail and are retried (recovery tax)
``lustre-coarse``    traditional Lustre, coarse phase barrier (the paper's)
``lustre-polling``   traditional Lustre, Pegasus-style stat() polling

The faulty variant doubles as a validity check: every run must satisfy
the recovery invariants (retries == injected faults, all frames arrive)
or :func:`run` raises instead of silently reporting corrupt numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dyad.config import DyadConfig
from repro.errors import ReproError
from repro.experiments.common import Cell, default_frames, default_runs, measure
from repro.md.models import JAC, STMV, MolecularModel
from repro.perf.report import table
from repro.units import to_msec
from repro.workflow.spec import Placement, SyncMode, System, WorkflowSpec

__all__ = ["VARIANTS", "AblationResult", "run", "main"]

PAIRS = 16

#: variant name -> (system, spec extras, dyad config)
VARIANTS = {
    "dyad": (System.DYAD, {}, DyadConfig()),
    "dyad-eager": (System.DYAD, {}, DyadConfig(transport="eager")),
    "dyad-nocache": (System.DYAD, {}, DyadConfig(cache_on_consume=False)),
    "dyad-fsync": (System.DYAD, {}, DyadConfig(fsync_on_produce=True)),
    "dyad-faulty": (System.DYAD, {},
                    DyadConfig(fault_rate=0.05, max_transfer_retries=8)),
    "lustre-coarse": (System.LUSTRE, {"sync_mode": SyncMode.COARSE}, None),
    "lustre-polling": (System.LUSTRE, {"sync_mode": SyncMode.POLLING}, None),
}


@dataclass
class AblationResult:
    """Per-variant, per-model cells plus rendering."""

    cells: Dict[str, Dict[str, Cell]]  # model -> variant -> Cell
    runs: int
    frames: int
    notes: List[str] = field(default_factory=list)

    def cell(self, model: str, variant: str) -> Cell:
        """Cell for one model and variant."""
        return self.cells[model][variant]

    def render(self) -> str:
        """Fixed-width tables per model plus the summary notes."""
        parts = [f"=== Ablations (runs={self.runs}, frames={self.frames}, "
                 f"{PAIRS} pairs, 2+ nodes) ==="]
        for model, variants in self.cells.items():
            rows = []
            base = variants["dyad"]
            for name, cell in variants.items():
                rows.append([
                    name,
                    f"{to_msec(cell.production_time):.3f}",
                    f"{to_msec(cell.consumption_movement.mean):.3f}",
                    f"{to_msec(cell.consumption_idle.mean):.3f}",
                    f"{cell.consumption_time / base.consumption_time:.2f}x",
                ])
            parts.append(table(
                ["variant", "prod total (ms)", "cons move (ms)",
                 "cons idle (ms)", "cons total vs dyad"],
                rows, title=f"-- {model} --",
            ))
        parts.extend(self.notes)
        return "\n\n".join(parts)


def _check_recovery(variant: str, model: str, spec: WorkflowSpec,
                    results) -> None:
    """Recovery invariants of a faulty variant's raw runs.

    Under ``fault_rate > 0`` the consumer counters must balance — every
    injected transport fault was retried, and every frame still arrived —
    otherwise the variant's cell is measuring a broken run and the whole
    ablation report would be quietly wrong.
    """
    for result in results:
        stats = result.system_stats
        retries = stats.get("dyad_transfer_retries", 0.0)
        faults = stats.get("dyad_transport_faults", 0.0)
        refused = stats.get("dyad_refused_gets", 0.0)
        if retries != faults + refused:
            raise ReproError(
                f"{variant}/{model} seed={result.seed}: "
                f"{retries:.0f} retries != {faults:.0f} transport faults "
                f"+ {refused:.0f} refused gets — lost or spurious retries"
            )
        arrived = stats.get("dyad_fast_hits", 0.0) + stats.get(
            "dyad_kvs_waits", 0.0
        )
        expected = float(spec.frames * spec.pairs)
        if arrived != expected:
            raise ReproError(
                f"{variant}/{model} seed={result.seed}: consumers "
                f"completed {arrived:.0f} of {expected:.0f} frames "
                "despite the run finishing"
            )


def run(runs: Optional[int] = None, frames: Optional[int] = None,
        quick: bool = False) -> AblationResult:
    """Measure every variant for JAC and STMV."""
    runs = default_runs(runs, 1 if quick else None)
    frames = default_frames(frames, 16 if quick else None)
    models = (JAC,) if quick else (JAC, STMV)
    cells: Dict[str, Dict[str, Cell]] = {}
    retry_counts: Dict[str, float] = {}
    for model in models:
        cells[model.name] = {}
        for name, (system, extras, dyad_config) in VARIANTS.items():
            spec = WorkflowSpec(
                system=system, model=model, stride=model.paper_stride,
                frames=frames, pairs=PAIRS, placement=Placement.SPLIT,
                **extras,
            )
            kwargs = {"dyad_config": dyad_config} if dyad_config else {}
            cell, raw = measure(spec, runs=runs, **kwargs)
            cells[model.name][name] = cell
            if dyad_config is not None and dyad_config.fault_rate > 0.0:
                _check_recovery(name, model.name, spec, raw)
                retry_counts[model.name] = sum(
                    r.system_stats["dyad_transfer_retries"] for r in raw
                )

    result = AblationResult(cells=cells, runs=runs, frames=frames)
    for model in models:
        row = cells[model.name]
        base = row["dyad"]
        result.notes.append(
            f"{model.name}: eager transport costs "
            f"{row['dyad-eager'].consumption_movement.mean / base.consumption_movement.mean:.2f}x "
            f"movement; dropping the consumer cache saves "
            f"{base.consumption_movement.mean / row['dyad-nocache'].consumption_movement.mean:.2f}x; "
            f"per-frame fsync costs "
            f"{row['dyad-fsync'].production_time / base.production_time:.2f}x production; "
            f"polling sync cuts Lustre idle "
            f"{row['lustre-coarse'].consumption_idle.mean / row['lustre-polling'].consumption_idle.mean:.2f}x "
            "vs the coarse barrier (at the price of stat() load), but DYAD "
            "remains "
            f"{row['lustre-polling'].consumption_time / base.consumption_time:.1f}x faster overall."
        )
        result.notes.append(
            f"{model.name}: 5% injected transfer faults cost "
            f"{row['dyad-faulty'].consumption_time / base.consumption_time:.2f}x "
            f"consumption ({retry_counts[model.name]:.0f} retries across "
            f"{runs} run(s); recovery invariants verified)"
        )
    return result


def main(quick: bool = False) -> AblationResult:
    """Run and print the ablation study."""
    result = run(quick=quick)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
