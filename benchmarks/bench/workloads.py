"""The benchmark's four workloads, generated from a seed.

Three simulation workloads are fixed grids of workflow cells; one *pass*
runs every cell once, and each pass shifts every task seed so no pass
repeats an earlier one. ``service_mixed`` is a stream of job rounds sent to
the experiment service. Inputs depend only on ``--seed`` (and the pass or
round number), never on timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.experiments.common import JITTER_CV
from repro.experiments.parallel import RunTask
from repro.md.models import JAC, MODELS, STMV
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

#: added to every task seed per pass, so passes never repeat a task
PASS_SEED_STRIDE = 100_000

_SPLIT = Placement.SPLIT
_SINGLE = Placement.SINGLE_NODE


@dataclass(frozen=True)
class Cell:
    """One workflow configuration of a simulation workload."""

    label: str
    spec: WorkflowSpec
    fidelity: str = "exact"

    @property
    def frames(self) -> int:
        """Frames produced by one run of the cell (frames x producers)."""
        return self.spec.frames * self.spec.n_producers


def _pairwise(system: System, pairs: int, frames: int, model=JAC,
              stride: Optional[int] = None, placement=_SPLIT,
              **extra) -> WorkflowSpec:
    return WorkflowSpec(system=system, model=model,
                        stride=stride or model.paper_stride, frames=frames,
                        pairs=pairs, placement=placement, **extra)


def _paper_exact() -> List[Cell]:
    # The paper's figure cells at exact fidelity, sized so one pass takes
    # a few seconds: fig5 (DYAD/XFS, one node), fig6/fig7 (DYAD/Lustre,
    # split), fig8 (four models) and fig12 (STMV frame frequency).
    cells = []
    for pairs in (1, 2, 4):
        for system in (System.DYAD, System.XFS):
            cells.append(Cell(f"fig5/{system.value}/p{pairs}",
                              _pairwise(system, pairs, 64, placement=_SINGLE)))
    for pairs in (1, 2, 4, 8, 16, 32):
        for system in (System.DYAD, System.LUSTRE):
            frames = 32 if pairs <= 8 else 16
            cells.append(Cell(f"fig7/{system.value}/p{pairs}",
                              _pairwise(system, pairs, frames)))
    for model in MODELS:
        for system in (System.DYAD, System.LUSTRE):
            cells.append(Cell(f"fig8/{system.value}/{model.name}",
                              _pairwise(system, 16, 16, model=model)))
    for stride in (1, 5, 10, 50):
        for system in (System.DYAD, System.LUSTRE):
            cells.append(Cell(f"fig12/{system.value}/s{stride}",
                              _pairwise(system, 16, 16, model=STMV,
                                        stride=stride)))
    return cells


def _scale_hybrid() -> List[Cell]:
    # Large ensembles at hybrid fidelity, where the flow solver is the
    # busiest layer. Small fig7 cells bring a run to about 100 tasks; the
    # 128-pair cell runs 8 frames to bound the pass length.
    cells = []
    for pairs in (4, 8, 16, 32, 64, 128):
        for system in (System.DYAD, System.LUSTRE):
            frames = 8 if pairs >= 128 else 16
            cells.append(Cell(f"fig7h/{system.value}/p{pairs}",
                              _pairwise(system, pairs, frames), "hybrid"))
    for producers in (8, 16, 32):
        for system in (System.DYAD, System.LUSTRE):
            spec = WorkflowSpec(system=system, model=STMV,
                                stride=STMV.paper_stride, frames=16,
                                topology=Topology.FANIN, producers=producers,
                                placement=_SPLIT)
            cells.append(Cell(f"faninh/{system.value}/n{producers}", spec,
                              "hybrid"))
    return cells


def _stream_topology() -> List[Cell]:
    # Streaming sync modes and N:M graphs at exact fidelity: credit
    # channels, KVS watches and DYAD's single-flight shared-read cache.
    cells = []
    for mode in (SyncMode.WINDOWED, SyncMode.PUBSUB, SyncMode.NBUFFER):
        extra = {"window": 4} if mode is SyncMode.WINDOWED else {}
        for system, pairs, placement in ((System.DYAD, 16, _SPLIT),
                                         (System.LUSTRE, 16, _SPLIT),
                                         (System.XFS, 4, _SINGLE)):
            cells.append(Cell(
                f"{mode.value}/{system.value}/p{pairs}",
                _pairwise(system, pairs, 32, placement=placement,
                          sync_mode=mode, **extra)))
    for system in (System.DYAD, System.LUSTRE):
        cells.append(Cell(f"fanout/{system.value}/m8", WorkflowSpec(
            system=system, model=STMV, stride=STMV.paper_stride, frames=32,
            topology=Topology.FANOUT, consumers=8, placement=_SPLIT)))
        cells.append(Cell(f"fanin/{system.value}/n16", WorkflowSpec(
            system=system, frames=16, topology=Topology.FANIN, producers=16,
            placement=_SPLIT)))
        cells.append(Cell(f"pool/{system.value}/8x8", WorkflowSpec(
            system=system, frames=16, topology=Topology.POOL, producers=8,
            consumers=8, placement=_SPLIT, sync_mode=SyncMode.PUBSUB)))
    return cells


_GRIDS = {
    "paper_exact": _paper_exact,
    "scale_hybrid": _scale_hybrid,
    "stream_topology": _stream_topology,
}


def cells(workload: str, frames: Optional[int] = None) -> List[Cell]:
    """The cells of a simulation workload (``frames`` shrinks every cell,
    for self-tests)."""
    grid = _GRIDS[workload]()
    if frames is not None:
        grid = [replace(c, spec=replace(c.spec, frames=frames)) for c in grid]
    return grid


def pass_tasks(grid: List[Cell], seed: int, pass_no: int) -> List[RunTask]:
    """One pass over ``grid``: a task per cell, positionally aligned."""
    return [
        RunTask(spec=cell.spec,
                seed=seed * 1000 + i + pass_no * PASS_SEED_STRIDE,
                jitter_cv=JITTER_CV, fidelity=cell.fidelity)
        for i, cell in enumerate(grid)
    ]


def warmup_task(grid: List[Cell]) -> RunTask:
    """The set-up task: the workload's first cell at two frames."""
    first = grid[0]
    return RunTask(spec=replace(first.spec, frames=2), seed=0,
                   jitter_cv=JITTER_CV, fidelity=first.fidelity)


# ---------------------------------------------------------------------------
# service_mixed: rounds of jobs over two connections
# ---------------------------------------------------------------------------

TENANTS = ("alice", "bob", "carol")
#: every (system, pairs) a cold job can have; each connection computes
#: each of them once per round, so every round does the same work
COLD_SHAPES = tuple((system, pairs) for system in ("dyad", "xfs", "lustre")
                    for pairs in (1, 2, 3, 4))
SERVICE_FRAMES = 32
#: repeats per cold job: half of the jobs compute, half hit
REPEATS_PER_COLD = 1
#: repeats draw from this many most recent cold jobs of the connection,
#: which keeps every repeat inside the server's result-store LRU
REPEAT_WINDOW = 24
CONNECTIONS = 2


def job_key(job: Dict[str, Any]) -> str:
    """Content of a job without its tenant: equal keys, equal results."""
    return (f"{job['system']}/p{job['pairs']}/f{job['frames']}/"
            f"s{job['seed']}")


def service_round(seed: int, round_no: int, connection: int,
                  history: List[Dict[str, Any]],
                  frames: int = SERVICE_FRAMES) -> List[Dict[str, Any]]:
    """One connection's jobs for one round, each tagged ``cold`` or not.

    ``history`` holds the connection's earlier cold jobs and is extended
    in place; repeats only name jobs the same connection already finished
    (its loop is closed), so they always hit the store and never race a
    computation on the other connection.
    """
    rng = random.Random(seed * 1_000_003 + round_no * 101 + connection)
    shapes = list(COLD_SHAPES)
    rng.shuffle(shapes)
    jobs = []
    for k, (system, pairs) in enumerate(shapes):
        cold = {
            "tenant": rng.choice(TENANTS), "system": system, "pairs": pairs,
            "frames": frames, "jitter_cv": JITTER_CV, "fidelity": "exact",
            "degradable": False,
            "seed": seed * 1_000_000 + round_no * 100 + connection * 50 + k,
        }
        history.append(cold)
        jobs.append({**cold, "cold": True})
        recent = history[-REPEAT_WINDOW:]
        for _ in range(REPEATS_PER_COLD):
            twin = rng.choice(recent)
            jobs.append({**twin, "tenant": rng.choice(TENANTS),
                         "cold": False})
    return jobs


def service_rounds(seed: int, rounds: int) -> List[List[List[dict]]]:
    """``rounds`` rounds, each a job list per connection."""
    histories: List[List[dict]] = [[] for _ in range(CONNECTIONS)]
    return [[service_round(seed, r, c, histories[c])
             for c in range(CONNECTIONS)] for r in range(rounds)]
