"""Tables I & II and the Fig. 3 context data (molecular model catalogue).

Table I: atoms, frame size, steps/second per model.
Table II: steps/second, ms/step, stride, resulting frame frequency.
Fig. 3 (context): model size vs frame size, cross-checked against the
frame layout (44-byte header + 28 B/atom, :func:`repro.md.models.frame_size`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.figures import Part
from repro.md.models import MODELS
from repro.perf.report import table
from repro.units import KiB, MiB, fmt_bytes

__all__ = ["table1_rows", "table2_rows", "fig3_rows", "plan", "run"]


def table1_rows() -> List[List[str]]:
    """Rows of the paper's Table I, computed from the catalogue."""
    rows = []
    for m in MODELS:
        size = m.frame_bytes
        size_str = (
            f"{size / KiB:.2f} KiB" if size < MiB else f"{size / MiB:.2f} MiB"
        )
        rows.append([m.name, f"{m.num_atoms:,}", size_str, f"{m.steps_per_second:.2f}"])
    return rows


def table2_rows() -> List[List[str]]:
    """Rows of the paper's Table II (stride derivations)."""
    rows = []
    for m in MODELS:
        rows.append([
            m.name,
            f"{m.steps_per_second:.2f}",
            f"{m.ms_per_step:.2f}",
            str(m.paper_stride),
            f"{m.paper_frequency:.2f}",
        ])
    return rows


def fig3_rows() -> List[List[str]]:
    """Fig. 3 context: atoms vs frame bytes, paper vs computed."""
    rows = []
    for m in MODELS:
        rows.append([
            m.name,
            f"{m.num_atoms:,}",
            fmt_bytes(m.frame_bytes),
            fmt_bytes(m.paper_frame_bytes),
            f"{abs(m.frame_bytes - m.paper_frame_bytes) / m.paper_frame_bytes:.3%}",
        ])
    return rows


@dataclass
class TablesResult:
    """Structured result for the tables 'experiment'."""

    table1: List[List[str]]
    table2: List[List[str]]
    fig3: List[List[str]]

    def render(self) -> str:
        """All three tables as fixed-width text."""
        return "\n\n".join([
            table(["Name", "Num Atoms", "Frame size", "Steps/second"],
                  self.table1, title="Table I: targeted molecular models"),
            table(["Name", "Steps/second", "ms/step", "Stride", "Frequency (s)"],
                  self.table2, title="Table II: stride for each molecular model"),
            table(["Name", "Atoms", "Codec frame", "Paper frame", "Deviation"],
                  self.fig3, title="Fig. 3 context: model size vs frame size"),
        ])


def run(runs=None, frames=None, quick: bool = False) -> TablesResult:
    """Build the tables (no simulation involved)."""
    return TablesResult(table1=table1_rows(), table2=table2_rows(), fig3=fig3_rows())


def plan(runs=None, frames=None, quick: bool = False) -> Part:
    """The tables as a part of a plan: no cells, its build is :func:`run`."""
    return Part({}, lambda raw: run(runs, frames, quick))
