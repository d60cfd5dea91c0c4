"""Experiment registry and the one runner: plan, print, gate."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ReproError
from repro.experiments import (
    ablations,
    chaos_soak,
    resilience,
    scenarios,
    validate,
    tables,
)
from repro.experiments.claims import CLAIMS
from repro.experiments.common import FigureResult
from repro.experiments.figures import GRID, gate, run_plan
from repro.experiments.report import claims_table

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

#: name -> experiment with ``run`` and ``plan`` entry points: a module,
#: or a row of the figure grid (:mod:`repro.experiments.figures`)
EXPERIMENTS: Dict[str, object] = {
    "tables": tables,
    **{row.name: row for row in GRID},
    "ablations": ablations,
    "scenarios": scenarios,
    "resilience": resilience,
    "chaos": chaos_soak,
    "validate": validate,
}


def get_experiment(name: str):
    """Experiment by registry name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ReproError(f"unknown experiment {name!r} (known: {known})") from None


def describe(name: str) -> str:
    """One-line description of an experiment."""
    entry = get_experiment(name)
    heading = getattr(entry, "heading", None)
    return heading or (entry.__doc__ or "").strip().splitlines()[0]


def _show(name: str, result, svg_dir: Optional[str]) -> None:
    """Print one result: its report, its figure's claims (those that
    need no other figure; the report judges the rest), its SVG panels."""
    print(result.render())
    claims = [c for c in CLAIMS if c.figure == name and not c.needs]
    if claims:
        print()
        print(claims_table(claims, {name: result}))
    if svg_dir and isinstance(result, FigureResult):
        from repro.experiments.svgplot import save_figure_svg

        for path in save_figure_svg(result, svg_dir):
            print(f"wrote {path}")


def run_all(quick: bool = False, names: Optional[Sequence[str]] = None,
            runs: Optional[int] = None, frames: Optional[int] = None,
            svg_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the experiments ``names`` (default: every one, in paper
    order) as one plan (:func:`run_plan`), print each result, then gate.

    With more than one experiment, each result is printed under a
    ``#### name ####`` header. A result with a non-empty ``failures``
    list fails the gate (:func:`~repro.experiments.figures.gate`) once
    everything is printed. Parallelism and caching come from the
    enclosing :func:`~repro.experiments.parallel.campaign` scope (or the
    ``REPRO_JOBS``/``REPRO_CACHE``/``REPRO_CACHE_DIR`` environment).
    """
    names = list(EXPERIMENTS) if names is None else names
    results = run_plan({name: get_experiment(name).plan(runs, frames, quick)
                        for name in names})
    for name, result in results.items():
        if len(results) > 1:
            print(f"\n################ {name} ################")
        _show(name, result, svg_dir)
    gate(results)
    return results
