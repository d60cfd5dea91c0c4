"""Experiment registry and bulk runner."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.experiments import (
    ablations,
    chaos_soak,
    resilience,
    scenarios,
    validate,
    tables,
)
from repro.experiments.figures import GRID, run_figures

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

#: name -> experiment with ``run``/``main`` entry points: a module, or a
#: row of the figure grid (:mod:`repro.experiments.figures`)
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


def run_all(quick: bool = False, jobs: Optional[int] = None,
            use_cache: Optional[bool] = None,
            cache_dir: Optional[str] = None) -> List[object]:
    """Run every experiment in paper order, printing each report.

    The figures run first, as one plan (:func:`run_figures`).
    ``jobs``/``use_cache``/``cache_dir`` scope campaign-wide parallelism
    and result caching around all experiments (see
    :mod:`repro.experiments.parallel`); ``None`` falls through to the
    ``REPRO_JOBS``/``REPRO_CACHE``/``REPRO_CACHE_DIR`` environment.
    """
    from repro.experiments.parallel import campaign

    results = []
    with campaign(jobs=jobs, cache=use_cache, cache_dir=cache_dir):
        figures = run_figures(quick=quick)
        for name, entry in EXPERIMENTS.items():
            print(f"\n################ {name} ################")
            if name in figures:
                print(figures[name].render())
                results.append(figures[name])
            else:
                results.append(
                    entry.main(quick=quick) if name != "tables" else entry.main()
                )
    return results
