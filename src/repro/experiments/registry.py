"""Experiment registry and bulk runner."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ReproError
from repro.experiments import (
    ablations,
    chaos_soak,
    resilience,
    scenarios,
    validate,
    tables,
)
from repro.experiments.figures import GRID, run_plan

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

#: name -> experiment with ``run``/``main`` entry points: a module, or a
#: row of the figure grid (:mod:`repro.experiments.figures`); the ones
#: that measure also have ``plan``
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


def run_all(quick: bool = False) -> List[object]:
    """Run every experiment in paper order, printing each report.

    The measured ones — the figures, the ablations, the resilience and
    scenario sweeps — run first, as one plan (:func:`run_plan`); the
    scenario gate raises in its turn. Parallelism and caching come from
    the enclosing :func:`~repro.experiments.parallel.campaign` scope
    (or the ``REPRO_JOBS``/``REPRO_CACHE``/``REPRO_CACHE_DIR``
    environment).
    """
    planned = run_plan({name: entry.plan(quick=quick)
                        for name, entry in EXPERIMENTS.items()
                        if hasattr(entry, "plan")})
    results = []
    for name, entry in EXPERIMENTS.items():
        print(f"\n################ {name} ################")
        if name in planned:
            result = planned[name]
            print(result.render())
            if entry is scenarios:
                scenarios.gate(result)
        elif name == "tables":
            result = entry.main()
        else:
            result = entry.main(quick=quick)
        results.append(result)
    return results
