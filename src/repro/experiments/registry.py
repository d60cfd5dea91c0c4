"""Experiment registry and bulk runner."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.experiments import (
    ablations,
    chaos_soak,
    resilience,
    scenarios,
    validate,
    fig5_single_node,
    fig6_two_node,
    fig7_multi_node,
    fig8_model_scaling,
    fig9_dyad_calltree,
    fig10_lustre_calltree,
    fig11_jac_stride,
    fig12_stmv_stride,
    tables,
)

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

#: name -> module with ``run``/``main`` entry points
EXPERIMENTS: Dict[str, object] = {
    "tables": tables,
    "fig5": fig5_single_node,
    "fig6": fig6_two_node,
    "fig7": fig7_multi_node,
    "fig8": fig8_model_scaling,
    "fig9": fig9_dyad_calltree,
    "fig10": fig10_lustre_calltree,
    "fig11": fig11_jac_stride,
    "fig12": fig12_stmv_stride,
    "ablations": ablations,
    "scenarios": scenarios,
    "resilience": resilience,
    "chaos": chaos_soak,
    "validate": validate,
}


def get_experiment(name: str):
    """Experiment module by registry name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ReproError(f"unknown experiment {name!r} (known: {known})") from None


def run_all(quick: bool = False, jobs: Optional[int] = None,
            use_cache: Optional[bool] = None,
            cache_dir: Optional[str] = None) -> List[object]:
    """Run every experiment in paper order, printing each report.

    ``jobs``/``use_cache``/``cache_dir`` scope campaign-wide parallelism
    and result caching around all experiments (see
    :mod:`repro.experiments.parallel`); ``None`` falls through to the
    ``REPRO_JOBS``/``REPRO_CACHE``/``REPRO_CACHE_DIR`` environment.
    """
    from repro.experiments.parallel import campaign

    results = []
    with campaign(jobs=jobs, cache=use_cache, cache_dir=cache_dir):
        for name, module in EXPERIMENTS.items():
            print(f"\n################ {name} ################")
            results.append(
                module.main(quick=quick) if name != "tables" else module.main()
            )
    return results
