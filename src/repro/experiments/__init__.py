"""Reproduction harness: the paper's tables and figures, and extensions.

Figs. 5-12 are rows of one campaign grid (:mod:`repro.experiments.figures`),
whose planner runs every distinct repetition of a request once, on one
worker pool; the tables and the extensions are modules. Every experiment
exposes

- ``run(runs=None, frames=None, quick=False)`` returning a structured
  result object, and
- ``main()`` printing the same rows/series the paper reports (the
  textual equivalent of the figure).

The paper's claims about each figure live in
:mod:`repro.experiments.claims`; the CLI prints a figure's claims table
after its series, and ``report`` renders them all into EXPERIMENTS.md.

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments fig5 [--runs N] [--frames N] [--quick]
    python -m repro.experiments all --quick

Environment variables ``REPRO_RUNS`` and ``REPRO_FRAMES`` override the
defaults globally (the paper uses 10 runs × 128 frames; the default here
is 3 runs × 128 frames to keep a full reproduction under a few minutes).
"""

from repro import lazy_exports

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.registry": __all__,
})
