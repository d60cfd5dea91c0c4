"""Statistical comparison of measurement ensembles.

The paper reports speedup factors from 10-run means. This module provides
the machinery to attach uncertainty to such factors: bootstrap confidence
intervals for the ratio of two samples' means, and a simple significance
check. It is a library for downstream studies: no experiment of this
package calls it, and the claim verdicts
(:mod:`repro.experiments.claims`) compare point estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import PerfError

__all__ = ["SpeedupEstimate", "bootstrap_speedup", "summarize_sample"]


@dataclass(frozen=True)
class SpeedupEstimate:
    """mean(baseline)/mean(candidate) with a bootstrap confidence interval."""

    speedup: float
    low: float
    high: float
    confidence: float
    n_baseline: int
    n_candidate: int

    @property
    def significant(self) -> bool:
        """True when the CI excludes 1.0 (a real difference either way)."""
        return self.low > 1.0 or self.high < 1.0

    def __str__(self) -> str:
        return (
            f"{self.speedup:.2f}x "
            f"[{self.low:.2f}, {self.high:.2f}] @ {self.confidence:.0%}"
        )


def bootstrap_speedup(
    baseline: Sequence[float],
    candidate: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: int = 0,
) -> SpeedupEstimate:
    """Bootstrap CI for ``mean(baseline) / mean(candidate)``.

    ``baseline`` is the slower/reference system (e.g. Lustre run times) and
    ``candidate`` the one whose advantage is being quantified (e.g. DYAD),
    so values > 1 mean the candidate is faster.
    """
    base = np.asarray(list(baseline), dtype=float)
    cand = np.asarray(list(candidate), dtype=float)
    if base.size == 0 or cand.size == 0:
        raise PerfError("need at least one observation on each side")
    if np.any(cand <= 0) or np.any(base <= 0):
        raise PerfError("times must be positive")
    if not 0.5 <= confidence < 1.0:
        raise PerfError(f"confidence must be in [0.5, 1), got {confidence}")
    point = float(base.mean() / cand.mean())
    rng = np.random.default_rng(seed)
    idx_b = rng.integers(0, base.size, size=(n_resamples, base.size))
    idx_c = rng.integers(0, cand.size, size=(n_resamples, cand.size))
    ratios = base[idx_b].mean(axis=1) / cand[idx_c].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(ratios, [alpha, 1.0 - alpha])
    return SpeedupEstimate(
        speedup=point,
        low=float(low),
        high=float(high),
        confidence=confidence,
        n_baseline=int(base.size),
        n_candidate=int(cand.size),
    )


def summarize_sample(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(mean, std, min, max) of a sample — the paper's whisker data."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise PerfError("empty sample")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std, float(arr.min()), float(arr.max())
