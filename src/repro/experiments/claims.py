"""The paper's Fig. 5-12 claims, each stated once.

Every :class:`Claim` row names the figure it belongs to, what the paper
says (:class:`Factor`, :class:`Range`, :class:`Growth` or
:class:`Direction`), how to measure it from the figure results, and the
band the measurement must meet when every figure runs at its pinned
reduced configuration (``run(quick=True)``: one repetition, 16-32
frames, seeded jitter). ``EXPERIMENTS.md`` renders its verdicts from
these rows (see :mod:`repro.experiments.report`) and the tier-1 suite
checks every band, so a claim's bounds live nowhere else.

One verdict rule judges every row: **reproduced** when the measured
factor is within 2x of the paper's, **shape** when it is on the same
side of 1 but further off, **deviates** otherwise. A range compares
min to min and max to max and keeps the worse verdict; a growth claim
compares growth factors; a direction-only claim (the paper states no
number) is reproduced when the direction holds.

Metrics receive the figure results keyed by registry name (``"fig5"``
... ``"fig12"``); a claim that compares two figures names the other one
in ``needs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Tuple, Union

from repro.md.models import JAC, STMV
from repro.workflow.emulator import READ_REGION, SYNC_REGION

__all__ = [
    "CLAIMS",
    "Claim",
    "Direction",
    "Factor",
    "Growth",
    "Range",
]

#: Verdicts from best to worst.
_VERDICTS = ("reproduced", "shape", "deviates")

Figures = Mapping[str, Any]


def _verdict(measured: float, paper: float) -> str:
    """Within 2x of the paper's factor -> reproduced; same direction -> shape."""
    if paper <= 0 or measured <= 0:
        return "deviates"
    ratio = measured / paper
    if 0.5 <= ratio <= 2.0:
        return "reproduced"
    if (measured > 1.0) == (paper > 1.0):
        return "shape"
    return "deviates"


def _fmt(x: float) -> str:
    return f"{x:.2f}x" if x < 100 else f"{x:.0f}x"


# ---------------------------------------------------------------------------
# what the paper states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """The paper states one factor; the metric is one number."""

    value: float
    text: str = ""

    def judge(self, measured: float) -> str:
        """Verdict of the measured factor against the paper's."""
        return _verdict(measured, self.value)

    def show(self, measured: Optional[float] = None) -> str:
        """The paper's value, or the measured one when given."""
        if measured is None:
            return self.text or _fmt(self.value)
        return _fmt(measured)

    def checked(self, measured: float) -> Tuple[float, ...]:
        """The numbers a quick-config band bounds."""
        return (measured,)


@dataclass(frozen=True)
class Range:
    """The paper states a min-max range over the figure's sweep.

    The metric is ``(min, max)`` of the same factor over the sweep.
    """

    lo: float
    hi: float

    def judge(self, measured: Tuple[float, float]) -> str:
        """The worse of min-vs-min and max-vs-max."""
        return max(_verdict(measured[0], self.lo),
                   _verdict(measured[1], self.hi), key=_VERDICTS.index)

    def show(self, measured: Optional[Tuple[float, float]] = None) -> str:
        """The paper's range, or the measured one when given."""
        lo, hi = (self.lo, self.hi) if measured is None else measured
        return f"{_fmt(lo)} - {_fmt(hi)}"

    def checked(self, measured: Tuple[float, float]) -> Tuple[float, ...]:
        """Both ends of the range."""
        return tuple(measured)


@dataclass(frozen=True)
class Growth:
    """The paper states that a factor grows from ``start`` to ``end``.

    The metric is ``(start, end)``; the verdict compares growth factors.
    """

    start: float
    end: float

    def judge(self, measured: Tuple[float, float]) -> str:
        """Measured growth against the paper's ``end / start``."""
        return _verdict(_growth(measured), self.end / self.start)

    def show(self, measured: Optional[Tuple[float, float]] = None) -> str:
        """The paper's endpoints, or the measured ones when given."""
        start, end = (self.start, self.end) if measured is None else measured
        return f"{_fmt(start)} -> {_fmt(end)}"

    def checked(self, measured: Tuple[float, float]) -> Tuple[float, ...]:
        """The growth factor ``end / start``."""
        return (_growth(measured),)


@dataclass(frozen=True)
class Direction:
    """The paper states no number, only that a factor is above 1 (``up``)
    or below it."""

    up: bool
    text: str

    def judge(self, measured: float) -> str:
        """Reproduced when the factor lies on the stated side of 1."""
        return "reproduced" if (measured > 1.0) == self.up else "deviates"

    def show(self, measured: Optional[float] = None) -> str:
        """The paper's wording, or the measured factor when given."""
        return self.text if measured is None else _fmt(measured)

    def checked(self, measured: float) -> Tuple[float, ...]:
        """The factor itself."""
        return (measured,)


def _growth(measured: Tuple[float, float]) -> float:
    start, end = measured
    return end / start if start > 0 else 0.0


Paper = Union[Factor, Range, Growth, Direction]


@dataclass(frozen=True)
class Claim:
    """One paper claim: what the paper says and how to measure it."""

    id: str
    figure: str
    description: str
    paper: Paper
    metric: Callable[[Figures], Any]
    #: inclusive (lo, hi) bounds on ``paper.checked(metric)`` at quick=True
    band: Tuple[float, float]
    note: str = ""
    #: other figures the metric reads besides ``figure``
    needs: Tuple[str, ...] = ()

    def in_band(self, measured) -> bool:
        """Whether a measurement meets the quick-config band."""
        lo, hi = self.band
        return all(lo <= v <= hi for v in self.paper.checked(measured))


# ---------------------------------------------------------------------------
# metrics: each returns a function of the figure results
# ---------------------------------------------------------------------------


def _ratio(figure: str, metric: str, num: str, den: str):
    """``num`` over ``den`` of the across-x means (the paper's headline)."""
    return lambda figs: figs[figure].ratio(metric, num, den)


def _ratio_range(figure: str, metric: str, num: str, den: str):
    """(min, max) over the sweep of the per-x ratio."""
    def measure(figs):
        fig = figs[figure]
        values = [fig.ratio(metric, num, den, x=x) for x in fig.xs]
        return min(values), max(values)
    return measure


def _ratio_ends(figure: str, metric: str, num: str, den: str):
    """The per-x ratio at the first and the last x."""
    def measure(figs):
        fig = figs[figure]
        return (fig.ratio(metric, num, den, x=fig.xs[0]),
                fig.ratio(metric, num, den, x=fig.xs[-1]))
    return measure


def _sweep(fig, metric: str, system: str) -> float:
    """Last-x over first-x value of one system's metric."""
    return (fig.value(metric, system, fig.xs[-1])
            / fig.value(metric, system, fig.xs[0]))


def _farthest_from_one(values: Sequence[float]) -> float:
    return max(values, key=lambda v: abs(math.log(v)) if v > 0 else math.inf)


def _network_hop(metric: str):
    """DYAD's ``metric`` across two nodes (Fig. 6) over one node (Fig. 5),
    summed over the pair counts both figures ran."""
    def measure(figs):
        local, remote = figs["fig5"], figs["fig6"]
        pairs = [x for x in local.xs if x in remote.xs]
        return (sum(remote.value(metric, "dyad", x) for x in pairs)
                / sum(local.value(metric, "dyad", x) for x in pairs))
    return measure


def _coarse_idle_over_period(figs) -> float:
    """Lustre consumer idle per frame over the frame period (Fig. 6, JAC)."""
    fig = figs["fig6"]
    period = JAC.stride_time(JAC.paper_stride)
    idle = [fig.value("consumption_idle", "lustre", x) for x in fig.xs]
    return sum(idle) / len(idle) / period


def _producer_idle_share(figs) -> float:
    fig = figs["fig5"]
    return max(fig.value("production_idle", s, x)
               / fig.value("production_movement", s, x)
               for x in fig.xs for s in fig.systems)


def _xfs_idle_share(figs) -> float:
    fig = figs["fig5"]
    return min(fig.value("consumption_idle", "xfs", x)
               / fig.value("consumption_movement", "xfs", x) for x in fig.xs)


def _production_spread(figure: str):
    """Max over min production movement across the sweep, worse system."""
    def measure(figs):
        fig = figs[figure]
        spreads = []
        for system in fig.systems:
            values = [fig.value("production_movement", system, x)
                      for x in fig.xs]
            spreads.append(max(values) / min(values))
        return max(spreads)
    return measure


def _movement_grows_with_model(figs) -> float:
    fig = figs["fig8"]
    return min(_sweep(fig, metric, system)
               for metric in ("production_movement", "consumption_movement")
               for system in fig.systems)


_DATA_RATIO = STMV.frame_bytes / JAC.frame_bytes
_FETCH = "dyad_consume/dyad_fetch"


def _dyad_movement_per_byte(figs) -> float:
    """Fig. 9's STMV/JAC DYAD movement ratio over the data ratio."""
    move = {model: sum(v for k, v in regions.items() if k != _FETCH)
            for model, regions in figs["fig9"].per_frame.items()}
    return move["STMV"] / move["JAC"] / _DATA_RATIO


def _fetch_relief(figs) -> float:
    per_frame = figs["fig9"].per_frame
    stmv = per_frame["STMV"][_FETCH]
    return per_frame["JAC"][_FETCH] / stmv if stmv else 0.0


def _lustre_region_ratio(region: str, per_byte: bool = False):
    """Fig. 10's STMV/JAC ratio of one consumer region."""
    def measure(figs):
        per_frame = figs["fig10"].per_frame
        ratio = per_frame["STMV"][region] / per_frame["JAC"][region]
        return ratio / _DATA_RATIO if per_byte else ratio
    return measure


def _sync_over_read(figs) -> float:
    return min(regions[SYNC_REGION] / regions[READ_REGION]
               for regions in figs["fig10"].per_frame.values())


def _stride_movement_spread(figs) -> float:
    fig = figs["fig11"]
    return _farthest_from_one(
        [_sweep(fig, "consumption_movement", s) for s in fig.systems])


def _stride_idle_growth(figs) -> float:
    fig = figs["fig11"]
    return min(_sweep(fig, "consumption_idle", s) for s in fig.systems)


def _idle_gap(figs) -> float:
    fig = figs["fig11"]
    return min(fig.ratio("consumption_idle", "lustre", "dyad", x=x)
               for x in fig.xs)


def _overall_gap_growth(figure: str):
    def measure(figs):
        return _growth(_ratio_ends(figure, "consumption_time",
                                   "lustre", "dyad")(figs))
    return measure


def _dyad_movement_relief(figs) -> float:
    return 1.0 / _sweep(figs["fig12"], "consumption_movement", "dyad")


_INF = math.inf

#: Every claim, in paper order. ``band`` values hold at quick=True.
CLAIMS: Tuple[Claim, ...] = (
    # -- Fig. 5: single node, DYAD vs XFS --------------------------------
    Claim("fig5.production", "fig5",
          "DYAD production slower than XFS (metadata management)",
          Factor(1.4), _ratio("fig5", "production_movement", "dyad", "xfs"),
          band=(1.15, 1.9)),
    Claim("fig5.consumption", "fig5",
          "DYAD overall consumption faster than XFS (adaptive sync)",
          Factor(192.9), _ratio("fig5", "consumption_time", "xfs", "dyad"),
          band=(20.0, _INF),
          note="idle-dominated for XFS in both paper and model; the "
               "magnitude depends on how the one-time KVS wait amortizes "
               "over 128 frames"),
    Claim("fig5.xfs_idle", "fig5",
          "XFS consumption idle-dominated: idle over movement, every "
          "pair count",
          Direction(True, "idle-dominated"), _xfs_idle_share,
          band=(10.0, _INF)),
    Claim("fig5.producer_idle", "fig5",
          "producer idle insignificant: idle over movement, both systems",
          Direction(False, "insignificant"), _producer_idle_share,
          band=(0.0, 0.05)),
    # -- Fig. 6: two nodes, DYAD vs Lustre -------------------------------
    Claim("fig6.production", "fig6",
          "DYAD production faster than Lustre (node-local staging)",
          Factor(7.5), _ratio("fig6", "production_movement", "lustre", "dyad"),
          band=(4.0, 11.0)),
    Claim("fig6.movement", "fig6",
          "DYAD consumer data movement faster than Lustre",
          Factor(6.9),
          _ratio("fig6", "consumption_movement", "lustre", "dyad"),
          band=(2.0, 10.0),
          note="the paper's own Fig. 8b states 1.6x for the same JAC "
               "workload at 16 pairs; our value sits inside the paper's "
               "1.6-6.9x family"),
    Claim("fig6.consumption", "fig6",
          "DYAD overall consumption faster than Lustre",
          Factor(197.4), _ratio("fig6", "consumption_time", "lustre", "dyad"),
          band=(20.0, _INF)),
    Claim("fig6.stable", "fig6",
          "production stable as pairs grow 1->8: max/min, worse system",
          Factor(1.0, "stable"), _production_spread("fig6"), band=(1.0, 1.5)),
    Claim("fig6.network_hop", "fig6",
          "network hop barely changes DYAD production (vs Fig. 5's one node)",
          Factor(1.0, "~1.0x"), _network_hop("production_movement"),
          band=(0.75, 1.25), needs=("fig5",)),
    Claim("fig6.network_hop_consumption", "fig6",
          "network hop barely changes DYAD overall consumption (vs Fig. 5)",
          Factor(1.0, "~1.0x"), _network_hop("consumption_time"),
          band=(0.0, 3.0), needs=("fig5",)),
    Claim("fig6.coarse_idle", "fig6",
          "coarse sync: Lustre consumer idle per frame over the frame period",
          Factor(1.0, "~1.0x"), _coarse_idle_over_period, band=(0.9, 1.1)),
    Claim("fig6.makespan", "fig6",
          "coarse sync serializes the pipeline: Lustre makespan over DYAD's",
          Direction(True, "serializes"),
          _ratio("fig6", "makespan", "lustre", "dyad"), band=(1.6, 2.5)),
    # -- Fig. 7: multi-node scaling --------------------------------------
    Claim("fig7.production", "fig7",
          "DYAD production faster than Lustre at scale",
          Factor(5.3), _ratio("fig7", "production_movement", "lustre", "dyad"),
          band=(3.5, 10.0)),
    Claim("fig7.movement", "fig7",
          "DYAD consumer movement faster than Lustre at scale",
          Factor(5.8),
          _ratio("fig7", "consumption_movement", "lustre", "dyad"),
          band=(2.0, 10.0)),
    Claim("fig7.consumption", "fig7",
          "DYAD overall consumption faster than Lustre at scale",
          Factor(192.0), _ratio("fig7", "consumption_time", "lustre", "dyad"),
          band=(10.0, _INF)),
    Claim("fig7.stable", "fig7",
          "production stable as pairs scale: max/min, worse system",
          Factor(1.0, "stable"), _production_spread("fig7"), band=(1.0, 1.3)),
    # -- Fig. 8: model size scaling --------------------------------------
    Claim("fig8.movement_gap", "fig8",
          "consumption-movement gap widens with model size",
          Growth(1.6, 6.0),
          _ratio_ends("fig8", "consumption_movement", "lustre", "dyad"),
          band=(1.2, _INF)),
    Claim("fig8.production", "fig8",
          "DYAD production faster for every model",
          Range(2.1, 6.3),
          _ratio_range("fig8", "production_movement", "lustre", "dyad"),
          band=(1.5, 12.0),
          note="the paper says this gap *increases* with size, which "
               "contradicts its own Figs. 6 (JAC 7.5x) and 12 (STMV 2.0x); "
               "our model follows the latter (fixed RPC costs amortize)"),
    Claim("fig8.consumption", "fig8",
          "DYAD overall consumption faster for every model",
          Range(121.0, 334.0),
          _ratio_range("fig8", "consumption_time", "lustre", "dyad"),
          band=(10.0, _INF),
          note="the Lustre idle term (≈0.82 s) is identical in paper and "
               "model; the ratio shrinks for STMV because DYAD's own "
               "movement grows ~34x — which the paper's Fig. 9 confirms "
               "but its 121x floor contradicts"),
    Claim("fig8.movement_growth", "fig8",
          "movement grows with model size: largest over smallest, "
          "both systems, production and consumption",
          Direction(True, "grows"), _movement_grows_with_model,
          band=(5.0, _INF)),
    # -- Fig. 9: DYAD call trees -----------------------------------------
    Claim("fig9.movement", "fig9",
          "DYAD movement sublinear in data: STMV/JAC movement over the "
          "45.3x data ratio",
          Factor(33.6 / 45.3), _dyad_movement_per_byte, band=(0.44, 1.0)),
    Claim("fig9.fetch", "fig9",
          "dyad_fetch (KVS sync) cheaper per call for STMV",
          Factor(2.1), _fetch_relief, band=(0.67, _INF),
          note="in our model the KVS is far from saturation at 16 pairs, "
               "so the relief is visible but small"),
    # -- Fig. 10: Lustre call trees --------------------------------------
    Claim("fig10.sync", "fig10",
          "explicit_sync constant across models (limits scalability)",
          Factor(1.0, "~1.0x"), _lustre_region_ratio(SYNC_REGION),
          band=(0.9, 1.1)),
    Claim("fig10.movement", "fig10",
          "Lustre movement sublinear in data (striping): STMV/JAC movement "
          "over the 45.3x data ratio",
          Factor(12.3 / 45.3), _lustre_region_ratio(READ_REGION, True),
          band=(0.11, _INF),
          note="our Lustre read path is stream-bandwidth-bound for STMV — "
               "the behaviour needed for Fig. 8b's widening gap, which the "
               "paper's 12.3x figure contradicts"),
    Claim("fig10.sync_dominates", "fig10",
          "explicit_sync dominates Lustre consumer time: sync over read, "
          "either model",
          Direction(True, "dominates"), _sync_over_read, band=(5.0, _INF)),
    # -- Fig. 11: JAC stride scaling -------------------------------------
    Claim("fig11.production", "fig11",
          "DYAD production faster than Lustre across strides",
          Factor(4.8),
          _ratio("fig11", "production_movement", "lustre", "dyad"),
          band=(3.0, 10.0)),
    Claim("fig11.movement_flat", "fig11",
          "movement flat across strides: stride 50 over stride 1, "
          "system farther from flat",
          Factor(1.0, "flat"), _stride_movement_spread, band=(0.5, 1.5)),
    Claim("fig11.idle_growth", "fig11",
          "idle grows with stride: stride 50 over stride 1, both systems",
          Direction(True, "grows"), _stride_idle_growth, band=(1.0, _INF)),
    Claim("fig11.idle_gap", "fig11",
          "DYAD idle far below Lustre's: Lustre over DYAD, every stride",
          Direction(True, "far lower"), _idle_gap, band=(10.0, _INF)),
    Claim("fig11.consumption_gap", "fig11",
          "overall gap widens with stride (Finding 5): stride 50 over "
          "stride 1",
          Direction(True, "widens"), _overall_gap_growth("fig11"),
          band=(1.0, _INF)),
    # -- Fig. 12: STMV stride scaling ------------------------------------
    Claim("fig12.production", "fig12",
          "DYAD production faster than Lustre (STMV)",
          Factor(2.0),
          _ratio("fig12", "production_movement", "lustre", "dyad"),
          band=(1.3, 6.0)),
    Claim("fig12.movement_relief", "fig12",
          "DYAD movement improves at high stride (less contention)",
          Factor(1.4, "up to 1.4x"), _dyad_movement_relief,
          band=(0.95, _INF)),
    Claim("fig12.consumption", "fig12",
          "DYAD overall consumption faster at every stride",
          Range(13.0, 192.2),
          _ratio_range("fig12", "consumption_time", "lustre", "dyad"),
          band=(1.0, _INF)),
    Claim("fig12.consumption_gap", "fig12",
          "overall gap widens with stride",
          Growth(13.0, 192.2),
          _ratio_ends("fig12", "consumption_time", "lustre", "dyad"),
          band=(1.0, _INF)),
)
