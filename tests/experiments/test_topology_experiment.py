"""Tests for the topology grids of the `scenarios` sweep and the
grid-aggregation fixes.

Covers ``median_run`` (one representative run, never run 0's counters
under another run's movement), the render hardening of ``FigureResult``
against ragged grids, and the quick sweep's topology figures including
their read-amplification accounting and shared-read gate.
"""

import pytest

from repro.experiments import scenarios
from repro.experiments.common import (
    Cell,
    FigureResult,
    Stat,
    median_run,
)


# ---------------------------------------------------------------------------
# median_run: one representative run, counters consistent with movement
# ---------------------------------------------------------------------------


def test_median_run_picks_middle_element():
    runs = [{"m": 5.0}, {"m": 1.0}, {"m": 3.0}]
    assert median_run(runs, key=lambda r: r["m"]) is runs[2]


def test_median_run_even_count_takes_lower_median():
    runs = [{"m": 4.0}, {"m": 2.0}, {"m": 1.0}, {"m": 3.0}]
    assert median_run(runs, key=lambda r: r["m"]) is runs[1]


def test_median_run_rejects_empty():
    with pytest.raises(ValueError, match="at least one run"):
        median_run([], key=lambda r: r)


# ---------------------------------------------------------------------------
# render hardening: ragged grids and degenerate cells
# ---------------------------------------------------------------------------


def test_figure_result_table_skips_ragged_combinations():
    stat = Stat(mean=0.001, std=0.0)
    cell = Cell(production_movement=stat, production_idle=stat,
                consumption_movement=stat, consumption_idle=stat)
    fig = FigureResult(
        figure_id="T", title="ragged", x_name="consumers",
        xs=[7, 8], systems=["xfs/coarse", "lustre/coarse"],
        cells={(7, "xfs/coarse"): cell, (8, "lustre/coarse"): cell},
        runs=1, frames=8,
    )
    text = fig.render()      # must not KeyError on the absent combos
    assert "xfs/coarse" in text and "lustre/coarse" in text


# ---------------------------------------------------------------------------
# ScenarioReport rendering
# ---------------------------------------------------------------------------


def test_topology_report_render_gate_and_failures():
    clean = scenarios.ScenarioReport()
    assert "gate: zero invariant violations" in clean.render()
    bad = scenarios.ScenarioReport(
        failures=["Topology-A/exact dyad/coarse @ 8: boom"],
    )
    text = bad.render()
    assert "FAILURES:" in text and "boom" in text
    assert "gate: zero" not in text


def test_topology_report_render_amplification_lines():
    report = scenarios.ScenarioReport()
    report.amplification["dyad"] = {
        "fanout": 8.0, "frames": 8.0, "rdma_transfers": 8.0,
        "cache_hits": 56.0, "shared_read_waits": 16.0,
    }
    report.amplification["lustre"] = {
        "fanout": 8.0, "frames": 8.0, "cold_reads": 64.0,
    }
    text = report.render()
    assert "8 RDMA pull(s), 56 staging-cache hit(s)" in text
    assert "one pull per frame per node" in text
    assert "64 cold read(s)" in text and "8x read amplification" in text


# ---------------------------------------------------------------------------
# end-to-end: the quick sweep's topology figures pass their own gate
# ---------------------------------------------------------------------------


def _topology_figures(report):
    return [fig for fig in report.figures
            if fig.figure_id.startswith("Topology-")]


def test_sweep_passes_gate(scenario_report):
    report = scenario_report
    assert report.failures == []
    # one per shape per fidelity tier
    assert len(_topology_figures(report)) == 3 * len(scenarios.FIDELITIES)


def test_sweep_covers_every_system(scenario_report):
    report = scenario_report
    for fig in _topology_figures(report):
        systems = {label.split("/")[0] for label in fig.systems}
        assert systems == {"dyad", "xfs", "lustre"}
        # DYAD has no polling column: the spelling normalizes to coarse.
        assert "dyad/polling" not in fig.systems


def test_sweep_amplification_accounting(scenario_report):
    report = scenario_report
    dyad = report.amplification["dyad"]
    lustre = report.amplification["lustre"]
    frames, fanout = 8, 8
    # All 8 fan-out consumers share one split node: one pull per frame,
    # the rest served by the staging cache.
    assert dyad["rdma_transfers"] == float(frames)
    assert dyad["cache_hits"] == float((fanout - 1) * frames)
    assert dyad["shared_read_waits"] > 0
    # Lustre cold-reads every frame once per consumer.
    assert lustre["cold_reads"] == float(fanout * frames)
    assert lustre["cold_reads"] == fanout * dyad["rdma_transfers"]


def test_sweep_render_mentions_gate_and_amplification(scenario_report):
    report = scenario_report
    text = report.render()
    assert "gate: zero invariant violations" in text
    assert "read amplification" in text
