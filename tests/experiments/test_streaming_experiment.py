"""The streaming grids of the `scenarios` sweep: flow-control totals."""

import pytest

from repro.errors import CampaignError
from repro.experiments import scenarios
from repro.experiments.figures import Part
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_all
from repro.workflow.spec import SyncMode, System, Topology


def test_registered():
    assert EXPERIMENTS["scenarios"] is scenarios
    assert get_experiment("scenarios") is scenarios
    assert "streaming" not in EXPERIMENTS and "topology" not in EXPERIMENTS


def test_grids_cover_paper_figures_and_modes():
    table = scenarios.grids(quick=True)
    assert [g[0] for g in table] == [
        "Streaming-5", "Streaming-6/7", "Streaming-8", "Streaming-11",
        "Topology-A", "Topology-B", "Topology-C"]
    streamed = [spec for _, _, _, cells in table[:4]
                for _, _, spec in cells]
    assert all(spec.topology is Topology.PAIRWISE for spec in streamed)
    assert {spec.system for spec in streamed} == {
        System.DYAD, System.XFS, System.LUSTRE}
    assert {spec.sync_mode for spec in streamed} == set(scenarios.MODES)
    assert scenarios.MODES == (
        SyncMode.WINDOWED, SyncMode.PUBSUB, SyncMode.NBUFFER)
    assert scenarios.FIDELITIES == ("exact", "hybrid")
    # quick cells run 8 frames; full streaming cells take the requested
    # frame count, full topology cells cap it at 32
    full = scenarios.grids(quick=False, frames=64)
    assert {cells[0][2].frames for _, _, _, cells in full} == {64, 32}


def test_quick_sweep_gates_clean(scenario_report):
    report = scenario_report
    # one FigureResult per grid per fidelity tier
    assert len(report.figures) == 7 * len(scenarios.FIDELITIES)
    assert report.failures == []
    for mode in scenarios.MODES:
        totals = report.flow_stats[mode.value]
        assert totals["credits_issued"] == totals["credits_returned"] > 0
        assert totals["lost_wakeups"] == 0
    # windowed cells actually run the wider window
    windowed = report.flow_stats[SyncMode.WINDOWED.value]
    assert windowed["peak_in_flight"] <= scenarios.WINDOW
    text = report.render()
    assert "streaming flow-control totals" in text
    assert "gate: zero invariant violations" in text


def test_main_raises_on_failures(monkeypatch, capsys):
    def failing_plan(runs=None, frames=None, quick=False):
        report = scenarios.ScenarioReport()
        report.failures.append("Topology-A/exact dyad/coarse @ 8: 9 pulls")
        return Part({}, lambda raw: report)

    monkeypatch.setattr(scenarios, "plan", failing_plan)
    with pytest.raises(CampaignError, match="tripped the gate") as tripped:
        run_all(quick=True, names=["scenarios"])
    # the gate names the experiment, and trips after the report printed
    assert "scenarios: 1 failure" in str(tripped.value)
    assert "FAILURES:" in capsys.readouterr().out
