"""Tests for the experiment harness: common machinery, tables, registry, CLI."""

import pytest

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.__main__ import build_parser, main
from repro.experiments.common import Cell, FigureResult, Stat, default_frames, default_runs
from repro.experiments.tables import fig3_rows, run as run_tables, table1_rows, table2_rows


# ---------------------------------------------------------------------------
# common machinery
# ---------------------------------------------------------------------------


def test_stat_of_values():
    s = Stat.of([1.0, 3.0])
    assert s.mean == 2.0 and s.std == pytest.approx(2 ** 0.5)
    assert Stat.of([]).mean == 0.0
    assert Stat.of([5.0]).std == 0.0


def test_default_runs_env(monkeypatch):
    monkeypatch.setenv("REPRO_RUNS", "7")
    assert default_runs() == 7
    assert default_runs(2) == 2
    monkeypatch.setenv("REPRO_FRAMES", "64")
    assert default_frames() == 64
    # a --quick preset beats the environment; an explicit value beats both
    assert default_runs(None, 1) == 1 and default_runs(2, 1) == 2
    assert default_frames(None, 32) == 32 and default_frames(8, 32) == 8


def make_cell(pm, pi, cm, ci):
    return Cell(
        production_movement=Stat(pm, 0.0),
        production_idle=Stat(pi, 0.0),
        consumption_movement=Stat(cm, 0.0),
        consumption_idle=Stat(ci, 0.0),
    )


@pytest.fixture
def figure():
    cells = {
        (1, "dyad"): make_cell(2e-4, 0, 1e-3, 5e-3),
        (1, "xfs"): make_cell(1e-4, 0, 5e-4, 8e-1),
        (2, "dyad"): make_cell(2e-4, 0, 1e-3, 5e-3),
        (2, "xfs"): make_cell(1e-4, 0, 5e-4, 8e-1),
    }
    return FigureResult(
        figure_id="FigX", title="test", x_name="pairs", xs=[1, 2],
        systems=["dyad", "xfs"], cells=cells, runs=3, frames=16,
    )


def test_cell_totals(figure):
    cell = figure.cell(1, "xfs")
    assert cell.consumption_time == pytest.approx(0.8005)
    assert cell.production_time == pytest.approx(1e-4)


def test_figure_ratio_per_x_and_mean(figure):
    assert figure.ratio("production_movement", "dyad", "xfs", x=1) == pytest.approx(2.0)
    assert figure.ratio("production_movement", "dyad", "xfs") == pytest.approx(2.0)
    assert figure.ratio("consumption_time", "xfs", "dyad") == pytest.approx(
        0.8005 / 0.006
    )


def test_figure_tables_render(figure):
    prod = figure.production_table()
    cons = figure.consumption_table()
    assert "movement (us)" in prod and "dyad" in prod
    assert "movement (ms)" in cons
    full = figure.render()
    assert "FigX" in full


# ---------------------------------------------------------------------------
# tables experiment
# ---------------------------------------------------------------------------


def test_table1_contents():
    rows = table1_rows()
    assert [r[0] for r in rows] == ["JAC", "ApoA1", "F1 ATPase", "STMV"]
    assert [r[2] for r in rows] == [
        "644.21 KiB", "2.46 MiB", "8.75 MiB", "28.48 MiB"]
    assert rows[0][3] == "1072.92"


def test_table2_contents():
    rows = table2_rows()
    assert [r[3] for r in rows] == ["880", "294", "92", "28"]
    assert [r[2] for r in rows] == ["0.93", "2.79", "8.64", "29.29"]


def test_fig3_deviation_small():
    for row in fig3_rows():
        assert float(row[-1].rstrip("%")) < 0.2


def test_tables_result_renders():
    text = run_tables().render()
    assert "Table I" in text and "Table II" in text and "Fig. 3" in text


# ---------------------------------------------------------------------------
# registry & CLI
# ---------------------------------------------------------------------------


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "tables", "fig5", "fig6", "fig7", "fig8",
        "fig9", "fig10", "fig11", "fig12", "ablations",
        "scenarios", "resilience", "chaos", "validate",
    }


def test_get_experiment_unknown():
    with pytest.raises(ReproError):
        get_experiment("fig99")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "fig12" in out


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_cli_parser_flags():
    args = build_parser().parse_args(["fig5", "--runs", "2", "--quick"])
    assert args.experiment == "fig5"
    assert args.runs == 2 and args.quick


def test_cli_quick_fig5(capsys):
    assert main(["fig5", "--quick", "--frames", "8"]) == 0
    out = capsys.readouterr().out
    assert "Fig5" in out and "paper" in out
    # the explicit --frames wins over the quick preset (32 frames)
    assert "(runs=1, frames=8)" in out
