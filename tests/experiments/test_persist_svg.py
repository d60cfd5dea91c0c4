"""Tests for the SVG rendering of figure results."""

import pytest

from repro.errors import ReproError
from repro.experiments.common import Cell, FigureResult, Stat
from repro.experiments.svgplot import BarChart, render_figure_svg, save_figure_svg


def make_cell(pm=1e-4, pi=0.0, cm=1e-3, ci=5e-1, std=1e-5):
    return Cell(
        production_movement=Stat(pm, std),
        production_idle=Stat(pi, 0.0),
        consumption_movement=Stat(cm, std),
        consumption_idle=Stat(ci, std),
    )


def make_figure(scale=1.0, figure_id="FigT"):
    cells = {
        (x, system): make_cell(cm=1e-3 * scale * (i + 1), ci=0.5 * scale)
        for x in (1, 2)
        for i, system in enumerate(("dyad", "lustre"))
    }
    return FigureResult(
        figure_id=figure_id, title="test figure", x_name="pairs",
        xs=[1, 2], systems=["dyad", "lustre"], cells=cells,
        runs=2, frames=16, notes=["a note"],
    )


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def test_chart_validation():
    chart = BarChart(
        title="t", x_labels=["a"], series=["s"],
        movement=[[1.0], [2.0]], idle=[[0.0]],
    )
    with pytest.raises(ReproError):
        chart.to_svg()


def test_chart_svg_structure():
    chart = BarChart(
        title="Chart & Title",
        x_labels=["1", "2"],
        series=["dyad", "lustre"],
        movement=[[1.0, 2.0], [3.0, 4.0]],
        idle=[[0.5, 0.5], [10.0, 10.0]],
        whisker=[[0.1, 0.1], [0.2, 0.2]],
    )
    svg = chart.to_svg()
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "Chart &amp; Title" in svg  # escaping
    assert svg.count("<rect") > 8      # background + bars + legend chips


def test_chart_log_scale_handles_wide_range():
    chart = BarChart(
        title="log", x_labels=["x"], series=["dyad"],
        movement=[[0.001]], idle=[[100.0]], log_scale=True,
    )
    svg = chart.to_svg()
    assert "<svg" in svg


def test_render_figure_svg_panels():
    fig = make_figure()
    for which in ("production", "consumption"):
        svg = render_figure_svg(fig, which)
        assert fig.figure_id in svg
    with pytest.raises(ReproError):
        render_figure_svg(fig, "sideways")


def test_save_figure_svg_files(tmp_path):
    import xml.dom.minidom

    fig = make_figure()
    paths = save_figure_svg(fig, tmp_path / "figs")
    assert len(paths) == 2
    for path in paths:
        xml.dom.minidom.parse(path)  # well-formed XML
