"""The claim table's verdict rule and the EXPERIMENTS.md renderer."""

import re

from repro.experiments import report
from repro.experiments.claims import (
    CLAIMS,
    Claim,
    Direction,
    Factor,
    Growth,
    Range,
    _fmt,
    _verdict,
)
from repro.experiments.common import Cell, FigureResult, Stat

ROWS = {claim.id: claim for claim in CLAIMS}


def verdict(row_id, figs):
    row = ROWS[row_id]
    return row.paper.judge(row.metric(figs))


def cell(pm, ci, cm=1e-3):
    return Cell(
        production_movement=Stat(pm, 0.0),
        production_idle=Stat(0.0, 0.0),
        consumption_movement=Stat(cm, 0.0),
        consumption_idle=Stat(ci, 0.0),
    )


def figure(name, xs, systems, cells):
    return FigureResult(figure_id=name, title="t", x_name="x", xs=xs,
                        systems=systems, cells=cells, runs=1, frames=8)


def fig8_with(overall, movement_gap=(2.0, 6.0)):
    """Synthetic Fig. 8: Lustre/DYAD overall consumption and movement
    ratios per model."""
    cells = {}
    for model, total, gap in zip(("JAC", "STMV"), overall, movement_gap):
        cells[(model, "dyad")] = cell(pm=1e-4, ci=9e-3, cm=1e-3)
        cells[(model, "lustre")] = cell(pm=5e-4, cm=gap * 1e-3,
                                        ci=total * 1e-2 - gap * 1e-3)
    return {"fig8": figure("Fig8", ["JAC", "STMV"], ["dyad", "lustre"], cells)}


def test_verdict_bands():
    assert _verdict(1.4, 1.4) == "reproduced"
    assert _verdict(2.0, 1.4) == "reproduced"     # within 2x
    assert _verdict(5.0, 1.4) == "shape"          # same direction, off scale
    assert _verdict(100.0, 192.9) == "reproduced"
    assert _verdict(20.0, 192.9) == "shape"
    # measured < 1 while the paper claims > 1: the direction flipped
    assert _verdict(0.5, 1.4) == "deviates"
    assert _verdict(0.0, 1.4) == "deviates"


def test_verdict_direction_flip_deviates():
    # paper says faster (>1), measured slower (<1): deviates
    assert _verdict(0.4, 6.0) == "deviates"


def test_fmt():
    assert _fmt(1.414) == "1.41x"
    assert _fmt(192.9) == "193x"


def test_range_takes_the_worse_end():
    paper = Range(2.0, 10.0)
    assert paper.judge((2.5, 12.0)) == "reproduced"
    assert paper.judge((2.5, 30.0)) == "shape"
    assert paper.judge((0.5, 12.0)) == "deviates"


def test_growth_compares_growth_factors():
    paper = Growth(1.6, 6.0)                     # grows 3.75x
    assert paper.judge((2.0, 6.0)) == "reproduced"
    assert paper.judge((2.46, 4.01)) == "shape"  # grows, but only 1.63x
    assert paper.judge((6.0, 2.0)) == "deviates"  # narrows
    assert paper.checked((2.0, 6.0)) == (3.0,)


def test_direction_only_claims():
    assert Direction(True, "grows").judge(1.5) == "reproduced"
    assert Direction(True, "grows").judge(0.9) == "deviates"
    assert Direction(False, "insignificant").judge(0.0) == "reproduced"


def test_fig5_rows_on_synthetic_figure():
    cells = {
        (1, "dyad"): cell(pm=1.4e-4, ci=5e-3),
        (1, "xfs"): cell(pm=1e-4, ci=8e-1),
    }
    figs = {"fig5": figure("Fig5", [1], ["dyad", "xfs"], cells)}
    production = ROWS["fig5.production"]
    assert production.paper.show(production.metric(figs)) == "1.40x"
    assert verdict("fig5.production", figs) == "reproduced"  # exactly 1.4x
    assert verdict("fig5.consumption", figs) == "reproduced"


def test_fig8_overall_range_reads_shape_far_below_the_paper():
    # the paper states 121-334x; 29.63-76.54x is the right direction but
    # more than 2x short at both ends
    figs = fig8_with(overall=(76.54, 29.63))
    row = ROWS["fig8.consumption"]
    assert row.paper.show(row.metric(figs)) == "29.63x - 76.54x"
    assert verdict("fig8.consumption", figs) == "shape"


def test_fig8_movement_gap_row_compares_growth():
    row = ROWS["fig8.movement_gap"]
    widening = fig8_with(overall=(150.0, 150.0), movement_gap=(2.0, 6.0))
    assert verdict("fig8.movement_gap", widening) == "reproduced"
    assert row.in_band(row.metric(widening))
    narrowing = fig8_with(overall=(150.0, 150.0), movement_gap=(6.0, 2.0))
    assert verdict("fig8.movement_gap", narrowing) == "deviates"
    assert not row.in_band(row.metric(narrowing))


def test_claim_ids_unique():
    assert len(ROWS) == len(CLAIMS)


def test_rows_and_report_figures_match():
    report_figures = {name for name, _ in report.FIGURES}
    row_figures = {claim.figure for claim in CLAIMS}
    assert row_figures <= report_figures, row_figures - report_figures
    assert report_figures <= row_figures, report_figures - row_figures
    for claim in CLAIMS:
        assert claim.id.startswith(claim.figure + "."), claim.id


def test_claims_table_rendering():
    figs = {"f": 2.0}
    claims = [
        Claim("f.a", "f", "a claim", Factor(1.4), lambda f: f["f"] * 0.75,
              band=(0.0, 10.0)),
        Claim("f.b", "f", "noted claim", Factor(2.0), lambda f: 9.0,
              band=(0.0, 10.0), note="some context"),
    ]
    text = report.claims_table(claims, figs)
    assert "| a claim | 1.40x | 1.50x | **reproduced** |" in text
    assert "| noted claim (*) | 2.00x | 9.00x | **shape** |" in text
    assert "> (*) some context" in text


def test_report_header_is_reproducible():
    text = report.build_report(quick=True)
    header = text.split("## ", 1)[0]
    assert "`python -m repro.experiments report --quick`" in header
    assert not re.search(r"\d{4}-\d{2}-\d{2}", header), header
    for name, title in report.FIGURES:
        assert f"## {title}" in text
    assert text.count("Configuration: runs=1") == len(report.FIGURES)
    assert "**reproduced**" in text


def test_failed_check_fails_the_report(monkeypatch, tmp_path, capsys):
    from repro.experiments import validate
    from repro.experiments.__main__ import main

    failing = validate.ValidationResult(checks=[
        validate.Check("synthetic", predicted=1.0, measured=2.0)])
    monkeypatch.setattr(validate, "run", lambda *args: failing)
    path = tmp_path / "EXPERIMENTS.md"
    assert main(["report", "--quick", "--no-cache", "--frames", "2",
                 "--output", str(path)]) == 1
    # the file is written before the gate trips
    assert "CHECK FAILURES" in path.read_text()
    assert ("validate: 1 failure(s) tripped the gate"
            in capsys.readouterr().err)
