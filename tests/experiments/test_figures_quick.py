"""Structure of every figure experiment at its quick configuration.

The figures run once per session (``quick_figures``, shared with the
claim-band tests in ``test_claims.py``); these tests check grids, call
trees and rendering. The per-figure direction checks read their bounds
from the claim table's rows, never state them here.
"""

from repro.workflow.emulator import READ_REGION, SYNC_REGION


def test_fig5_grid_complete(quick_figures):
    fig5 = quick_figures["fig5"]
    assert fig5.xs == [1, 2, 4]
    assert set(fig5.systems) == {"dyad", "xfs"}
    assert len(fig5.cells) == 6


def test_fig5_direction(assert_claim):
    assert_claim("fig5.production")
    assert_claim("fig5.consumption")


def test_fig6_grid_complete(quick_figures):
    fig6 = quick_figures["fig6"]
    assert fig6.xs == [1, 2, 4, 8]
    assert len(fig6.cells) == 8


def test_fig6_direction(assert_claim):
    assert_claim("fig6.production")
    assert_claim("fig6.consumption")


def test_fig7_quick_reduced_grid(quick_figures):
    fig = quick_figures["fig7"]
    assert fig.xs == [8, 16, 32]
    assert len(fig.cells) == 6


def test_fig8_quick_models(quick_figures):
    assert quick_figures["fig8"].xs == ["JAC", "STMV"]


def test_fig9_call_trees(quick_figures):
    fig = quick_figures["fig9"]
    assert set(fig.trees) == {"JAC", "STMV"}
    for model, tree in fig.trees.items():
        for path in [("dyad_consume", "dyad_fetch"),
                     ("dyad_consume", "dyad_get_data"),
                     ("dyad_consume", "dyad_cons_store"),
                     ("read_single_buf",)]:
            assert tree.find(*path) is not None, (model, path)
    for model, values in fig.per_frame.items():
        assert values["dyad_consume/dyad_get_data"] > 0
        assert values["dyad_consume/dyad_cons_store"] > 0
        assert values["read_single_buf"] > 0
    rendered = fig.render()
    assert "dyad_fetch" in rendered


def test_fig9_movement_sublinear(assert_claim):
    assert_claim("fig9.movement")


def test_fig10_call_trees(quick_figures):
    fig = quick_figures["fig10"]
    assert set(fig.trees) == {"JAC", "STMV"}
    for values in fig.per_frame.values():
        assert values[READ_REGION] > 0
        assert values[SYNC_REGION] > 0


def test_fig11_and_fig12_stride_grids(quick_figures):
    for name in ("fig11", "fig12"):
        fig = quick_figures[name]
        assert fig.xs == [1, 5, 10, 50]
        assert len(fig.cells) == 8


def test_fig11_idle_grows_with_stride(assert_claim):
    assert_claim("fig11.idle_growth")


def test_fig12_overall_gap_widens(assert_claim):
    assert_claim("fig12.consumption_gap")
