"""Fixtures shared by the experiment tests."""

import pytest

from repro.experiments import scenarios
from repro.experiments.claims import CLAIMS
from repro.experiments.figures import run_figures


@pytest.fixture(scope="session")
def scenario_report():
    """One quick ``scenarios`` sweep (both fidelity tiers), shared by
    the streaming-grid and topology-grid tests."""
    return scenarios.run(quick=True)


@pytest.fixture(scope="session")
def quick_figures():
    """Every paper figure run once at its pinned reduced configuration,
    keyed by registry name; shared by the claim-band and structure tests."""
    return run_figures(quick=True)


@pytest.fixture(scope="session")
def assert_claim(quick_figures):
    """Check one claim-table row, by id, against its quick-config band."""
    rows = {claim.id: claim for claim in CLAIMS}

    def check(claim_id):
        claim = rows[claim_id]
        # only the figures the row declares, so an undeclared read fails
        figures = {name: quick_figures[name]
                   for name in (claim.figure, *claim.needs)}
        measured = claim.metric(figures)
        assert claim.in_band(measured), (claim.id, measured, claim.band)

    return check
