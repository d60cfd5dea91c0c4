"""Fixtures shared by the experiment tests."""

import pytest

from repro.experiments import scenarios


@pytest.fixture(scope="session")
def scenario_report():
    """One quick ``scenarios`` sweep (both fidelity tiers), shared by
    the streaming-grid and topology-grid tests."""
    return scenarios.run(quick=True)
