"""Every paper claim's band at the pinned reduced configuration.

The figures run once per session (``quick_figures``); each row of
:data:`repro.experiments.claims.CLAIMS` is one test.
"""

import pytest

from repro.experiments.claims import CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim_within_quick_band(claim, assert_claim):
    assert_claim(claim.id)
