"""Fidelity-tier differential tests: hybrid vs the exact tier.

The hybrid tier is an approximation with a documented validity envelope
(``docs/performance.md``): whole-workflow timings must agree with the
exact tier within 1e-3 relative on paper-scale configurations. These
tests pin that contract on the fig5/fig7/fig8 shapes (at zero jitter —
jitter draws RNG streams in tier-dependent order, so tolerance-based
comparison is only meaningful with it off) and check the tier metadata
and kernel-health counters surface correctly.

The exact tier itself is pinned bit-identically by the frozen-
fingerprint suite (``tests/sim/test_channel_fingerprints.py``); here we
only confirm ``fidelity="exact"`` is the default and leaves results
untouched.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.md.models import model_by_name
from repro.workflow.runner import run_workflow
from repro.workflow.spec import Placement, SyncMode, System, WorkflowSpec

REL_TOL = 1e-3
ABS_TOL = 1e-6

#: Per-frame completion metrics covered by the tolerance contract, plus
#: the whole-run makespan.
METRICS = (
    "production_time",
    "consumption_time",
    "production_movement",
    "production_idle",
    "consumption_movement",
    "consumption_idle",
    "makespan",
)


def _spec(system, model, pairs, frames, **extras):
    m = model_by_name(model)
    return WorkflowSpec(system=system, model=m, stride=m.paper_stride,
                        frames=frames, pairs=pairs, **extras)


#: Paper-scale configurations, one per reproduced figure family.
CONFIGS = {
    "fig5-xfs": (_spec(System.XFS, "jac", 4, 8,
                       placement=Placement.SINGLE_NODE,
                       sync_mode=SyncMode.COARSE), 5),
    "fig7-dyad": (_spec(System.DYAD, "jac", 8, 8,
                        placement=Placement.SPLIT), 7),
    "fig7-lustre": (_spec(System.LUSTRE, "jac", 8, 8,
                          placement=Placement.SPLIT,
                          sync_mode=SyncMode.COARSE), 7),
    "fig8-dyad-stmv": (_spec(System.DYAD, "stmv", 16, 4,
                             placement=Placement.SPLIT), 3),
}

_exact_cache = {}


def _exact(name):
    if name not in _exact_cache:
        spec, seed = CONFIGS[name]
        _exact_cache[name] = run_workflow(spec, seed=seed, jitter_cv=0.0,
                                          fidelity="exact")
    return _exact_cache[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("tier", ["hybrid"])
def test_tier_within_tolerance_of_exact(name, tier):
    spec, seed = CONFIGS[name]
    exact = _exact(name)
    got = run_workflow(spec, seed=seed, jitter_cv=0.0, fidelity=tier)
    for metric in METRICS:
        want = getattr(exact, metric)
        have = getattr(got, metric)
        assert math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{name}/{tier}: {metric} = {have!r}, exact tier = {want!r}"
        )
    # same work was done, not just similar timing: byte and wire-op
    # accounting must match the exact tier exactly (chunk collapse keeps
    # rdma_transfers parity by construction)
    for stat in ("fabric_bytes_moved", "fabric_rdma_transfers",
                 "fabric_transfers", "ssd_bytes_written", "ssd_bytes_read"):
        assert got.system_stats[stat] == exact.system_stats[stat], stat


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_exact_is_default_and_unchanged(name):
    """No-fidelity calls run the exact tier and match it bit for bit."""
    spec, seed = CONFIGS[name]
    exact = _exact(name)
    default = run_workflow(spec, seed=seed, jitter_cv=0.0)
    for metric in METRICS:
        assert getattr(default, metric) == getattr(exact, metric)
    assert default.fidelity == exact.fidelity == "exact"
    assert exact.system_stats["fidelity"] == 0.0
    assert exact.system_stats["fluid_epochs"] == 0.0
    assert exact.system_stats["rate_solves"] == 0.0


@pytest.mark.parametrize("tier,ordinal", [("hybrid", 1.0)])
def test_tier_metadata_and_counters(tier, ordinal):
    spec, seed = CONFIGS["fig7-dyad"]
    got = run_workflow(spec, seed=seed, jitter_cv=0.0, fidelity=tier)
    assert got.fidelity == tier
    assert got.system_stats["fidelity"] == ordinal
    assert got.system_stats["fluid_epochs"] > 0.0
    assert got.system_stats["rate_solves"] > 0.0
    # fluid links feed the same channel_* aggregation (peaks are real),
    # but never reschedule nor defuse stale wakeups: the network keeps
    # one wake-up total, re-aimed in place
    assert got.system_stats["channel_peak_flows"] > 0.0
    assert got.system_stats["channel_stale_wakeups"] == 0.0
    assert got.system_stats["channel_reschedules"] == 0.0


def test_unknown_fidelity_rejected():
    spec, seed = CONFIGS["fig7-dyad"]
    with pytest.raises(ConfigError):
        run_workflow(spec, seed=seed, fidelity="turbo")
