"""Property-based tests at the workflow level.

Hypothesis draws whole :class:`~repro.workflow.spec.WorkflowSpec` values
— shape x system x sync x window, 2-4 frames, sizes valid on every
system (single-node XFS fits 8 procs) — and runs them end to end with
no jitter:

- every spec completes under the fatal invariant checker with zero
  violations, at the exact and hybrid tiers, and each streaming edge
  issues exactly one credit per frame;
- at the exact tier, nbuffer is the windowed W=2 schedule for every
  shape: same makespan, same bytes on the fabric and the SSDs;
- the hybrid tier's makespan matches the exact tier's within the
  documented 1e-3 relative tolerance for every spec.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.runner import run_workflow
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

SYNCS = tuple(SyncMode)
#: Documented agreement of the hybrid tier with the exact tier.
TIER_REL_TOL = 1e-3
BYTE_COUNTERS = ("fabric_bytes_moved", "ssd_bytes_written", "ssd_bytes_read")


@st.composite
def shapes(draw):
    """``(topology, sizes)`` within 8 procs, so XFS fits one node."""
    topology = draw(st.sampled_from(tuple(Topology)))
    if topology is Topology.PAIRWISE:
        return topology, {"pairs": draw(st.integers(1, 4))}
    if topology is Topology.FANOUT:
        return topology, {"consumers": draw(st.integers(1, 7))}
    if topology is Topology.FANIN:
        return topology, {"producers": draw(st.integers(1, 7))}
    return topology, {"producers": draw(st.integers(1, 4)),
                      "consumers": draw(st.integers(1, 4))}


def make_spec(system, topology, sizes, sync, frames, window=2):
    placement = (Placement.SINGLE_NODE if system is System.XFS
                 else Placement.SPLIT)
    return WorkflowSpec(system=system, frames=frames, placement=placement,
                        sync_mode=sync, window=window, topology=topology,
                        **sizes)


def edges(spec):
    """Credit edges: one per consumer of a fan-out, else one per stream."""
    return (spec.consumers if spec.topology is Topology.FANOUT
            else spec.streams)


@st.composite
def specs(draw):
    """Any shape x system x sync x window x 2-4 frames (nbuffer: W=2)."""
    topology, sizes = draw(shapes())
    sync = draw(st.sampled_from(SYNCS))
    window = (2 if sync is SyncMode.NBUFFER
              else draw(st.integers(min_value=1, max_value=4)))
    return make_spec(draw(st.sampled_from(tuple(System))), topology, sizes,
                     sync, draw(st.integers(min_value=2, max_value=4)),
                     window)


@given(spec=specs(), fidelity=st.sampled_from(("exact", "hybrid")))
@settings(max_examples=100, deadline=None)
def test_any_spec_runs_clean(spec, fidelity):
    result = run_workflow(spec, jitter_cv=0.0, fidelity=fidelity)
    assert result.invariant_violations == []
    stats = result.system_stats
    assert stats["invariant_violations"] == 0.0
    if spec.is_streaming:
        expected = float(edges(spec) * spec.frames)
        assert stats["stream_credits_issued"] == expected
        assert stats["stream_credits_returned"] == expected


@given(
    shape=shapes(),
    system=st.sampled_from(tuple(System)),
    frames=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_nbuffer_is_windowed_w2_for_every_shape(shape, system, frames):
    topology, sizes = shape
    nbuffer = run_workflow(
        make_spec(system, topology, sizes, SyncMode.NBUFFER, frames))
    windowed = run_workflow(
        make_spec(system, topology, sizes, SyncMode.WINDOWED, frames))
    assert nbuffer.makespan == windowed.makespan
    for key in BYTE_COUNTERS:
        assert nbuffer.system_stats[key] == windowed.system_stats[key], key


@given(spec=specs())
@settings(max_examples=50, deadline=None)
def test_hybrid_makespan_matches_exact(spec):
    exact = run_workflow(spec, jitter_cv=0.0, fidelity="exact")
    hybrid = run_workflow(spec, jitter_cv=0.0, fidelity="hybrid")
    assert math.isclose(hybrid.makespan, exact.makespan,
                        rel_tol=TIER_REL_TOL), (hybrid.makespan,
                                                exact.makespan)
