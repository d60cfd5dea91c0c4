"""Property tests: pure-Python jitter draws equal numpy's.

:meth:`RngStreams.jitter` derives each stream's PCG64 state in integer
arithmetic and draws each standard normal with its own PCG64 step and
ziggurat. The reference here is the straightforward construction it
replaces: one
``default_rng(SeedSequence(seed, spawn_key=(fnv1a(name),)))`` per name and
one scalar ``lognormal(mu, sigma)`` per sample. Both sides take
``mu``/``sigma`` from :func:`repro.sim.rng._lognormal_params` (the C
library's ``log1p``/``log``/``sqrt``): numpy's ufuncs pick a SIMD kernel
by CPU and may round those differently, which would test numpy's
logarithms rather than the draws. Equality is bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.sim.rng import (
    RngStreams, _child_state, _lognormal_params, _root_pool, _stable_hash,
)

NAMES = ("fabric.latency", "lustre.mds", "pair0.frame0", "pair31.frame63",
         "node00.ssd.wlat", "")
#: (mean, cv) pairs of the kinds the simulator draws: device latencies,
#: MD strides, wide and narrow spreads
PARAMS = ((2.2e-05, 0.05), (0.8201916265891211, 0.05), (1.5e-04, 0.3),
          (3.0, 2.0), (1e-09, 0.01), (123.25, 1e-06))

seeds = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**64),   # wider than one word
    st.integers(min_value=2**128, max_value=2**200),  # wider than the pool
)


class Reference:
    """Unbuffered draws: one numpy generator per name, one call per sample."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.gens = {}

    def jitter(self, name: str, mean: float, cv: float) -> float:
        gen = self.gens.get(name)
        if gen is None:
            gen = self.gens[name] = np.random.default_rng(
                np.random.SeedSequence(self.seed,
                                       spawn_key=(_stable_hash(name),)))
        mu, sigma = _lognormal_params(mean, cv)
        return float(gen.lognormal(mu, sigma))


@given(seed=seeds,
       calls=st.lists(st.tuples(st.sampled_from(NAMES),
                                st.sampled_from(PARAMS)),
                      min_size=1, max_size=120))
@settings(max_examples=80, deadline=None)
def test_interleaved_buffered_draws_are_bit_identical(seed, calls):
    """Any interleaving of names and (mean, cv) pairs matches numpy."""
    streams, reference = RngStreams(seed), Reference(seed)
    for name, (mean, cv) in calls:
        got = streams.jitter(name, mean, cv)
        assert got.hex() == reference.jitter(name, mean, cv).hex()


@given(seed=seeds, draws=st.integers(min_value=1, max_value=1100),
       params=st.sampled_from(PARAMS))
@settings(max_examples=15, deadline=None)
def test_long_streams_cross_block_boundaries(seed, draws, params):
    """Long runs of one stream stay exact."""
    streams, reference = RngStreams(seed), Reference(seed)
    for _ in range(draws):
        got = streams.jitter("fabric.latency", *params)
        assert got.hex() == reference.jitter("fabric.latency", *params).hex()


@given(seed=seeds, key=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_child_state_matches_numpy_pcg64_seeding(seed, key):
    """Integer child derivation equals numpy's SeedSequence + PCG64 state."""
    state, inc = _child_state(*_root_pool(seed), key)
    bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,)))
    expected = bitgen.state["state"]
    assert (state, inc) == (expected["state"], expected["inc"])
