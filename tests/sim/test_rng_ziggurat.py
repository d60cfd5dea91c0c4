"""The pure-Python ziggurat equals numpy's ``standard_normal`` bit for bit.

Random states rarely leave the ziggurat's fast path, so these tests craft
PCG64 states whose next output lands in a chosen strip beyond that
strip's inner rectangle: strips 1–255 then go through the wedge test
(accepted or rejected, after which the draw starts over) and strip 0
through the tail. Each case is checked against numpy's own generator
started from the same state, in value and in the state it ends in.
"""

import math
import random

import numpy as np
import pytest

from repro.sim.rng import (
    _FI as FI, _KI as KI, _PCG_MULT, _TAIL_INV_R, _TAIL_R, _WI as WI,
    RngStreams, _next64, _standard_normal,
)

M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def state_before(output: int, hi: int, inc: int) -> int:
    """A PCG64 state whose next step outputs ``output``.

    ``hi`` is the stepped state's high word (its top six bits are the
    XSL-RR rotation); the low word follows from ``output``.
    """
    rot = hi >> 58
    folded = ((output << rot) | (output >> (64 - rot))) & M64 if rot else output
    stepped = hi << 64 | (folded ^ hi)
    return ((stepped - inc) * MULT_INV) & M128


def numpy_pcg64(state: int, inc: int):
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


def numpy_normal(state: int, inc: int):
    """numpy's next standard normal from ``(state, inc)``, and the state
    it leaves."""
    bitgen = numpy_pcg64(state, inc)
    value = np.random.Generator(bitgen).standard_normal()
    return value, bitgen.state["state"]["state"]


def crafted_cases(strip: int, count: int, seed: int):
    """``count`` (state, inc) pairs whose first draw misses strip
    ``strip``'s fast path, with either sign."""
    rnd = random.Random(seed * 1000 + strip)
    for i in range(count):
        rabs = rnd.randrange(KI[strip], 1 << 52)
        output = (rnd.getrandbits(3) << 61 | rabs << 9 | (i & 1) << 8
                  | strip)
        inc = rnd.getrandbits(127) << 1 | 1
        state = state_before(output, rnd.getrandbits(64), inc)
        assert _next64([state, inc]) == output
        yield state, inc


def test_slow_paths_match_numpy():
    """Strip 0 exercises the tail, every other strip the wedge test; about
    half the wedge tests reject and draw again."""
    cases = [(strip, case) for strip in range(256)
             for case in crafted_cases(strip, 8, seed=1)]
    for strip, (state, inc) in cases:
        expected, end_state = numpy_normal(state, inc)
        pcg = [state, inc]
        got = _standard_normal(pcg)
        assert got.hex() == float(expected).hex(), f"strip {strip}"
        assert pcg == [end_state, inc], f"strip {strip}"


@pytest.mark.parametrize("strip", [0, 1, 2, 127, 254, 255])
def test_jitter_through_slow_paths_matches_numpy(strip):
    """jitter() hands the slow cases over and keeps the stream's state."""
    mean, cv = 0.8201916265891211, 0.05
    streams = RngStreams(0)
    streams.jitter("crafted", mean, cv)  # creates the stream
    mu, sigma = streams._lognormal[mean, cv]
    for state, inc in crafted_cases(strip, 16, seed=2):
        streams._states["crafted"] = [state, inc]
        expected, end_state = numpy_normal(state, inc)
        got = streams.jitter("crafted", mean, cv)
        assert got.hex() == math.exp(mu + sigma * float(expected)).hex()
        assert streams._states["crafted"] == [end_state, inc]


def test_random_states_match_numpy():
    """Uncrafted states, mostly the fast path, over several draws each."""
    rnd = random.Random(3)
    for _ in range(40):
        state, inc = rnd.getrandbits(128), rnd.getrandbits(127) << 1 | 1
        streams = RngStreams(0)
        streams._states["s"] = [state, inc]
        streams._lognormal[1.0, 1.0] = (0.0, 1.0)  # exp(z) exactly
        bitgen = numpy_pcg64(state, inc)
        expected = np.random.Generator(bitgen).standard_normal(50)
        got = [streams.jitter("s", 1.0, 1.0) for _ in range(50)]
        assert [g.hex() for g in got] == [math.exp(z).hex()
                                          for z in expected.tolist()]
        assert streams._states["s"][0] == bitgen.state["state"]["state"]


def test_tables_are_numpys_ziggurat():
    """Spot values of numpy's ki/wi/fi_double and the tables' shape."""
    assert len(KI) == len(WI) == len(FI) == 256
    assert KI[0] == 0xEF33D8025EF6A and KI[1] == 0
    assert FI[0] == 1.0 and all(a > b for a, b in zip(FI, FI[1:]))
    assert all(k < 1 << 52 for k in KI)
    assert _TAIL_R * _TAIL_INV_R == pytest.approx(1.0, rel=1e-15)
