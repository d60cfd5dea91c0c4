"""Deterministic named random-number streams for simulations.

Every stochastic element of the simulated cluster (device jitter, Lustre
cross-traffic, service-time variation) draws from its own named stream so
that adding a new source of randomness never perturbs existing ones — a
standard variance-reduction practice in simulation studies. Stream
``name`` of a family seeded with ``seed`` is the PCG64 generator numpy
builds from ``SeedSequence(seed, spawn_key=(fnv1a(name),))``, so runs are
reproducible across platforms.

Two ways to draw, one per stream name:

- :meth:`RngStreams.stream` hands out a handle whose ``random()`` is
  numpy's ``Generator.random()`` on that stream (``next_double``: the top
  53 bits of one PCG64 step), for the consumers that draw uniforms (fault
  decisions, retry jitter).
- :meth:`RngStreams.jitter` is the hot path of every timed operation.

Neither needs numpy. The seed's entropy pool is mixed once per family;
each name's PCG64 ``(state, inc)`` is then derived in integer arithmetic
(exactly what ``SeedSequence.generate_state`` and PCG64 seeding
compute). Each :meth:`~RngStreams.jitter` sample steps that state once
(more only when the ziggurat rejects) and turns the 64-bit output into a
standard normal with numpy's 256-strip ziggurat (its tables close this
module), so nothing is drawn ahead. ``(mu, sigma)`` come from ``math``,
which calls the C library as numpy's scalar code does; numpy's
vectorised ufuncs are dispatched by CPU and may round differently.
numpy's lognormal is ``exp(mu + sigma * z)``, so every sample is
bit-identical to calling ``lognormal(mu, sigma)`` once per sample on
numpy's generator. Both paths depend only on Python ints and the C
library's math, not on numpy's version or the CPU's SIMD, and need no
numpy installed.

The two paths keep separate states, so one name may only ever use one of
them; mixing them raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from repro.errors import SimulationError

__all__ = ["RngStreams"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: the 52 magnitude bits of a ziggurat draw
_M52 = (1 << 52) - 1
#: numpy's next_double: the top 53 bits of a draw times 2**-53
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

# numpy.random.SeedSequence's pool size and hashing constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """``(xor, multiply)`` operands of ``n`` successive SeedSequence hashes.

    Each hash XORs with the running constant, advances it by ``mult`` and
    multiplies by the advanced value.
    """
    out = []
    const = init
    for _ in range(n):
        nxt = (const * mult) & _M32
        out.append((const, nxt))
        const = nxt
    return tuple(out)


#: ``generate_state(4, uint64)`` hashes 8 words cycling over the pool
_OUTPUT_HASHES = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _mix_words(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _root_pool(seed: int) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """Mix ``seed``'s entropy as ``SeedSequence(seed, spawn_key=(k,))`` does
    before it reaches the spawn key ``k``.

    Returns the mixed pool and the hash operands the (one-word) spawn key
    is then mixed in with; neither depends on ``k``.
    """
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    # a spawn key pads the run entropy to the pool size with zeros
    words += [0] * (_POOL_SIZE - len(words))
    n_hashes = _POOL_SIZE * _POOL_SIZE + (len(words) - _POOL_SIZE) * _POOL_SIZE
    hashes = iter(_hash_consts(_INIT_A, _MULT_A, n_hashes + _POOL_SIZE))

    def hashmix(value: int) -> int:
        xor, mul = next(hashes)
        value = ((value ^ xor) * mul) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix_words(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix_words(pool[dst], hashmix(word))
    return tuple(pool), tuple(hashes)


def _child_state(pool: Tuple[int, ...], spawn: Tuple[Tuple[int, int], ...],
                 key: int) -> Tuple[int, int]:
    """PCG64 ``(state, inc)`` numpy seeds from ``SeedSequence(seed,
    spawn_key=(key,))``, given the seed's mixed ``pool`` and ``spawn`` hash
    operands.

    Runs once per stream name, so ``_mix_words`` is inlined.
    """
    mixed = list(pool)
    for i in range(_POOL_SIZE):
        xor, mul = spawn[i]
        value = ((key ^ xor) * mul) & _M32
        r = (_MIX_MULT_L * mixed[i] - _MIX_MULT_R * (value ^ (value >> 16))) & _M32
        mixed[i] = r ^ (r >> 16)
    # generate_state(4, uint64): 8 hashed words cycling over the pool, read
    # as little-endian uint64 pairs (state high, low; sequence high, low)
    w = mixed * 2
    for i in range(2 * _POOL_SIZE):
        xor, mul = _OUTPUT_HASHES[i]
        value = ((w[i] ^ xor) * mul) & _M32
        w[i] = value ^ (value >> 16)
    init_state = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    init_seq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
    # pcg64_srandom_r: state = 0; step; state += init_state; step
    inc = (init_seq << 1 | 1) & _M128
    return ((inc + init_state) * _PCG_MULT + inc) & _M128, inc


def _lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """``(mu, sigma)`` of the lognormal with ``mean`` and ``cv``."""
    sigma2 = math.log1p(cv * cv)
    return math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2)


def _next64(pcg: List[int]) -> int:
    """Step the PCG64 ``[state, inc]`` in place; its 64-bit output."""
    state = pcg[0] = (pcg[0] * _PCG_MULT + pcg[1]) & _M128
    # XSL-RR: fold the halves together, then rotate right by the top six
    # bits (shifting the word's doubled copy)
    bits = ((state >> 64) ^ state) & _M64
    return ((bits | bits << 64) >> (state >> 122)) & _M64


def _next_double(pcg: List[int]) -> float:
    """numpy's ``next_double``: the top 53 bits of a draw times 2**-53."""
    return (_next64(pcg) >> 11) * _DOUBLE_UNIT


def _standard_normal(pcg: List[int]) -> float:
    """numpy's ``random_standard_normal`` on the PCG64 ``[state, inc]``.

    Each draw gives 8 bits to pick one of the ziggurat's 256 strips, 1 to
    the sign and 52 to the magnitude. About 99% of draws fall inside their
    strip's inner rectangle and are returned at once. Otherwise strip 0
    samples the tail beyond ``_TAIL_R``, the others accept ``x`` under the
    wedge test, and a rejected draw starts over, exactly as numpy loops.
    """
    while True:
        bits = _next64(pcg)
        idx = bits & 0xFF
        rabs = (bits >> 9) & _M52
        x = rabs * _WI[idx]
        if bits & 0x100:
            x = -x
        if rabs < _KI[idx]:
            return x
        if idx == 0:
            while True:
                # 1 - U, as numpy draws it, keeps log1p away from -1
                xx = -_TAIL_INV_R * math.log1p(-_next_double(pcg))
                yy = -math.log1p(-_next_double(pcg))
                if yy + yy > xx * xx:
                    xx += _TAIL_R
                    return -xx if (rabs >> 8) & 1 else xx
        if ((_FI[idx - 1] - _FI[idx]) * _next_double(pcg) + _FI[idx]
                < math.exp(-0.5 * x * x)):
            return x


class _Stream:
    """What :meth:`RngStreams.stream` hands out: one name's uniform draws."""

    __slots__ = ("_pcg",)

    def __init__(self, pcg: List[int]) -> None:
        self._pcg = pcg

    def random(self) -> float:
        """numpy's ``Generator.random()``: one double in ``[0, 1)``."""
        return _next_double(self._pcg)


class RngStreams:
    """A family of independent, named random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._pool, self._spawn = _root_pool(self.seed)
        #: the handle of every :meth:`stream` name
        self._streams: Dict[str, _Stream] = {}
        #: PCG64 ``[state, inc]`` of every :meth:`jitter` stream
        self._states: Dict[str, List[int]] = {}
        #: ``(mu, sigma)`` per ``(mean, cv)`` drawn in this family
        self._lognormal: Dict[Tuple[float, float], Tuple[float, float]] = {}

    def stream(self, name: str) -> _Stream:
        """Return (creating on first use) the uniform stream for ``name``.

        The same (seed, name) pair always yields the same sequence,
        regardless of creation order of other streams.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._states:
                raise SimulationError(
                    f"stream {name!r} is already drawn through jitter(); "
                    "stream() would repeat its draws")
            gen = self._streams[name] = _Stream(self._derive(name))
        return gen

    def jitter(self, name: str, mean: float, cv: float) -> float:
        """One positive sample around ``mean`` with coefficient of variation ``cv``.

        Uses a lognormal so samples are strictly positive; ``cv = 0``
        returns ``mean`` exactly (deterministic mode).
        """
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if cv < 0:
            raise ValueError(f"cv must be non-negative, got {cv}")
        if mean == 0.0 or cv == 0.0:
            return mean
        # Lookups are subscripts, not calls: this runs once per timed
        # operation.
        try:
            mu, sigma = self._lognormal[mean, cv]
        except KeyError:
            mu, sigma = self._lognormal[mean, cv] = _lognormal_params(mean, cv)
        try:
            pcg = self._states[name]
        except KeyError:
            pcg = self._new_state(name)
        try:
            return math.exp(mu + sigma * _standard_normal(pcg))
        except OverflowError:  # numpy's exp saturates instead
            return math.inf

    def spawn(self, index: int) -> "RngStreams":
        """Derive an independent child family (one per repetition run)."""
        return RngStreams(seed=_mix(self.seed, index))

    def names(self) -> Iterator[str]:
        """Iterate over stream names created so far (both draw paths)."""
        return iter([*self._streams, *self._states])

    def _new_state(self, name: str) -> List[int]:
        if name in self._streams:
            raise SimulationError(
                f"stream {name!r} is already drawn through stream(); "
                "jitter() would repeat its draws")
        pcg = self._states[name] = self._derive(name)
        return pcg

    def _derive(self, name: str) -> List[int]:
        """A fresh PCG64 ``[state, inc]`` for stream ``name``."""
        return list(_child_state(self._pool, self._spawn, _stable_hash(name)))


@lru_cache(maxsize=2048)
def _stable_hash(name: str) -> int:
    """Platform-stable 32-bit hash of a stream name (FNV-1a).

    Memoised (bounded): every run of a grid names the same streams.
    """
    acc = 2166136261
    for byte in name.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def _mix(seed: int, index: int) -> int:
    """Mix a run index into a root seed (splitmix64 finalizer)."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


# -- numpy's standard-normal ziggurat tables ---------------------------------
#
# _KI, _WI and _FI are numpy's ki_double, wi_double and fi_double
# (numpy/random/src/distributions/ziggurat_constants.h): 256 strips of
# Marsaglia and Tsang's ziggurat with 52-bit acceptance thresholds, as
# numpy 2.4.6 ships them. They were read from the .rodata section of
# distributions.c.o inside the libnpyrandom.a static library numpy wheels
# install under numpy/random/lib/ (nm/readelf give each table's offset,
# 2048 bytes each), and are written as integers and float.hex strings so
# that every bit survives. _TAIL_R and _TAIL_INV_R are ziggurat_nor_r and
# ziggurat_nor_inv_r of distributions.c. tests/sim/test_rng_ziggurat.py
# checks them against numpy's standard_normal strip by strip.
#
# Copyright (c) 2019 Kevin Sheppard. numpy's random module is dual-licensed
# under the University of Illinois/NCSA Open Source License and the
# 3-Clause BSD License (numpy/random/LICENSE.md), whose terms require this
# notice to be kept with the tables.

#: start of the tail (right edge of the base strip)
_TAIL_R = 3.6541528853610087963519472518
_TAIL_INV_R = 0.27366123732975827203338247596

#: per strip: largest 52-bit ``rabs`` accepted without the wedge test
_KI = (
    0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
    0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
    0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
    0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
    0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
    0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
    0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
    0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
    0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
    0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
    0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
    0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
    0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
    0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
    0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
    0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
    0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
    0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
    0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
    0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
    0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
    0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
    0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
    0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
    0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
    0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
    0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
    0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
    0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
    0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
    0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
    0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
    0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
    0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
    0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
    0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
    0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
    0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
    0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
    0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
    0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
    0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
    0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
    0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
    0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
    0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
    0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
    0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
    0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
    0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
    0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
    0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
    0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
    0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
    0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
    0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
    0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
    0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
    0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
    0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
    0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
    0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
    0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
    0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
)

#: per strip: width of one ``rabs`` unit (``x = rabs * _WI[idx]``)
_WI = tuple(map(float.fromhex, (
    "0x1.f493b7815d979p-51", "0x1.b8d0be3fdf6c6p-55", "0x1.250af3c2c5bb4p-54",
    "0x1.57cb938443b61p-54", "0x1.801fce82fa70cp-54", "0x1.a230c2e4cd0bcp-54",
    "0x1.c004d2f3861f7p-54", "0x1.dac2f5a747274p-54", "0x1.f32482d4cd5c3p-54",
    "0x1.04d32278ebbadp-53", "0x1.0f5053b025d43p-53", "0x1.192a697413677p-53",
    "0x1.227a28f7a1af5p-53", "0x1.2b52e3863d880p-53", "0x1.33c3fc05791f5p-53",
    "0x1.3bd9ec1a2b12fp-53", "0x1.439ef8dff9b55p-53", "0x1.4b1bb363dfea7p-53",
    "0x1.52575621ad374p-53", "0x1.59580a707ce96p-53", "0x1.60231cfd97eeap-53",
    "0x1.66bd261a37c3dp-53", "0x1.6d2a292000570p-53", "0x1.736dad346f8a6p-53",
    "0x1.798ad10b32a77p-53", "0x1.7f845ad46f543p-53", "0x1.855cc53430a77p-53",
    "0x1.8b1649e7b769ap-53", "0x1.90b2ea94ecf98p-53", "0x1.96347822c1eeap-53",
    "0x1.9b9c98e38c546p-53", "0x1.a0eccdca4a72cp-53", "0x1.a62676d77cd59p-53",
    "0x1.ab4ad6e101630p-53", "0x1.b05b16d136c9cp-53", "0x1.b558487427a29p-53",
    "0x1.ba4368e529f3ap-53", "0x1.bf1d62abf8232p-53", "0x1.c3e70f9594ef3p-53",
    "0x1.c8a13a5323b61p-53", "0x1.cd4c9fe72268bp-53", "0x1.d1e9f0e80b748p-53",
    "0x1.d679d29e41f10p-53", "0x1.dafce0023b8c3p-53", "0x1.df73aa9f17653p-53",
    "0x1.e3debb5d2edfep-53", "0x1.e83e9337a6f00p-53", "0x1.ec93abdf982cep-53",
    "0x1.f0de784f06226p-53", "0x1.f51f654d8f688p-53", "0x1.f956d9e87d7aep-53",
    "0x1.fd8537dfa2eacp-53", "0x1.00d56e04234ecp-52", "0x1.02e40f5398f9ap-52",
    "0x1.04eea9e16a5fcp-52", "0x1.06f565b72a010p-52", "0x1.08f869071f40bp-52",
    "0x1.0af7d84bc6113p-52", "0x1.0cf3d664bcc7fp-52", "0x1.0eec84b16086bp-52",
    "0x1.10e20329515eep-52", "0x1.12d4707310fbep-52", "0x1.14c3e9f8e9141p-52",
    "0x1.16b08bfc4201ep-52", "0x1.189a71a78da34p-52", "0x1.1a81b51ee6d88p-52",
    "0x1.1c666f8f82acbp-52", "0x1.1e48b93e0d42ep-52", "0x1.2028a9940a09fp-52",
    "0x1.2206572c4c6e9p-52", "0x1.23e1d7de9c31fp-52", "0x1.25bb40ca96bfbp-52",
    "0x1.2792a661dd37fp-52", "0x1.29681c719d71bp-52", "0x1.2b3bb62b82edap-52",
    "0x1.2d0d862e1b853p-52", "0x1.2edd9e8cba98ep-52", "0x1.30ac10d6e48d7p-52",
    "0x1.3278ee1f4b930p-52", "0x1.3444470265ea1p-52", "0x1.360e2baca52d5p-52",
    "0x1.37d6abe05586ap-52", "0x1.399dd6fb2b264p-52", "0x1.3b63bbfb83d03p-52",
    "0x1.3d28698561de0p-52", "0x1.3eebede725a83p-52", "0x1.40ae571e09e74p-52",
    "0x1.426fb2da6745dp-52", "0x1.44300e83c30a4p-52", "0x1.45ef773cac75dp-52",
    "0x1.47adf9e66c336p-52", "0x1.496ba32488f2fp-52", "0x1.4b287f602415dp-52",
    "0x1.4ce49acb311dcp-52", "0x1.4ea001638a605p-52", "0x1.505abef5e5562p-52",
    "0x1.5214df20a8b5ap-52", "0x1.53ce6d56a664fp-52", "0x1.558774e1bb2c8p-52",
    "0x1.574000e555f78p-52", "0x1.58f81c60e8514p-52", "0x1.5aafd23241b59p-52",
    "0x1.5c672d17d733dp-52", "0x1.5e1e37b2f8cd3p-52", "0x1.5fd4fc89f5e38p-52",
    "0x1.618b860a31fc3p-52", "0x1.6341de8a2b0a2p-52", "0x1.64f8104b7260bp-52",
    "0x1.66ae257c99672p-52", "0x1.6864283b13137p-52", "0x1.6a1a22950b2b1p-52",
    "0x1.6bd01e8b343bbp-52", "0x1.6d8626128d352p-52", "0x1.6f3c43161f854p-52",
    "0x1.70f27f78b68ebp-52", "0x1.72a8e516914c6p-52", "0x1.745f7dc70eedcp-52",
    "0x1.7616535e5731fp-52", "0x1.77cd6faeff449p-52", "0x1.7984dc8babd93p-52",
    "0x1.7b3ca3c8b1409p-52", "0x1.7cf4cf3db22fbp-52", "0x1.7ead68c73dee7p-52",
    "0x1.80667a486ea1fp-52", "0x1.82200dac88676p-52", "0x1.83da2ce899f15p-52",
    "0x1.8594e1fd1f5bdp-52", "0x1.875036f7a7ec5p-52", "0x1.890c35f47f72dp-52",
    "0x1.8ac8e9205c043p-52", "0x1.8c865aba10c9cp-52", "0x1.8e44951446a27p-52",
    "0x1.9003a2973b58fp-52", "0x1.91c38dc288347p-52", "0x1.9384612ef0afcp-52",
    "0x1.954627903a28ap-52", "0x1.9708ebb70d5eep-52", "0x1.98ccb892e2a31p-52",
    "0x1.9a919933f99bfp-52", "0x1.9c5798cd5d92cp-52", "0x1.9e1ec2b6f7411p-52",
    "0x1.9fe7226fad24ap-52", "0x1.a1b0c39f93692p-52", "0x1.a37bb21a2c85bp-52",
    "0x1.a547f9e0bbb88p-52", "0x1.a715a724aa9a4p-52", "0x1.a8e4c64a0313dp-52",
    "0x1.aab563e9ff108p-52", "0x1.ac878cd5af5cep-52", "0x1.ae5b4e18bb336p-52",
    "0x1.b030b4fc3a11ap-52", "0x1.b207cf09a985bp-52", "0x1.b3e0aa0e00c00p-52",
    "0x1.b5bb541ce3d03p-52", "0x1.b797db93f8927p-52", "0x1.b9764f1e5f73cp-52",
    "0x1.bb56bdb85256ep-52", "0x1.bd3936b2ec0a2p-52", "0x1.bf1dc9b81ae83p-52",
    "0x1.c10486cec16a0p-52", "0x1.c2ed7e5f07a2dp-52", "0x1.c4d8c136e0d1cp-52",
    "0x1.c6c6608ec8705p-52", "0x1.c8b66e0eba617p-52", "0x1.caa8fbd36a2abp-52",
    "0x1.cc9e1c73bd690p-52", "0x1.ce95e3068e037p-52", "0x1.d0906328b8f6ep-52",
    "0x1.d28db1037ef20p-52", "0x1.d48de1533c647p-52", "0x1.d691096e7f123p-52",
    "0x1.d8973f4d7fba5p-52", "0x1.daa0999206e70p-52", "0x1.dcad2f8fc490ep-52",
    "0x1.debd195522e37p-52", "0x1.e0d06fb49d21cp-52", "0x1.e2e74c4ea46f6p-52",
    "0x1.e501c99c1d188p-52", "0x1.e72002f97fe25p-52", "0x1.e94214b2abf0ap-52",
    "0x1.eb681c0f76f08p-52", "0x1.ed9237610a73ap-52", "0x1.efc086101eca9p-52",
    "0x1.f1f328ac25321p-52", "0x1.f42a40fb74d6dp-52", "0x1.f665f20c90168p-52",
    "0x1.f8a6604899782p-52", "0x1.faebb187122bfp-52", "0x1.fd360d22fe785p-52",
    "0x1.ff859c118f60bp-52", "0x1.00ed447d3a075p-51", "0x1.021a8028fc947p-51",
    "0x1.034a983a902abp-51", "0x1.047da4e3ef5c7p-51", "0x1.05b3bf6adb37ep-51",
    "0x1.06ed023a72668p-51", "0x1.082988f632e17p-51", "0x1.0969708e8a254p-51",
    "0x1.0aacd7571c0c4p-51", "0x1.0bf3dd1eed448p-51", "0x1.0d3ea34aa3d30p-51",
    "0x1.0e8d4cf116593p-51", "0x1.0fdffefa69fb6p-51", "0x1.1136e04207041p-51",
    "0x1.129219bbb5d35p-51", "0x1.13f1d69c4096dp-51", "0x1.1556448602e3bp-51",
    "0x1.16bf93b9deef3p-51", "0x1.182df74d21261p-51", "0x1.19a1a564eebacp-51",
    "0x1.1b1ad777f2f8ep-51", "0x1.1c99ca971a694p-51", "0x1.1e1ebfbe4ae39p-51",
    "0x1.1fa9fc2e2d901p-51", "0x1.213bc9d04cc81p-51", "0x1.22d477a6fd3eep-51",
    "0x1.24745a4ac9c24p-51", "0x1.261bcc77658e0p-51", "0x1.27cb2faa8592ep-51",
    "0x1.2982ecd770e78p-51", "0x1.2b437532a0a52p-51", "0x1.2d0d43196db97p-51",
    "0x1.2ee0db1a978f5p-51", "0x1.30becd256aeeep-51", "0x1.32a7b5e68a4a3p-51",
    "0x1.349c405ae12a3p-51", "0x1.369d27a33a840p-51", "0x1.38ab39256410ap-51",
    "0x1.3ac7570ae88fap-51", "0x1.3cf27b31704a6p-51", "0x1.3f2dbaa60f475p-51",
    "0x1.417a49cb9e5dap-51", "0x1.43d9815545e94p-51", "0x1.464ce44a73a15p-51",
    "0x1.48d62759c43bcp-51", "0x1.4b7739d6b5a27p-51", "0x1.4e3250dcd8902p-51",
    "0x1.5109f53e9ac41p-51", "0x1.54011523a7e42p-51", "0x1.571b1a94ae41bp-51",
    "0x1.5a5c08b718dd9p-51", "0x1.5dc8a243ad0fep-51", "0x1.61669cf861e4cp-51",
    "0x1.653ce7b006aeap-51", "0x1.69540be9fe5c3p-51", "0x1.6db6b8d09e232p-51",
    "0x1.72728f05f7a34p-51", "0x1.7799556090673p-51", "0x1.7d42df4d6ce8cp-51",
    "0x1.839030529f234p-51", "0x1.8ab0fbfaa7c14p-51", "0x1.92ee0946f4496p-51",
    "0x1.9cbee014057abp-51", "0x1.a8fdc7894775ap-51", "0x1.b981f3878fdb1p-51",
    "0x1.d3bb48209ad33p-51",
)))

#: per strip: the density ``exp(-x * x / 2)`` at its edge
_FI = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "0x1.f446ac979f087p-1", "0x1.eb7545b6ca915p-1",
    "0x1.e3f11e027f077p-1", "0x1.dd36fa704de95p-1", "0x1.d70920657bcf2p-1",
    "0x1.d144978a119dcp-1", "0x1.cbd33a8a72debp-1", "0x1.c6a5ecea9787fp-1",
    "0x1.c1b1cd9eebaeap-1", "0x1.bceeb4ee1dc82p-1", "0x1.b85653a8ff552p-1",
    "0x1.b3e3a8234dd10p-1", "0x1.af92a3f6ce8a2p-1", "0x1.ab5fef17a2504p-1",
    "0x1.a748bd550c9e1p-1", "0x1.a34aafdf5af0fp-1", "0x1.9f63bee651fd8p-1",
    "0x1.9b9228d240681p-1", "0x1.97d4657617ac1p-1", "0x1.94291c21b7a47p-1",
    "0x1.908f1bd31714fp-1", "0x1.8d0554fe60aa8p-1", "0x1.898ad48badf02p-1",
    "0x1.861ebfc37bcacp-1", "0x1.82c050f56cf6ep-1", "0x1.7f6ed4b20e2cbp-1",
    "0x1.7c29a779c6858p-1", "0x1.78f033ca0b0d5p-1", "0x1.75c1f0770d856p-1",
    "0x1.729e5f43f6d12p-1", "0x1.6f850baea7aeep-1", "0x1.6c7589e635a89p-1",
    "0x1.696f75e513b2ap-1", "0x1.667272a92e323p-1", "0x1.637e298550c18p-1",
    "0x1.6092498802665p-1", "0x1.5dae86f4aff6ap-1", "0x1.5ad29acc85c89p-1",
    "0x1.57fe4264c8d8fp-1", "0x1.55313f08d9e46p-1", "0x1.526b55a656cd5p-1",
    "0x1.4fac4e820b667p-1", "0x1.4cf3f4f494ec0p-1", "0x1.4a42172dc5278p-1",
    "0x1.479685fdf5012p-1", "0x1.44f114a493679p-1", "0x1.425198a355fe3p-1",
    "0x1.3fb7e99585b82p-1", "0x1.3d23e10af31a3p-1", "0x1.3a955a662cd0ep-1",
    "0x1.380c32bda00d5p-1", "0x1.358848bf550e9p-1", "0x1.33097c9703a35p-1",
    "0x1.308fafd6438efp-1", "0x1.2e1ac55ea3beep-1", "0x1.2baaa14d7954ap-1",
    "0x1.293f28e93cd15p-1", "0x1.26d84290504edp-1", "0x1.2475d5a90db84p-1",
    "0x1.2217ca92ff7f2p-1", "0x1.1fbe0a9929620p-1", "0x1.1d687fe549969p-1",
    "0x1.1b171573fd111p-1", "0x1.18c9b709b3c50p-1", "0x1.16805128639dap-1",
    "0x1.143ad105ea99cp-1", "0x1.11f9248311f38p-1", "0x1.0fbb3a2325913p-1",
    "0x1.0d810104142a0p-1", "0x1.0b4a68d70d9aep-1", "0x1.091761d995d81p-1",
    "0x1.06e7dccf03c36p-1", "0x1.04bbcafa63f2ep-1", "0x1.02931e18b822ap-1",
    "0x1.006dc85b8cac4p-1", "0x1.fc9778c7bbda1p-2", "0x1.f859da7a900cap-2",
    "0x1.f4229cb2f7af3p-2", "0x1.eff1a717e8f95p-2", "0x1.ebc6e20bd1f54p-2",
    "0x1.e7a236a4ec3c5p-2", "0x1.e3838ea5f9b85p-2", "0x1.df6ad47763a09p-2",
    "0x1.db57f320b56b1p-2", "0x1.d74ad6426de33p-2", "0x1.d3436a1021080p-2",
    "0x1.cf419b4ae5b6dp-2", "0x1.cb45573c0a848p-2", "0x1.c74e8bb00d7c7p-2",
    "0x1.c35d26f1d2cb8p-2", "0x1.bf7117c616a17p-2", "0x1.bb8a4d6716d91p-2",
    "0x1.b7a8b7807131bp-2", "0x1.b3cc462b331cap-2", "0x1.aff4e9ea18552p-2",
    "0x1.ac2293a5f5a9ep-2", "0x1.a85534aa4d880p-2", "0x1.a48cbea20c04dp-2",
    "0x1.a0c923946843ep-2", "0x1.9d0a55e1e93dfp-2", "0x1.995048418c0c6p-2",
    "0x1.959aedbe09f93p-2", "0x1.91ea39b33cb17p-2", "0x1.8e3e1fcb9f115p-2",
    "0x1.8a9693fde9188p-2", "0x1.86f38a8ac5ab6p-2", "0x1.8354f7faa0dd9p-2",
    "0x1.7fbad11b8d911p-2", "0x1.7c250aff414b0p-2", "0x1.78939af9252ebp-2",
    "0x1.7506769c7b1edp-2", "0x1.717d93ba9614cp-2", "0x1.6df8e86124caap-2",
    "0x1.6a786ad88de21p-2", "0x1.66fc11a25cbe2p-2", "0x1.6383d377be515p-2",
    "0x1.600fa7480d2c8p-2", "0x1.5c9f84376c244p-2", "0x1.5933619d6eebep-2",
    "0x1.55cb3703d0100p-2", "0x1.5266fc2533bedp-2", "0x1.4f06a8ebf6d92p-2",
    "0x1.4baa357109ca2p-2", "0x1.485199fad6ad4p-2", "0x1.44fccefc324fep-2",
    "0x1.41abcd1357a19p-2", "0x1.3e5e8d08ed2dbp-2", "0x1.3b1507cf143aep-2",
    "0x1.37cf368081379p-2", "0x1.348d125f9d19ep-2", "0x1.314e94d5af62fp-2",
    "0x1.2e13b77210766p-2", "0x1.2adc73e963fddp-2", "0x1.27a8c414db11ep-2",
    "0x1.2478a1f17de89p-2", "0x1.214c079f7cc9ep-2", "0x1.1e22ef6188116p-2",
    "0x1.1afd539c2f050p-2", "0x1.17db2ed5454e8p-2", "0x1.14bc7bb34ee67p-2",
    "0x1.11a134fcf2423p-2", "0x1.0e895598709c4p-2", "0x1.0b74d88b242dap-2",
    "0x1.0863b8f904336p-2", "0x1.0555f2242e9d9p-2", "0x1.024b7f6c7747ep-2",
    "0x1.fe88b89df93c5p-3", "0x1.f88108cb83235p-3", "0x1.f27fe6ce998d2p-3",
    "0x1.ec854a4c99c44p-3", "0x1.e6912b2283cddp-3", "0x1.e0a3816457184p-3",
    "0x1.dabc455c7900ap-3", "0x1.d4db6f8b2514fp-3", "0x1.cf00f8a5e6fccp-3",
    "0x1.c92cd9971df53p-3", "0x1.c35f0b7d89d47p-3", "0x1.bd9787abe18a1p-3",
    "0x1.b7d647a8731aap-3", "0x1.b21b452ccd13ap-3", "0x1.ac667a2571807p-3",
    "0x1.a6b7e0b19267ep-3", "0x1.a10f7322d7e3dp-3", "0x1.9b6d2bfd2fe5ap-3",
    "0x1.95d105f6a7c27p-3", "0x1.903afbf74fa69p-3", "0x1.8aab09192815bp-3",
    "0x1.852128a819a38p-3", "0x1.7f9d5621f7175p-3", "0x1.7a1f8d368a323p-3",
    "0x1.74a7c9c7ab5a6p-3", "0x1.6f3607e964716p-3", "0x1.69ca43e21f25cp-3",
    "0x1.64647a2adf19cp-3", "0x1.5f04a76f883f9p-3", "0x1.59aac88f31d6cp-3",
    "0x1.5456da9c86835p-3", "0x1.4f08dade31fc1p-3", "0x1.49c0c6cf5ce2dp-3",
    "0x1.447e9c20375d5p-3", "0x1.3f4258b6931aep-3", "0x1.3a0bfaae8d7eep-3",
    "0x1.34db805b4ab88p-3", "0x1.2fb0e847c2a65p-3", "0x1.2a8c3137a071ap-3",
    "0x1.256d5a2835eb7p-3", "0x1.2054625183c34p-3", "0x1.1b41492757d42p-3",
    "0x1.16340e5a82d63p-3", "0x1.112cb1da26eb9p-3", "0x1.0c2b33d5209bap-3",
    "0x1.072f94bb8bf85p-3", "0x1.0239d54067d2ap-3", "0x1.fa93ecb6b222cp-4",
    "0x1.f0bff29520e1cp-4", "0x1.e6f7bf29aa54bp-4", "0x1.dd3b56176e88fp-4",
    "0x1.d38abb9bd91e5p-4", "0x1.c9e5f493b740ap-4", "0x1.c04d0680b1015p-4",
    "0x1.b6bff78f2e233p-4", "0x1.ad3ece9caf633p-4", "0x1.a3c9933ea6286p-4",
    "0x1.9a604dc9d5b19p-4", "0x1.9103075a4a0abp-4", "0x1.87b1c9dbf2852p-4",
    "0x1.7e6ca013eefd6p-4", "0x1.753395aaa1176p-4", "0x1.6c06b73694a4cp-4",
    "0x1.62e6124854d18p-4", "0x1.59d1b577466a4p-4", "0x1.50c9b06fa2baep-4",
    "0x1.47ce1401b2213p-4", "0x1.3edef23269a86p-4", "0x1.35fc5e4d93e70p-4",
    "0x1.2d266cf9b3111p-4", "0x1.245d344dd0d91p-4", "0x1.1ba0cbe97897dp-4",
    "0x1.12f14d0f2179dp-4", "0x1.0a4ed2c159625p-4", "0x1.01b979e30e497p-4",
    "0x1.f262c2b6c6e35p-5", "0x1.e16d547b25181p-5", "0x1.d092efeadf162p-5",
    "0x1.bfd3e0f282a2cp-5", "0x1.af30790385f70p-5", "0x1.9ea90f9295563p-5",
    "0x1.8e3e02a68b5abp-5", "0x1.7defb77af271ep-5", "0x1.6dbe9b398d064p-5",
    "0x1.5dab23cf2add4p-5", "0x1.4db5d0e11275dp-5", "0x1.3ddf2ce98eecbp-5",
    "0x1.2e27ce83df497p-5", "0x1.1e9059f1f6abcp-5", "0x1.0f1982e968011p-5",
    "0x1.ff881d718a5c4p-6", "0x1.e121adb828c75p-6", "0x1.c301983cd091ap-6",
    "0x1.a529f4e22ebf8p-6", "0x1.879d1b600c10ap-6", "0x1.6a5daf40bbf82p-6",
    "0x1.4d6eaf2fbb064p-6", "0x1.30d388dab5e13p-6", "0x1.1490334603012p-6",
    "0x1.f152a4f72dd49p-7", "0x1.ba48d274f8facp-7", "0x1.841040d8da478p-7",
    "0x1.4eb96421acfe0p-7", "0x1.1a59229952f92p-7", "0x1.ce160f8ec6837p-8",
    "0x1.69ea8d90cb85dp-8", "0x1.08a1f03b0b1fdp-8", "0x1.55f9f43c1b067p-9",
    "0x1.4a605b6b9f70fp-10",
)))
