"""Deterministic named random-number streams for simulations.

Every stochastic element of the simulated cluster (device jitter, Lustre
cross-traffic, service-time variation) draws from its own named stream so
that adding a new source of randomness never perturbs existing ones — a
standard variance-reduction practice in simulation studies. Stream
``name`` of a family seeded with ``seed`` is the PCG64 generator numpy
builds from ``SeedSequence(seed, spawn_key=(fnv1a(name),))``, so runs are
reproducible across platforms.

Two ways to draw, one per stream name:

- :meth:`RngStreams.stream` hands out that numpy ``Generator`` itself, for
  the few consumers that need arbitrary distributions (fault decisions,
  retry draws).
- :meth:`RngStreams.jitter` is the hot path of every timed operation, and
  most of its streams are drawn twice (one per frame and pair), so it
  builds no ``SeedSequence``/``PCG64`` per name. The seed's entropy pool
  is mixed once per family; each name's PCG64 state is then derived in
  integer arithmetic (exactly what ``SeedSequence.generate_state`` and
  PCG64 seeding compute), and standard normals are drawn a block at a
  time through the family's one scratch generator.
  ``standard_normal(n)`` yields the same values as ``n`` scalar draws, and
  numpy's lognormal is ``exp(mu + sigma * z)``, so every sample is
  bit-identical to calling ``lognormal(mu, sigma)`` once per sample.

Blocks run a stream ahead of the samples handed out, so one name may only
ever use one of the two paths; mixing them raises
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["RngStreams"]

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1

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

#: standard normals per jitter block: few in the first (most per-frame
#: streams are drawn twice), then doubling up to the cap
_FIRST_BLOCK = 8
_MAX_BLOCK = 512


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
    """``(mu, sigma)`` of the lognormal with ``mean`` and ``cv``.

    Computed with numpy's ufuncs, exactly as a per-sample
    ``lognormal(mu, sigma)`` call would get them: numpy's vectorised
    ``log`` may round differently from ``math.log``.
    """
    sigma2 = np.log1p(cv * cv)
    mu = np.log(mean) - 0.5 * sigma2
    return float(mu), float(np.sqrt(sigma2))


class _Draws:
    """Buffered standard normals of one :meth:`RngStreams.jitter` stream."""

    __slots__ = ("state", "inc", "skip", "values", "left")

    def __init__(self, state: int, inc: int, first: List[float]) -> None:
        #: PCG64 state (and increment) the next block is drawn from, after
        #: discarding the first ``skip`` values. Most streams never need a
        #: second block, so the seeded state is kept rather than read back
        #: after the first; a second block redraws the first and skips it.
        self.state = state
        self.inc = inc
        self.skip = len(first)
        #: the current block; its last ``left`` values are still unused
        self.values = first
        self.left = len(first)


class RngStreams:
    """A family of independent, named random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._pool, self._spawn = _root_pool(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._draws: Dict[str, _Draws] = {}
        #: ``(mu, sigma)`` per ``(mean, cv)`` drawn in this family
        self._lognormal: Dict[Tuple[float, float], Tuple[float, float]] = {}
        #: draws every jitter block, loaded with the stream's state
        self._scratch = np.random.Generator(np.random.PCG64(0))
        self._pcg: Dict[str, int] = {"state": 0, "inc": 0}
        self._pcg_state: Dict[str, Any] = {
            "bit_generator": "PCG64", "state": self._pcg,
            "has_uint32": 0, "uinteger": 0}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The same (seed, name) pair always yields the same sequence,
        regardless of creation order of other streams.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._draws:
                raise SimulationError(
                    f"stream {name!r} is already drawn through jitter(); "
                    "a raw generator would reorder its draws")
            gen = self._streams[name] = np.random.default_rng(
                np.random.SeedSequence(self.seed,
                                       spawn_key=(_stable_hash(name),)))
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
        # operation, and a profiler charges every call it sees.
        try:
            mu, sigma = self._lognormal[mean, cv]
        except KeyError:
            mu, sigma = self._lognormal[mean, cv] = _lognormal_params(mean, cv)
        try:
            draws = self._draws[name]
        except KeyError:
            draws = self._new_draws(name)
        left = draws.left
        if not left:
            left = self._refill(draws)
        draws.left = left - 1
        try:
            return math.exp(mu + sigma * draws.values[-left])
        except OverflowError:  # numpy's exp saturates instead
            return math.inf

    def spawn(self, index: int) -> "RngStreams":
        """Derive an independent child family (one per repetition run)."""
        return RngStreams(seed=_mix(self.seed, index))

    def names(self) -> Iterator[str]:
        """Iterate over stream names created so far (both draw paths)."""
        return iter([*self._streams, *self._draws])

    def _new_draws(self, name: str) -> _Draws:
        if name in self._streams:
            raise SimulationError(
                f"stream {name!r} is already a raw generator from stream(); "
                "buffered draws would reorder its draws")
        state, inc = _child_state(self._pool, self._spawn, _stable_hash(name))
        first = self._draw(state, inc, _FIRST_BLOCK)
        draws = self._draws[name] = _Draws(state, inc, first)
        return draws

    def _refill(self, draws: _Draws) -> int:
        """Draw a stream's next block (its first comes with the stream);
        returns its length."""
        skip = draws.skip
        block = min(2 * len(draws.values), _MAX_BLOCK)
        draws.values = self._draw(draws.state, draws.inc, skip + block)[skip:]
        draws.state = self._scratch.bit_generator.state["state"]["state"]
        draws.skip = 0
        draws.left = block
        return block

    def _draw(self, state: int, inc: int, n: int) -> List[float]:
        """``n`` standard normals of the PCG64 stream at ``(state, inc)``,
        leaving the scratch generator just past them."""
        self._pcg["state"] = state
        self._pcg["inc"] = inc
        self._scratch.bit_generator.state = self._pcg_state
        return self._scratch.standard_normal(n).tolist()


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
