"""Self-contained pseudo-random number generator for reproducible experiments.

The package deliberately does not use the platform RNG. Every stream is an
xoshiro256** generator (Blackman & Vigna's xorshift family) seeded through
splitmix64, so a recorded seed reproduces a run bit-for-bit on any platform
and Python version.

Algorithm summary (all arithmetic modulo 2**64):

* splitmix64: ``state += 0x9E3779B97F4A7C15``; the output mixes the state with
  two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
  0x94D049BB133111EB) and a final ``z ^ (z >> 31)``.
* xoshiro256** state: four 64-bit words filled from consecutive splitmix64
  outputs. Each step returns ``rotl(s1 * 5, 7) * 9`` and updates the words
  with the standard xoshiro256 shift/rotate schedule (17, 45).
* Doubles take the top 53 bits: ``(word >> 11) * 2**-53`` in [0, 1).
* Normals use Box-Muller on two fresh uniforms (no caching, so one normal
  always consumes exactly two generator words).
* Discrete sampling walks the cumulative probabilities left to right
  (inverse CDF with a fixed atom order).

Replicate streams are derived by hashing the master seed together with the
replicate index (`derive_seed`), giving independent streams without any
shared state. `Xoshiro256StarStarLanes` advances many such streams at once
in numpy ``uint64``, whose arithmetic wraps modulo 2**64 like the masked
scalar code, so lane ``r`` yields exactly the words of
``Xoshiro256StarStar(seeds[r])``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0**-53


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state and return (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive an independent stream seed from a master seed and a replicate index."""
    state, h = _splitmix64(master_seed & _MASK64)
    state = (h ^ ((index + 1) * _MIX1)) & _MASK64
    _, h2 = _splitmix64(state)
    return h2


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** stream seeded via splitmix64.

    Instances are cheap; create one per trajectory or replicate rather than
    sharing a stream across logically independent draws.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state, out = _splitmix64(state)
            words.append(out)
        self._s0, self._s1, self._s2, self._s3 = words

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * _DOUBLE_SCALE

    def normal(self, mean: float = 0.0, scale: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two words."""
        u1 = ((self.next_uint64() >> 11) + 1) * _DOUBLE_SCALE  # in (0, 1]
        u2 = (self.next_uint64() >> 11) * _DOUBLE_SCALE
        return mean + scale * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def pick(self, probabilities) -> int:
        """Sample an index from a probability vector by inverse CDF.

        Atoms are scanned left to right with a running cumulative sum. If
        floating-point shortfall leaves the uniform above the total mass,
        the last positive atom is returned.
        """
        u = self.random()
        acc = 0.0
        last_positive = -1
        for i, p in enumerate(probabilities):
            if p > 0.0:
                last_positive = i
            acc += p
            if u < acc:
                return i
        if last_positive < 0:
            raise ValueError("cannot sample from an all-zero probability vector")
        return last_positive


class Xoshiro256StarStarLanes:
    """Independent xoshiro256** streams advanced in lockstep, one per lane.

    Lane ``r`` is seeded like ``Xoshiro256StarStar(seeds[r])`` and produces
    the same words. One step costs a handful of numpy calls whatever the
    number of lanes, so this pays off only for many lanes at once.
    """

    __slots__ = ("_state",)

    def __init__(self, seeds):
        streams = [Xoshiro256StarStar(seed) for seed in seeds]
        # row k holds word k of every lane's state
        words = [[g._s0, g._s1, g._s2, g._s3] for g in streams]
        self._state = np.array(words, dtype=np.uint64).reshape(-1, 4).T.copy()

    def words(self, count: int) -> np.ndarray:
        """The next `count` words of every lane, as a ``(count, lanes)`` array."""
        s0, s1, s2, s3 = self._state
        out = np.empty((count, self._state.shape[1]), dtype=np.uint64)
        for k in range(count):
            out[k] = _rotl_lanes(s1 * 5, 7) * 9
            t = s1 << 17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3[:] = _rotl_lanes(s3, 45)
        return out

    def next_uint64(self) -> np.ndarray:
        """One word per lane."""
        return self.words(1)[0]


def _rotl_lanes(x: np.ndarray, k: int) -> np.ndarray:
    return (x << k) | (x >> (64 - k))
