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
in numpy ``uint64``, whose arithmetic wraps modulo 2**64, so lane ``r``
yields exactly the words of the scalar stream of ``seeds[r]`` (the test
suite steps one in plain Python integers, ``tests/reference.py``).

The state update is linear over GF(2), so J steps are one linear map of the
256 state bits, and applying it jumps a stream J words ahead (Blackman &
Vigna, arXiv:1805.01407). `Xoshiro256StarStarLanes.words` cuts each stream
into segments that way and advances them all as lanes: the same words.
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


class Xoshiro256StarStarLanes:
    """Independent xoshiro256** streams, one per lane.

    Lane ``r`` starts from the four splitmix64 outputs of ``seeds[r]``
    (`_seed_words`) and produces the same words whatever the number of lanes.
    """

    __slots__ = ("_state",)

    def __init__(self, seeds):
        # row k holds word k of every lane's state
        words = [_seed_words(seed) for seed in seeds]
        self._state = np.array(words, dtype=np.uint64).reshape(-1, 4).T.copy()

    def words(self, count: int) -> np.ndarray:
        """The next `count` words of every lane, as a ``(count, lanes)`` array.

        Each lane's words are cut into K segments of J words (`_segments`,
        sized by what a jump costs) whose starts are J-step jumps apart: K - 1
        `_jump` calls, each moving every lane. All K segments of all lanes
        then advance J steps together, each writing to its own rows.
        """
        lanes = self._state.shape[1]
        if lanes == 0:
            return np.empty((count, 0), dtype=np.uint64)
        segments, length = _segments(count, lanes)
        starts = [self._state]
        table = _jump_map(length) if segments > 1 else None
        for _ in range(segments - 1):
            starts.append(_jump(table, starts[-1]))
        state = np.stack(starts, axis=1)  # [w, k, r]: word w of segment k of lane r
        out = np.empty((segments * length, lanes), dtype=np.uint64)
        steps = out.reshape(segments, length, lanes).transpose(1, 0, 2)  # [j, k]: word j of segment k
        tail = count - (segments - 1) * length  # the words of the last segment
        _advance(state, tail, steps)
        self._state = state[:, -1].copy()  # word `count` is next
        _advance(state, length - tail, steps[tail:])
        return out[:count]


def _seed_words(seed: int) -> list[int]:
    """The xoshiro256** state of `seed`: four consecutive splitmix64 outputs."""
    state, words = seed & _MASK64, []
    for _ in range(4):
        state, out = _splitmix64(state)
        words.append(out)
    return words


def _segments(count: int, lanes: int) -> tuple[int, int]:
    """K segments of J words, ``(K - 1) * J < count <= K * J``, with
    ``K = min(256, isqrt(count), isqrt(10 count / (lanes + 3)))`` and at
    least 1. `words` makes K - 1 jumps, whose cost grows with the lanes
    (about 5 µs at one lane, 40 µs at 50), and J lockstep steps, which cost
    about the same at any width: K balances the two. ``K <= isqrt(count)``
    keeps the last segment nonempty, and the jump map has 256 lanes."""
    segments = max(1, min(256, math.isqrt(count), math.isqrt(10 * count // (lanes + 3))))
    return segments, -(-count // segments)


# shift counts and multipliers as 0-d uint64 arrays, which a ufunc takes on
# its cheaper call path (a Python int is converted on every call)
_5, _7, _9, _17, _19, _45, _57 = (np.array(k, dtype=np.uint64) for k in (5, 7, 9, 17, 19, 45, 57))


def _advance(state: np.ndarray, steps: int, out: np.ndarray | None = None) -> None:
    """Step in place every lane of `state`, whose row w holds word w of all
    lane states; with `out`, ``out[k]`` receives the words of step k."""
    s0, s1, s2, s3 = state
    t = np.empty_like(s1)
    xor, left, right, either = np.bitwise_xor, np.left_shift, np.right_shift, np.bitwise_or
    for k in range(steps):
        if out is not None:
            out[k] = s1  # scrambled below, all steps at once
        left(s1, _17, t)
        xor(s2, s0, s2)
        xor(s3, s1, s3)
        xor(s1, s2, s1)
        xor(s0, s3, s0)
        xor(s2, t, s2)
        right(s3, _19, t)
        left(s3, _45, s3)
        either(s3, t, s3)
    if out is not None:
        words = out[:steps]
        np.multiply(words, _5, words)
        high = right(words, _57)
        left(words, _7, words)
        either(words, high, words)
        np.multiply(words, _9, words)


def _jump_map(steps: int) -> np.ndarray:
    """The map of `steps` steps as a ``(32 * 256, 4)`` table: row ``256 b + v``
    is the image of the state whose only nonzero byte, byte b (little-endian
    over s0..s3), is v; the xor of the images of its bits, the 256 one-bit
    states advanced `steps` steps."""
    bit = np.arange(256)
    basis = np.zeros((4, 256), dtype=np.uint64)
    basis[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    _advance(basis, steps)
    images = basis.T.reshape(32, 8, 4)  # [b, j]: the image of bit j of byte b
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for j in range(8):
        np.bitwise_xor(table[:, :1 << j], images[:, j, None], out=table[:, 1 << j:2 << j])
    return table.reshape(-1, 4)


_BYTE_ROWS = np.arange(0, 32 * 256, 256)  # the first row of each byte's block of the table


def _jump(table: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply the map of `table` to each lane of the ``(4, lanes)`` `state`:
    one ``take`` of the 32 rows its bytes select, then their xor."""
    little = np.ascontiguousarray(state.T, dtype="<u8").view(np.uint8)  # (lanes, 32)
    return np.bitwise_xor.reduce(table.take(little + _BYTE_ROWS, axis=0), axis=1).T
