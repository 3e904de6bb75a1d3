"""NumPy's seeded stream in pure Python.

`Generator(seed)` draws the numbers NumPy's `default_rng(seed)` draws,
bit for bit, for the calls localcut makes: `integers(low, high)`
with a span below 2^32, `random()` and `choice(p)`.  So a seeded
report is the same with or without NumPy, and no call loads it.

- Seeding: NumPy's SeedSequence hashes the seed's 32-bit words into a
  pool of four words and draws the generator's 256 bits of state from it.
- PCG64 (O'Neill 2014): a 128-bit linear congruential state, stepped
  before each output and read out by XSL-RR.
- Bounded integers: Lemire's method on 32-bit halves of the 64-bit
  outputs, low half first.  The spare high half is kept across calls, as
  NumPy's bit generator keeps it, so scalar and list draws share a stream.
- `random()` keeps the top 53 bits of one output.
- `choice(p)` bisects one `random()` in the running sum of p divided by
  its last entry.

This module imports nothing from localcut.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import index
from typing import Sequence

__all__ = ["Generator", "pairwise_sum"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# how far from 1 `choice` lets p sum, NumPy's sqrt of float64 epsilon
_SUM_ATOL = 2.0 ** -26


def _seed_state(seed: int) -> list[int]:
    """NumPy's `SeedSequence(seed).generate_state(4, uint64)`."""
    seed = index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Generator:
    """A PCG64 stream seeded like NumPy's `default_rng(seed)`."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._spare: int | None = None   # unread high half of an output

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        value, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def _bounded(self, top: int) -> int:
        """Uniform in [0, top] for top < 2^32 - 1, by Lemire's method.  (At
        top = 2^32 - 1 NumPy returns the 32 bits unscaled instead.)"""
        if top == 0:
            return 0
        span = top + 1
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - top) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform in [low, high), or a list of `size` such draws, like
        NumPy's `integers(low, high, size)`.  The span must be below 2^32."""
        if not 0 < high - low <= _MASK32:
            raise ValueError(f"span of [{low}, {high}) not in 1..2**32 - 1")
        top = high - low - 1
        if size is None:
            return low + self._bounded(top)
        return [low + self._bounded(top) for _ in range(size)]

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * 2.0 ** -53

    def choice(self, p: Sequence[float]) -> int:
        """An index drawn with probabilities p, like NumPy's
        `choice(len(p), p=p)`.  As there, p must have no negative entry and
        sum to 1 within 2^-26, which no NaN does."""
        if any(x < 0 for x in p):
            raise ValueError("probabilities are not non-negative")
        if not abs(math.fsum(p) - 1.0) <= _SUM_ATOL:
            raise ValueError("probabilities do not sum to 1")
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        return bisect_right(cdf, self.random())


def pairwise_sum(values: Sequence[float]) -> float:
    """NumPy's `sum` of a float64 array, in its order: one running sum
    below 8 entries, 8 running sums up to 128, halves above that."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        rest = n - n % 8
        r = [float(x) for x in values[:8]]
        for i in range(8, rest, 8):
            for k in range(8):
                r[k] += values[i + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in values[rest:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
