"""A pure-Python replica of ``numpy.random.default_rng(seed)``.

The experiments draw their random inputs from this replica, so the library
runs without numpy while every seeded report keeps the bytes numpy's
generator gave it.  Only what the experiments call is reproduced, bit for
bit:

- ``SeedSequence(seed)``: the seed split into 32-bit words, hashed into a
  pool of four words, and ``generate_state(4, uint64)`` drawn from the pool;
- PCG64, the XSL-RR 128/64 generator of O'Neill, *PCG: A Family of Simple
  Fast Space-Efficient Statistically Good Algorithms for Random Number
  Generation* (2014), with numpy's buffered upper half-word for 32-bit
  draws;
- ``random()``, the top 53 bits of one 64-bit draw scaled by 2**-53;
- ``integers(low, high[, size])`` for ``high - low`` below 2**32, through
  Lemire's multiply-and-reject method on 32-bit draws, as numpy's int64
  path takes it.
"""

from __future__ import annotations

from typing import List, Optional, Union

__all__ = ["Generator"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # pairs of 32-bit words read as little-endian 64-bit words
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class Generator:
    """``numpy.random.default_rng(seed)`` for the draws the experiments
    make; see the module docstring."""

    def __init__(self, seed: int):
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._half: Optional[int] = None  # upper half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = self._state >> 122
        x = (self._state >> 64 ^ self._state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self) -> float:
        """A float in [0, 1) on the 2**-53 grid."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def _bounded(self, rng: int) -> int:
        """A uniform integer in [0, rng] for 0 < rng < 2**32 - 1."""
        excl = rng + 1
        m = self._next32() * excl
        if (m & _MASK32) < excl:
            threshold = (_MASK32 - rng) % excl
            while (m & _MASK32) < threshold:
                m = self._next32() * excl
        return m >> 32

    def integers(self, low: int, high: int,
                 size: Optional[int] = None) -> Union[int, List[int]]:
        """Uniform integers in [low, high): one, or a list of ``size``.

        Only ``0 < high - low < 2**32`` is reproduced.  numpy takes raw
        32-bit words at ``2**32`` and a 64-bit method above it, so wider
        ranges raise ValueError.  A range of one value returns ``low``
        without drawing, as numpy does."""
        rng = high - 1 - low
        if not 0 <= rng < _MASK32:
            raise ValueError(f"integers() reproduces 0 < high - low < 2**32, "
                             f"got low={low}, high={high}")
        if size is None:
            return low + self._bounded(rng) if rng else low
        return [low + self._bounded(rng) if rng else low for _ in range(size)]
