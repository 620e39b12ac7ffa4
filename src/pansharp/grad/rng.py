"""Seeded deterministic random numbers (splitmix64).

Pure-integer 64-bit generator so shuffles, splits, and weight draws are
bit-reproducible on every platform, independent of numpy version.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: Draws :meth:`SplitMix64.uniform_array` mixes at a time: its two uint64
#: block arrays (256 KiB each) stay in cache, where one pass over a whole
#: 1M-draw block ran 3x slower.
_DRAW_BLOCK = 1 << 15


class SplitMix64:
    """splitmix64 sequence generator.

    >>> SplitMix64(0).next_u64() == SplitMix64(0).next_u64()
    True
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in [low, high) with 53 random bits."""
        u = self.next_u64() >> 11
        return low + (high - low) * (u * 2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            u = self.next_u64()
            if u <= limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape: tuple[int, ...], low: float = 0.0,
                      high: float = 1.0) -> np.ndarray:
        """float32 array of iid uniforms in [low, high).

        Produces exactly the draws sequential :meth:`uniform` calls
        would, but vectorized: the n-th output of the sequence is a pure
        mix of ``state + n * increment``, so the draws are computed a block
        of :data:`_DRAW_BLOCK` at a time, in place on the block and one
        scratch array, and the state advanced past them.
        """
        n = int(np.prod(shape)) if shape else 1
        out = np.empty(n, dtype=np.float32)
        scratch = np.empty(min(n, _DRAW_BLOCK), dtype=np.uint64)
        for start in range(0, n, _DRAW_BLOCK):
            z = np.arange(start + 1, min(n, start + _DRAW_BLOCK) + 1,
                          dtype=np.uint64)
            z *= np.uint64(_GOLDEN)
            z += np.uint64(self._state)
            part = scratch[:z.size]
            z ^= np.right_shift(z, np.uint64(30), out=part)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= np.right_shift(z, np.uint64(27), out=part)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= np.right_shift(z, np.uint64(31), out=part)
            z >>= np.uint64(11)
            u = part.view(np.float64)
            u[...] = z
            u *= 2.0 ** -53
            u *= high - low
            u += low
            out[start:start + z.size] = u
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return out.reshape(shape)


def derive_seed(seed: int, *salts) -> int:
    """Stable sub-seed for (seed, salt, ...) streams, e.g. one per epoch.

    Salts may be integers or strings; strings are folded to 64 bits via
    SHA-256 so the mapping is identical on every platform.
    """
    rng = SplitMix64(seed)
    out = rng.next_u64()
    for salt in salts:
        if isinstance(salt, str):
            digest = hashlib.sha256(salt.encode("utf-8")).digest()
            salt = int.from_bytes(digest[:8], "little")
        out = SplitMix64(out ^ (salt & _MASK64)).next_u64()
    return out


def kaiming_uniform(rng: SplitMix64, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-style uniform draw with bound sqrt(6 / fan_in) (relu gain)."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform_array(shape, -bound, bound)
