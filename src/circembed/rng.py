"""Deterministic, splittable random streams.

All randomness in the package flows through this module. A stream is keyed
by a 64-bit seed plus a string tag; the pair seeds a counter-based Philox
generator, so adding draws to one stream never perturbs another and the
sequence is reproducible across platforms and processes.

Normal variates use Box-Muller on top of the uniform stream instead of the
generator's built-in ziggurat sampler. Rejection-style samplers consume a
data-dependent number of uniforms, which would break the fixed draw-count
accounting the substream contract relies on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Rng", "Stream", "derive_seed"]

_U64 = (1 << 64) - 1


def _tag_hash(tag: str) -> int:
    d = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "little")


def derive_seed(seed: int, tag: str) -> int:
    """Fold a string tag into a seed, producing an independent child seed."""
    payload = (int(seed) & _U64).to_bytes(8, "little") + tag.encode("utf-8")
    d = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(d, "little")


class Stream:
    """One named substream of an :class:`Rng`."""

    def __init__(self, seed: int, tag: str):
        self.seed = int(seed) & _U64
        self.tag = tag
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, _tag_hash(tag)], dtype=np.uint64))
        )

    def uniforms(self, size: int) -> np.ndarray:
        return self._gen.random(int(size))

    def normals(self, size: int) -> np.ndarray:
        """i.i.d. N(0,1); consumes exactly 2*ceil(size/2) uniforms."""
        m = int(size)
        if m < 0:
            raise ValueError("size must be nonnegative")
        pairs = (m + 1) // 2
        # Box-Muller in place: the uniforms become the radius and the angle,
        # and cos and sin write straight into the output
        rad = self._gen.random(pairs)
        ang = self._gen.random(pairs)
        # 1 - u lies in (0, 1], so the log below is always finite
        np.log1p(np.negative(rad, out=rad), out=rad)
        rad *= -2.0
        np.sqrt(rad, out=rad)
        ang *= 2.0 * np.pi
        out = np.empty(2 * pairs)
        even, odd = out[0::2], out[1::2]
        np.cos(ang, out=even)
        even *= rad
        np.sin(ang, out=odd)
        odd *= rad
        return out[:m]

    def rademacher(self, size: int) -> np.ndarray:
        bits = self._gen.integers(0, 2, size=int(size))
        return np.where(bits == 1, 1.0, -1.0)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def index_subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from [0, n), uniform without replacement.

        Partial Fisher-Yates: only the first k slots get settled, so the
        cost is k integer draws regardless of n.
        """
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        idx = np.arange(n, dtype=np.int64)
        for t in range(k):
            j = t + int(self._gen.integers(0, n - t))
            idx[t], idx[j] = idx[j], idx[t]
        return idx[:k].copy()


@dataclass(frozen=True)
class Rng:
    """Root of the stream tree for one run."""

    seed: int

    def stream(self, tag: str) -> Stream:
        return Stream(self.seed, tag)

    def child(self, tag: str) -> "Rng":
        return Rng(derive_seed(self.seed, tag))
