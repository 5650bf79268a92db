"""Deterministic, splittable random streams.

All randomness in the package flows through this module. A stream is keyed
by a 64-bit seed plus a string tag; the pair seeds a counter-based Philox
generator, so adding draws to one stream never perturbs another and the
sequence is reproducible across platforms and processes.

Normal variates use Box-Muller on top of the uniform stream instead of the
generator's built-in ziggurat sampler. Rejection-style samplers consume a
data-dependent number of uniforms, which would break the fixed draw-count
accounting the substream contract relies on.

Because Philox is counter-based, draw j of a stream is a pure function of the
key and j. Large ``normals`` requests are therefore cut into chunks of
``_CHUNK`` pairs, and every ``rademacher`` request into chunks of ``_CHUNK``
draws (two signs each). Each chunk is drawn by a generator placed at its
first draw, and the chunks fan out over the one worker pool
(``_pool.fan_out``). The values, and the state the stream is left in, are
the same bits as one serial draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._pool import fan_out

__all__ = ["Rng", "Stream", "derive_seed"]

_U64 = (1 << 64) - 1
_CHUNK = 1 << 15  # pairs or draws per chunk: 256 KiB per temporary


def _tag_hash(tag: str) -> int:
    d = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "little")


def derive_seed(seed: int, tag: str) -> int:
    """Fold a string tag into a seed, producing an independent child seed."""
    payload = (int(seed) & _U64).to_bytes(8, "little") + tag.encode("utf-8")
    d = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(d, "little")


def _draws_at(key: np.ndarray, pos: int) -> np.random.Generator:
    """A generator whose next 64-bit draw is draw ``pos`` of the stream keyed ``key``."""
    # Philox makes 4 draws per counter step, and steps the counter before it
    # makes them, so counter q is followed by draw 4q
    block, skip = divmod(pos, 4)
    gen = np.random.Generator(np.random.Philox(key=key, counter=block))
    if skip:
        gen.bit_generator.random_raw(skip)
    return gen


def _box_muller(rad: np.ndarray, ang: np.ndarray, out: np.ndarray) -> None:
    """Fill out's even and odd slots with normals from two uniform arrays, in place."""
    # the uniforms become the radius and the angle, and cos and sin write
    # straight into the output; 1 - u lies in (0, 1], so the log is finite
    np.log1p(np.negative(rad, out=rad), out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    ang *= 2.0 * np.pi
    even, odd = out[0::2], out[1::2]
    np.cos(ang, out=even)
    even *= rad
    np.sin(ang, out=odd)
    odd *= rad


def _signs(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write 2*bits - 1, that is -1.0 or 1.0, into out and return it."""
    np.multiply(bits, 2.0, out=out)
    out -= 1.0
    return out


class Stream:
    """One named substream of an :class:`Rng`."""

    def __init__(self, seed: int, tag: str):
        self.seed = int(seed) & _U64
        self.tag = tag
        self._key = np.array([self.seed, _tag_hash(tag)], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=self._key))

    def uniforms(self, size: int) -> np.ndarray:
        return self._gen.random(int(size))

    def _tell(self) -> tuple:
        """(state, index of the next 64-bit draw) of the stream's generator."""
        state = self._gen.bit_generator.state
        counter = int.from_bytes(state["state"]["counter"].astype("<u8").tobytes(), "little")
        return state, 4 * (counter - 1) + state["buffer_pos"]

    def normals(self, size: int) -> np.ndarray:
        """i.i.d. N(0,1); consumes exactly 2*ceil(size/2) uniforms.

        Pair i is drawn from uniform i (the radius) and uniform pairs + i (the
        angle), so a chunk of pairs reads two runs of the stream.
        """
        m = int(size)
        if m < 0:
            raise ValueError("size must be nonnegative")
        pairs = (m + 1) // 2
        out = np.empty(2 * pairs)
        if pairs <= _CHUNK:
            _box_muller(self._gen.random(pairs), self._gen.random(pairs), out)
            return out[:m]
        state, start = self._tell()

        def chunk(c):
            a, b = c * _CHUNK, min((c + 1) * _CHUNK, pairs)
            rad = _draws_at(self._key, start + a).random(b - a)
            ang = _draws_at(self._key, start + pairs + a).random(b - a)
            _box_muller(rad, ang, out[2 * a:2 * b])

        fan_out(chunk, range(-(-pairs // _CHUNK)))
        # leave the generator where a serial draw would, 32-bit stash included
        end = _draws_at(self._key, start + 2 * pairs - 1)
        end.bit_generator.random_raw(1)
        after = end.bit_generator.state
        after["has_uint32"], after["uinteger"] = state["has_uint32"], state["uinteger"]
        self._gen.bit_generator.state = after
        return out[:m]

    def rademacher(self, size: int) -> np.ndarray:
        """i.i.d. -1.0 or 1.0, two signs per 64-bit draw of the stream.

        Sign 2i is bit 31 of draw i and sign 2i + 1 is bit 63, the top bits
        of its low and high 32-bit halves: what ``integers(0, 2)`` returns
        half by half, low half first. A 32-bit half that an earlier draw left
        stashed is the first sign, and after an odd count the last draw's
        high half is left stashed for the next 32-bit draw.
        """
        m = int(size)
        out = np.empty(m)
        state, start = self._tell()
        held = state["has_uint32"]
        lead = min(held, m)
        if lead:
            _signs(np.uint32(state["uinteger"]) >> 31, out[:1])
        rest = out[lead:]
        words = (rest.size + 1) // 2

        def chunk(c):
            # chunk 0 draws from the stream's own generator, which is at draw start
            a, b = c * _CHUNK, min((c + 1) * _CHUNK, words)
            gen = _draws_at(self._key, start + a) if c else self._gen
            raw = gen.bit_generator.random_raw(b - a)
            dst = rest[2 * a:2 * b]
            _signs(raw.astype("<u8", copy=False).view("<u4")[:dst.size] >> 31, dst)
            return gen, int(raw[-1])

        ends = fan_out(chunk, range(-(-words // _CHUNK)))
        if ends:
            # the last chunk's generator is where a serial draw would leave the stream
            gen, last = ends[-1]
            state = gen.bit_generator.state
            state["uinteger"] = last >> 32
        # the halves held: the stash, plus two per draw, less one per sign
        state["has_uint32"] = held + 2 * words - m
        self._gen.bit_generator.state = state
        return out

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def index_subset(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from [0, n), uniform without replacement.

        Partial Fisher-Yates: only the first k slots get settled, so the
        cost is k integer draws regardless of n. Slot t swaps with slot
        t + u_t, where u_t is uniform on [0, n - t); all k offsets come from
        one call, which draws them in the order of k scalar calls.
        """
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        slots = np.arange(k, dtype=np.int64)
        swaps = (self._gen.integers(0, n - slots) + slots).tolist()
        moved = {}  # slot -> index now in it, for slots a swap has touched
        picked = []
        for t, j in enumerate(swaps):
            picked.append(moved.get(j, j))
            moved[j] = moved.get(t, t)
        return np.array(picked, dtype=np.int64)


@dataclass(frozen=True)
class Rng:
    """Root of the stream tree for one run."""

    seed: int

    def stream(self, tag: str) -> Stream:
        return Stream(self.seed, tag)

    def child(self, tag: str) -> "Rng":
        return Rng(derive_seed(self.seed, tag))
