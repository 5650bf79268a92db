"""Sign-projection embedding operators.

Three operator families map vectors in R^n to sign codes in {+1, -1}^k:

* ``GaussianOperator``: a dense i.i.d. Gaussian matrix, the classical
  baseline, O(kn) per embedding;
* ``CirculantOperator``: sgn(R C_h diag(r) x), where every row of the
  projection is a modulated cyclic shift of one generator vector h and R
  keeps k of the n rows; O(n log n) per embedding;
* ``RandomizedOperator``: sgn(R C_h diag(r) H diag(b) x), which flattens
  spiky inputs with a random sign flip and a Walsh-Hadamard transform
  before the circulant stage; inputs are zero-padded to the next power of
  two, which leaves inner products (and hence angles) unchanged.

Operators are frozen after sampling. Every code is a pure function of
(kind, n, k, seed, input), with sgn(0) fixed to +1 so ties cannot
introduce nondeterminism.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import _blas, _pool
from .errors import ParseError
from .rng import Rng
from .transforms import _correlate, _CorrelationPlan, _each_band, _fwht_inplace, _shift_rows, hadamard_matrix

__all__ = [
    "KINDS",
    "R_DISTS",
    "GaussianOperator",
    "CirculantOperator",
    "RandomizedOperator",
    "Operator",
    "sample_gaussian_operator",
    "sample_circulant_operator",
    "sample_randomized_operator",
    "sample_operator",
    "embed",
    "embed_points",
    "materialize_operator",
    "serialize_operator",
    "read_operator_record",
    "deserialize_operator",
]

_U64 = (1 << 64) - 1
_MAGIC = b"BEOP1"
_RECORD_LEN = 30  # 5 magic + 1 kind + 3 * 8 little-endian u64

# The operator kinds; a kind's index here is its BEOP1 kind byte.
KINDS = ("gaussian", "circulant", "randomized")

# The distributions of the circulant modulation vector r.
R_DISTS = ("gaussian", "rademacher")

# The most float64 entries (512 MiB) one operator may hold: k * n for a
# gaussian matrix, n for circulant vectors and the padded n for randomized
# ones. A 30-byte record or a few flags must not ask for unbounded memory.
_MAX_ENTRIES = 1 << 26


@dataclass(frozen=True, eq=False)
class GaussianOperator:
    G: np.ndarray  # (k, n)
    seed: int
    kind = "gaussian"
    r_dist = "gaussian"  # no modulation vector; the default, so it serializes

    def __post_init__(self):
        if self.G.ndim != 2 or 0 in self.G.shape:
            raise ValueError("G must be a nonempty k x n matrix")

    @property
    def k(self) -> int:
        return self.G.shape[0]

    @property
    def n(self) -> int:
        return self.G.shape[1]

    @property
    def n_in(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True, eq=False)
class CirculantOperator:
    h: np.ndarray
    r: np.ndarray
    S: np.ndarray  # k distinct row indices, order-significant
    seed: int
    r_dist: str = "gaussian"
    kind = "circulant"

    def __post_init__(self):
        if self.h.ndim != 1 or self.h.shape != self.r.shape:
            raise ValueError("h and r must be 1-D of equal length")
        if self.S.ndim != 1 or not 1 <= self.S.size <= self.h.size:
            raise ValueError("need 1 <= k <= n selected rows")

    @property
    def n(self) -> int:
        return self.h.size

    @property
    def k(self) -> int:
        return self.S.size

    @property
    def n_in(self) -> int:
        return self.h.size

    @cached_property
    def _plan(self) -> _CorrelationPlan:
        # cached spectrum of the generator: one forward and one inverse
        # transform per embedding instead of two forward plus one inverse
        return _CorrelationPlan(self.h, self.S)


@dataclass(frozen=True, eq=False)
class RandomizedOperator:
    inner: CirculantOperator  # lives at the padded dimension
    b: np.ndarray  # (n_pad,) signs
    n_orig: int
    seed: int
    kind = "randomized"

    def __post_init__(self):
        if self.b.shape != (self.inner.n,):
            raise ValueError("b must match the padded dimension")
        if self.inner.n != _next_pow2(self.n_orig):
            raise ValueError("inner operator must live at the padded power-of-2 dimension")

    @property
    def n_pad(self) -> int:
        return self.inner.n

    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def n_in(self) -> int:
        return self.n_orig

    @property
    def r_dist(self) -> str:
        return self.inner.r_dist

    @cached_property
    def _r_scaled(self) -> np.ndarray:
        # diag(r) H equals diag(r / sqrt(n)) applied after the unscaled
        # transform; folding the unitary normalization into r saves one
        # full pass over the vector per embedding
        return self.inner.r / math.sqrt(self.n_pad)


Operator = Union[GaussianOperator, CirculantOperator, RandomizedOperator]


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _check_shape(kind: str, n: int, k: int) -> None:
    """Raise ValueError unless (n, k) is a valid shape for an operator of ``kind``."""
    if kind == "gaussian" and (n < 1 or k < 1):
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if kind == "circulant" and not 1 <= k <= n:
        raise ValueError(f"circulant operator requires 1 <= k <= n, got k={k}, n={n}")
    if kind == "randomized":
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        if not 1 <= k <= _next_pow2(n):
            raise ValueError(f"randomized operator requires 1 <= k <= n_pad={_next_pow2(n)}, got k={k}")


def _check_params(kind: str, n: int, k: int) -> None:
    """Raise ValueError unless ``sample_operator(kind, n, k, ...)`` may draw."""
    if kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; expected one of {', '.join(KINDS)}")
    entries = {"gaussian": k * n, "circulant": n, "randomized": _next_pow2(n)}[kind]
    if entries > _MAX_ENTRIES:
        raise ValueError(f"a {kind} operator with n={n}, k={k} has {entries} entries, over the cap of {_MAX_ENTRIES}")
    _check_shape(kind, n, k)


def sample_gaussian_operator(n: int, k: int, seed: int) -> GaussianOperator:
    _check_shape("gaussian", n, k)
    seed = int(seed) & _U64
    g = Rng(seed).stream("gaussian:G").normals(k * n)
    # draw order is row-major: entry (i, j) is draw i*n + j
    return GaussianOperator(G=g.reshape(k, n), seed=seed)


def _sample_r(rng: Rng, n: int, r_dist: str) -> np.ndarray:
    if r_dist == "gaussian":
        return rng.stream("circulant:r").normals(n)
    if r_dist == "rademacher":
        return rng.stream("circulant:r").rademacher(n)
    raise ValueError(f"unknown r_dist {r_dist!r}; expected one of {', '.join(R_DISTS)}")


def sample_circulant_operator(n: int, k: int, seed: int, r_dist: str = "gaussian") -> CirculantOperator:
    _check_shape("circulant", n, k)
    seed = int(seed) & _U64
    rng = Rng(seed)
    h = rng.stream("circulant:h").normals(n)
    r = _sample_r(rng, n, r_dist)
    S = rng.stream("circulant:S").index_subset(n, k)
    return CirculantOperator(h=h, r=r, S=S, seed=seed, r_dist=r_dist)


def sample_randomized_operator(n: int, k: int, seed: int, r_dist: str = "gaussian") -> RandomizedOperator:
    _check_shape("randomized", n, k)
    seed = int(seed) & _U64
    n_pad = _next_pow2(n)
    inner = sample_circulant_operator(n_pad, k, seed, r_dist=r_dist)
    b = Rng(seed).stream("randomized:b").rademacher(n_pad)
    return RandomizedOperator(inner=inner, b=b, n_orig=n, seed=seed)


def sample_operator(kind: str, n: int, k: int, seed: int, r_dist: str = "gaussian") -> Operator:
    """Sample an operator of one of ``KINDS``.

    r_dist is one of ``R_DISTS``; gaussian operators have no r, so they
    take only the default. An operator of more than ``_MAX_ENTRIES`` float64
    entries is refused before anything is drawn.
    """
    _check_params(kind, n, k)
    # called by their module-level names, so that a wrapper bound to one of
    # those names (the perfbench tracer installs such wrappers) sees the call
    if kind == "gaussian":
        if r_dist != "gaussian":
            raise ValueError(f"gaussian operators have no r; r_dist {r_dist!r} needs a circulant or randomized kind")
        return sample_gaussian_operator(n, k, seed)
    if kind == "circulant":
        return sample_circulant_operator(n, k, seed, r_dist=r_dist)
    return sample_randomized_operator(n, k, seed, r_dist=r_dist)


# From this row length on, the transforms of a projection fan out over the
# worker pool (_project). Median ms of an embed, serial -> fanned, over four
# interleaved runs of 15 embeds each, on 2 vCPUs with numpy 2.4.6:
#
#   n           2^16        2^17        2^18         2^19          2^20
#   circulant   2.2 -> 2.6  3.4 -> 3.4   7.6 -> 7.5  20.0 -> 14.0  35.7 -> 26.0
#   randomized  2.1 -> 3.6  5.0 -> 4.3  10.3 -> 8.0  19.4 -> 15.4  44.1 -> 31.3
#
# Below 2^18 a row's phases fit the L2 cache and the fan-out costs about
# what it saves, or more.
_FAN_MIN = 1 << 18

# Rows are projected in blocks of about this many input entries, so the
# temporaries of one block stay cache-sized and memory does not grow with
# the number of rows.
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(N: int, width: int) -> list:
    """Slices that split N rows of ``width`` entries into blocks."""
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(i, i + step) for i in range(0, N, step)]


def _hadamard_mix(P: np.ndarray, b: np.ndarray, width: int = 1) -> np.ndarray:
    """Unnormalized H diag(b) applied to each row of P, zero-padded to len(b).

    Returns a fresh (N, len(b)) array; the transform runs in place on it.
    """
    w = np.zeros((P.shape[0], b.size))
    np.multiply(P, b[: P.shape[1]], out=w[:, : P.shape[1]])
    _fwht_inplace(w, width)
    return w


def _sign(t: np.ndarray) -> np.ndarray:
    # sgn(0) := +1, and NaN (an overflowed projection) gives -1: 2 [t >= 0] - 1
    s = (t >= 0.0).view(np.int8)
    s += s
    s -= 1
    return s


def _project(op: Operator, P: np.ndarray) -> np.ndarray:
    """Projections of the rows of an (N, n_in) block: an (N, k) array.

    Circulant and randomized rows of at least _FAN_MIN entries run their
    transforms over the worker pool, with BLAS pinned to one thread
    meanwhile: a multi-threaded BLAS call would wake OpenBLAS threads that
    go on spinning on the pool's cores after it returns. The bits are those
    of the serial path.
    """
    if isinstance(op, GaussianOperator):
        return P @ op.G.T
    circ = op.inner if isinstance(op, RandomizedOperator) else op
    if not isinstance(circ, CirculantOperator):
        raise TypeError(f"not an operator: {type(op).__name__}")
    if circ.n < _FAN_MIN:
        return _project_structured(op, P, 1)
    with _blas.one_thread():
        return _project_structured(op, P, _pool.WORKERS)


def _project_structured(op: Union[CirculantOperator, RandomizedOperator], P: np.ndarray, width: int) -> np.ndarray:
    if isinstance(op, CirculantOperator):
        return _correlate(op._plan, P * op.r, width)
    # the unitary 1/sqrt(n) scale of the transform lives in _r_scaled
    w = _hadamard_mix(P, op.b, width)
    w *= op._r_scaled
    return _correlate(op.inner._plan, w, width)


def _codes(op: Operator, P: np.ndarray) -> np.ndarray:
    t = _project(op, P)
    # a NaN or Inf entry makes every projection of its row non-finite, so the
    # input is scanned only when the projections do not sum to a finite
    # value; a finite input whose projections overflow keeps its codes
    if not math.isfinite(np.add.reduce(t, axis=None)) and not np.isfinite(P).all():
        raise ValueError("input contains NaN or Inf")
    return _sign(t)


def embed(op: Operator, x) -> np.ndarray:
    """Map x to its sign code in {+1, -1}^k (int8)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size != op.n_in:
        raise ValueError(f"expected a vector of length {op.n_in}, got shape {v.shape}")
    return _codes(op, v[None, :])[0]


def embed_points(op: Operator, points) -> np.ndarray:
    """Embed each row of ``points``; returns an (N, k) int8 code matrix.

    Rows go through the projection of ``embed`` a block at a time, as one
    matrix product (gaussian) or as FFTs and Walsh-Hadamard transforms along
    the last axis of the block (circulant, randomized). BLAS may sum a block
    in another order than a single vector, so a row's code can differ from
    ``embed`` of that row only where a projection lies within rounding of 0.
    """
    P = np.asarray(points, dtype=np.float64)
    if P.ndim == 1:
        P = P[None, :]
    if P.ndim != 2 or P.shape[1] != op.n_in:
        raise ValueError(f"points must be a vector or an N x {op.n_in} matrix, got shape {P.shape}")
    out = np.empty((P.shape[0], op.k), dtype=np.int8)
    for rows in _row_blocks(P.shape[0], op.n_in):
        out[rows] = _codes(op, P[rows])
    return out


def materialize_operator(op: Operator) -> np.ndarray:
    """Dense k x n_in matrix whose sign pattern ``embed`` reproduces.

    Built from shift rows gathered by index and the doubling Hadamard
    construction, deliberately avoiding the FFT and Walsh-Hadamard fast paths.
    Quadratic cost; reference use only.
    """
    if isinstance(op, GaussianOperator):
        return op.G.copy()
    if isinstance(op, CirculantOperator):
        return _shift_rows(op.h, op.S) * op.r[None, :]
    if isinstance(op, RandomizedOperator):
        A = materialize_operator(op.inner) @ hadamard_matrix(op.n_pad)
        A = A * op.b[None, :]
        return A[:, : op.n_orig]
    raise TypeError(f"not an operator: {type(op).__name__}")


def serialize_operator(op: Operator) -> bytes:
    """30-byte record: magic, kind byte, then n, k, seed as little-endian u64.

    The kind byte is the index of ``op.kind`` in ``KINDS`` and n is the
    input dimension. Parameters are regenerated from the seed on load, never
    stored raw, so only operators sampled with the default r distribution
    serialize.
    """
    if op.r_dist != "gaussian":
        raise ValueError(
            "the serialization format has no field for r_dist; "
            "only the default gaussian r is serializable"
        )
    return _MAGIC + bytes([KINDS.index(op.kind)]) + struct.pack("<QQQ", op.n_in, op.k, op.seed & _U64)


def read_operator_record(data: bytes) -> tuple[str, int, int, int]:
    """The (kind, n, k, seed) of a BEOP1 record, with every check that
    ``deserialize_operator`` makes, the cap on entries included. Draws nothing.
    """
    if len(data) < len(_MAGIC) or bytes(data[:5]) != _MAGIC:
        raise ParseError(f"bad magic {bytes(data[:5])!r}, expected {_MAGIC!r}", 0)
    if len(data) < 6:
        raise ParseError("record truncated before kind byte", 5)
    kind = data[5]
    if kind >= len(KINDS):
        raise ParseError(f"unknown operator kind {kind}", 5)
    if len(data) < _RECORD_LEN:
        raise ParseError("record truncated", len(data))
    if len(data) > _RECORD_LEN:
        raise ParseError(f"trailing bytes after {_RECORD_LEN}-byte record", _RECORD_LEN)
    n, k, seed = struct.unpack("<QQQ", data[6:_RECORD_LEN])
    try:
        _check_params(KINDS[kind], n, k)
    except ValueError as e:
        raise ParseError(f"invalid operator parameters n={n}, k={k}: {e}", 6) from e
    return KINDS[kind], n, k, seed


def deserialize_operator(data: bytes) -> Operator:
    """The operator of a BEOP1 record (``read_operator_record``), sampled again from its seed."""
    return sample_operator(*read_operator_record(data))
