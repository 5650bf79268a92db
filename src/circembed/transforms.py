"""Cyclic shifts, the Walsh-Hadamard transform, and circulant products.

Vectors are 1-D float64 numpy arrays. Every public operation is pure;
inputs are never modified in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _pool

__all__ = [
    "IndexSet",
    "shift",
    "fwht",
    "circulant_apply",
    "naive_circulant_apply",
    "restrict",
    "hadamard_matrix",
]


@dataclass(frozen=True, eq=False)
class IndexSet:
    """k distinct indices into a length-n vector; order is significant."""

    indices: np.ndarray
    n: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("indices must be a nonempty 1-D sequence")
        if self.n < 1 or idx.size > self.n:
            raise ValueError(f"need 1 <= k <= n, got k={idx.size}, n={self.n}")
        if int(idx.min()) < 0 or int(idx.max()) >= self.n:
            raise ValueError(f"index out of range for dimension {self.n}")
        if np.unique(idx).size != idx.size:
            raise ValueError("indices must be distinct")

    @property
    def k(self) -> int:
        return int(self.indices.size)


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    return v


def shift(x, i: int) -> np.ndarray:
    """Cyclic shift: output[j] = x[(i + j) mod n]."""
    v = _as_vector(x)
    n = v.size
    if not 0 <= i < n:
        raise ValueError(f"shift index {i} outside [0, {n})")
    return np.roll(v, -i)


# H_{2^p} is the Kronecker product of smaller Sylvester matrices, so the
# transform runs as a few BLAS products with +-1 factors; the bound on
# their order keeps the multiply-adds per element low.
_MAX_FACTOR_LOG2 = 6


def _sylvester(n: int) -> np.ndarray:
    # unnormalized +-1 Sylvester matrix of order n by the doubling construction
    H = np.ones((1, 1))
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


@functools.lru_cache(maxsize=_MAX_FACTOR_LOG2 + 1)
def _factor(p: int) -> np.ndarray:
    H = _sylvester(1 << p)
    H.flags.writeable = False  # one cached copy is shared by every call
    return H


def _factor_orders(p: int) -> list[int]:
    # near-equal exponents summing to p. More than one factor means an even
    # count, so the products alternate between a and one scratch buffer and
    # the last lands in a; a single factor writes over its own input, for
    # which numpy copies the input first.
    q = -(-p // _MAX_FACTOR_LOG2)
    if q > 1:
        q += q % 2
    return [p // q + (j < p % q) for j in range(q)]


# A band of the rows or columns of one product starts at a multiple of this.
# BLAS tiles the product in blocks of a few rows and columns, and forms a
# ragged edge with another kernel; an edge inside the product would change
# the last bits of the entries along it. Unaligned cuts at 2^18 on 12
# workers did. 64 was found on one OpenBLAS build (SkylakeX kernels); the
# banded-bits tests of tests/test_transforms.py check it on other machines.
_BAND_ALIGN = 64


def _bands(size: int, count: int, align: int = 1) -> list:
    """Up to ``count`` near-equal slices that cover range(size) in order,
    each starting at a multiple of ``align``."""
    step = -(-size // max(1, min(count, size)))
    step = -(-step // align) * align
    return [slice(i, i + step) for i in range(0, size, step)]


def _each_band(fn, size: int, width: int, align: int = 1) -> None:
    """fn(i) for the bands i of ``_bands(size, width, align)``, over
    ``_pool.fan_out``; with width 1, one fn(slice(None)) on this thread.

    The serial path skips ``_bands`` and ``fan_out``: for the short rows of
    most embeds, their few microseconds per call made a randomized embed at
    n=1000 about a third slower.
    """
    if width == 1:
        fn(slice(None))
    else:
        _pool.fan_out(fn, _bands(size, width, align), width)


def _fwht_inplace(a: np.ndarray, width: int = 1) -> None:
    """Unnormalized Walsh-Hadamard transform along the last axis, in place.

    ``a`` is a C-contiguous float64 array whose last axis has power-of-2
    length n = 2^p; every vector along that axis is replaced by H_n times
    it, and the function returns None. With H_n = H_{m_1} (x) ... (x)
    H_{m_q} for a few factors of order m_j <= 2^6, each vector is viewed as
    a (left, m_j, right) block array in turn and multiplied by H_{m_j} in
    one BLAS matmul. The cost is n * sum(m_j) multiply-adds in q passes.

    With ``width`` > 1, each pass is cut into that many bands along
    ``left`` (along ``right`` when ``left`` is smaller) that run over
    ``_pool.fan_out``. Every output entry is then computed by the same
    product over the same inputs, so the bits do not change.

    The products sum in another order than a radix-2 butterfly, so results
    can differ from one in the last bits, and BLAS may order a batch of
    rows differently from a single vector; a sign code can change only
    where a projection lies within rounding of 0.
    """
    if not a.flags.c_contiguous:
        raise ValueError("the in-place transform needs a C-contiguous array")
    orders = _factor_orders(a.shape[-1].bit_length() - 1)
    scratch = np.empty_like(a) if len(orders) > 1 else a
    src, right = a, a.shape[-1]
    for j, pj in enumerate(orders):
        m, right = 1 << pj, right >> pj
        dst = a if (len(orders) - j) % 2 else scratch
        H = _factor(pj)
        if right == 1:
            # the innermost factor as one (rows, m) @ (m, m) product, not a
            # matrix-vector product per block
            s, d = src.reshape(-1, m), dst.reshape(-1, m)
            _each_band(lambda i: np.matmul(s[i], H, out=d[i]), s.shape[0], width, _BAND_ALIGN)
        else:
            s, d = src.reshape(-1, m, right), dst.reshape(-1, m, right)
            if s.shape[0] >= width:
                # each of the left blocks is a product of its own, so a cut
                # between two of them needs no alignment
                _each_band(lambda i: np.matmul(H, s[i], out=d[i]), s.shape[0], width)
            else:
                _each_band(lambda i: np.matmul(H, s[..., i], out=d[..., i]), right, width, _BAND_ALIGN)
        src = dst


def _shift_rows(v: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Row t is shift(v, S[t]), gathered with no FFT: entry j is v[(S[t] + j) mod n].

    Window s of [v, v[:-1]] is shift(v, s), so the rows are one gather of
    windows, with no (k, n) index array.
    """
    n = v.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((v, v[:-1])), n)[S]


def fwht(x) -> np.ndarray:
    """Unitary Walsh-Hadamard transform. Length must be a power of 2."""
    v = _as_vector(x)
    n = v.size
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of 2")
    out = v.copy()
    _fwht_inplace(out)
    out *= 1.0 / math.sqrt(n)
    return out


def circulant_apply(h, x) -> np.ndarray:
    """Multiply by the circulant matrix whose row i is shift(h, i).

    Computed as a circular cross-correlation through the FFT, so the cost is
    O(n log n): output[i] = sum_j h[(i+j) mod n] * x[j].
    """
    hv = _as_vector(h)
    xv = _as_vector(x)
    if hv.size != xv.size:
        raise ValueError(f"length mismatch: h has {hv.size}, x has {xv.size}")
    return _correlate(_CorrelationPlan(hv), xv)


# From n = _SPLIT_ROWS**2 (2^16) on, the least n whose (_SPLIT_ROWS, n /
# _SPLIT_ROWS) view cuts into blocks of _SPLIT_ROWS columns, a sampled
# correlation runs as short FFTs over that view, not one out-of-cache FFT.
_SPLIT_ROWS = 256


class _CorrelationPlan:
    """The spectrum of a real generator h, kept for correlations with it.

    ``_correlate(plan, x)`` returns, for every vector along the last axis of
    x, the entries out[t] = sum_j h[(S[t] + j) mod n] * x[j]: the entries S
    of circulant_apply(h, x), or all n of them in order when S is None.

    A power-of-2 n >= _SPLIT_ROWS**2 with few entries S takes the split
    path. With B = _SPLIT_ROWS and A = n / B, x[j1 + A j2] is entry (j2, j1)
    of a B x A array. An FFT over j2, the twiddle w^(-m2 j1) with w =
    exp(2 pi i / n), and an FFT over j1 give the spectrum X at m2 + B m1 as
    entry (m2, m1). Since h and x are real, out[i] = (1/n) Re sum_m
    conj(fh[m]) X[m] w^(-m i), and rows m2 and B - m2 contribute conjugate
    terms, so only rows m2 <= B/2 are formed. An FFT over m1 of
    conj(fh) X gives each row's sum at i mod A; the k sums over m2 with
    weights w^(-m2 i) finish the entries. Its cost is n/2 log2 n complex
    multiply-adds plus (B/2 + 1) k, in passes over short rows.
    """

    def __init__(self, h: np.ndarray, S: np.ndarray | None = None):
        n = h.size
        fh = np.fft.rfft(h)
        H = _SPLIT_ROWS // 2 + 1
        self.S = S
        self.split = S is not None and n >= _SPLIT_ROWS**2 and not n & (n - 1) and H * S.size <= n
        if not self.split:
            self.fh = fh
            return
        B, A = _SPLIT_ROWS, n // _SPLIT_ROWS
        m2 = np.arange(H)[:, None]
        m = m2 + B * np.arange(A)  # the frequency of entry (m2, m1)
        # conj(fh[m]); h is real, so fh at m > n/2 is conj(fh[n - m])
        self.spec = fh[np.minimum(m, n - m)]
        np.conjugate(self.spec, out=self.spec, where=m <= n // 2)
        # the twiddle w^(-m2 j1) for j1 = lo + B hi, as a factor of each part
        self.tw_lo = np.exp((-2j * np.pi / n) * (m2 * np.arange(B)))
        self.tw_hi = np.exp((-2j * np.pi / n) * (m2 * np.arange(0, A, B)))
        weights = np.full((H, 1), 2.0 / n)
        weights[[0, -1]] = 1.0 / n
        self.E = weights * np.exp((-2j * np.pi / n) * (m2 * S % n))
        self.col = S % A


def _correlate(plan: _CorrelationPlan, x: np.ndarray, width: int = 1) -> np.ndarray:
    # cross-correlation diagonalizes as fh * conj(fx); see _CorrelationPlan.
    # With width > 1, the split path's two FFT phases each run over
    # _pool.fan_out in that many bands, of columns and then of rows; every
    # band makes the same calls on its part of the arrays, so the bits do
    # not change.
    n = x.shape[-1]
    if not plan.split:
        out = np.fft.irfft(plan.fh * np.fft.rfft(x).conj(), n)
        return out if plan.S is None else out.take(plan.S, axis=-1)
    B, A = _SPLIT_ROWS, n // _SPLIT_ROWS
    X = x.reshape(-1, B, A // B, B)  # entry (j2, hi, lo) is x[lo + B hi + A j2]
    T = np.empty((X.shape[0], B // 2 + 1, A), dtype=complex)
    parts = T.reshape(T.shape[0], T.shape[1], A // B, B)

    def columns(i):
        np.fft.rfft(X[:, :, i], axis=1, out=parts[:, :, i])
        parts[:, :, i] *= plan.tw_lo[:, None, :]
        parts[:, :, i] *= plan.tw_hi[:, i, None]

    def rows(i):
        t = T[:, i]
        np.fft.fft(t, axis=2, out=t)  # entry (m2, m1) is X[m2 + B m1]
        t *= plan.spec[i]
        np.fft.fft(t, axis=2, out=t)

    _each_band(columns, A // B, width)
    _each_band(rows, T.shape[1], width)
    out = np.einsum("rhk,hk->rk", T[:, :, plan.col], plan.E).real
    return out.reshape(x.shape[:-1] + (plan.S.size,))


def naive_circulant_apply(h, x) -> np.ndarray:
    """Row-by-row O(n^2) reference for circulant_apply.

    Builds every row literally as a window into [h, h] and multiplies.
    This is the correctness oracle; it never touches the FFT path.
    """
    hv = _as_vector(h)
    xv = _as_vector(x)
    if hv.size != xv.size:
        raise ValueError(f"length mismatch: h has {hv.size}, x has {xv.size}")
    n = hv.size
    hh = np.concatenate([hv, hv])
    rows = np.lib.stride_tricks.sliding_window_view(hh, n)[:n]
    # rows[i] == hh[i : i + n] == shift(h, i) by construction
    return rows @ xv


def restrict(x, S) -> np.ndarray:
    """Select entries of x at the ordered indices of S."""
    v = _as_vector(x)
    if isinstance(S, IndexSet):
        if S.n != v.size:
            raise ValueError(f"index set is for dimension {S.n}, vector has {v.size}")
        idx = S.indices
    else:
        idx = np.asarray(S, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("expected a nonempty 1-D index sequence")
        if int(idx.min()) < 0 or int(idx.max()) >= v.size:
            raise ValueError(f"index out of range for dimension {v.size}")
    return v[idx]


def hadamard_matrix(n: int) -> np.ndarray:
    """Dense unitary Hadamard matrix by the doubling construction.

    Quadratic memory; meant as a reference object for tests and for
    materializing small operators, not as a compute path.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"order {n} is not a power of 2")
    return _sylvester(n) / math.sqrt(n)
