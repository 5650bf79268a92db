"""Angular and Hamming geometry over unit-vector point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import embedders
from .embedders import _row_blocks

__all__ = [
    "PointSet",
    "CoherenceStats",
    "angular_distance",
    "hamming_normalized",
    "coherence",
    "angular_perturbation_bound",
]

_UNIT_ATOL = 1e-9  # PointSet row invariant
_PRE_ATOL = 1e-6  # precondition slack for single-vector arguments
_DUP_TOL = 1e-12  # pairs closer than this count as duplicates
_EPS = 2.0**-53  # unit roundoff of float64
_PAIR_ENTRIES = 1 << 15  # entries of one block of _pair_blocks
# the widest float32 product of sign codes that is exact: its partial sums are
# integers of magnitude at most 2^24, which float32 holds exactly
_F32_COLUMNS = 1 << 24


@dataclass(frozen=True, eq=False)
class PointSet:
    """N unit rows in R^n.

    Rows must already be normalized to unit norm within 1e-9; the io module
    takes care of that on load. Treat the array as immutable.
    """

    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("points must be an N x n matrix")
        object.__setattr__(self, "points", p)
        N, n = p.shape
        if N < 1 or n < 2:
            raise ValueError(f"need N >= 1 and n >= 2, got N={N}, n={n}")
        norms, bad = _row_norms(p)
        if bad is not None:
            raise ValueError("points contain NaN or Inf")
        _require_unit(norms, np.arange(N))

    @classmethod
    def _checked(cls, points: np.ndarray) -> "PointSet":
        """A PointSet of a float64 N x n array whose rows the caller has
        already checked: N >= 1, n >= 2, finite and unit within 1e-9."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "points", points)
        return ps

    @property
    def N(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def _row_norms(P: np.ndarray):
    """(norms, None) with the norms of ``np.linalg.norm(P, axis=1)``, or
    (None, (row, column)) of P's first non-finite entry in row-major order.

    P is read a block of rows at a time, so the temporaries are block-sized;
    each row's norm is reduced as in one call over all of P, so its bits are
    the same.
    """
    norms = np.empty(P.shape[0])
    for rows in _row_blocks(P.shape[0], P.shape[1]):
        block = P[rows]
        if not np.isfinite(block).all():
            row, col = divmod(int(np.argmin(np.isfinite(block))), P.shape[1])
            return None, (rows.start + row, col)
        with np.errstate(over="ignore"):
            norms[rows] = np.linalg.norm(block, axis=1)
    return norms, None


def _normalize_rows(P: np.ndarray) -> None:
    """Divide each row of P by its norm in place, a block of rows at a time."""
    for rows in _row_blocks(P.shape[0], P.shape[1]):
        block = P[rows]
        block /= np.linalg.norm(block, axis=1, keepdims=True)


def _require_unit(norms: np.ndarray, rows: np.ndarray) -> None:
    """Refuse norms more than 1e-9 from 1; ``rows[i]`` is the row number of ``norms[i]``."""
    off = np.abs(norms - 1.0)
    if off.max() > _UNIT_ATOL:
        i = int(np.argmax(off))
        raise ValueError(f"row {rows[i]} has norm {norms[i]!r}; rows must be unit within 1e-9")


@dataclass(frozen=True)
class CoherenceStats:
    rho_direct: float
    rho_cross: float
    theta_min: float


def _unit_pair(x, y) -> tuple:
    """x and y as float64 unit vectors of one shared dimension >= 2."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    for name, v in (("x", xv), ("y", yv)):
        if v.ndim != 1 or v.size < 2:
            raise ValueError(f"{name} must be a 1-D vector of length >= 2")
        if abs(float(np.linalg.norm(v)) - 1.0) > _PRE_ATOL:
            raise ValueError(f"{name} must be unit norm within {_PRE_ATOL:g}")
    if xv.size != yv.size:
        raise ValueError("x and y must share a dimension")
    return xv, yv


def angular_distance(x, y) -> float:
    """Angle between two unit vectors, normalized by pi, in [0, 1]."""
    return float(_angles(np.dot(*_unit_pair(x, y))))


def hamming_normalized(a, b) -> float:
    """Fraction of positions where two sign codes disagree."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.ndim != 1 or av.shape != bv.shape or av.size == 0:
        raise ValueError("codes must be nonempty 1-D and of equal length")
    if not (np.isin(av, (-1, 1)).all() and np.isin(bv, (-1, 1)).all()):
        raise ValueError("codes must take values in {+1, -1}")
    return float(np.count_nonzero(av != bv)) / av.size


def _angles(cos, out=None):
    """Angular distances, normalized by pi, from cosines; ``out`` may be ``cos``."""
    return np.divide(np.arccos(np.clip(cos, -1.0, 1.0, out=out), out=out), math.pi, out=out)


def _angular_pairs(points: np.ndarray) -> np.ndarray:
    """The angle of each pair of rows (i, j), i < j, in ``np.triu_indices``
    order. An N x N Gram matrix over ``embedders._MAX_ENTRIES`` entries is
    refused before anything is allocated.
    """
    N = points.shape[0]
    if N * N > embedders._MAX_ENTRIES:
        raise ValueError(f"all pairs of N={N} points need {N * N} Gram entries, over the cap of {embedders._MAX_ENTRIES}")
    # one product of all rows: a product over blocks of rows rounds some
    # cosines differently
    G = points @ points.T
    cos = np.empty(N * (N - 1) // 2)
    start = 0
    for i in range(N - 1):
        cos[start : start + N - 1 - i] = G[i, i + 1 :]
        start += N - 1 - i
    return _angles(cos, out=cos)


def _pair_blocks(N: int):
    """(a, b, mask, run) for each block of rows a..b-1 of the strict upper
    triangle of an N x N matrix, of about ``_PAIR_ENTRIES`` entries: the
    block's pairs are the entries ``mask`` of its columns a.., and ``run`` is
    their slice of the pairs in ``np.triu_indices(N, 1)`` order. The last
    row, which has no pairs, is in no block."""
    step = max(1, min(_PAIR_ENTRIES // N, N - 1))
    upper = ~np.tri(step, N, dtype=bool)
    start = 0
    for a in range(0, N - 1, step):
        b = min(a + step, N - 1)
        stop = start + (b - a) * (N - 1) - (a + b - 1) * (b - a) // 2
        yield a, b, upper[: b - a, : N - a], slice(start, stop)
        start = stop


def _hamming_pairs(codes: np.ndarray) -> np.ndarray:
    """Normalized Hamming distance of each pair of code rows, in ``np.triu_indices`` order."""
    # (k - <a, b>) / 2k equals the disagreement fraction for sign codes. The
    # dot products are integers, exact in float32 products of at most
    # _F32_COLUMNS columns in any order or blocking, and exact in float64
    # differences, so the Gram is taken a block of rows at a time
    N, k = codes.shape
    ham = np.full(N * (N - 1) // 2, float(k))
    for c in range(0, k, _F32_COLUMNS):
        C = codes[:, c : c + _F32_COLUMNS].astype(np.float32)
        for a, b, mask, run in _pair_blocks(N):
            ham[run] -= (C[a:b] @ C[a:].T)[mask]
    ham /= 2.0 * k
    return ham


def _worst_per_point(diff: np.ndarray, N: int) -> np.ndarray:
    """Each of N points' largest diff over its pairs (0.0 for a point with none).

    ``diff`` holds one value per pair, in ``np.triu_indices(N, 1)`` order,
    and no value below 0. The pairs of each block of rows are laid out in a
    reused buffer, zero elsewhere: its row maxima are their worst for the
    first point, its column maxima their worst for the second.
    """
    worst = np.zeros(N)
    buf = np.empty(min(max(_PAIR_ENTRIES, N), N * N))
    for a, b, mask, run in _pair_blocks(N):
        block = buf[: mask.size].reshape(mask.shape)
        block.fill(0.0)
        block[mask] = diff[run]
        np.maximum(worst[a:b], block.max(axis=1), out=worst[a:b])
        np.maximum(worst[a:], block.max(axis=0), out=worst[a:])
    return worst


def _max_ratio(D: np.ndarray) -> float:
    """Largest inf-norm over l2-norm of the rows of D, duplicates skipped; overwrites D."""
    # one dot product per row, as a 1-D np.linalg.norm computes it
    l2 = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    inf = np.abs(D, out=D).max(axis=1)
    keep = l2 >= _DUP_TOL
    return float(np.max(inf[keep] / l2[keep], initial=0.0))


def _max_ratio_from(P: np.ndarray, x: np.ndarray, start: int, buf: np.ndarray) -> float:
    """_max_ratio of the differences P[start:] - x, in contiguous slices of buf's size."""
    N, rows = P.shape[0], buf.shape[0]
    best = 0.0
    for a in range(start, N, rows):
        best = max(best, _max_ratio(np.subtract(P[a : a + rows], x, out=buf[: min(rows, N - a)])))
    return best


def _coherence(P: np.ndarray) -> CoherenceStats:
    """Coherence statistics of the rows of P, in O(N n) memory."""
    N, n = P.shape
    # the rows are finite and nonzero, so max(max, -min) is the inf norm
    top = np.maximum(P.max(axis=1), -P.min(axis=1))
    rho_direct = float(top.max())
    # differences go through reused buffers of about _BLOCK_ENTRIES entries
    # each, which stay in cache, instead of a fresh (N - i) x n array per row
    rows = min(max(1, embedders._BLOCK_ENTRIES // n), N)
    buf = np.empty((2, rows, n))
    # A pair (i, j) is skipped when a rigorous upper bound on the ratio its
    # exact path would compute lies strictly below rho_cross, so it cannot
    # change the maximum. With e = 2^-53, g = n e / (1 - n e),
    # m = inf norms, s = computed squared norms and c = the computed dot
    # product of rows i and j (any summation order):
    #   ratio <= (1+e)^2 / ((1-e)^2 sqrt(1-g)) * (m_i + m_j) / |d|   (rounding
    #     of the difference, its dot product, sqrt and the division)
    #   |d|^2 >= (1-g)/(1+g) (s_i + s_j) - 2c >= (1 - 2g)(s_i + s_j) - 2c
    #     (rounding of s and of c, with |x||y| <= (|x|^2 + |y|^2) / 2)
    # L below scales s by 1 - 4(n+2)e, which covers 2g plus the roundings of
    # that scaling and of the three-term sum, so L <= |d|^2. The test
    # (f m_i + f m_j)^2 < rho^2 L with f = 1 + 2(n+8)e covers the first line
    # and the roundings of the test itself. Both factors are exact in float64
    # and assume n e < 2^-20. A pair with L <= 0 (a near-duplicate) is never
    # skipped. rho_cross only grows, so testing a whole block of pairs
    # against its value at the start of the block is as rigorous.
    s = np.einsum("ij,ij->i", P, P) * (1.0 - 4 * (n + 2) * _EPS)
    topf = top * (1.0 + 2 * (n + 8) * _EPS)
    # the pairs of the row with the largest inf norm first, so rho_cross starts
    # high (a difference and its negation round to the same magnitudes, so
    # these ratios are the ones the scan computes)
    rho_cross = max(rho_direct, _max_ratio_from(P, P[np.argmax(top)], 0, buf[0]))
    # The cosines come in the blocks of _pair_blocks, C = P[a:b] @ P[a:].T,
    # one matrix product each; the entries j <= i are set to -inf, which the
    # bound then never keeps.
    gram, bound = np.empty((2, min(max(_PAIR_ENTRIES, N), N * N)))
    keep = np.empty(gram.size, dtype=bool)
    top_cos = np.empty(max(N - 1, 0))  # each row's largest cosine in C
    for a, b, mask, _ in _pair_blocks(N):
        m, width = mask.shape
        C = np.matmul(P[a:b], P[a:].T, out=gram[: mask.size].reshape(mask.shape))
        C[:, :m][~mask[:, :m]] = -np.inf
        top_cos[a:b] = C.max(axis=1)
        L = np.multiply(C, -2.0, out=C)
        L += s[a:]
        L += s[a:b, None]
        L *= rho_cross * rho_cross
        w = np.add(topf[a:], topf[a:b, None], out=bound[: mask.size].reshape(mask.shape))
        w *= w
        K = np.greater_equal(w, L, out=keep[: mask.size].reshape(mask.shape))
        # contiguous slices beat a gather for a row whose bound keeps most pairs
        dense = 2 * np.count_nonzero(K, axis=1) > np.arange(N - 1 - a, N - 1 - b, -1)
        for i in (np.flatnonzero(dense) + a).tolist():
            rho_cross = max(rho_cross, _max_ratio_from(P, P[i], i + 1, buf[0]))
        K[dense] = False
        pairs = np.flatnonzero(K)
        for c in range(0, pairs.size, rows):
            I, J = np.divmod(pairs[c : c + rows], width)
            I += a
            J += a
            # mode="clip" writes straight into buf; the indices are in range
            D = np.take(P, J, axis=0, out=buf[0, : J.size], mode="clip")
            E = np.take(P, I, axis=0, out=buf[1, : I.size], mode="clip")
            rho_cross = max(rho_cross, _max_ratio(np.subtract(D, E, out=D)))
    # theta_min is the smallest angle of the cosines P[i+1:] @ P[i], one
    # full-length matrix-vector product per row, and a blocked product rounds
    # some cosines differently. So only the rows whose top_cos lies within
    # `gap` of the largest, M, take that product. With e, g and s as above:
    # a computed dot product of x and y is within g |x||y| of the exact one
    # in any summation order, so two of them differ by at most 2g |x||y|, and
    # |x||y| <= max |x|^2 <= (1 + 2^-17) max s. The row of M has a product
    # cosine c >= M - 2g max|x|^2, and every product cosine of a skipped row
    # lies below M - gap + 2g max|x|^2, so below c by more than
    # gap - 4g max|x|^2 > 2^-40 + 3 n e max s; the last term covers the
    # rounding of gap and of M - gap. arccos has slope at most -1 and numpy's
    # is within a few ulps (2^-51 each on [0, pi]) of the exact value, much
    # less than 2^-41, so clipping to [-1, 1] and arccos keep the order and a
    # skipped row's angles are no smaller than the angle at c. (The clip at
    # -1 could tie them, but for N >= 3 the largest cosine is at least -1/2,
    # and N = 2 has one row.)
    theta_min = 1.0
    if N > 1:
        gap = 8 * n * _EPS * float(s.max()) + 2.0**-40
        for i in np.flatnonzero(top_cos >= top_cos.max() - gap).tolist():
            theta_min = min(theta_min, float(_angles(P[i + 1 :] @ P[i]).min()))
    return CoherenceStats(rho_direct=rho_direct, rho_cross=rho_cross, theta_min=theta_min)


def coherence(ps: PointSet) -> CoherenceStats:
    """Exact O(N^2 n) scan for the coherence statistics of a point set.

    rho_direct is the largest infinity norm among the points. rho_cross
    additionally maximizes the normalized difference term over distinct
    pairs; duplicate pairs (difference norm below 1e-12) are skipped there
    because the ratio degenerates to 0/0. theta_min is the smallest pairwise
    angular distance, with 1.0 as the single-point sentinel.

    The result is exact: every value equals, bit for bit, what a scan of all
    pairs through the same formulas gives. The cosines of all pairs come
    from matrix products over blocks of rows of about 2^15 entries. theta_min
    is the smallest angle of the cosines of one full-length matrix-vector
    product per row, which rounds some cosines differently, so that product
    is taken only for the rows whose largest block cosine comes within a
    rigorous rounding margin of the largest of all (one or a few rows on
    generic sets, every row of a tie such as clustered_pairs). For
    rho_cross, the squared norms, the inf norms and the block cosines bound
    each pair's ratio from above, with the rounding of every step accounted
    for, and a pair whose bound lies below the maximum so far is skipped;
    the rest take the exact difference path. On generic sets
    (uniform_sphere at n=N=1000) fewer than 1% of pairs remain. In the worst
    case, such as spiky sets where every bound exceeds rho_cross, every pair
    takes the exact path, at about the cost of a scan without the bound.
    Memory stays O(N n).
    """
    return _coherence(ps.points)


def angular_perturbation_bound(x, x_alt, y, y_alt):
    """Angle gap versus inner-product gap for two pairs of unit vectors.

    Returns (lhs, rhs) with lhs = |ang(x, y) - ang(x_alt, y_alt)| and
    rhs = 5 * sqrt(|<x, y> - <x_alt, y_alt>|). The property suite asserts
    lhs <= rhs on random quadruples.
    """
    dot = float(np.dot(*_unit_pair(x, y)))
    dot_alt = float(np.dot(*_unit_pair(x_alt, y_alt)))
    lhs = abs(float(_angles(dot)) - float(_angles(dot_alt)))
    rhs = 5.0 * math.sqrt(abs(dot - dot_alt))
    return lhs, rhs
