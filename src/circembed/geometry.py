"""Angular and Hamming geometry over unit-vector point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import embedders
from .embedders import _BLOCK_ENTRIES

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
_MAX_WAIT = 32  # longest run of rows that skip the pruning bound


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
        if not np.isfinite(p).all():
            raise ValueError("points contain NaN or Inf")
        _require_unit(np.linalg.norm(p, axis=1), np.arange(N))

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


def angular_distance(x, y) -> float:
    """Angle between two unit vectors, normalized by pi, in [0, 1]."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    nx = float(np.linalg.norm(xv))
    ny = float(np.linalg.norm(yv))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angular distance is undefined for zero vectors")
    if abs(nx - 1.0) > _PRE_ATOL or abs(ny - 1.0) > _PRE_ATOL:
        raise ValueError(
            f"inputs must be unit vectors within 1e-6, got norms {nx!r}, {ny!r}"
        )
    c = float(np.clip(np.dot(xv, yv), -1.0, 1.0))
    return math.acos(c) / math.pi


def hamming_normalized(a, b) -> float:
    """Fraction of positions where two sign codes disagree."""
    av = np.asarray(a)
    bv = np.asarray(b)
    if av.ndim != 1 or av.shape != bv.shape or av.size == 0:
        raise ValueError("codes must be nonempty 1-D and of equal length")
    if not (np.isin(av, (-1, 1)).all() and np.isin(bv, (-1, 1)).all()):
        raise ValueError("codes must take values in {+1, -1}")
    return float(np.count_nonzero(av != bv)) / av.size


def _angles(cos: np.ndarray) -> np.ndarray:
    """Angular distances, normalized by pi, from cosines."""
    return np.arccos(np.clip(cos, -1.0, 1.0)) / math.pi


def _angular_pairs(points: np.ndarray):
    """Upper-triangle indices of the rows and the angle of each pair.

    An N x N Gram matrix over ``embedders._MAX_ENTRIES`` entries is refused before allocation.
    """
    N = points.shape[0]
    if N * N > embedders._MAX_ENTRIES:
        raise ValueError(f"all pairs of N={N} points need {N * N} Gram entries, over the cap of {embedders._MAX_ENTRIES}")
    iu = np.triu_indices(N, 1)
    return iu, _angles((points @ points.T)[iu])


def _hamming_pairs(codes: np.ndarray, iu) -> np.ndarray:
    """Normalized Hamming distance of the code rows at the pairs ``iu``."""
    # (k - <a, b>) / 2k equals the disagreement fraction for sign codes;
    # the Gram matrix is integer-valued so this is exact
    C = codes.astype(np.float64)
    k = C.shape[1]
    return (k - (C @ C.T)[iu]) / (2.0 * k)


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
    top = np.abs(P).max(axis=1)
    rho_direct = float(top.max())
    rho_cross, theta_min = rho_direct, 1.0
    # differences go through one reused buffer of about _BLOCK_ENTRIES
    # entries, which stays in cache, instead of a fresh (N - i) x n array per row
    rows = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((min(rows, N), n))
    # A pair (i, j) is skipped when a rigorous upper bound on the ratio its
    # exact path would compute lies strictly below the running rho_cross, so
    # it cannot change the maximum. With e = 2^-53, g = n e / (1 - n e),
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
    # skipped.
    s = np.einsum("ij,ij->i", P, P) * (1.0 - 4 * (n + 2) * _EPS)
    topf = top * (1.0 + 2 * (n + 8) * _EPS)
    # the pairs of the row with the largest inf norm first, so rho_cross starts
    # high (a difference and its negation round to the same magnitudes, so
    # these ratios are the ones the scan computes); rows then go in index
    # order, which reuses the cache better than a sorted order. After a row
    # where the bound kept most pairs, the next `wait` rows skip it, with
    # `wait` doubling up to _MAX_WAIT while that goes on, so a set it cannot
    # prune pays little for it.
    rho_cross = max(rho_cross, _max_ratio_from(P, P[np.argmax(top)], 0, buf))
    wait, gap = 0, 1
    for i in range(N - 1):
        # one full-length matrix-vector product: a blocked one rounds some cosines differently
        c = P[i + 1 :] @ P[i]
        theta_min = min(theta_min, float(_angles(c).min()))
        J = None
        if wait:
            wait -= 1
        else:
            L = np.multiply(c, -2.0, out=c)
            L += s[i + 1 :]
            L += s[i]
            L *= rho_cross * rho_cross
            w = topf[i + 1 :] + topf[i]
            w *= w
            J = np.flatnonzero(w >= L)
            if 2 * J.size > L.size:
                # contiguous slices beat a gather of most of the row
                J, wait, gap = None, gap, min(2 * gap, _MAX_WAIT)
            else:
                gap = 1
        if J is None:
            rho_cross = max(rho_cross, _max_ratio_from(P, P[i], i + 1, buf))
            continue
        J += i + 1
        for a in range(0, J.size, rows):
            # mode="clip" writes straight into buf; the indices are in range
            D = np.take(P, J[a : a + rows], axis=0, out=buf[: min(rows, J.size - a)], mode="clip")
            rho_cross = max(rho_cross, _max_ratio(np.subtract(D, P[i], out=D)))
    return CoherenceStats(rho_direct=rho_direct, rho_cross=rho_cross, theta_min=theta_min)


def coherence(ps: PointSet) -> CoherenceStats:
    """Exact O(N^2 n) scan for the coherence statistics of a point set.

    rho_direct is the largest infinity norm among the points. rho_cross
    additionally maximizes the normalized difference term over distinct
    pairs; duplicate pairs (difference norm below 1e-12) are skipped there
    because the ratio degenerates to 0/0. theta_min is the smallest pairwise
    angular distance, with 1.0 as the single-point sentinel.

    The result is exact: every value equals, bit for bit, what a scan of all
    pairs through the same formulas gives. theta_min comes from one
    full-length matrix-vector product per row. For rho_cross, the squared
    norms, the inf norms and those dot products bound each pair's ratio from
    above, with the rounding of every step accounted for, and a pair whose
    bound lies below the running maximum is skipped; the rest take the exact
    difference path. On generic sets (uniform_sphere at n=N=1000) fewer than
    1% of pairs remain. In the worst case, such as spiky sets where every
    bound exceeds rho_cross, every pair takes the exact path, at about the
    cost of a scan without the bound. Memory stays O(N n).
    """
    return _coherence(ps.points)


def angular_perturbation_bound(x, x_alt, y, y_alt):
    """Angle gap versus inner-product gap for two pairs of unit vectors.

    Returns (lhs, rhs) with lhs = |ang(x, y) - ang(x_alt, y_alt)| and
    rhs = 5 * sqrt(|<x, y> - <x_alt, y_alt>|). The property suite asserts
    lhs <= rhs on random quadruples.
    """
    lhs = abs(angular_distance(x, y) - angular_distance(x_alt, y_alt))
    dot = float(np.dot(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
    dot_alt = float(
        np.dot(np.asarray(x_alt, dtype=np.float64), np.asarray(y_alt, dtype=np.float64))
    )
    rhs = 5.0 * math.sqrt(abs(dot - dot_alt))
    return lhs, rhs
