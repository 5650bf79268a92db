"""Angular and Hamming geometry over unit-vector point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        norms = np.linalg.norm(p, axis=1)
        off = np.abs(norms - 1.0)
        if off.max() > _UNIT_ATOL:
            i = int(np.argmax(off))
            raise ValueError(
                f"row {i} has norm {norms[i]!r}; rows must be unit within 1e-9"
            )

    @property
    def N(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


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
    """Upper-triangle indices of the rows and the angle of each pair."""
    iu = np.triu_indices(points.shape[0], 1)
    return iu, _angles((points @ points.T)[iu])


def _hamming_pairs(codes: np.ndarray, iu) -> np.ndarray:
    """Normalized Hamming distance of the code rows at the pairs ``iu``."""
    # (k - <a, b>) / 2k equals the disagreement fraction for sign codes;
    # the Gram matrix is integer-valued so this is exact
    C = codes.astype(np.float64)
    k = C.shape[1]
    return (k - (C @ C.T)[iu]) / (2.0 * k)


def _coherence(P: np.ndarray) -> CoherenceStats:
    """Coherence statistics of the rows of P, in O(N n) memory."""
    N, n = P.shape
    rho_direct = float(np.abs(P).max())
    rho_cross, theta_min = rho_direct, 1.0
    # differences go through one reused buffer of about _BLOCK_ENTRIES
    # entries, which stays in cache, instead of a fresh (N - i) x n array per row
    rows = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((min(rows, N), n))
    for i in range(N - 1):
        for a in range(i + 1, N, rows):
            D = np.subtract(P[a : a + rows], P[i], out=buf[: min(rows, N - a)])
            # one dot product per row, as a 1-D np.linalg.norm computes it
            l2 = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
            inf = np.abs(D, out=D).max(axis=1)
            keep = l2 >= _DUP_TOL
            rho_cross = max(rho_cross, float(np.max(inf[keep] / l2[keep], initial=0.0)))
        # one full-length matrix-vector product: a blocked one rounds some cosines differently
        theta_min = min(theta_min, float(_angles(P[i + 1 :] @ P[i]).min()))
    return CoherenceStats(rho_direct=rho_direct, rho_cross=rho_cross, theta_min=theta_min)


def coherence(ps: PointSet) -> CoherenceStats:
    """Exact O(N^2 n) scan for the coherence statistics of a point set.

    rho_direct is the largest infinity norm among the points. rho_cross
    additionally maximizes the normalized difference term over distinct
    pairs; duplicate pairs (difference norm below 1e-12) are skipped there
    because the ratio degenerates to 0/0. theta_min is the smallest pairwise
    angular distance, with 1.0 as the single-point sentinel.
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
