import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circembed import geometry
from circembed.geometry import (
    CoherenceStats,
    PointSet,
    angular_distance,
    angular_perturbation_bound,
    coherence,
    hamming_normalized,
)
from circembed.io import generate_pointset
from circembed.rng import Stream


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit(stream, n):
    return unit(stream.normals(n))


# ---------------------------------------------------------- angular distance

def test_angular_hand_values():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert angular_distance(e0, e0) == 0.0
    assert angular_distance(e0, -e0) == 1.0
    assert math.isclose(angular_distance(e0, e1), 0.5, abs_tol=1e-15)
    diag = unit([1.0, 1.0])
    assert math.isclose(angular_distance(e0, diag), 0.25, abs_tol=1e-12)


def test_angular_rejects_zero_and_non_unit():
    with pytest.raises(ValueError):
        angular_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        angular_distance(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_angular_symmetry_and_range():
    s = Stream(41, "sym")
    for _ in range(200):
        x = random_unit(s, 8)
        y = random_unit(s, 8)
        d = angular_distance(x, y)
        assert 0.0 <= d <= 1.0
        assert d == angular_distance(y, x)


def test_angular_triangle_inequality():
    # metric property on the sphere; slack covers arccos rounding
    s = Stream(42, "tri")
    for _ in range(10_000):
        x, y, z = (random_unit(s, 16) for _ in range(3))
        dxy = angular_distance(x, y)
        dyz = angular_distance(y, z)
        dxz = angular_distance(x, z)
        assert dxz <= dxy + dyz + 1e-12


def test_angular_distance_is_the_pairwise_angle_formula():
    # one formula for every angle: a single pair gives the bits of _angles
    s = Stream(43, "one-formula")
    for _ in range(2000):
        x, y = random_unit(s, 32), random_unit(s, 32)
        assert angular_distance(x, y) == float(geometry._angles(np.dot(x, y)))


def test_angular_clamps_rounding_overshoot():
    # dot of a vector with itself can sit an ulp off 1; must not raise or go NaN
    v = unit(np.full(7, 1.0) + 1e-16)
    assert angular_distance(v, v) < 1e-7


# ---------------------------------------------------------- hamming

def test_hamming_hand_values():
    a = np.array([1, 1, -1, -1], dtype=np.int8)
    b = np.array([1, -1, -1, 1], dtype=np.int8)
    assert hamming_normalized(a, a) == 0.0
    assert hamming_normalized(a, -a) == 1.0
    assert hamming_normalized(a, b) == 0.5


def test_hamming_rejects_bad_values():
    with pytest.raises(ValueError):
        hamming_normalized([1, 0], [1, 1])
    with pytest.raises(ValueError):
        hamming_normalized([1, 1], [1, 1, -1])
    with pytest.raises(ValueError):
        hamming_normalized([], [])


def test_hamming_exhaustive_metric_small_k():
    """All 64 sign codes of length 6: identity, symmetry, triangle."""
    k = 6
    codes = np.array(
        [[1 if (c >> j) & 1 else -1 for j in range(k)] for c in range(2**k)],
        dtype=np.int8,
    )
    m = len(codes)
    D = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            D[i, j] = hamming_normalized(codes[i], codes[j])
    assert np.all(np.diag(D) == 0.0)
    np.testing.assert_array_equal(D, D.T)
    # triangle over all 64^3 triples via broadcasting
    assert np.all(D[:, None, :] + D[None, :, :] >= D[:, :, None] - 1e-15)


def test_hamming_matches_dot_product_identity():
    # for sign codes, disagreement fraction = (k - <a, b>) / (2k)
    s = Stream(4, "ham")
    for _ in range(100):
        a = s.rademacher(32).astype(np.int8)
        b = s.rademacher(32).astype(np.int8)
        want = (32 - float(np.dot(a, b))) / 64.0
        assert hamming_normalized(a, b) == want


# ---------------------------------------------------------- point sets

def test_pointset_validates_rows():
    with pytest.raises(ValueError):
        PointSet(points=np.array([[1.0, 1.0]]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        PointSet(points=np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointSet(points=np.ones((0, 4)))
    ps = PointSet(points=np.eye(3))
    assert ps.N == 3 and ps.n == 3


# ---------------------------------------------------------- coherence

def test_coherence_single_point():
    stats = coherence(PointSet(points=np.array([[1.0, 0.0, 0.0]])))
    assert stats == CoherenceStats(rho_direct=1.0, rho_cross=1.0, theta_min=1.0)


def test_coherence_two_basis_vectors():
    ps = PointSet(points=np.eye(2))
    stats = coherence(ps)
    # difference term is 1/sqrt(2), dominated by the direct term
    assert stats.rho_direct == 1.0
    assert stats.rho_cross == 1.0
    assert math.isclose(stats.theta_min, 0.5, abs_tol=1e-15)


def test_coherence_flat_signs_exact():
    s = Stream(6, "flat")
    P = np.stack([s.rademacher(16) / 4.0 for _ in range(8)])
    stats = coherence(PointSet(points=P))
    assert stats.rho_direct == 0.25
    assert stats.rho_cross >= 0.25


def test_coherence_skips_duplicate_pairs():
    v = unit(np.arange(1.0, 5.0))
    ps = PointSet(points=np.stack([v, v]))
    stats = coherence(ps)
    # duplicate difference would be 0/0; the direct term must survive
    assert stats.rho_direct == pytest.approx(np.abs(v).max())
    assert stats.rho_cross == stats.rho_direct
    assert stats.theta_min < 1e-7


def test_coherence_antipodal_pair():
    v = unit([3.0, 4.0])
    stats = coherence(PointSet(points=np.stack([v, -v])))
    assert stats.theta_min == 1.0
    # difference is 2v with l2 norm 2, so the ratio equals the inf norm of v
    assert stats.rho_cross == pytest.approx(0.8)


def _coherence_reference(P):
    # one pair at a time, with the 1-D norm of each difference
    rho_direct = float(np.abs(P).max())
    rho_cross, theta_min = rho_direct, 1.0
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            d = P[j] - P[i]
            l2 = float(np.linalg.norm(d))
            if l2 >= 1e-12:
                rho_cross = max(rho_cross, float(np.abs(d).max()) / l2)
            theta_min = min(theta_min, angular_distance(P[i], P[j]))
    return rho_direct, rho_cross, theta_min


@pytest.mark.parametrize("extra", ["none", "duplicate", "antipodal", "both"])
@pytest.mark.parametrize("seed", range(6))
def test_coherence_matches_per_pair_reference(seed, extra):
    s = Stream(seed, "cohref")
    P = np.stack([random_unit(s, 3 + 60 * seed) for _ in range(16)])
    if extra in ("duplicate", "both"):
        P = np.concatenate([P, P[2:3]])
    if extra in ("antipodal", "both"):
        P = np.concatenate([P, -P[4:5]])
    stats = coherence(PointSet(points=P))
    rho_direct, rho_cross, theta_min = _coherence_reference(P)
    assert stats.rho_direct == rho_direct
    assert stats.rho_cross == rho_cross
    # a duplicate's angle is arccos near 1, where the last bit of the cosine
    # moves the angle by about 1e-8
    assert stats.theta_min == pytest.approx(theta_min, abs=1e-7 if extra in ("duplicate", "both") else 1e-14)


@pytest.mark.parametrize("n, N", [(2**13, 20), (2**16, 18), (20000, 19)])
def test_coherence_matches_reference_across_block_edges(n, N):
    # 8, 1 and 3 difference rows per block; the duplicate and antipodal
    # partners sit on both sides of a block edge
    s = Stream(n, "cohblock")
    P = np.stack([random_unit(s, n) for _ in range(N)])
    rows = max(1, (1 << 16) // n)
    for src, dst, sign in ((0, rows, 1.0), (1, rows + 1, -1.0), (2, 2 * rows + 1, 1.0), (4, N - 1, -1.0)):
        if dst < N:
            P[dst] = sign * P[src]
    stats = coherence(PointSet(points=P))
    rho_direct, rho_cross, theta_min = _coherence_reference(P)
    assert stats.rho_direct == rho_direct
    assert stats.rho_cross == rho_cross
    assert stats.theta_min == pytest.approx(theta_min, abs=1e-7)


def _coherence_full_scan(P):
    # the scan without pair pruning: every pair through the exact path, rows
    # in index order, differences in blocks of about 2^16 entries
    N, n = P.shape
    rho_direct = float(np.abs(P).max())
    rho_cross, theta_min = rho_direct, 1.0
    rows = max(1, (1 << 16) // n)
    buf = np.empty((min(rows, N), n))
    for i in range(N - 1):
        for a in range(i + 1, N, rows):
            D = np.subtract(P[a : a + rows], P[i], out=buf[: min(rows, N - a)])
            l2 = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
            inf = np.abs(D, out=D).max(axis=1)
            keep = l2 >= 1e-12
            rho_cross = max(rho_cross, float(np.max(inf[keep] / l2[keep], initial=0.0)))
        cos = P[i + 1 :] @ P[i]
        theta_min = min(theta_min, float((np.arccos(np.clip(cos, -1.0, 1.0)) / math.pi).min()))
    return CoherenceStats(rho_direct=rho_direct, rho_cross=rho_cross, theta_min=theta_min)


def _assert_matches_full_scan(P):
    got, want = coherence(PointSet(points=P)), _coherence_full_scan(P)
    assert (got.rho_direct, got.rho_cross, got.theta_min) == (want.rho_direct, want.rho_cross, want.theta_min)
    assert got == want


@pytest.mark.parametrize("kind", ["uniform_sphere", "flat_signs", "spiky", "clustered_pairs"])
@pytest.mark.parametrize("n, N", [(2, 64), (8, 300), (64, 200), (300, 120)])
def test_coherence_matches_full_scan_on_every_kind(kind, n, N):
    # spiky prunes no pair; clustered_pairs has tied cosines; flat_signs ties ratios
    for seed in (0, 1):
        _assert_matches_full_scan(generate_pointset(kind, n, N, 50 + seed).points)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 5, 64])
def test_coherence_matches_full_scan_on_tiny_sets(n, N):
    for seed in range(4):
        _assert_matches_full_scan(generate_pointset("uniform_sphere", n, N, seed).points)


@pytest.mark.parametrize("gap", [0.0, 1e-13, 1e-11, 1e-10])
@pytest.mark.parametrize("n", [2, 3, 40, 500])
def test_coherence_matches_full_scan_on_duplicates_and_antipodes(n, gap):
    # 1e-13 apart counts as a duplicate; 1e-11 apart gives a ratio near 1
    # from a squared distance far below the rounding of s_i + s_j - 2c
    P = generate_pointset("uniform_sphere", n, 60, n).points.copy()
    P[7] = -P[3]
    P[59] = -P[0]
    for src, dst in ((2, 11), (2, 40), (5, 58)):
        P[dst] = P[src]
        P[dst, dst % n] += gap
    _assert_matches_full_scan(P)


@pytest.mark.parametrize("n, N", [(2**13, 60), (2**16, 12), (20000, 30)])
def test_coherence_matches_full_scan_across_block_edges(n, N):
    # 8, 1 and 3 difference rows per block. Row 0 gets close neighbours
    # spread over the set, so its candidates are gathered in several
    # buffer-sized chunks; the duplicate and antipodal partners sit on both
    # sides of a block edge.
    s = Stream(n, "cohblock-prune")
    P = np.stack([random_unit(s, n) for _ in range(N)])
    rows = max(1, (1 << 16) // n)
    for j in range(3, N, 4):
        P[j] = unit(P[0] + 0.05 * s.normals(n) / math.sqrt(n))
    for src, dst, sign in ((0, rows, 1.0), (1, rows + 1, -1.0), (4, N - 1, -1.0)):
        P[dst] = sign * P[src]
    _assert_matches_full_scan(P)


@given(st.integers(2, 40), st.integers(1, 40), st.integers(0, 2**32), st.sampled_from([0.0, 1e-13, 1e-11]))
@settings(max_examples=80, deadline=None)
def test_coherence_matches_full_scan_property(n, N, seed, gap):
    s = Stream(seed, "cohfull")
    P = np.stack([random_unit(s, n) for _ in range(N)])
    if N >= 4:
        P[N - 1] = -P[1]
        P[N // 2] = P[0]
        P[N // 2, 0] += gap
    _assert_matches_full_scan(P)


def test_coherence_matches_full_scan_on_near_tied_pairs():
    # x and y spike on one coordinate with opposite signs, so the bound of
    # their pair is tight, and permuted copies of the pair have the same
    # ratio up to the last bits. Skipping a pair on a bound without its
    # rounding terms loses the largest of these ratios on some of the sets.
    s = Stream(8, "cohtie")
    for n in range(3, 40):
        for _ in range(16):
            x, y = 0.1 * s.normals(n), 0.1 * s.normals(n)
            x[0], y[0] = 1.0, -1.0
            x, y = unit(x), unit(y)
            perms = [np.argsort(s.normals(n)) for _ in range(6)]
            _assert_matches_full_scan(np.stack([v[p] for p in perms for v in (x, y)]))


# The per-row body of _coherence from before the cosines came in Gram
# blocks: one full-length matrix-vector product per row, whose cosines give
# theta_min and feed the pruning bound. theta_min keeps the last bits of
# those products, so the blocked scan must give the same statistics, bit for
# bit.

def _ref_max_ratio(D):
    l2 = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    inf = np.abs(D, out=D).max(axis=1)
    keep = l2 >= 1e-12
    return float(np.max(inf[keep] / l2[keep], initial=0.0))


def _ref_max_ratio_from(P, x, start, buf):
    N, rows = P.shape[0], buf.shape[0]
    best = 0.0
    for a in range(start, N, rows):
        best = max(best, _ref_max_ratio(np.subtract(P[a : a + rows], x, out=buf[: min(rows, N - a)])))
    return best


def _ref_angles(cos):
    return np.arccos(np.clip(cos, -1.0, 1.0)) / math.pi


def ref_coherence(P):
    N, n = P.shape
    eps = 2.0**-53
    top = np.abs(P).max(axis=1)
    rho_direct = float(top.max())
    rho_cross, theta_min = rho_direct, 1.0
    rows = max(1, (1 << 16) // n)
    buf = np.empty((min(rows, N), n))
    s = np.einsum("ij,ij->i", P, P) * (1.0 - 4 * (n + 2) * eps)
    topf = top * (1.0 + 2 * (n + 8) * eps)
    rho_cross = max(rho_cross, _ref_max_ratio_from(P, P[np.argmax(top)], 0, buf))
    wait, gap = 0, 1
    for i in range(N - 1):
        c = P[i + 1 :] @ P[i]
        theta_min = min(theta_min, float(_ref_angles(c).min()))
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
                J, wait, gap = None, gap, min(2 * gap, 32)
            else:
                gap = 1
        if J is None:
            rho_cross = max(rho_cross, _ref_max_ratio_from(P, P[i], i + 1, buf))
            continue
        J += i + 1
        for a in range(0, J.size, rows):
            D = np.take(P, J[a : a + rows], axis=0, out=buf[: min(rows, J.size - a)], mode="clip")
            rho_cross = max(rho_cross, _ref_max_ratio(np.subtract(D, P[i], out=D)))
    return rho_direct, rho_cross, theta_min


def _assert_matches_per_row(P):
    got = coherence(PointSet(points=P))
    assert (got.rho_direct, got.rho_cross, got.theta_min) == ref_coherence(P)


_KINDS = ["uniform_sphere", "flat_signs", "spiky", "clustered_pairs"]


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n, N", [(1000, 1000), (40, 300), (3, 700), (2, 1), (2, 2), (500, 1), (500, 2)])
def test_coherence_has_the_bits_of_the_per_row_scan(kind, n, N):
    # 1000 and 300 rows make 32 and 3 Gram blocks, the last one partial;
    # 700 rows make 15 blocks with a partial last one. clustered_pairs needs
    # an even N, so N = 1 is the first row of a pair.
    for seed in (0, 1):
        _assert_matches_per_row(generate_pointset(kind, n, max(N, 2), 70 + seed).points[:N])


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("entries", [1, 8, 15])
def test_coherence_has_the_bits_of_the_per_row_scan_on_small_blocks(kind, entries, monkeypatch):
    # blocks of one row, of a few rows, and of rows that do not divide N
    monkeypatch.setattr(geometry, "_GRAM_ENTRIES", entries * 38)
    for n in (2, 9, 64):
        _assert_matches_per_row(generate_pointset(kind, n, 38, n).points)


@pytest.mark.parametrize("n", [3, 64, 1000])
def test_coherence_has_the_bits_of_the_per_row_scan_on_tied_top_cosines(n):
    # Copies of one pair, permuted, have the same exact cosine, but their
    # computed cosines may differ in the last bits; exact copies tie exactly.
    # The pairs go on both sides of Gram block edges (2^15 // 300 = 109 rows).
    s = Stream(n, "cohtop")
    x = random_unit(s, n)
    y = unit(x + 0.01 * s.normals(n))
    P = np.stack([random_unit(s, n) for _ in range(300)])
    for row in (0, 107, 108, 217, 218, 296):
        p = np.argsort(s.normals(n))
        P[row], P[row + 2] = x[p], y[p]
    P[150], P[151] = x, y
    P[250], P[251] = x, y
    _assert_matches_per_row(P)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n", [2, 30, 1000])
def test_coherence_has_the_bits_of_the_per_row_scan_on_duplicates_and_antipodes(kind, n):
    # 2^15 // 300 = 109 rows per Gram block: the partners sit in the same
    # block, on both sides of an edge and across two edges
    P = generate_pointset(kind, n, 300, n + 1).points.copy()
    for src, dst, sign in ((108, 109, 1.0), (107, 110, -1.0), (5, 200, 1.0), (6, 299, -1.0), (20, 21, -1.0),
                           (217, 218, 1.0)):
        P[dst] = sign * P[src]
    _assert_matches_per_row(P)


def test_coherence_prunes_generic_pairs(monkeypatch):
    # on generic data the bound rules out nearly every pair before the exact path
    seen = []
    exact = geometry._max_ratio
    monkeypatch.setattr(geometry, "_max_ratio", lambda D: seen.append(len(D)) or exact(D))
    P = generate_pointset("uniform_sphere", 400, 400, 3).points
    assert coherence(PointSet(points=P)) == _coherence_full_scan(P)
    assert sum(seen) < 0.05 * 400 * 399 / 2


def test_coherence_memory_is_linear_in_N():
    P = generate_pointset("uniform_sphere", 4, 1500, 5).points
    tracemalloc.start()
    try:
        coherence(PointSet(points=P))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # N^2 / 2 float64 entries would take 9 MB
    assert peak < 2**20


@given(st.integers(2, 24), st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_coherence_bounds(n, N, seed):
    s = Stream(seed, "cohprop")
    P = np.stack([random_unit(s, n) for _ in range(N)])
    stats = coherence(PointSet(points=P))
    # a unit vector has inf norm between 1/sqrt(n) and 1
    assert 1.0 / math.sqrt(n) - 1e-12 <= stats.rho_direct <= 1.0 + 1e-12
    assert stats.rho_cross >= stats.rho_direct
    assert 0.0 <= stats.theta_min <= 1.0


# ------------------------------------------------- perturbation inequality

def test_perturbation_bound_identical_pairs():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    lhs, rhs = angular_perturbation_bound(e0, e0, e1, e1)
    assert lhs == 0.0 and rhs == 0.0


def test_perturbation_bound_closed_form():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    diag = unit([1.0, 1.0])
    lhs, rhs = angular_perturbation_bound(e0, e0, e1, diag)
    assert math.isclose(lhs, 0.25, abs_tol=1e-12)
    assert math.isclose(rhs, 5.0 / 2**0.25, rel_tol=1e-12)
    assert lhs <= rhs


@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_perturbation_bound_holds_on_random_quadruples(seed):
    s = Stream(seed, "quad")
    n = 8
    x = random_unit(s, n)
    y = random_unit(s, n)
    # perturb by a small random direction, stay on the sphere
    x_alt = unit(x + 0.05 * s.normals(n))
    y_alt = unit(y + 0.05 * s.normals(n))
    lhs, rhs = angular_perturbation_bound(x, x_alt, y, y_alt)
    assert lhs <= rhs + 1e-12
