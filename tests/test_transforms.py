import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circembed import transforms
from circembed.rng import Stream
from circembed.transforms import (
    _SPLIT_ROWS,
    IndexSet,
    _correlate,
    _CorrelationPlan,
    _fwht_inplace,
    _shift_rows,
    circulant_apply,
    fwht,
    hadamard_matrix,
    naive_circulant_apply,
    restrict,
    shift,
)

unit_range = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def vectors(n):
    return hnp.arrays(np.float64, n, elements=unit_range)


# ---------------------------------------------------------------- shift

def test_shift_hand_values():
    x = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(shift(x, 0), x)
    np.testing.assert_array_equal(shift(x, 1), [20.0, 30.0, 40.0, 10.0])
    np.testing.assert_array_equal(shift(x, 3), [40.0, 10.0, 20.0, 30.0])


def test_shift_rejects_out_of_range():
    x = np.ones(4)
    with pytest.raises(ValueError):
        shift(x, 4)
    with pytest.raises(ValueError):
        shift(x, -1)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_shift_inverse_and_norm(data):
    n = data.draw(st.integers(1, 32))
    x = data.draw(vectors(n))
    i = data.draw(st.integers(0, n - 1))
    y = shift(x, i)
    assert math.isclose(np.linalg.norm(y), np.linalg.norm(x), abs_tol=1e-12)
    np.testing.assert_array_equal(shift(y, (n - i) % n), x)


def _shift_row_sets(n, k):
    """Row sets of size k holding 0 and n - 1 between them, the rest shuffled."""
    if k == 1:
        return [np.array([0]), np.array([n - 1])]
    rest = 1 + np.random.default_rng(n * 7919 + k).permutation(max(n - 2, 0))
    return [np.concatenate(([0], rest[: k - 2], [n - 1])).astype(np.int64)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 256, 1000])
def test_shift_rows_is_the_modular_gather(n):
    v = Stream(n, "shift_rows").normals(n)
    for k in sorted({1, max(1, n // 2), n}):
        for S in _shift_row_sets(n, k):
            got = _shift_rows(v, S)
            want = v[(S[:, None] + np.arange(n)) % n]
            assert got.dtype == want.dtype and got.shape == want.shape == (k, n)
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- circulant
# The naive form is the oracle: an explicit dense matrix-vector product with
# no FFT anywhere, so the fast path is checked against independent arithmetic.

def test_naive_circulant_identity_filter():
    # h = e0 makes row i the i-step shift of e0, so output picks x reversed
    # after the first entry: [a, d, c, b] for x = [a, b, c, d]
    h = np.array([1.0, 0.0, 0.0, 0.0])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(naive_circulant_apply(h, x), [1.0, 4.0, 3.0, 2.0])


def test_naive_circulant_ones_filter():
    # every row of the all-ones circulant sums x
    x = np.array([1.0, -2.0, 5.0, 0.5])
    np.testing.assert_allclose(naive_circulant_apply(np.ones(4), x), np.full(4, 4.5))


def test_fft_matches_naive_hand_case():
    h = np.array([1.0, 0.0, 0.0, 0.0])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(circulant_apply(h, x), [1.0, 4.0, 3.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_fft_matches_naive_random(n):
    s = Stream(17, f"circ:{n}")
    for _ in range(5):
        h = s.normals(n)
        x = s.normals(n)
        np.testing.assert_allclose(
            circulant_apply(h, x), naive_circulant_apply(h, x), atol=1e-10
        )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_circulant_bilinear(data):
    n = data.draw(st.sampled_from([4, 8, 16]))
    h = data.draw(vectors(n))
    x = data.draw(vectors(n))
    y = data.draw(vectors(n))
    a = data.draw(st.floats(-3, 3, allow_nan=False))
    lhs = circulant_apply(h, a * x + y)
    rhs = a * circulant_apply(h, x) + circulant_apply(h, y)
    scale = max(1.0, np.abs(rhs).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)


def test_circulant_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        circulant_apply(np.ones(4), np.ones(8))


@pytest.mark.parametrize("p", [16, 17, 18])
def test_split_correlation_matches_shifted_dot_products(p):
    # entries S of the correlation, against one dot product per entry with
    # no FFT; S holds both ends of a row, the ends of the first split
    # column and the middle, where the spectrum turns over
    n = 1 << p
    s = Stream(29, f"split:{n}")
    h, X = s.normals(n), s.normals(3 * n).reshape(3, n)
    edges = [0, 1, n // _SPLIT_ROWS - 1, n // _SPLIT_ROWS, n // 2, n - 1]
    S = np.array(edges + [i for i in s.index_subset(n, 58).tolist() if i not in edges])
    plan = _CorrelationPlan(h, S)
    assert plan.split
    want = np.stack([X @ shift(h, i) for i in S.tolist()], axis=1)
    np.testing.assert_allclose(_correlate(plan, X), want, atol=1e-9)
    np.testing.assert_allclose(_correlate(plan, X[1]), want[1], atol=1e-9)


@pytest.mark.parametrize("p", [16, 18])
def test_split_threshold_follows_the_split_rows(monkeypatch, p):
    # the split view cuts rows of n / _SPLIT_ROWS entries into blocks of
    # _SPLIT_ROWS, so with 512 rows n = 2^16 must take the whole-row FFT
    monkeypatch.setattr(transforms, "_SPLIT_ROWS", 512)
    n = 1 << p
    s = Stream(37, f"split rows:{n}")
    h, X = s.normals(n), s.normals(2 * n).reshape(2, n)
    S = s.index_subset(n, 64)
    plan = _CorrelationPlan(h, S)
    assert plan.split == (n >= 512**2)
    want = np.stack([circulant_apply(h, x)[S] for x in X])
    np.testing.assert_allclose(_correlate(plan, X), want, atol=1e-9)
    np.testing.assert_allclose(_correlate(plan, X[1]), want[1], atol=1e-9)


@pytest.mark.parametrize("width", [2, 3, 12])
@pytest.mark.parametrize("p", [16, 18])
def test_banded_correlation_has_the_bits_of_one_call(p, width):
    n = 1 << p
    s = Stream(31, f"bands:{n}")
    h, X = s.normals(n), s.normals(3 * n).reshape(3, n)
    plan = _CorrelationPlan(h, s.index_subset(n, 64))
    for x in (X, X[1]):
        assert _correlate(plan, x, width).tobytes() == _correlate(plan, x).tobytes()


# ---------------------------------------------------------------- fwht

def test_fwht_two_point():
    np.testing.assert_allclose(
        fwht([1.0, 0.0]), [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15
    )


def test_fwht_matches_dense_hadamard():
    # the dense Sylvester matrix is the oracle for the factored kernel; up to
    # 2^12 it meets every split into one or two Kronecker factors
    for p in range(13):
        n = 1 << p
        H = hadamard_matrix(n)
        v = Stream(23, f"fwht:{n}").normals(n)
        np.testing.assert_allclose(fwht(v), H @ v, atol=1e-12)


@pytest.mark.parametrize("p", [13, 19])
def test_fwht_basis_columns_match_sign_pattern(p):
    # past 2^12 the kernel uses four factors; column j of the unnormalized
    # transform is (-1)^{popcount(i & j)}, exact in sums of +-1 terms
    n = 1 << p
    i = np.arange(n)
    for j in (0, 1, n // 2 + 5, n - 1):
        e = np.zeros(n)
        e[j] = 1.0
        parity = np.zeros(n, dtype=np.int64)
        for bit in range(p):
            parity ^= (i & j) >> bit & 1
        want = np.where(parity == 0, 1.0, -1.0)
        np.testing.assert_allclose(fwht(e) * math.sqrt(n), want, atol=1e-12)


def test_fwht_kernel_transforms_rows_in_place():
    # embedders runs the kernel on its own temporary and relies on this
    v = Stream(23, "inplace").normals(3 * 64).reshape(3, 64)
    a = v.copy()
    assert _fwht_inplace(a) is None
    np.testing.assert_allclose(a, v @ hadamard_matrix(64) * 8.0, atol=1e-12)


@pytest.mark.parametrize("width", [2, 3, 12, 128])
@pytest.mark.parametrize("p", [6, 7, 13, 18])
def test_banded_fwht_has_the_bits_of_one_call(p, width):
    # one, two and four factors, with left both under and over the width;
    # at 2^18, cuts not aligned to _BAND_ALIGN changed bits at widths 12 and 128
    for rows in (1, 3):
        v = Stream(37, f"bands:{p}").normals(rows << p).reshape(rows, 1 << p)
        a, b = v.copy(), v.copy()
        _fwht_inplace(a)
        _fwht_inplace(b, width)
        assert a.tobytes() == b.tobytes()


def test_fwht_involution():
    v = Stream(23, "invol").normals(8)
    np.testing.assert_allclose(fwht(fwht(v)), v, atol=1e-12)


def test_fwht_preserves_norm():
    v = Stream(23, "norm").normals(1024)
    assert math.isclose(
        np.linalg.norm(fwht(v)), np.linalg.norm(v), rel_tol=1e-12
    )


def test_fwht_does_not_mutate_input():
    v = np.ones(8)
    fwht(v)
    np.testing.assert_array_equal(v, np.ones(8))


@pytest.mark.parametrize("n", [3, 6, 12, 1000])
def test_fwht_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        fwht(np.ones(n))


# ---------------------------------------------------------------- hadamard

def test_hadamard_matrix_orthonormal():
    for n in (1, 2, 4, 16):
        H = hadamard_matrix(n)
        np.testing.assert_allclose(H @ H.T, np.eye(n), atol=1e-12)


def test_hadamard_matrix_sign_pattern():
    # entry (i, j) of the unnormalized Sylvester matrix is (-1)^{popcount(i & j)}
    n = 16
    H = hadamard_matrix(n) * math.sqrt(n)
    i, j = np.indices((n, n))
    popcount = np.vectorize(lambda v: bin(v).count("1"))(i & j)
    np.testing.assert_allclose(H, np.where(popcount % 2 == 0, 1.0, -1.0))


def test_hadamard_matrix_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        hadamard_matrix(12)


# ---------------------------------------------------------------- restrict

def test_restrict_hand_case():
    x = np.array([5.0, 6.0, 7.0, 8.0])
    np.testing.assert_array_equal(restrict(x, [2, 0]), [7.0, 5.0])


def test_restrict_accepts_index_set():
    x = np.arange(6.0)
    S = IndexSet(indices=np.array([1, 4]), n=6)
    np.testing.assert_array_equal(restrict(x, S), [1.0, 4.0])


def test_restrict_rejects_out_of_range():
    with pytest.raises(ValueError):
        restrict(np.ones(4), [0, 4])


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([0, 0]), n=4)  # duplicates
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([4]), n=4)  # out of range
    with pytest.raises(ValueError):
        IndexSet(indices=np.array([], dtype=np.int64), n=4)  # empty
