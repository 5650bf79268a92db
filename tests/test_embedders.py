import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circembed import _pool, embedders
from circembed.embedders import (
    KINDS,
    _project,
    deserialize_operator,
    embed,
    embed_points,
    materialize_operator,
    sample_circulant_operator,
    sample_gaussian_operator,
    sample_operator,
    sample_randomized_operator,
    read_operator_record,
    serialize_operator,
)
from circembed.errors import ParseError
from circembed.geometry import angular_distance, hamming_normalized
from circembed.rng import Rng, Stream, derive_seed


# ---------------------------------------------------------------- sampling

def test_sampling_is_deterministic():
    for kind in KINDS:
        a = sample_operator(kind, 32, 8, 123)
        b = sample_operator(kind, 32, 8, 123)
        x = Stream(5, "det").normals(a.n_in)
        np.testing.assert_array_equal(embed(a, x), embed(b, x))


def test_gaussian_entry_moments():
    op = sample_gaussian_operator(4, 100_000, 0)
    means = op.G.mean(axis=0)
    assert np.abs(means).max() < 4.0 / math.sqrt(op.k)
    assert 0.98 < op.G.var() < 1.02


def test_circulant_full_rank_row_set_is_permutation():
    op = sample_circulant_operator(16, 16, 3)
    assert sorted(op.S.tolist()) == list(range(16))


def test_circulant_row_subset_distinct():
    op = sample_circulant_operator(64, 20, 3)
    assert len(set(op.S.tolist())) == 20
    assert op.S.min() >= 0 and op.S.max() < 64


def test_randomized_pads_to_power_of_two():
    assert sample_randomized_operator(1000, 8, 0).n_pad == 1024
    assert sample_randomized_operator(512, 8, 0).n_pad == 512
    op = sample_randomized_operator(12, 4, 0)
    assert op.n_orig == 12 and op.n_in == 12 and op.n_pad == 16
    assert set(op.b.tolist()) == {1.0, -1.0}


def test_rademacher_r_dist():
    op = sample_circulant_operator(32, 8, 1, r_dist="rademacher")
    assert set(op.r.tolist()) <= {1.0, -1.0}


def test_sampler_rejects_bad_shapes():
    with pytest.raises(ValueError):
        sample_circulant_operator(8, 9, 0)  # k > n
    with pytest.raises(ValueError):
        sample_gaussian_operator(8, 0, 0)
    with pytest.raises(ValueError):
        sample_randomized_operator(12, 17, 0)  # k > n_pad = 16
    # k may exceed n_orig up to n_pad for the padded kind
    assert sample_randomized_operator(12, 14, 0).k == 14
    with pytest.raises(ValueError):
        sample_operator("orthogonal", 8, 4, 0)


# ---------------------------------------------------------------- embed

def test_embed_output_contract():
    op = sample_circulant_operator(32, 8, 9)
    code = embed(op, Stream(1, "v").normals(32))
    assert code.dtype == np.int8
    assert code.shape == (8,)
    assert set(code.tolist()) <= {-1, 1}


def test_embed_rejects_bad_input():
    op = sample_gaussian_operator(8, 4, 0)
    with pytest.raises(ValueError):
        embed(op, np.ones(7))
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        embed(op, bad)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        embed(op, bad)


@given(st.sampled_from(sorted(KINDS)), st.floats(1e-3, 1e3), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_embed_scale_invariance(kind, c, seed):
    op = sample_operator(kind, 16, 8, seed)
    x = Stream(seed, "scale").normals(16)
    np.testing.assert_array_equal(embed(op, x), embed(op, c * x))


def test_embed_negation_flips_code():
    # sign(-t) = -sign(t) except at exact zeros, which almost surely never occur
    for kind in KINDS:
        op = sample_operator(kind, 64, 16, 7)
        x = Stream(2, "neg").normals(64)
        assert hamming_normalized(embed(op, x), embed(op, -x)) == 1.0


# ------------------------------------------------- dense materialization
# materialize_operator builds the k x n matrix by explicit row shifts and a
# dense Sylvester product (no FFT, no fast Walsh-Hadamard), so agreement of sign(Mx)
# with embed(op, x) checks the fast paths against independent arithmetic.

@pytest.mark.parametrize("kind", sorted(KINDS))
def test_dense_materialization_matches_embed(kind):
    op = sample_operator(kind, 64, 16, 101)
    M = materialize_operator(op)
    assert M.shape == (16, 64)
    s = Stream(55, f"dense:{kind}")
    checked = 0
    for _ in range(25):
        x = s.normals(64)
        proj = M @ x
        keep = np.abs(proj) > 1e-9  # skip knife-edge coordinates
        got = embed(op, x)
        np.testing.assert_array_equal(
            got[keep], np.where(proj[keep] >= 0, 1, -1).astype(np.int8)
        )
        checked += int(keep.sum())
    assert checked > 300


def test_dense_materialization_non_power_of_two():
    op = sample_randomized_operator(12, 5, 33)
    M = materialize_operator(op)
    assert M.shape == (5, 12)
    x = Stream(3, "np2").normals(12)
    proj = M @ x
    keep = np.abs(proj) > 1e-9
    np.testing.assert_array_equal(
        embed(op, x)[keep], np.where(proj[keep] >= 0, 1, -1).astype(np.int8)
    )


# ---------------------------------------------------------------- batches

@pytest.mark.parametrize("n", [1, 2, 24, 64, 100, 1000])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_embed_points_matches_single_calls(kind, n):
    op = sample_operator(kind, n, min(n, 6), 4)
    step = max(1, embedders._BLOCK_ENTRIES // n)
    N = 2 * step + 3  # two whole blocks of rows and a partial one
    pts = Stream(n, "rows").normals(N * n).reshape(N, n)
    batch = embed_points(op, pts)
    assert batch.shape == (N, op.k) and batch.dtype == np.int8
    # the rows on each side of every block edge, plus a random sample
    edges = {0, step - 1, step, 2 * step - 1, 2 * step, N - 1}
    for i in sorted(edges | set(Stream(n, "pick").integers(0, N, 24).tolist())):
        np.testing.assert_array_equal(batch[i], embed(op, pts[i]))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_embed_points_of_no_rows_is_empty(kind):
    op = sample_operator(kind, 24, 6, 4)
    codes = embed_points(op, np.empty((0, 24)))
    assert codes.shape == (0, 6) and codes.dtype == np.int8


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_embed_points_rejects_a_nan_row_and_a_wrong_width(kind):
    op = sample_operator(kind, 24, 6, 4)
    pts = Stream(1, "nan").normals(5 * 24).reshape(5, 24)
    pts[3, 7] = np.nan
    with pytest.raises(ValueError):
        embed_points(op, pts)
    with pytest.raises(ValueError):
        embed_points(op, np.ones((5, 23)))


def _non_finite_input_case(kind, n):
    # a dense gaussian operator at 2^18 entries keeps k small
    op = sample_operator(kind, n, 256 if n <= 1000 or kind != "gaussian" else 4, 5)
    return op, Stream(n, "finite").normals(n)


# Non-finite projections of a non-finite input raise RuntimeWarnings before
# the input is scanned; an overflow of a finite input raises them as before.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1000, 1 << 18, 300_000])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_embed_rejects_nan_and_inf_at_every_position(kind, n):
    op, x = _non_finite_input_case(kind, n)
    for value in (np.nan, np.inf, -np.inf):
        for pos in (0, n // 2, n - 1):
            bad = x.copy()
            bad[pos] = value
            with pytest.raises(ValueError, match="NaN or Inf"):
                embed(op, bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1000, 1 << 18, 300_000])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_embed_of_an_overflowing_finite_input_is_the_sign_of_its_projections(kind, n):
    # x * 1e307 is finite, but some of its projections overflow to Inf or
    # NaN; its code is still sgn of each projection, NaN counting as -1
    op, x = _non_finite_input_case(kind, n)
    big = x * 1e307
    t = _project(op, big[None, :])[0]
    assert not np.isfinite(t).all()
    np.testing.assert_array_equal(embed(op, big), np.where(t >= 0.0, 1, -1))


# ---------------------------------------------------- fanned projections

@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", [1 << 16, embedders._FAN_MIN, 1 << 20])
@pytest.mark.parametrize("kind", ["circulant", "randomized"])
def test_fanned_projection_has_the_bits_of_the_serial_one(kind, n, rows, monkeypatch):
    op = sample_operator(kind, n - 3 if kind == "randomized" else n, 256, 11)
    P = Stream(n, "fan").normals(rows * op.n_in).reshape(rows, op.n_in)
    main = _project(op, P)
    # on a pool thread every fan-out runs in order on that thread
    pooled = _pool._pool.submit(_project, op, P).result()
    monkeypatch.setattr(embedders, "_FAN_MIN", math.inf)  # no fan-out and no pin
    serial = _project(op, P)
    assert main.tobytes() == pooled.tobytes() == serial.tobytes()


# ------------------------------------------------------------- round trips

@pytest.mark.parametrize("kind", sorted(KINDS))
def test_serialize_round_trip(kind):
    op = sample_operator(kind, 48, 12, 909)
    blob = serialize_operator(op)
    assert len(blob) == 30
    assert blob[:5] == b"BEOP1"
    # stored sidecars name their kind by this byte, so it must never move
    assert blob[5] == {"gaussian": 0, "circulant": 1, "randomized": 2}[kind]
    clone = deserialize_operator(blob)
    assert type(clone) is type(op)
    x = Stream(77, "rt").normals(48)
    np.testing.assert_array_equal(embed(op, x), embed(clone, x))


def test_serialize_refuses_non_default_r_dist():
    for kind in ("circulant", "randomized"):
        op = sample_operator(kind, 16, 4, 0, r_dist="rademacher")
        with pytest.raises(ValueError):
            serialize_operator(op)


def test_sample_operator_checks_r_dist():
    # a gaussian operator has no r, so it cannot carry a non-default r_dist
    with pytest.raises(ValueError, match="gaussian operators have no r"):
        sample_operator("gaussian", 16, 4, 0, r_dist="rademacher")
    with pytest.raises(ValueError, match="expected one of gaussian, rademacher"):
        sample_operator("circulant", 16, 4, 0, r_dist="uniform")


def test_sample_operator_caps_entries(monkeypatch):
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 64)
    # k * n for gaussian, n for circulant, the padded n for randomized
    for kind, legal, over in (
        ("gaussian", (16, 4), (16, 5)),
        ("circulant", (64, 4), (65, 4)),
        ("randomized", (33, 4), (65, 4)),
    ):
        sample_operator(kind, *legal, 0)
        with pytest.raises(ValueError, match="over the cap of 64"):
            sample_operator(kind, *over, 0)


def test_deserialize_over_the_cap_is_parse_error(monkeypatch):
    blob = serialize_operator(sample_operator("gaussian", 16, 5, 0))
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 64)
    with pytest.raises(ParseError, match="over the cap") as ei:
        deserialize_operator(blob)
    assert ei.value.offset == 6


def test_read_operator_record_returns_the_fields_and_draws_nothing(monkeypatch):
    blob = serialize_operator(sample_operator("randomized", 48, 12, 909))
    monkeypatch.setattr(embedders, "Rng", None)  # any draw would raise
    assert read_operator_record(blob) == ("randomized", 48, 12, 909)
    # the largest circulant record under the cap is read at once
    big = blob[:5] + bytes([1]) + (1 << 26).to_bytes(8, "little") * 2 + blob[22:]
    assert read_operator_record(big) == ("circulant", 1 << 26, 1 << 26, 909)


def test_deserialize_error_offsets():
    blob = serialize_operator(sample_gaussian_operator(8, 2, 5))
    with pytest.raises(ParseError) as ei:
        deserialize_operator(b"XXOP1" + blob[5:])
    assert ei.value.offset == 0
    with pytest.raises(ParseError) as ei:
        deserialize_operator(blob[:5] + b"\x09" + blob[6:])
    assert ei.value.offset == 5
    with pytest.raises(ParseError) as ei:
        deserialize_operator(blob[:20])
    assert ei.value.offset == 20
    with pytest.raises(ParseError) as ei:
        deserialize_operator(blob + b"\x00")
    assert ei.value.offset == 30


def test_deserialize_rejects_zero_dimensions():
    blob = bytearray(serialize_operator(sample_gaussian_operator(8, 2, 5)))
    blob[6:14] = (0).to_bytes(8, "little")  # n = 0
    with pytest.raises(ParseError) as ei:
        deserialize_operator(bytes(blob))
    assert ei.value.offset == 6


# --------------------------------------------------------- concentration
# Normalized Hamming distance between codes estimates the angular distance.
# Seeds and tolerances frozen after measuring deviation/tolerance ratios of
# at most 0.36 across the three angles, so this will not flake.

@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5])
def test_circulant_hamming_concentrates_on_angle(theta):
    n, k, trials = 1024, 256, 200
    base = Rng(99).stream(f"signs:{theta}")
    x = base.rademacher(n) / math.sqrt(n)
    g = base.normals(n)
    u = g - np.dot(g, x) * x
    u /= np.linalg.norm(u)
    y = math.cos(theta * math.pi) * x + math.sin(theta * math.pi) * u
    assert abs(angular_distance(x, y) - theta) < 1e-12
    total = 0
    for t in range(trials):
        op = sample_circulant_operator(n, k, derive_seed(11, f"circ:{theta}:{t}"))
        total += hamming_normalized(embed(op, x), embed(op, y))
    tol = 4.0 * math.sqrt(theta * (1.0 - theta) / (k * trials))
    assert abs(total / trials - theta) < tol
