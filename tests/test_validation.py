import math
import tracemalloc

import numpy as np
import pytest

from circembed import _blas, geometry, validation
from circembed.embedders import embed_points, sample_operator
from circembed.geometry import PointSet, angular_distance, coherence, hamming_normalized
from circembed.io import generate_pointset
from circembed.rng import Rng, Stream, derive_seed
from circembed.transforms import _shift_rows, fwht, hadamard_matrix
from circembed.validation import (
    _decomposition_loop,
    check_condition1,
    conditioning_experiment,
    conditioning_sample,
    decomposition_experiment,
    decomposition_sample,
    distortion_experiment,
    evaluate_codes,
    hadamard_coherence_experiment,
    modulation_sample,
    run_gate_suite,
    sweep,
)


def flat_pair(n):
    x = np.ones(n) / math.sqrt(n)
    y = np.tile([1.0, -1.0], n // 2) / math.sqrt(n)
    return x, y


# ------------------------------------------------------------- condition 1

def test_check_condition1_hand_case():
    chk = check_condition1(1024, 512, 64, 0.3, 1.0 / 32.0)
    # recompute each clause from scratch
    assert chk.k_required == pytest.approx(0.3**-3 * math.log(64))
    assert chk.clause1 is (512 > chk.k_required)
    assert chk.product == pytest.approx(0.3 * 512 * (1 / 32) * math.log(1024))
    assert chk.clause2 is False  # product is about 33, far above 1
    assert chk.delta_floor == pytest.approx(512 / 32)
    assert chk.clause3 is False  # 0.3 < 16
    assert chk.overall is False


def test_check_condition1_passing_case():
    # tiny coherence satisfies both product clauses
    chk = check_condition1(1024, 512, 64, 0.3, 1e-6)
    assert chk.clause1 and chk.clause2 and chk.clause3
    assert chk.overall is True


def test_check_condition1_tiny_k_fails_first_clause():
    chk = check_condition1(1024, 1, 10**43, 0.3, 1e-9)
    assert chk.clause1 is False
    assert chk.overall is False


def test_check_condition1_constants_scale():
    base = check_condition1(256, 64, 16, 0.2, 0.01)
    double = check_condition1(256, 64, 16, 0.2, 0.01, c1=2.0)
    assert double.k_required == pytest.approx(2.0 * base.k_required)
    c2 = check_condition1(256, 64, 16, 0.2, 0.01, c2=3.0)
    assert c2.product == pytest.approx(3.0 * base.product)


# ---------------------------------------------------------- distortion

def test_distortion_single_point_has_no_pairs():
    ps = PointSet(points=np.eye(4)[:1])
    rep = distortion_experiment(ps, "gaussian", 8, 2, 0)
    assert rep.max_distortion == 0.0
    assert rep.success_fraction == 1.0


def test_distortion_duplicate_and_antipodal_pairs_are_exact():
    v = np.eye(4)[0]
    op = sample_operator("gaussian", 4, 64, 0)
    # identical points: angle 0, disagreement 0; antipodal points: angle 1,
    # every sign flips
    for points, pair in (
        (np.stack([v, v]), (0, 1, 0.0, 0.0, 0.0)),
        (np.stack([v, -v]), (0, 1, 1.0, 1.0, 0.0)),
    ):
        ps = PointSet(points=points)
        codes = embed_points(op, points)
        assert [tuple(column.tolist()) for column in validation._pair_table(ps, codes)] == [(v,) for v in pair]
        assert evaluate_codes(ps, codes).max_distortion == 0.0
        assert distortion_experiment(ps, "gaussian", 64, 1, 0).max_distortion == 0.0


def test_distortion_trials_are_prefix_stable():
    ps = generate_pointset("uniform_sphere", 16, 6, 0)
    short = distortion_experiment(ps, "circulant", 16, 2, 5)
    long = distortion_experiment(ps, "circulant", 16, 4, 5)
    assert long.per_trial_max[:2] == short.per_trial_max
    assert long.per_trial_mean[:2] == short.per_trial_mean


def test_distortion_report_consistency():
    ps = generate_pointset("uniform_sphere", 32, 8, 2)
    rep = distortion_experiment(ps, "gaussian", 64, 3, 7, delta_target=0.2)
    assert rep.max_distortion == max(rep.per_trial_max)
    assert rep.mean_distortion == pytest.approx(np.mean(rep.per_trial_mean))
    assert 0.0 <= rep.success_fraction <= 1.0
    stats = rep.to_stats()
    assert stats["max_distortion"] == rep.max_distortion


def test_distortion_rejects_unknown_kind():
    ps = generate_pointset("uniform_sphere", 16, 4, 0)
    with pytest.raises(ValueError):
        distortion_experiment(ps, "orthogonal", 8, 1, 0)


def test_evaluate_codes_reports_per_pair():
    ps = generate_pointset("uniform_sphere", 16, 6, 3)
    codes = Stream(0, "codes").rademacher(6 * 16).reshape(6, 16).astype(np.int8)
    rep = evaluate_codes(ps, codes)
    assert rep.trials == 1
    table = validation._pair_table(ps, codes)
    assert all(len(column) == 15 for column in table)
    for i, j, ham, ang, diff in zip(*(column.tolist() for column in table)):
        assert i < j
        assert 0.0 <= ham <= 1.0 and 0.0 <= ang <= 1.0 and 0.0 <= diff <= 1.0
        assert diff == abs(ham - ang)
    # the table's diff column holds the bits the report was scored from
    assert (rep.max_distortion, rep.mean_distortion) == (float(table[4].max()), float(table[4].mean()))


def _point_reference(ps, codes, delta):
    """Each point's worst |hamming - angular| by a loop over all other points."""
    worst = []
    for a in range(ps.N):
        gaps = [abs(hamming_normalized(codes[a], codes[b]) - angular_distance(ps.points[a], ps.points[b]))
                for b in range(ps.N) if b != a]
        worst.append(max(gaps, default=0.0))
    return worst, sum(w <= delta for w in worst) / ps.N


@pytest.mark.parametrize("case", ["single", "duplicate", "antipodal", "tie", "uniform"])
def test_evaluate_codes_worst_per_point_matches_loop(case):
    e = np.eye(4)
    v = (e[0] + e[1]) / math.sqrt(2.0)
    points = {
        "single": e[:1],
        "duplicate": np.stack([e[0], e[0], e[1]]),
        "antipodal": np.stack([e[0], -e[0], v]),
        # point 0 sits at angle 0.5 from both 1 and 2 with identical codes for
        # 1 and 2, so its worst gap is reached by two pairs
        "tie": np.stack([e[0], e[1], e[1], -v]),
        "uniform": generate_pointset("uniform_sphere", 16, 9, 4).points,
    }[case]
    ps = PointSet(points=points)
    codes = embed_points(sample_operator("gaussian", 4 if case != "uniform" else 16, 8, 3), points)
    for delta in (0.0, 0.1, 0.3):
        rep = evaluate_codes(ps, codes, delta_target=delta)
        worst, fraction = _point_reference(ps, codes, delta)
        assert rep.worst_per_point.tolist() == pytest.approx(worst, abs=1e-15)
        assert rep.point_success_fraction == fraction
        assert rep.to_stats()["point_success_fraction"] == fraction
        # the worst pair of the set is the worst point's worst pair
        assert rep.worst_per_point.max() == rep.max_distortion
    if case == "tie":
        i, j, _, _, diff = validation._pair_table(ps, codes)
        assert np.count_nonzero(((i == 0) | (j == 0)) & (diff == rep.worst_per_point[0])) >= 2


@pytest.mark.parametrize("entries", [None, 1, 30, 200])
@pytest.mark.parametrize("N", [1, 2, 5, 41])
def test_worst_per_point_is_the_largest_diff_of_each_point(monkeypatch, entries, N):
    if entries:
        monkeypatch.setattr(geometry, "_PAIR_ENTRIES", entries)
    ps = generate_pointset("uniform_sphere", 8, N, N)
    codes = embed_points(sample_operator("circulant", 8, 4, 2), ps.points)
    rep = evaluate_codes(ps, codes)
    i, j, _, _, diff = validation._pair_table(ps, codes)
    # the scatter-max over both points of every pair
    iu = np.triu_indices(N, 1)
    want = np.zeros(N)
    np.maximum.at(want, iu[0], diff)
    np.maximum.at(want, iu[1], diff)
    assert rep.worst_per_point.tobytes() == want.tobytes()
    assert all(np.array_equal(a, b) for a, b in zip((i, j), iu))


def _traced_peak(fn):
    """Bytes fn allocates at its peak, beyond what was allocated before it, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_evaluate_codes_peaks_at_the_gram_of_its_angles():
    # large enough that the Gram outweighs the row-blocked Hamming products
    N = 600
    ps = generate_pointset("uniform_sphere", 64, N, 6)
    codes = embed_points(sample_operator("circulant", 64, 64, 1), ps.points)
    peak = _traced_peak(lambda: evaluate_codes(ps, codes))
    # the N x N float64 Gram and the cosines packed from it; no pair column
    # outlives the call
    assert peak <= 8 * N * N + 8 * (N * (N - 1) // 2) + 65536


def test_a_distortion_trial_allocates_no_n_by_n_float64():
    N = 600
    ps = generate_pointset("uniform_sphere", 64, N, 6)
    ang = validation._angular_pairs(ps.points)
    peak = _traced_peak(lambda: validation._distortion(ps, ang, "circulant", 64, 1, 4, "gaussian", 1))
    assert peak < 8 * N * N


def test_distortion_experiment_reports_no_pointwise_fields():
    ps = generate_pointset("uniform_sphere", 16, 4, 0)
    rep = distortion_experiment(ps, "gaussian", 8, 2, 0)
    assert rep.worst_per_point is None and rep.point_success_fraction is None
    assert "point_success_fraction" not in rep.to_stats()


def test_evaluate_codes_rejects_shape_mismatch():
    ps = generate_pointset("uniform_sphere", 16, 6, 3)
    with pytest.raises(ValueError):
        evaluate_codes(ps, np.ones((5, 16), dtype=np.int8))


# ---------------------------------------------------------------- sweep

def test_sweep_cell_matches_direct_experiment():
    ps = generate_pointset("uniform_sphere", 32, 6, 4)
    cells = sweep(ps, "circulant", [8, 16], [0.1, 0.2], 3, 11)
    assert [(c.k, c.delta_target) for c in cells] == [(8, 0.1), (8, 0.2), (16, 0.1), (16, 0.2)]
    for cell in cells:
        cell_seed = derive_seed(11, f"cell:k={cell.k}")
        assert cell == distortion_experiment(ps, "circulant", cell.k, 3, cell_seed, delta_target=cell.delta_target)


def test_sweep_success_never_falls_as_delta_grows():
    ps = generate_pointset("uniform_sphere", 64, 12, 2)
    deltas = [0.25, 0.29, 0.33, 0.37]
    cells = sweep(ps, "randomized", [16, 32], deltas, 4, 3)
    for i in range(0, len(cells), len(deltas)):
        fractions = [c.success_fraction for c in cells[i:i + len(deltas)]]
        assert fractions == sorted(fractions)
        assert len(set(fractions)) > 1  # the grid spans the worst pairs, so the check bites


def test_sweep_runs_one_experiment_per_k(monkeypatch):
    calls = []
    sample_operator = validation.embedders.sample_operator
    monkeypatch.setattr(
        validation.embedders, "sample_operator", lambda *a, **kw: calls.append(a[2]) or sample_operator(*a, **kw)
    )
    ps = generate_pointset("uniform_sphere", 32, 6, 4)
    assert len(sweep(ps, "circulant", [8, 16], [0.1, 0.2, 0.3], 4, 11)) == 6
    assert calls == [8] * 4 + [16] * 4


def test_sweep_computes_the_pair_angles_once(monkeypatch):
    # every cell scores its codes against the same angles
    shapes = []
    angular_pairs = validation._angular_pairs
    monkeypatch.setattr(validation, "_angular_pairs", lambda P: shapes.append(P.shape) or angular_pairs(P))
    ps = generate_pointset("uniform_sphere", 32, 6, 4)
    assert len(sweep(ps, "circulant", [8, 16], [0.1, 0.2], 2, 11)) == 4
    assert shapes == [(6, 32)]
    assert sweep(ps, "circulant", [], [0.1], 2, 11) == []
    assert shapes == [(6, 32)]


def test_sweep_gaussian_distortion_shrinks_with_k():
    # mean worst-case distortion should fall as the code length grows
    ps = generate_pointset("uniform_sphere", 1024, 32, 5)
    cells = sweep(ps, "gaussian", [64, 256, 1024], [0.2], 20, 0)
    means = [float(np.mean(c.per_trial_max)) for c in cells]
    assert means[1] <= means[0] and means[2] <= means[1]


def test_sweep_worst_pair_follows_the_rate_and_structured_kinds_track_gaussian():
    # The median per-trial worst pair at n=1024 and k <= n/4. Measured on
    # this seed: gaussian 0.81-0.93 x sqrt(ln N / k), circulant and
    # randomized 0.88-1.19 x gaussian (four seeds: 0.79-0.93 and 0.88-1.19).
    # The bands are those readings with slack, frozen.
    for N in (16, 1024):
        ps = generate_pointset("uniform_sphere", 1024, N, 0)
        median = {
            (kind, cell.k): float(np.median(cell.per_trial_max))
            for kind in ("gaussian", "circulant", "randomized")
            for cell in sweep(ps, kind, [64, 256], [0.15], 10, 0)
        }
        for k in (64, 256):
            gaussian = median["gaussian", k]
            assert 0.6 <= gaussian / math.sqrt(math.log(N) / k) <= 1.2, (N, k)
            for kind in ("circulant", "randomized"):
                assert 1 / 1.5 <= median[kind, k] / gaussian <= 1.5, (kind, N, k)


def test_points_embed_per_point_where_log_n_lies_between_the_cube_and_square_roots():
    # The paper's per-point regime, n^(1/3) < ln N < sqrt(n): 6.35 < 6.93 < 16.
    # Medians over 6 operators per kind (seeds 1000 s + t), at delta = 0.25,
    # of point_success_fraction and of the worst pair. Measured on set seeds
    # 5-10: structured success 0.80-0.93 x gaussian's; on spiky sets
    # randomized's worst pair 1.03-1.13 x gaussian's and circulant's
    # 1.93-2.08 x. The bands are those readings with slack, frozen.
    n, k, N, s = 256, 64, 1024, 5
    assert n ** (1 / 3) < math.log(N) < math.sqrt(n)
    for points in ("uniform_sphere", "spiky"):
        ps = generate_pointset(points, n, N, s)
        success, worst = {}, {}
        for kind in ("gaussian", "circulant", "randomized"):
            reps = [evaluate_codes(ps, embed_points(sample_operator(kind, n, k, 1000 * s + t), ps.points), 0.25)
                    for t in range(6)]
            success[kind] = float(np.median([r.point_success_fraction for r in reps]))
            worst[kind] = float(np.median([r.max_distortion for r in reps]))
        for kind in ("circulant", "randomized"):
            assert 0.7 <= success[kind] / success["gaussian"] <= 1.0, (points, kind)
        if points == "spiky":
            assert 1 / 1.3 <= worst["randomized"] / worst["gaussian"] <= 1.3
            assert worst["circulant"] / worst["gaussian"] >= 1.6  # the set is spiky enough to tell


# ---------------------------------------------------------- conditioning

def test_conditioning_sample_orthogonal_shifts_are_exact():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    # k=1: single columns e0 and e1 match the identity target exactly
    assert conditioning_sample(e0, e1, np.ones(2), np.array([0])) < 1e-12
    # forcing a wrong angle shifts the target off by cos(pi/4)
    got = conditioning_sample(e0, e1, np.ones(2), np.array([0]), theta=0.25)
    assert got == pytest.approx(math.cos(0.25 * math.pi))
    # k=2 on n=2 duplicates the shift set; the gap hits exactly 1
    assert conditioning_sample(e0, e1, np.ones(2), np.array([0, 1])) == pytest.approx(1.0)


def test_conditioning_report_consistency():
    x, y = flat_pair(64)
    rep = conditioning_experiment(x, y, 8, 20, 3)
    assert rep.n == 64 and rep.k == 8 and rep.trials == 20
    assert len(rep.samples) == 20
    assert rep.median == pytest.approx(np.median(rep.samples))
    assert rep.bound_value == pytest.approx(rep.k * rep.rho * math.log(rep.n))
    assert min(rep.samples) >= 0.0


def test_conditioning_percentile_regression():
    # frozen after four 200-trial runs measured p95 between 1.02 and 1.11
    x, y = flat_pair(256)
    rep = conditioning_experiment(x, y, 16, 200, 0, threads=4)
    assert float(np.percentile(rep.samples, 95)) <= 1.2


def test_conditioning_rho_is_coherence_of_the_pair():
    # the report and coherence share one computation, so they agree bit for bit
    for t in range(200):
        v = Stream(t, "pair").normals(2 * (2 + t % 61)).reshape(2, -1)
        x, y = v / np.linalg.norm(v, axis=1, keepdims=True)
        rep = conditioning_experiment(x, y, 1, 1, t)
        assert rep.rho == coherence(PointSet(points=np.stack([x, y]))).rho_cross


def test_conditioning_improves_when_coherence_halves():
    # flat pairs have inf norm 1/sqrt(n); quadrupling n halves the coherence
    medians = []
    for n in (256, 1024):
        x, y = flat_pair(n)
        medians.append(conditioning_experiment(x, y, 16, 200, 0, threads=4).median)
    assert medians[1] <= medians[0]


def test_conditioning_sample_is_the_exact_spectral_norm():
    # at k=300 the Gram is 600 x 600; the sample must be the dense
    # eigensolver's value at that size too, not an iterative estimate
    n, k, seed = 512, 300, 31
    v = Stream(9, "exact").normals(2 * n).reshape(2, n)
    x, y = v / np.linalg.norm(v, axis=1, keepdims=True)
    got = conditioning_experiment(x, y, k, 1, seed).samples[0]
    st = Rng(derive_seed(seed, "trial:0"))
    r = st.stream("r").normals(n)
    S = st.stream("S").index_subset(n, k)
    cols = np.concatenate([_shift_rows(r * x, S), _shift_rows(r * y, S)])
    c = math.cos(angular_distance(x, y) * math.pi)
    I_theta = np.eye(2 * k) + c * (np.eye(2 * k, k=k) + np.eye(2 * k, k=-k))
    want = float(np.abs(np.linalg.eigvalsh(cols @ cols.T - I_theta)).max())
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------- modulation

def test_modulation_sample_hadamard_rows_concentrate():
    # rows of H transform back to basis vectors: worst possible inf norm
    H = hadamard_matrix(8)
    sup, frac = modulation_sample(H, np.ones(8), 0.5)
    assert sup == pytest.approx(1.0)
    assert frac == 0.0
    # basis rows spread flat instead
    sup, frac = modulation_sample(np.eye(8), np.ones(8), 0.5)
    assert sup == pytest.approx(1.0 / math.sqrt(8))
    assert frac == 1.0


@pytest.mark.parametrize("n", [12, 100, 1000])
def test_modulation_sample_matches_per_row_fwht(n):
    # 1031 rows: several blocks of rows and a partial last one at n >= 100
    ps = generate_pointset("uniform_sphere", n, 1031, 17)
    n_pad = 1 << (n - 1).bit_length()
    b = Stream(n, "modulation").rademacher(n_pad)
    padded = np.zeros((ps.N, n_pad))
    padded[:, :n] = ps.points
    ref = np.sort([np.abs(fwht(b * row)).max() for row in padded])
    for q in (100, 515, 900):
        # a threshold between two rows that rounding cannot move across
        assert ref[q] - ref[q - 1] > 1e-12 * ref[q]
        sup, frac = modulation_sample(ps.points, b, (ref[q - 1] + ref[q]) / 2)
        assert sup == pytest.approx(ref[-1], rel=1e-15, abs=0.0)
        assert frac == q / ps.N


def test_hadamard_coherence_report_consistency():
    ps = generate_pointset("uniform_sphere", 12, 20, 6)  # pads 12 -> 16
    rep = hadamard_coherence_experiment(ps, 10, 2)
    assert rep.n == 12 and rep.n_pad == 16 and rep.N == 20
    assert len(rep.per_trial_sup) == 10
    assert rep.sup_inf_norm == max(rep.per_trial_sup)
    assert rep.fraction_good == pytest.approx(np.mean(rep.per_trial_fraction))
    want_bound = (math.sqrt(math.log(16)) + math.sqrt(math.log(20))) / math.sqrt(16)
    assert rep.bound == pytest.approx(want_bound)
    assert rep.good_threshold == pytest.approx(2.0 * math.sqrt(math.log(16) / 16))


# ---------------------------------------------------------- decomposition

def test_decomposition_sample_first_pair_projects_to_nothing():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 0.0])
    max_col, p_norm, degenerate = decomposition_sample(x, y, np.ones(4), np.array([0]))
    assert max_col == 0.0 and p_norm == 0.0 and degenerate is False


def test_decomposition_sample_flags_identical_inputs():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    max_col, p_norm, degenerate = decomposition_sample(x, x, np.ones(4), np.array([0, 1]))
    assert degenerate is True
    assert math.isfinite(max_col) and math.isfinite(p_norm)


def test_decomposition_column_norm_below_spectral_norm():
    x, y = flat_pair(64)
    s = Stream(12, "dec")
    for _ in range(20):
        r = s.normals(64)
        S = s.index_subset(64, 8)
        max_col, p_norm, degenerate = decomposition_sample(x, y, r, S)
        assert not degenerate
        assert max_col <= p_norm + 1e-9


def _decomposition_reference(x, y, r, S):
    """_decomposition_loop with X_i's first Gram-Schmidt pass computed afresh."""
    X = _shift_rows(r * x, S)
    Y = _shift_rows(r * y, S)
    k = S.size
    Q = np.zeros((2 * k, x.size))
    q_count = 0
    P_cols = np.zeros((2 * k, x.size))
    degenerate = False
    for i in range(k):
        base = Q[:q_count]
        if q_count:
            P_cols[i] = base.T @ (base @ X[i])
            P_cols[k + i] = base.T @ (base @ Y[i])
        for col in (X[i], Y[i]):
            res = col.copy()
            if q_count:
                res -= Q[:q_count].T @ (Q[:q_count] @ res)
                res -= Q[:q_count].T @ (Q[:q_count] @ res)
            nr = float(np.linalg.norm(res))
            if nr < 1e-12 * max(1.0, float(np.linalg.norm(col))):
                degenerate = True
                continue
            Q[q_count] = res / nr
            q_count += 1
    col_norms = np.linalg.norm(P_cols, axis=1)
    return float(col_norms.max()), float(np.linalg.norm(P_cols, 2)), degenerate


def _loop(x, y, r, S):
    P_cols, degenerate = _decomposition_loop(_shift_rows(r * x, S), _shift_rows(r * y, S))
    return validation._max_col(P_cols, 1), _blas.norm2(P_cols), degenerate


def _draws(n, k):
    x, y = flat_pair(n)
    s = Stream(13, f"dec:{n}:{k}")
    for _ in range(4):
        yield x, y, s.normals(n), s.index_subset(n, k)


@pytest.mark.parametrize("n, k", [(64, 8), (256, 32), (256, 128)])
def test_decomposition_sample_matches_reference_bit_for_bit(n, k):
    for x, y, r, S in _draws(n, k):
        assert _loop(x, y, r, S) == _decomposition_reference(x, y, r, S)
    # a pair whose columns fall inside the running span
    S = np.arange(k)
    assert _loop(x, x, np.ones(n), S) == _decomposition_reference(x, x, np.ones(n), S)


@pytest.mark.parametrize("n, k", [(64, 8), (256, 32), (256, 128)])
def test_decomposition_sample_qr_matches_reference_within_rounding(n, k, monkeypatch):
    # Householder QR rounds differently from Gram-Schmidt, by about 1e-15 relative
    want = [_decomposition_reference(*draw) for draw in _draws(n, k)]
    monkeypatch.setattr(validation, "_decomposition_loop", None)  # these draws must not take the loop
    for draw, (max_col, p_norm, degenerate) in zip(_draws(n, k), want):
        got = decomposition_sample(*draw)
        assert got[0] == pytest.approx(max_col, rel=1e-12, abs=0.0)
        assert got[1] == pytest.approx(p_norm, rel=1e-12, abs=0.0)
        assert got[2] is degenerate is False


@pytest.mark.parametrize("n, k", [(64, 8), (256, 32), (16, 9)])
def test_decomposition_sample_degenerate_draws_take_the_loop(n, k, monkeypatch):
    calls = []
    loop = validation._decomposition_loop
    monkeypatch.setattr(validation, "_decomposition_loop", lambda X, Y: calls.append(1) or loop(X, Y))
    x, y = flat_pair(n)
    S = np.arange(k)
    # y is x at any k; 2k > n leaves no room for independent columns
    for second in (x, y) if 2 * k > n else (x,):
        got = decomposition_sample(x, second, np.ones(n), S)
        assert got == _decomposition_reference(x, second, np.ones(n), S)
        assert got[2] is True
    assert len(calls) == (2 if 2 * k > n else 1)


def test_decomposition_experiment_report():
    x, y = flat_pair(64)
    rep = decomposition_experiment(x, y, 8, 0.15, 20, 4)
    assert rep.k == 8 and rep.trials == 20 and rep.delta == 0.15
    assert rep.rho_direct == pytest.approx(1.0 / 8.0)  # 1/sqrt(64)
    assert rep.degenerate == 0
    assert rep.max_projection_norm == max(rep.per_trial_max_col)
    assert rep.P_spectral_norm == max(rep.per_trial_P_norm)
    assert rep.P_spectral_norm < 10.0


def test_decomposition_experiment_rejects_oversized_k():
    x, y = flat_pair(16)
    with pytest.raises(ValueError):
        decomposition_experiment(x, y, 9, 0.15, 1, 0)  # 2k > n


# ------------------------------------------------------- trial harness

# each experiment on small fixed inputs, run as run(trials, threads)
EXPERIMENTS = {
    "distortion_experiment": lambda trials, threads: distortion_experiment(
        generate_pointset("uniform_sphere", 32, 8, 1), "randomized", 32, trials, 9, threads=threads
    ),
    "conditioning_experiment": lambda trials, threads: conditioning_experiment(
        *flat_pair(64), 8, trials, 5, threads=threads
    ),
    "hadamard_coherence_experiment": lambda trials, threads: hadamard_coherence_experiment(
        generate_pointset("uniform_sphere", 16, 10, 7), trials, 3, threads=threads
    ),
    "decomposition_experiment": lambda trials, threads: decomposition_experiment(
        *flat_pair(64), 8, 0.15, trials, 4, threads=threads
    ),
    # the gates' largest k, where the LAPACK calls of the trials overlap
    "conditioning_experiment k=128": lambda trials, threads: conditioning_experiment(
        *flat_pair(256), 128, trials, 6, threads=threads
    ),
    "decomposition_experiment k=128": lambda trials, threads: decomposition_experiment(
        *flat_pair(256), 128, 0.15, trials, 7, threads=threads
    ),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_threads_do_not_change_results(name):
    run = EXPERIMENTS[name]
    assert run(8, 1) == run(8, 4)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_rejects_zero_trials(name):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        EXPERIMENTS[name](0, 1)


@pytest.mark.parametrize(
    "experiment, args",
    [(conditioning_experiment, (8,)), (decomposition_experiment, (8, 0.15))],
    ids=["conditioning_experiment", "decomposition_experiment"],
)
def test_pair_experiments_reject_bad_pairs(experiment, args):
    x, y = flat_pair(64)
    with pytest.raises(ValueError, match="x must be unit norm"):
        experiment(2.0 * x, y, *args, 1, 0)
    with pytest.raises(ValueError, match="share a dimension"):
        experiment(x, flat_pair(32)[1], *args, 1, 0)


# ---------------------------------------------------------------- gates

def test_gate_suite_quick_mode_passes():
    gates = run_gate_suite(seed=0, quick=True, threads=4)
    assert len(gates) == 7
    names = [g.name for g in gates]
    assert len(set(names)) == 7
    failed = [g.name for g in gates if not g.passed]
    assert failed == []
    for g in gates:
        assert g.op in ("<=", ">=")
        assert math.isfinite(g.measured)


@pytest.mark.parametrize("k", [8, 32, 128])
def test_col_growth_gate_reads_the_experiments_column_norms(k, monkeypatch):
    x, y = flat_pair(256)  # the gate suite's pair, bit for bit
    seed = derive_seed(0, f"gate:decomposition:k={k}")
    with _blas.one_thread():
        got = validation._max_col_trials(x, y, k, 30, seed, 2)
    assert got == decomposition_experiment(x, y, k, 0.15, 30, seed, threads=2).per_trial_max_col
    # y = x puts every column inside the running span, so every draw takes the loop
    calls = []
    loop = validation._decomposition_loop
    monkeypatch.setattr(validation, "_decomposition_loop", lambda X, Y: calls.append(1) or loop(X, Y))
    with _blas.one_thread():
        got = validation._max_col_trials(x, x, k, 3, seed, 1)
    assert got == decomposition_experiment(x, x, k, 0.15, 3, seed).per_trial_max_col
    assert len(calls) == 6


def test_gate_suite_takes_spectral_norms_only_for_the_P_gate(monkeypatch):
    # decomposition_P_within_7 reads the 30 spectral norms of its k=8 trials;
    # decomposition_col_growth reads column norms only
    shapes = []
    norm2 = _blas.norm2
    monkeypatch.setattr(_blas, "norm2", lambda a: shapes.append(np.shape(a)) or norm2(a))
    run_gate_suite(seed=0, quick=True)
    assert len(shapes) == 30
    assert all(shape[0] == 16 for shape in shapes)
