import math

import numpy as np
import pytest

from circembed.embedders import embed_points, sample_operator
from circembed.geometry import PointSet
from circembed.io import generate_pointset
from circembed.rng import Stream, derive_seed
from circembed.transforms import fwht, hadamard_matrix
from circembed.validation import (
    _power_iteration,
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
        assert evaluate_codes(ps, embed_points(op, points)).per_pair == (pair,)
        assert distortion_experiment(ps, "gaussian", 64, 1, 0).max_distortion == 0.0


def test_distortion_trials_are_prefix_stable():
    ps = generate_pointset("uniform_sphere", 16, 6, 0)
    short = distortion_experiment(ps, "circulant", 16, 2, 5)
    long = distortion_experiment(ps, "circulant", 16, 4, 5)
    assert long.per_trial_max[:2] == short.per_trial_max
    assert long.per_trial_mean[:2] == short.per_trial_mean


def test_distortion_threads_do_not_change_results():
    ps = generate_pointset("uniform_sphere", 32, 8, 1)
    a = distortion_experiment(ps, "randomized", 32, 4, 9, threads=1)
    b = distortion_experiment(ps, "randomized", 32, 4, 9, threads=4)
    assert a == b


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
    assert len(rep.per_pair) == 15
    for i, j, ham, ang, diff in rep.per_pair:
        assert i < j
        assert 0.0 <= ham <= 1.0 and 0.0 <= ang <= 1.0 and 0.0 <= diff <= 1.0
        assert diff == pytest.approx(abs(ham - ang))


def test_evaluate_codes_rejects_shape_mismatch():
    ps = generate_pointset("uniform_sphere", 16, 6, 3)
    with pytest.raises(ValueError):
        evaluate_codes(ps, np.ones((5, 16), dtype=np.int8))


# ---------------------------------------------------------------- sweep

def test_sweep_cell_matches_direct_experiment():
    ps = generate_pointset("uniform_sphere", 32, 6, 4)
    cells = sweep(ps, "circulant", [8, 16], [0.1], 3, 11)
    assert [(c.k, c.delta_target) for c in cells] == [(8, 0.1), (16, 0.1)]
    cell_seed = derive_seed(11, f"cell:k=8:delta={0.1:.17g}")
    direct = distortion_experiment(ps, "circulant", 8, 3, cell_seed, delta_target=0.1)
    assert cells[0] == direct


def test_sweep_gaussian_distortion_shrinks_with_k():
    # mean worst-case distortion should fall as the code length grows
    ps = generate_pointset("uniform_sphere", 1024, 32, 5)
    cells = sweep(ps, "gaussian", [64, 256, 1024], [0.2], 20, 0)
    means = [float(np.mean(c.per_trial_max)) for c in cells]
    assert means[1] <= means[0] and means[2] <= means[1]


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


def test_conditioning_improves_when_coherence_halves():
    # flat pairs have inf norm 1/sqrt(n); quadrupling n halves the coherence
    medians = []
    for n in (256, 1024):
        x, y = flat_pair(n)
        medians.append(conditioning_experiment(x, y, 16, 200, 0, threads=4).median)
    assert medians[1] <= medians[0]


def test_conditioning_threads_deterministic():
    x, y = flat_pair(64)
    a = conditioning_experiment(x, y, 8, 10, 5, threads=1)
    b = conditioning_experiment(x, y, 8, 10, 5, threads=4)
    assert a == b


def test_power_iteration_matches_dense_eigensolver():
    s = Stream(8, "power")
    B = s.normals(40 * 40).reshape(40, 40)
    A = B + B.T
    want = float(np.abs(np.linalg.eigvalsh(A)).max())
    v0 = s.normals(40)
    got = _power_iteration(A, v0)
    assert got == pytest.approx(want, rel=1e-6)


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


def test_hadamard_coherence_threads_deterministic():
    ps = generate_pointset("uniform_sphere", 16, 10, 7)
    a = hadamard_coherence_experiment(ps, 8, 3, threads=1)
    b = hadamard_coherence_experiment(ps, 8, 3, threads=4)
    assert a == b


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
