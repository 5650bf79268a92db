"""End-to-end acceptance gates.

Each test prints one machine-greppable verdict line. Tolerances, trial
counts, and wall-clock limits are frozen; a failure here means the library
broke one of its published guarantees, not that a tweak is needed.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest

from circembed.cli import main as cli_main
from circembed.embedders import (
    KINDS,
    embed,
    materialize_operator,
    sample_gaussian_operator,
    sample_operator,
    sample_randomized_operator,
)
from circembed.geometry import angular_distance, angular_perturbation_bound, hamming_normalized
from circembed.io import generate_pointset
from circembed.rng import Rng, Stream, derive_seed
from circembed.transforms import circulant_apply, fwht, naive_circulant_apply
from circembed.validation import (
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    hadamard_coherence_experiment,
)


def _verdict(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {num:02d}: {detail}"


def _flat_pair(n):
    x = np.ones(n) / math.sqrt(n)
    y = np.tile([1.0, -1.0], n // 2) / math.sqrt(n)
    return x, y


def _unit(v):
    return v / np.linalg.norm(v)


def _pair_at_angle(stream, n, theta):
    x = _unit(stream.normals(n))
    g = stream.normals(n)
    u = _unit(g - np.dot(g, x) * x)
    return x, math.cos(theta * math.pi) * x + math.sin(theta * math.pi) * u


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # warm the FFT plans and the cached Hadamard factors before any timed section
    fwht(np.ones(2))
    embed(sample_randomized_operator(1 << 10, 4, 0), np.ones(1 << 10))
    yield


def test_01_circulant_fft_matches_naive_oracle():
    limit, budget = 1e-10, 10.0
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 64, 1024, 4096):
        s = Stream(1001, f"c1:{n}")
        for _ in range(100):
            h = s.normals(n)
            x = s.normals(n)
            diff = np.abs(circulant_apply(h, x) - naive_circulant_apply(h, x)).max()
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= limit and elapsed < budget,
        f"fft vs naive: max abs diff {worst:.3e} (limit {limit:.0e}), {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_02_fwht_unitary_and_involutive():
    limit, budget = 1e-12, 10.0
    start = time.perf_counter()
    worst_norm = 0.0
    worst_invol = 0.0
    for n in (2, 256, 1 << 20):
        s = Stream(1002, f"c2:{n}")
        for _ in range(100):
            x = s.normals(n)
            nx = np.linalg.norm(x)
            y = fwht(x)
            worst_norm = max(worst_norm, abs(np.linalg.norm(y) - nx) / nx)
            worst_invol = max(worst_invol, np.linalg.norm(fwht(y) - x) / nx)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_norm <= limit and worst_invol <= limit and elapsed < budget,
        f"norm err {worst_norm:.3e}, involution err {worst_invol:.3e} "
        f"(limit {limit:.0e}), {elapsed:.2f}s (budget {budget:.0f}s)",
    )


def test_03_sign_codes_match_dense_materialization():
    n, k, trials, knife = 64, 16, 100, 1e-9
    mismatches = 0
    checked = 0
    for kind in sorted(KINDS):
        op = sample_operator(kind, n, k, 1003)
        M = materialize_operator(op)
        s = Stream(1003, f"c3:{kind}")
        for _ in range(trials):
            x = s.normals(n)
            proj = M @ x
            keep = np.abs(proj) > knife
            want = np.where(proj[keep] >= 0, 1, -1)
            got = embed(op, x)[keep]
            mismatches += int((got != want).sum())
            checked += int(keep.sum())
    _verdict(
        3,
        mismatches == 0 and checked > 0,
        f"dense sign agreement: {mismatches} mismatches over {checked} coordinates "
        f"({trials} vectors per kind, |proj| <= {knife:.0e} excluded)",
    )


def test_04_gaussian_hamming_concentrates_on_angle():
    n, k, trials = 64, 256, 200
    details = []
    ok = True
    for theta in (0.1, 0.25, 0.5):
        x, y = _pair_at_angle(Rng(42).stream("pair"), n, theta)
        assert abs(angular_distance(x, y) - theta) < 1e-12
        total = 0.0
        for t in range(trials):
            op = sample_gaussian_operator(n, k, derive_seed(7, f"c4:{theta}:{t}"))
            total += hamming_normalized(embed(op, x), embed(op, y))
        dev = abs(total / trials - theta)
        tol = 4.0 * math.sqrt(theta * (1.0 - theta) / (k * trials))
        ok &= dev < tol
        details.append(f"theta={theta}: dev {dev:.5f} < tol {tol:.5f}")
    _verdict(4, ok, "; ".join(details))


def test_05_flat_pointset_distortion_success():
    budget = 60.0
    start = time.perf_counter()
    ps = generate_pointset("flat_signs", 1024, 32, 2024)
    rand = distortion_experiment(ps, "randomized", 1024, 50, 7, delta_target=0.15)
    gauss = distortion_experiment(ps, "gaussian", 1024, 50, 8, delta_target=0.15)
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        rand.success_fraction >= 0.90 and gauss.success_fraction >= 0.95 and elapsed < budget,
        f"success within 0.15: randomized {rand.success_fraction:.4f} (need 0.90), "
        f"gaussian {gauss.success_fraction:.4f} (need 0.95), {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_06_conditioning_growth_bounded_in_k():
    budget = 60.0
    start = time.perf_counter()
    x, y = _flat_pair(256)
    medians = [
        conditioning_experiment(x, y, k, 200, 1006 + k).median for k in (8, 32, 128)
    ]
    elapsed = time.perf_counter() - start
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    _verdict(
        6,
        r1 <= 6.0 and r2 <= 6.0 and elapsed < budget,
        f"median spectral gap at k=8/32/128: {medians[0]:.3f}/{medians[1]:.3f}/{medians[2]:.3f}, "
        f"step ratios {r1:.2f}, {r2:.2f} (limit 6), {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_07_sign_flip_modulation_flattens_points():
    budget = 30.0
    start = time.perf_counter()
    ps = generate_pointset("uniform_sphere", 1024, 1000, 1007)
    rep = hadamard_coherence_experiment(ps, 100, 1007)
    elapsed = time.perf_counter() - start
    within = int(sum(s <= 2.0 * rep.bound for s in rep.per_trial_sup))
    floor = 1.0 - 10.0 / 1024
    _verdict(
        7,
        within >= 99 and rep.fraction_good >= floor and elapsed < budget,
        f"sup within 2x bound in {within}/100 trials (need 99), fraction_good "
        f"{rep.fraction_good:.5f} (need {floor:.5f}), {elapsed:.1f}s (budget {budget:.0f}s)",
    )


def test_08_projection_decomposition_stays_bounded():
    x, y = _flat_pair(256)
    rep = decomposition_experiment(x, y, 8, 0.15, 100, 1008)
    within = int(sum(p <= 7.0 for p in rep.per_trial_P_norm))
    medians = [
        float(np.median(decomposition_experiment(x, y, k, 0.15, 100, 1008 + k).per_trial_max_col))
        for k in (8, 32, 128)
    ]
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    _verdict(
        8,
        within >= 99 and r1 <= 6.0 and r2 <= 6.0,
        f"P norm <= 7 in {within}/100 trials (need 99); median column norm at "
        f"k=8/32/128: {medians[0]:.3f}/{medians[1]:.3f}/{medians[2]:.3f}, "
        f"step ratios {r1:.2f}, {r2:.2f} (limit 6)",
    )


def test_09_angle_gap_bounded_by_inner_product_gap():
    s = Stream(2718, "c9")
    n = 32
    violations = 0
    worst_margin = -math.inf
    for i in range(10_000):
        x = _unit(s.normals(n))
        y = _unit(s.normals(n))
        eps = 0.05 if i % 2 == 0 else 0.5
        x_alt = _unit(x + eps * s.normals(n))
        y_alt = _unit(y + eps * s.normals(n))
        lhs, rhs = angular_perturbation_bound(x, x_alt, y, y_alt)
        if lhs > rhs:
            violations += 1
        worst_margin = max(worst_margin, lhs - rhs)
    _verdict(
        9,
        violations == 0,
        f"{violations} violations over 10000 quadruples, worst lhs-rhs {worst_margin:.3e}",
    )


def test_10_pipeline_is_byte_deterministic(tmp_path, monkeypatch):
    # relative paths keep the parameter echoes inside the reports identical
    def chain(d, threads):
        d.mkdir()
        monkeypatch.chdir(d)
        assert cli_main(["gen", "--kind", "flat_signs", "--n", "64", "--N", "16",
                         "--seed", "5", "--out", "pts.pset"]) == 0
        assert cli_main(["embed", "--pointset", "pts.pset", "--kind", "randomized",
                         "--k", "32", "--seed", "6", "--threads", str(threads),
                         "--out", "codes.csv"]) == 0
        assert cli_main(["eval", "--pointset", "pts.pset", "--codes", "codes.csv",
                         "--operator", "codes.csv.beop", "--out", "eval.json"]) == 0
        assert cli_main(["sweep", "--pointset", "pts.pset", "--kind", "circulant",
                         "--k-list", "8,16", "--delta-list", "0.1", "--trials", "3",
                         "--seed", "7", "--threads", str(threads),
                         "--csv-out", "sweep.csv", "--json-out", "sweep.json"]) == 0
        names = ("pts.pset", "codes.csv", "codes.csv.beop", "eval.json",
                 "sweep.csv", "sweep.json")
        return [(d / name).read_bytes() for name in names]

    run_a = chain(tmp_path / "a", threads=1)
    run_b = chain(tmp_path / "b", threads=1)
    run_c = chain(tmp_path / "c", threads=8)
    _verdict(
        10,
        run_a == run_b == run_c,
        "gen/embed/eval/sweep outputs byte-identical across reruns and threads 1 vs 8 "
        f"({len(run_a)} files compared)",
    )


def test_11_randomized_embedding_scales_near_linearly():
    limit = 2.5
    sizes = [1 << 18, 1 << 19, 1 << 20]
    ops = {n: sample_randomized_operator(n, 256, 7) for n in sizes}
    xs = {n: Rng(3).stream(f"x:{int(math.log2(n))}").normals(n) for n in sizes}
    for n in sizes:
        embed(ops[n], xs[n])  # touch caches before timing
    means = {n: [] for n in sizes}
    # interleave sizes inside each repetition so scheduler drift hits all
    # sizes alike, then keep the fastest repetition per size
    for _ in range(3):
        acc = dict.fromkeys(sizes, 0.0)
        for _ in range(20):
            for n in sizes:
                t0 = time.perf_counter()
                embed(ops[n], xs[n])
                acc[n] += time.perf_counter() - t0
        for n in sizes:
            means[n].append(acc[n] / 20)
    best = {n: min(means[n]) for n in sizes}
    r1 = best[sizes[1]] / best[sizes[0]]
    r2 = best[sizes[2]] / best[sizes[1]]
    _verdict(
        11,
        r1 <= limit and r2 <= limit,
        f"per-call means {best[sizes[0]]*1e3:.2f}/{best[sizes[1]]*1e3:.2f}/"
        f"{best[sizes[2]]*1e3:.2f} ms, doubling ratios {r1:.2f}, {r2:.2f} (limit {limit})",
    )
