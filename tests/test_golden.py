"""Golden digests of sign codes and dense operators.

A ``BEOP1`` record stores only (kind, n, k, seed) and replays the samplers
on load, so what a stored sidecar means is whatever these functions compute
today. The sha256 values below pin that: a change in draw order, in the
kernels, or in their rounding that moves any code shows up here.

The points are Gaussian, so no projection lies within rounding of zero and
kernels that differ only in the last bits of a projection give the same
codes. Dense operators are rounded to 9 decimals before hashing: BLAS may
sum the dense Hadamard product in another order on another machine, while
a change in what is sampled moves entries by O(1).

The Monte Carlo reports are pinned the same way. Their point counts, 131
and 1031, are prime, so no block of rows that a batched path transforms
at once divides them and the last block is always a partial one.
Modulation reports at n_pad <= 64 are rounded to 12 decimals: there the
Walsh-Hadamard transform is a single BLAS product, which BLAS may sum in
another order for a batch of rows than for one vector.

Conditioning and decomposition reports are rounded to 12 decimals too.
Their Gram matrices, eigenvalues and projections are BLAS products. The
experiments run them on one BLAS thread, so the BLAS thread count no
longer changes their bits, but another BLAS build or CPU kernel may still
sum them in another order. The coherence figures
those reports carry (``rho``, ``bound_value`` and ``rho_direct``) are
elementwise maxima and one dot product per pair, so their exact ``repr``
is pinned. ``coherence`` of a point set is rounded to 12 decimals, since
its difference norms and angles may be summed in another order without
changing what they mean.

The bytes of ``validate --quick --seed 0``'s ``gates.json`` are pinned
whole, at one and two trial threads. Its measured values are exact ratios,
fractions and medians of the Monte Carlo reports, so a change that moves
any report's last bit can show up here.
"""

import hashlib

import numpy as np
import pytest

from circembed import cli
from circembed.embedders import (
    embed_points,
    materialize_operator,
    sample_operator,
)
from circembed.geometry import coherence
from circembed.io import generate_pointset
from circembed.rng import Stream
from circembed.validation import (
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    hadamard_coherence_experiment,
)


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# (kind, n, k, seed, r_dist) -> sha256 of the (6, k) int8 codes of six
# Gaussian points. The randomized sizes pad to 2, 128, 1024, 8192 and 2^16.
CODE_DIGESTS = {
    ("gaussian", 100, 24, 201, "gaussian"):
        "ca7af92d4afffa00aec40c125d634d3772dc21eec7db8b7c0678e4b61a7a3e87",
    ("circulant", 64, 16, 202, "gaussian"):
        "5eeee91682ca14f0ec3ddcdb13b2974e0ea92838462744db2c6889ccb716fd48",
    ("circulant", 100, 32, 203, "rademacher"):
        "7a86b9fbf972383a4d2c8ad12d2755a112c0aa195037be9d22c47f31d7cb92ea",
    ("randomized", 2, 2, 204, "gaussian"):
        "1ca4316f591b859f675efd373a3304ab322475d8384969fc7168e13dd8d48c14",
    ("randomized", 100, 32, 205, "gaussian"):
        "9bf195eb2812fb161f81994f04a3d08ccde1d21f409d585e02b73e11e0fafcc1",
    ("randomized", 1000, 64, 206, "rademacher"):
        "54c0efc331eb04ea944feb139d1b67d8c58591536119838d081e9a2abb04ed9f",
    ("randomized", 5000, 128, 207, "gaussian"):
        "07c9defa4434136b488ce0fb2ba245a601806eebe0935b5aea931dd4c098e830",
    ("randomized", 1 << 16, 256, 208, "gaussian"):
        "02880365d28d6fb1c0f15a2dff7e766414e6631adb49752a055dfd55baed80a5",
}

# (kind, n, k, seed, r_dist) -> sha256 of materialize_operator, rounded
OPERATOR_DIGESTS = {
    ("gaussian", 12, 5, 211, "gaussian"):
        "5cf201855c055724aef7cfa88d15ff22386b9c847f5196676d8610360aeef8b8",
    ("circulant", 12, 5, 212, "rademacher"):
        "f9f367e2448ac957cfcd3f5215b94d6335718a975e06644e41e4f9adbb7fc1a7",
    ("randomized", 12, 5, 213, "gaussian"):
        "153e83ed8481dabce0b298c9666f3ebd131ccecb4bc3e71bcbb9b206180c47a9",
    ("randomized", 16, 8, 214, "rademacher"):
        "de11033a0b21563c4a55581f73a4c89725e273cd17c5314a0a24f789ea2bff3c",
}

# (kind, n) -> sha256 of per_trial_max + per_trial_mean of a 3-trial
# distortion_experiment on 131 uniform points with k = _DISTORTION_K[n]
_DISTORTION_K = {12: 8, 100: 32, 1000: 64}
DISTORTION_DIGESTS = {
    ("gaussian", 12): "142525df273eea4b6e550be5872d6650e06c8aa3dd23442ce84869281fc1d0cf",
    ("gaussian", 100): "200de45ad8ea54a33b939bb1b886451387470dbe0df43bbbd86d167b5b7d3a40",
    ("gaussian", 1000): "ddcddee7180d37d6ee3476928d28f7ca51d7fb779c50ec4c861000f34e88b8c8",
    ("circulant", 12): "fc5bf4312451e713ea7327996a5aff0c0597ea95057b6ce62274bbf44b75c310",
    ("circulant", 100): "1c6fe4cc9fce6c84bdf8e5275d0ac40841eea7686a70cef15a1172560d7e3c90",
    ("circulant", 1000): "eedeadb01b43037b8c6cf9e4c78451454ee98c02dc56896c44089c461d733700",
    ("randomized", 12): "637a3ff975a324c02b096b671172099637e0cd448c765f0fdfdf1e50bf42b32e",
    ("randomized", 100): "22f77781a3163f4d75c38fd08fc16d1d76f0c0b496f44ea24c6306ee65218e41",
    ("randomized", 1000): "8ec446ec9298c67e9458a7988bbc5ea791a69183f34caeb51d3c8e4f89c3eed2",
}

# (n, decimals) -> sha256 of per_trial_sup + per_trial_fraction of a 3-trial
# hadamard_coherence_experiment on 1031 uniform points; None hashes exactly.
# n = 12 and 50 pad to 16 and 64, n = 100 and 1000 to 128 and 1024.
MODULATION_DIGESTS = {
    (12, 12): "da7c9c440aa65757a289a45b56e654de9598acc13a01998e3c6ff24dff152ecf",
    (50, 12): "bd7ef7a07eaf8da328882304ddfbabc4470a5e8f41c4c8bae3a0feb382a1f0bb",
    (100, None): "fd155d60e348dd4473e778fe1e5d1d449eaa9b0b51cbf2884c1eb1c9a8a85871",
    (1000, None): "e146e251790dbe2ed134abfade869f784bdf14225d18d1e732dfbdfe1e486325",
}

# k -> sha256 of the 3 samples of conditioning_experiment on a Gaussian
# unit pair at n=512, rounded; k=300 pins a 600 x 600 eigvalsh
CONDITIONING_DIGESTS = {
    8: "1ce5480bec283861a7d080aab0cb4aebc1dfe5875ddff3a12cff779754b4d32c",
    128: "23b005d4439ba4c9cabd6f352d7dbf4494404e62ff97414c7e69d775e0ae463a",
    300: "7ae74cca032b61620229374ab958a2aaea2e3c1a32bd267385361e418f39ede7",
}

# (n, k, y is x) -> sha256 of per_trial_max_col + per_trial_P_norm +
# (degenerate,) of a 3-trial decomposition_experiment, rounded; a pair with
# y equal to x is degenerate in every trial
DECOMPOSITION_DIGESTS = {
    (64, 8, False): "01720b9e286217ea023f5372356c2ddcee081ee156908499f6020cf1c29d6f9c",
    (256, 32, False): "b87c40847013542b48659b46da094783f569c29abaeba62f43dfd6a67fb15d53",
    (64, 8, True): "17f011c41ad6135adb7502c1a1e3d62c14918cea495cf30746afe0e8d771e3e7",
}

# k -> sha256 of repr((rho, bound_value)) of the conditioning reports above
CONDITIONING_RHO_DIGESTS = {
    8: "e247cb1535b28eb4ce3a6a5b6278840d1104898ab25ed974bf96b77be8d803f6",
    128: "17e98edb2e5a51cd9a063b5460212b5d4a98fe24384cf98f053fbae0912b6cf4",
    300: "82f9834c07b5869eb8bf3b9a17493a835791a6480adb97a4496841236d7fe341",
}

# (n, k, y is x) -> sha256 of repr((rho_direct,)) of the decomposition
# reports above
DECOMPOSITION_RHO_DIGESTS = {
    (64, 8, False): "11786a9769f1c94871057d37e430d1d6864e4a11a916ad6278c8ed5f70020f7f",
    (256, 32, False): "8801f65b7ace79845231bcf2d3bf3594fe4e2df919df1da1a7903908b8646630",
    (64, 8, True): "95463ae0d0bc6baedc1da37c452ca2b6c14691f589c5bbb5bef5c2d7f8683b8b",
}

# (generator kind, n, N) -> sha256 of (rho_direct, rho_cross, theta_min) of
# coherence on generate_pointset(kind, n, N, 700 + n), rounded
COHERENCE_DIGESTS = {
    ("uniform_sphere", 64, 131): "4bfca8354e6088bf06d9d332552d50f46c2b410012dafceba0652f81982e076e",
    ("flat_signs", 256, 131): "0dfcb4d96fef39fe4cd856673279ad5cac5a256b388f36b7e55e4cd1b772c4de",
    ("spiky", 100, 131): "09cdc2b57a2b9fefa59dd9b52e1edc1111a6d084f434a9e54e18763ace7dca2b",
    ("clustered_pairs", 50, 130): "05fe2c04850b18517c4e46c5ce0d076a8d730a71b3ce2bba0ebeac05bc7e6d94",
}


# --threads -> sha256 of the gates.json that validate --quick --seed 0 writes
GATES_DIGESTS = {
    1: "f89e822e9a0337b964f838f752f323760899fd25494ad4e11657a68f5a30fc62",
    2: "f89e822e9a0337b964f838f752f323760899fd25494ad4e11657a68f5a30fc62",
}


def _repr_sha256(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()


def _codes(case):
    n, seed = case[1], case[3]
    points = Stream(seed, "golden:points").normals(6 * n).reshape(6, n)
    return embed_points(sample_operator(*case), points)


def _dense(case):
    # adding 0.0 maps -0.0 to 0.0, so the rounding cannot leave two zeros
    return np.round(materialize_operator(sample_operator(*case)), 9) + 0.0


def _unit_pair(n, seed):
    v = Stream(seed, "golden:pair").normals(2 * n).reshape(2, n)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[0], v[1]


def _rounded(values):
    return np.round(np.array(values, dtype=np.float64), 12) + 0.0


def _case_id(case):
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", sorted(CODE_DIGESTS), ids=_case_id)
def test_embed_points_codes_are_pinned(case):
    assert _sha256(_codes(case)) == CODE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(OPERATOR_DIGESTS), ids=_case_id)
def test_materialized_operator_is_pinned(case):
    assert _sha256(_dense(case)) == OPERATOR_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(DISTORTION_DIGESTS), ids=_case_id)
def test_distortion_experiment_is_pinned(case):
    kind, n = case
    ps = generate_pointset("uniform_sphere", n, 131, 300 + n)
    rep = distortion_experiment(ps, kind, _DISTORTION_K[n], 3, 310 + n)
    assert _sha256(np.array(rep.per_trial_max + rep.per_trial_mean)) == DISTORTION_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(MODULATION_DIGESTS, key=str), ids=_case_id)
def test_hadamard_coherence_experiment_is_pinned(case):
    n, decimals = case
    ps = generate_pointset("uniform_sphere", n, 1031, 400 + n)
    rep = hadamard_coherence_experiment(ps, 3, 410 + n)
    got = np.array(rep.per_trial_sup + rep.per_trial_fraction)
    if decimals is not None:
        got = np.round(got, decimals) + 0.0
    assert _sha256(got) == MODULATION_DIGESTS[case]


@pytest.mark.parametrize("k", sorted(CONDITIONING_DIGESTS))
def test_conditioning_experiment_is_pinned(k):
    x, y = _unit_pair(512, 500)
    rep = conditioning_experiment(x, y, k, 3, 510 + k)
    assert _sha256(_rounded(rep.samples)) == CONDITIONING_DIGESTS[k]


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_DIGESTS), ids=_case_id)
def test_decomposition_experiment_is_pinned(case):
    n, k, same = case
    x, y = _unit_pair(n, 600 + n)
    rep = decomposition_experiment(x, x if same else y, k, 0.15, 3, 610 + n)
    got = rep.per_trial_max_col + rep.per_trial_P_norm + (float(rep.degenerate),)
    assert _sha256(_rounded(got)) == DECOMPOSITION_DIGESTS[case]


@pytest.mark.parametrize("k", sorted(CONDITIONING_RHO_DIGESTS))
def test_conditioning_coherence_is_pinned(k):
    x, y = _unit_pair(512, 500)
    rep = conditioning_experiment(x, y, k, 3, 510 + k)
    assert _repr_sha256((rep.rho, rep.bound_value)) == CONDITIONING_RHO_DIGESTS[k]


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_RHO_DIGESTS), ids=_case_id)
def test_decomposition_coherence_is_pinned(case):
    n, k, same = case
    x, y = _unit_pair(n, 600 + n)
    rep = decomposition_experiment(x, x if same else y, k, 0.15, 3, 610 + n)
    assert _repr_sha256((rep.rho_direct,)) == DECOMPOSITION_RHO_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(COHERENCE_DIGESTS), ids=_case_id)
def test_coherence_is_pinned(case):
    kind, n, N = case
    stats = coherence(generate_pointset(kind, n, N, 700 + n))
    assert _sha256(_rounded((stats.rho_direct, stats.rho_cross, stats.theta_min))) == COHERENCE_DIGESTS[case]


@pytest.mark.parametrize("threads", sorted(GATES_DIGESTS))
def test_quick_gates_json_is_pinned(threads, tmp_path, capsys):
    out = tmp_path / "gates.json"
    assert cli.main(["validate", "--quick", "--seed", "0", "--threads", str(threads), "--json-out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GATES_DIGESTS[threads]
