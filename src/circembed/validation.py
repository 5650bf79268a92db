"""Monte Carlo experiments on distortion, conditioning, and coherence.

Every experiment runs its trials through ``_run_trials``, the only place
that checks the trial count and derives trial seeds: trial t draws fresh
randomness from derive_seed(seed, "trial:<t>"), so trials are mutually
independent, a run is fully reproducible from its seed, and extending the
trial count leaves earlier trials unchanged. Trials fan out over the one
worker pool (``_pool.fan_out``) on at most min(threads, cores) threads;
results come back in trial order, so reports never depend on scheduling.

The public experiments, ``evaluate_codes`` and ``run_gate_suite`` run with
BLAS pinned to one thread (``_blas.one_thread``), so the bits of their
Gram, eigenvalue and angle computations, and so the reports, do not depend
on the BLAS thread count, and the trial threads own the cores.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _blas, embedders
from ._pool import fan_out
from .geometry import _PRE_ATOL, PointSet, _angular_pairs, _coherence, _hamming_pairs, angular_distance
from .rng import Rng, derive_seed
from .transforms import _shift_rows

__all__ = [
    "ConditionCheck",
    "DistortionReport",
    "PairColumns",
    "ConditioningReport",
    "ModulationReport",
    "DecompositionReport",
    "GateResult",
    "check_condition1",
    "distortion_experiment",
    "evaluate_codes",
    "sweep",
    "conditioning_experiment",
    "conditioning_sample",
    "hadamard_coherence_experiment",
    "modulation_sample",
    "decomposition_experiment",
    "decomposition_sample",
    "run_gate_suite",
]

_SPAN_TOL = 1e-12


def _run_trials(fn: Callable[[int], object], trials: int, seed: int, threads: int) -> list:
    """[fn(trial seed) for each trial], in trial order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return fan_out(fn, [derive_seed(seed, f"trial:{t}") for t in range(trials)], int(threads))


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


# ---------------------------------------------------------------------------
# sufficient-condition arithmetic


@dataclass(frozen=True)
class ConditionCheck:
    """Literal evaluation of the three-clause sufficient condition.

    clause1: k > c1 * delta^-3 * ln N      (enough measurements)
    clause2: c2 * delta * k * rho * ln n < 1   (coherence small enough)
    clause3: delta >= c3 * k * rho         (distortion floor)
    """

    c1: float
    c2: float
    c3: float
    k_required: float
    product: float
    delta_floor: float
    clause1: bool
    clause2: bool
    clause3: bool
    overall: bool


def check_condition1(n, k, N, delta, rho_cross, c1=1.0, c2=1.0, c3=1.0) -> ConditionCheck:
    """Evaluate the embedding's sufficient condition with tunable constants.

    The absolute constants are unknown in general; the defaults of 1 expose
    the rate so callers can study how the clauses scale. Logs are natural.
    """
    if min(n, k, N) < 1 or delta <= 0 or rho_cross <= 0:
        raise ValueError("n, k, N must be >= 1 and delta, rho_cross positive")
    k_required = c1 * delta**-3 * math.log(N)
    product = c2 * delta * k * rho_cross * math.log(n)
    delta_floor = c3 * k * rho_cross
    clause1 = k > k_required
    clause2 = product < 1.0
    clause3 = delta >= delta_floor
    return ConditionCheck(
        c1=c1,
        c2=c2,
        c3=c3,
        k_required=k_required,
        product=product,
        delta_floor=delta_floor,
        clause1=clause1,
        clause2=clause2,
        clause3=clause3,
        overall=clause1 and clause2 and clause3,
    )


# ---------------------------------------------------------------------------
# distortion


class PairColumns(NamedTuple):
    """Every pair of one evaluation as numpy columns, in ``np.triu_indices`` order."""

    i: np.ndarray
    j: np.ndarray
    hamming: np.ndarray
    angular: np.ndarray
    diff: np.ndarray  # |hamming - angular|


@dataclass(frozen=True)
class DistortionReport:
    kind: str
    n: int
    N: int
    k: int
    trials: int
    seed: int
    delta_target: float
    max_distortion: float
    mean_distortion: float
    success_fraction: float
    per_trial_max: tuple
    per_trial_mean: tuple
    # set by evaluate_codes only
    pairs: Optional[PairColumns] = None
    worst_per_point: Optional[np.ndarray] = None  # each point's largest diff over its pairs
    point_success_fraction: Optional[float] = None  # share of points whose worst pair is <= delta_target

    def to_stats(self) -> dict:
        stats = {
            "max_distortion": self.max_distortion,
            "mean_distortion": self.mean_distortion,
            "success_fraction": self.success_fraction,
        }
        if self.point_success_fraction is not None:
            stats["point_success_fraction"] = self.point_success_fraction
        return stats


def _max_mean(diff: np.ndarray) -> tuple:
    # a point set with no pairs (N = 1) has no distortion
    if diff.size == 0:
        return 0.0, 0.0
    return float(diff.max()), float(diff.mean())


def _distortion_report(ps: PointSet, kind: str, k: int, seed: int, delta_target: float, rows, **pointwise) -> DistortionReport:
    # rows holds one (max, mean) pair per trial
    per_max, per_mean = zip(*rows)
    return DistortionReport(
        kind=kind,
        n=ps.n,
        N=ps.N,
        k=int(k),
        trials=len(rows),
        seed=int(seed),
        delta_target=float(delta_target),
        max_distortion=max(per_max),
        mean_distortion=float(np.mean(per_mean)),
        success_fraction=sum(1 for m in per_max if m <= delta_target) / len(rows),
        per_trial_max=per_max,
        per_trial_mean=per_mean,
        **pointwise,
    )


@_blas.one_thread()
def distortion_experiment(
    ps: PointSet,
    kind: str,
    k: int,
    trials: int,
    seed: int,
    delta_target: float = 0.15,
    r_dist: str = "gaussian",
    threads: int = 1,
) -> DistortionReport:
    """Worst-pair and mean |hamming - angular| over freshly sampled operators.

    Per trial: sample one operator from a derived seed, embed every point,
    and scan all N(N-1)/2 pairs. success_fraction counts trials whose worst
    pair stayed at or below delta_target.
    """
    return _distortion(ps, _angular_pairs(ps.points), kind, k, trials, seed, delta_target, r_dist, threads)


def _distortion(ps: PointSet, pairs, kind: str, k: int, trials: int, seed: int, delta_target: float, r_dist: str,
                threads: int) -> DistortionReport:
    # distortion_experiment with the pairs and angles of _angular_pairs(ps.points)
    # given; the caller pins BLAS to one thread
    iu, ang = pairs

    def run_trial(trial_seed: int):
        codes = embedders.embed_points(embedders.sample_operator(kind, ps.n, k, trial_seed, r_dist), ps.points)
        return _max_mean(np.abs(_hamming_pairs(codes, iu) - ang))

    rows = _run_trials(run_trial, trials, seed, threads)
    return _distortion_report(ps, kind, k, seed, delta_target, rows)


@_blas.one_thread()
def evaluate_codes(ps: PointSet, codes: np.ndarray, delta_target: float = 0.15, kind: str = "codes", seed: int = 0) -> DistortionReport:
    """Distortion of precomputed codes against a point set (single trial).

    Besides the pair statistics, the report keeps every pair as columns and
    each point's worst distortion, the quantity of the paper's per-point
    claim (0.0 for a point with no pairs).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] != ps.N:
        raise ValueError(
            f"codes must be an N x k matrix with N={ps.N}, got shape {codes.shape}"
        )
    iu, ang = _angular_pairs(ps.points)
    ham = _hamming_pairs(codes, iu)
    diff = np.abs(ham - ang)
    worst = np.zeros(ps.N)
    np.maximum.at(worst, iu[0], diff)
    np.maximum.at(worst, iu[1], diff)
    return _distortion_report(
        ps, kind, codes.shape[1], seed, delta_target, [_max_mean(diff)],
        pairs=PairColumns(iu[0], iu[1], ham, ang, diff),
        worst_per_point=worst,
        point_success_fraction=int(np.count_nonzero(worst <= delta_target)) / ps.N,
    )


@_blas.one_thread()
def sweep(
    ps: PointSet,
    kind: str,
    k_values: Sequence[int],
    delta_values: Sequence[float],
    trials: int,
    seed: int,
    r_dist: str = "gaussian",
    threads: int = 1,
) -> list:
    """Cartesian grid of distortion experiments, one report per (k, delta).

    Cell seeds are derived from (seed, k, delta), so each cell is its own
    independent experiment and the grid can be refined without disturbing
    existing cells. Each report equals that of ``distortion_experiment``
    with the cell's arguments; the pair angles are computed once for the grid.
    """
    cells = [(int(k), float(d)) for k in k_values for d in delta_values]
    if not cells:
        return []
    pairs = _angular_pairs(ps.points)
    return [
        _distortion(ps, pairs, kind, k, trials, derive_seed(seed, f"cell:k={k}:delta={d:.17g}"), d, r_dist, threads)
        for k, d in cells
    ]


# ---------------------------------------------------------------------------
# subdictionary conditioning


@dataclass(frozen=True)
class ConditioningReport:
    n: int
    k: int
    trials: int
    seed: int
    theta: float
    rho: float
    bound_value: float  # k * rho * ln n, the rate with constants stripped
    median: float
    samples: tuple


def _i_theta(k: int, theta: float) -> np.ndarray:
    c = math.cos(theta * math.pi)
    out = np.eye(2 * k)
    out[:k, k:] = c * np.eye(k)
    out[k:, :k] = c * np.eye(k)
    return out


def conditioning_sample(x, y, r, S, theta: Optional[float] = None) -> float:
    """sigma_max(M^T M - I_theta) for one draw of (r, S).

    M has 2k columns: the modulated shifts of x at the rows S, then the same
    shifts of y. I_theta is the ideal Gram matrix, identity blocks with
    cos(theta*pi) off-diagonal blocks. The norm is the largest |eigenvalue|
    of the symmetric difference, from ``eigvalsh``.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    rv = np.asarray(r, dtype=np.float64)
    Sv = np.asarray(S, dtype=np.int64)
    if theta is None:
        theta = angular_distance(xv, yv)
    k = Sv.size
    cols = np.concatenate([_shift_rows(rv * xv, Sv), _shift_rows(rv * yv, Sv)], axis=0)
    G = cols @ cols.T  # (2k, 2k) Gram of the columns of M
    return float(np.abs(np.linalg.eigvalsh(G - _i_theta(k, theta))).max())


@_blas.one_thread()
def conditioning_experiment(x, y, k: int, trials: int, seed: int, threads: int = 1) -> ConditioningReport:
    """Sample sigma_max(M^T M - I_theta) across fresh draws of (r, S)."""
    xv, yv = _unit_pair(x, y)
    n = xv.size
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    theta = angular_distance(xv, yv)
    rho = _coherence(np.stack([xv, yv])).rho_cross

    def run_trial(trial_seed: int) -> float:
        st = Rng(trial_seed)
        r = st.stream("r").normals(n)
        S = st.stream("S").index_subset(n, k)
        return conditioning_sample(xv, yv, r, S, theta)

    samples = tuple(_run_trials(run_trial, trials, seed, threads))
    return ConditioningReport(
        n=n,
        k=int(k),
        trials=int(trials),
        seed=int(seed),
        theta=theta,
        rho=rho,
        bound_value=k * rho * math.log(n),
        median=float(np.median(samples)),
        samples=samples,
    )


# ---------------------------------------------------------------------------
# random sign modulation (coherence reduction)


@dataclass(frozen=True)
class ModulationReport:
    n: int
    n_pad: int
    N: int
    trials: int
    seed: int
    good_const: float
    bound: float  # (sqrt(ln n_pad) + sqrt(ln N)) / sqrt(n_pad)
    good_threshold: float  # good_const * sqrt(ln n_pad / n_pad)
    sup_inf_norm: float  # max over trials
    fraction_good: float  # mean over trials
    per_trial_sup: tuple
    per_trial_fraction: tuple


def modulation_sample(points: np.ndarray, b: np.ndarray, good_threshold: float):
    """One modulation draw: returns (sup-infinity-norm, fraction under threshold).

    Rows of ``points`` are zero-padded to the length of ``b`` and
    transformed a block of rows at a time.
    """
    P = np.asarray(points, dtype=np.float64)
    blocks = embedders._row_blocks(P.shape[0], b.size)
    inf_norms = np.concatenate([np.abs(embedders._hadamard_mix(P[rows], b)).max(axis=1) for rows in blocks])
    # the unitary scale is positive, so it commutes with the max
    inf_norms *= 1.0 / math.sqrt(b.size)
    return float(inf_norms.max()), float((inf_norms <= good_threshold).mean())


@_blas.one_thread()
def hadamard_coherence_experiment(
    ps: PointSet, trials: int, seed: int, good_const: float = 2.0, threads: int = 1
) -> ModulationReport:
    """How flat do points become after a random sign flip and a Hadamard mix.

    Per trial: draw one sign vector b, transform every (zero-padded) point,
    and record the largest infinity norm plus the fraction of points whose
    infinity norm stayed under good_const * sqrt(ln n_pad / n_pad). The
    reported fraction_good is the mean over trials; sup_inf_norm is the max.
    """
    n = ps.n
    n_pad = embedders._next_pow2(n)
    bound = (math.sqrt(math.log(n_pad)) + math.sqrt(math.log(ps.N))) / math.sqrt(n_pad)
    good_threshold = good_const * math.sqrt(math.log(n_pad) / n_pad)

    def run_trial(trial_seed: int):
        b = Rng(trial_seed).stream("b").rademacher(n_pad)
        return modulation_sample(ps.points, b, good_threshold)

    sups, fracs = zip(*_run_trials(run_trial, trials, seed, threads))
    return ModulationReport(
        n=n,
        n_pad=n_pad,
        N=ps.N,
        trials=int(trials),
        seed=int(seed),
        good_const=float(good_const),
        bound=bound,
        good_threshold=good_threshold,
        sup_inf_norm=max(sups),
        fraction_good=float(np.mean(fracs)),
        per_trial_sup=sups,
        per_trial_fraction=fracs,
    )


# ---------------------------------------------------------------------------
# orthogonal decomposition of interleaved shift columns


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    k: int
    trials: int
    seed: int
    delta: float
    rho_direct: float  # max infinity norm of the pair
    degenerate: bool  # a column fell inside the running span in some trial
    max_projection_norm: float
    P_spectral_norm: float
    per_trial_max_col: tuple
    per_trial_P_norm: tuple


def decomposition_sample(x, y, r, S):
    """Projection norms for one draw of (r, S).

    Columns arrive in interleaved pair order C = (X_0, Y_0, X_1, Y_1, ...).
    For pair i, both X_i and Y_i are projected onto the span of the strictly
    previous pairs {X_j, Y_j : j < i}; those projections are the columns of
    P. With C^T = QR (one Householder QR, Golub & Van Loan, Matrix
    Computations, 5.2), X_i's projection is Q[:, :2i] R[:2i, 2i] and Y_i's
    is Q[:, :2i] R[:2i, 2i+1]. Q has orthonormal columns, so P's column
    norms and spectral norm are those of U, R's strict upper triangle with
    each entry (2i, 2i+1) zeroed: a 2k x 2k matrix in place of the n-row P.

    A draw is degenerate when a column lies in the span of the columns
    before it, |R_jj| < 1e-12 * max(1, |c_j|). Householder's Q_j is then a
    rounding direction that later columns' new content gets split across,
    so such draws, and draws with 2k > n, take ``_decomposition_loop``,
    which skips those columns as basis vectors. On other draws the two
    agree to about 1e-15 relative.

    Returns (max column norm of P, spectral norm of P, degenerate flag).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    rv = np.asarray(r, dtype=np.float64)
    Sv = np.asarray(S, dtype=np.int64)
    X = _shift_rows(rv * xv, Sv)
    Y = _shift_rows(rv * yv, Sv)
    k = Sv.size
    C = np.empty((2 * k, xv.size))
    C[0::2] = X
    C[1::2] = Y
    R = np.linalg.qr(C.T, mode="r")
    spans = np.abs(np.diagonal(R))
    if spans.size < 2 * k or (spans < _SPAN_TOL * np.maximum(1.0, np.linalg.norm(C, axis=1))).any():
        return _decomposition_loop(X, Y)
    U = np.triu(R, 1)
    U[np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)] = 0.0
    return float(np.linalg.norm(U, axis=0).max()), float(np.linalg.norm(U, 2)), False


def _decomposition_loop(X: np.ndarray, Y: np.ndarray):
    """``decomposition_sample`` by modified Gram-Schmidt over the shift rows X and Y.

    The basis grows by X_i and then Y_i after pair i is projected, with one
    re-orthogonalization pass; a column whose residual falls below the span
    tolerance flags the draw degenerate and is skipped as a basis vector.
    """
    k, n = X.shape
    Q = np.zeros((2 * k, n))
    q_count = 0
    P_cols = np.zeros((2 * k, n))  # rows: p_1..p_k then p'_1..p'_k
    degenerate = False
    for i in range(k):
        base = Q[:q_count]
        if q_count:
            P_cols[i] = base.T @ (base @ X[i])
            P_cols[k + i] = base.T @ (base @ Y[i])
        # X_i's first Gram-Schmidt pass is its projection P_cols[i]; Y_i takes
        # both passes, since the basis may have grown by X_i
        for col, res, passes in ((X[i], X[i] - P_cols[i], 1), (Y[i], Y[i].copy(), 2)):
            if q_count:
                # the second pass keeps the basis orthonormal at machine precision
                for _ in range(passes):
                    res -= Q[:q_count].T @ (Q[:q_count] @ res)
            nr = float(np.linalg.norm(res))
            if nr < _SPAN_TOL * max(1.0, float(np.linalg.norm(col))):
                degenerate = True
                continue
            Q[q_count] = res / nr
            q_count += 1
    col_norms = np.linalg.norm(P_cols, axis=1)
    return float(col_norms.max()), float(np.linalg.norm(P_cols, 2)), degenerate


@_blas.one_thread()
def decomposition_experiment(x, y, k: int, delta: float, trials: int, seed: int, threads: int = 1) -> DecompositionReport:
    """Monte Carlo on the interleaved-shift projection norms."""
    xv, yv = _unit_pair(x, y)
    n = xv.size
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= k and 2k <= n, got k={k}, n={n}")

    def run_trial(trial_seed: int):
        st = Rng(trial_seed)
        r = st.stream("r").normals(n)
        S = st.stream("S").index_subset(n, k)
        return decomposition_sample(xv, yv, r, S)

    max_cols, p_norms, degenerate = zip(*_run_trials(run_trial, trials, seed, threads))
    return DecompositionReport(
        n=n,
        k=int(k),
        trials=int(trials),
        seed=int(seed),
        delta=float(delta),
        rho_direct=_coherence(np.stack([xv, yv])).rho_direct,
        degenerate=any(degenerate),
        max_projection_norm=max(max_cols),
        P_spectral_norm=max(p_norms),
        per_trial_max_col=max_cols,
        per_trial_P_norm=p_norms,
    )


# ---------------------------------------------------------------------------
# frozen gate suite


@dataclass(frozen=True)
class GateResult:
    name: str
    measured: float
    threshold: float
    op: str  # ">=" or "<="
    passed: bool
    detail: str = ""
    # wall time since the previous gate (or the suite's start), so a gate
    # read off an earlier gate's experiment takes about 0; not compared
    seconds: float = field(default=0.0, compare=False)


def _gate(name: str, measured: float, op: str, threshold: float, detail: str = "") -> GateResult:
    if op == ">=":
        ok = measured >= threshold
    elif op == "<=":
        ok = measured <= threshold
    else:
        raise ValueError(f"unknown comparison {op!r}")
    return GateResult(name=name, measured=float(measured), threshold=float(threshold), op=op, passed=ok, detail=detail)


@_blas.one_thread()
def run_gate_suite(seed: int = 0, quick: bool = False, threads: int = 1) -> list:
    """Run the frozen Monte Carlo regression gates; returns GateResult rows.

    The thresholds are regression values measured once on the reference
    implementation and then frozen; they are deliberately slack relative to
    observed medians so that reseeding flips sample values but not verdicts.
    ``quick`` shrinks trial counts for an under-two-minutes smoke run.
    """
    from .io import generate_pointset

    results = []
    last = time.perf_counter()

    def record(gate: GateResult) -> None:
        nonlocal last
        now = time.perf_counter()
        results.append(replace(gate, seconds=now - last))
        last = now

    dist_trials = 10 if quick else 50
    cond_trials = 50 if quick else 200
    mod_trials = 30 if quick else 100
    dec_trials = 30 if quick else 100

    ps = generate_pointset("flat_signs", 1024, 32, derive_seed(seed, "gate:pointset"))
    for kind, thresh in (("gaussian", 0.95), ("randomized", 0.90)):
        rep = distortion_experiment(
            ps, kind, 1024, dist_trials, derive_seed(seed, f"gate:distortion:{kind}"),
            delta_target=0.15, threads=threads,
        )
        record(
            _gate(
                f"distortion_{kind}_success", rep.success_fraction, ">=", thresh,
                detail=f"n=1024 N=32 k=1024 delta=0.15 trials={dist_trials}",
            )
        )

    # sign-flat unit vectors (entries +-1/16 at n=256), orthogonal by
    # alternating the second one
    x = np.ones(256) / 16.0
    y = np.tile([1.0, -1.0], 128) / 16.0
    medians = []
    for k in (8, 32, 128):
        rep = conditioning_experiment(
            x, y, k, cond_trials, derive_seed(seed, f"gate:conditioning:k={k}"), threads=threads
        )
        medians.append(rep.median)
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    record(
        _gate(
            "conditioning_median_growth", max(ratios), "<=", 6.0,
            detail=f"medians={['%.4g' % m for m in medians]} per 4x step in k",
        )
    )

    ups = generate_pointset("uniform_sphere", 1024, 1000, derive_seed(seed, "gate:modpoints"))
    mod = hadamard_coherence_experiment(
        ups, mod_trials, derive_seed(seed, "gate:modulation"), threads=threads
    )
    frac_under = float(np.mean([s <= 2.0 * mod.bound for s in mod.per_trial_sup]))
    record(
        _gate(
            "modulation_sup_within_2x", frac_under, ">=", 0.99,
            detail=f"bound={mod.bound:.4g} trials={mod_trials}",
        )
    )
    record(
        _gate(
            "modulation_fraction_good", mod.fraction_good, ">=", 1.0 - 10.0 / 1024,
            detail="threshold follows the 1 - 10/n proxy rate",
        )
    )

    dec = decomposition_experiment(
        x, y, 8, 0.15, dec_trials, derive_seed(seed, "gate:decomposition"), threads=threads
    )
    frac_p = float(np.mean([p <= 7.0 for p in dec.per_trial_P_norm]))
    record(
        _gate("decomposition_P_within_7", frac_p, ">=", 0.99, detail=f"trials={dec_trials}")
    )
    med_cols = []
    for k in (8, 32, 128):
        repk = decomposition_experiment(
            x, y, k, 0.15, dec_trials, derive_seed(seed, f"gate:decomposition:k={k}"), threads=threads
        )
        med_cols.append(float(np.median(repk.per_trial_max_col)))
    col_ratios = [med_cols[i + 1] / med_cols[i] for i in range(len(med_cols) - 1)]
    record(
        _gate(
            "decomposition_col_growth", max(col_ratios), "<=", 6.0,
            detail=f"medians={['%.4g' % m for m in med_cols]} per 4x step in k",
        )
    )
    return results
