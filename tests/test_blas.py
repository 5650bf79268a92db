"""Reports do not depend on the BLAS thread count, and pinning it leaves no trace.

OpenBLAS splits the sums of a product by its thread count, so unpinned
angles, Gram matrices and eigenvalues can differ in the last bits between
one and two threads; reports are computed with BLAS on one thread instead.
The LAPACK calls of the Monte Carlo trials go through ctypes: they must give
numpy.linalg's bytes and let other threads run while they work.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import circembed
from circembed import _blas, embedders, validation
from circembed.embedders import embed, sample_operator
from circembed.io import generate_pointset, save_pointset
from circembed.rng import Rng
from circembed.transforms import _shift_rows
from circembed.validation import (
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    evaluate_codes,
    hadamard_coherence_experiment,
    run_gate_suite,
)

needs_pin = pytest.mark.skipif(not _blas.pin_available(), reason="the bundled OpenBLAS thread count cannot be set")

# run in one interpreter, so the BLAS thread count is fixed by the environment
CHAIN = [
    ["gen", "--kind", "uniform_sphere", "--n", "1024", "--N", "300", "--seed", "1", "--out", "pts.pset"],
    ["eval", "--pointset", "pts.pset", "--kind", "randomized", "--k", "256", "--seed", "7", "--out", "eval.json"],
    ["validate", "--quick", "--json-out", "gates.json"],
]
RUN_CHAIN = """
import json, sys
from circembed.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_reports_are_byte_identical_across_blas_thread_counts(tmp_path):
    src = str(Path(circembed.__file__).resolve().parents[1])
    outputs = []
    for count in ("1", "2"):
        d = tmp_path / f"blas{count}"
        d.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", RUN_CHAIN, json.dumps(CHAIN)], cwd=d, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append({name: (d / name).read_bytes() for name in ("pts.pset", "eval.json", "gates.json")})
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} depends on the BLAS thread count"


@pytest.fixture
def two_blas_threads():
    """Set the BLAS thread count to 2 for the test, then put back the old count."""
    lib = _blas._functions()
    before = lib.get()
    lib.set(2)
    try:
        yield
    finally:
        lib.set(before)


def _tiny_points():
    return generate_pointset("uniform_sphere", 32, 6, 1)


# each public entry point on tiny inputs, run as run(trials)
ENTRY_POINTS = {
    "distortion_experiment": lambda trials: distortion_experiment(_tiny_points(), "randomized", 16, trials, 2),
    "conditioning_experiment": lambda trials: conditioning_experiment([0.6, 0.8], [1.0, 0.0], 1, trials, 3),
    "hadamard_coherence_experiment": lambda trials: hadamard_coherence_experiment(_tiny_points(), trials, 4),
    "decomposition_experiment": lambda trials: decomposition_experiment([0.6, 0.8], [1.0, 0.0], 1, 0.15, trials, 5),
}


@needs_pin
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_experiments_run_on_one_blas_thread_and_restore_it(name, two_blas_threads, monkeypatch):
    seen = []
    run_trials = validation._run_trials

    def spy(*args):
        seen.append(_blas.thread_count())
        return run_trials(*args)

    monkeypatch.setattr(validation, "_run_trials", spy)
    ENTRY_POINTS[name](3)
    assert seen == [1]
    assert _blas.thread_count() == 2
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ENTRY_POINTS[name](0)
    assert seen == [1, 1]
    assert _blas.thread_count() == 2


@needs_pin
def test_evaluate_codes_runs_on_one_blas_thread_and_restores_it(two_blas_threads, monkeypatch):
    seen = []
    hamming_pairs = validation._hamming_pairs

    def spy(*args):
        seen.append(_blas.thread_count())
        return hamming_pairs(*args)

    monkeypatch.setattr(validation, "_hamming_pairs", spy)
    ps = _tiny_points()
    codes = np.where(ps.points > 0, 1, -1).astype(np.int8)
    evaluate_codes(ps, codes)
    assert seen == [1]
    assert _blas.thread_count() == 2
    with pytest.raises(ValueError, match="N x k"):
        evaluate_codes(ps, codes[:2])
    assert _blas.thread_count() == 2


@needs_pin
def test_eval_pairs_table_is_the_same_at_any_blas_thread_count_and_matches_the_report(tmp_path):
    from circembed.cli import main

    lib = _blas._functions()
    before = lib.get()
    # a size at which the Gram of two BLAS threads differs in its last bits
    ps = generate_pointset("uniform_sphere", 64, 300, 3)
    save_pointset(ps, tmp_path / "pts.pset")
    written = []
    try:
        for count in (1, 2):
            lib.set(count)
            d = tmp_path / f"blas{count}"
            d.mkdir()
            assert main(["eval", "--pointset", str(tmp_path / "pts.pset"), "--kind", "randomized", "--k", "64",
                         "--out", str(d / "eval.json"), "--pairs", str(d / "pairs.csv")]) == 0
            assert lib.get() == count
            written.append({name: (d / name).read_bytes() for name in ("eval.json", "pairs.csv")})
    finally:
        lib.set(before)
    assert written[0] == written[1]
    diff = np.array([float(line.rsplit(",", 1)[1]) for line in written[0]["pairs.csv"].decode().splitlines()[1:]])
    stats = json.loads(written[0]["eval.json"])["stats"]
    assert (float(diff.max()), float(diff.mean())) == (stats["max_distortion"], stats["mean_distortion"])


class _Stop(Exception):
    pass


@needs_pin
@pytest.mark.parametrize("kind", ["circulant", "randomized"])
def test_fanned_embed_runs_on_one_blas_thread_and_restores_it(kind, two_blas_threads, monkeypatch):
    op = sample_operator(kind, embedders._FAN_MIN, 16, 3)
    embed(op, np.ones(op.n_in))
    assert _blas.thread_count() == 2
    seen = []

    def spy(*args):
        seen.append(_blas.thread_count())
        raise _Stop

    monkeypatch.setattr(embedders, "_correlate", spy)
    with pytest.raises(_Stop):
        embed(op, np.ones(op.n_in))
    assert seen == [1]
    assert _blas.thread_count() == 2


@needs_pin
def test_nested_calls_keep_one_blas_thread_until_the_outermost_returns(two_blas_threads, monkeypatch):
    # run_gate_suite -> distortion_experiment: the inner call's exit must not
    # put back the count while the suite is still running
    seen = []
    inner = validation.distortion_experiment

    def spy(*args, **kwargs):
        seen.append(_blas.thread_count())
        inner(_tiny_points(), "gaussian", 8, 2, 0)
        seen.append(_blas.thread_count())
        raise _Stop

    monkeypatch.setattr(validation, "distortion_experiment", spy)
    with pytest.raises(_Stop):
        run_gate_suite(seed=0, quick=True)
    assert seen == [1, 1]
    assert _blas.thread_count() == 2


@needs_pin
def test_concurrent_pins_restore_the_count_once(two_blas_threads):
    errors = []

    def worker():
        for _ in range(200):
            with _blas.one_thread():
                with _blas.one_thread():
                    count = _blas.thread_count()
                if count != 1:
                    errors.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _blas.thread_count() == 2


# ------------------------------------------------ LAPACK without the GIL

def _shift_pair(n, k, seed):
    """The modulated shift rows X and Y of one conditioning or decomposition draw on the flat pair."""
    x = np.ones(n) / np.sqrt(n)
    y = np.tile([1.0, -1.0], n // 2) / np.sqrt(n)
    st = Rng(seed)
    r = st.stream("r").normals(n)
    S = st.stream("S").index_subset(n, k)
    return _shift_rows(r * x, S), _shift_rows(r * y, S)


def _conditioning_matrix(n, k, seed):
    X, Y = _shift_pair(n, k, seed)
    cols = np.concatenate([X, Y])
    return cols @ cols.T - validation._i_theta(k, 0.5)


def _interleaved_T(n, k, seed):
    X, Y = _shift_pair(n, k, seed)
    C = np.empty((2 * k, n))
    C[0::2], C[1::2] = X, Y
    return C.T


def _rank_deficient_U():
    U = np.triu(np.random.default_rng(5).standard_normal((16, 16)), 1)
    U[:, 8:] = U[:, :8]  # two copies of the same eight columns
    U[3] = 0.0
    return U


SYMMETRIC = {
    "k=8": lambda: _conditioning_matrix(256, 8, 1),
    "k=32": lambda: _conditioning_matrix(256, 32, 2),
    "k=128": lambda: _conditioning_matrix(256, 128, 3),
    "k=300": lambda: _conditioning_matrix(512, 300, 4),
    "1x1": lambda: np.array([[-0.75]]),
    "2x2": lambda: np.array([[2.0, -1.0], [-1.0, 0.5]]),
    "rank-deficient": lambda: _rank_deficient_U().T @ _rank_deficient_U(),
}
GENERAL = {
    "qr k=8": lambda: _interleaved_T(256, 8, 5),
    "qr k=32": lambda: _interleaved_T(256, 32, 6),
    "qr k=128": lambda: _interleaved_T(256, 128, 7),
    "U k=128": lambda: np.triu(np.linalg.qr(_interleaved_T(256, 128, 7), mode="r"), 1),
    "loop P_cols 16x256": lambda: np.random.default_rng(8).standard_normal((16, 256)),
    "1x1": lambda: np.array([[3.0]]),
    "2x2": lambda: np.array([[1.0, 2.0], [3.0, 4.0]]),
    "rank-deficient U": _rank_deficient_U,
    "wide 3x7": lambda: np.random.default_rng(9).standard_normal((3, 7)),
}


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_eigvalsh_has_numpys_bits(name):
    a = SYMMETRIC[name]()
    with _blas.one_thread():
        _same_bytes(_blas.eigvalsh(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_qr_r_and_norm2_have_numpys_bits(name):
    a = GENERAL[name]()
    with _blas.one_thread():
        r, want = _blas.qr_r(a), np.linalg.qr(a, mode="r")
        _same_bytes(r, want)
        # later reductions over R may depend on its layout
        assert (r.flags.c_contiguous, r.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)
        got2 = _blas.norm2(a)
        assert type(got2) is float and got2 == float(np.linalg.norm(a, 2))


def test_lapack_wrappers_leave_the_input_alone():
    a = SYMMETRIC["k=8"]()
    before = a.copy()
    _blas.eigvalsh(a), _blas.qr_r(a), _blas.norm2(a)
    assert a.tobytes() == before.tobytes()


def test_lapack_wrappers_raise_where_numpy_does():
    bad = np.full((4, 4), np.nan)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        _blas.eigvalsh(bad)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _blas.norm2(bad)
    _same_bytes(_blas.qr_r(bad), np.linalg.qr(bad, mode="r"))
    with pytest.raises(np.linalg.LinAlgError, match="square"):
        _blas.eigvalsh(np.ones((3, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        _blas.norm2(np.ones(3))


def test_lapack_wrappers_fall_back_to_numpy_linalg(monkeypatch):
    sym, gen = SYMMETRIC["k=32"](), GENERAL["qr k=32"]()
    with _blas.one_thread():
        want = (_blas.eigvalsh(sym), _blas.qr_r(gen), _blas.norm2(gen))
    # with no library the wrappers cannot reach LAPACK, so these are numpy's calls
    monkeypatch.setattr(_blas, "_functions", lambda: None)
    assert not _blas.pin_available()
    _same_bytes(_blas.eigvalsh(sym), want[0])
    _same_bytes(_blas.qr_r(gen), want[1])
    assert _blas.norm2(gen) == want[2]


def _loop_rate(busy, seconds):
    """Iterations per second of a loop that lets the GIL go on every pass, run while busy() holds."""
    count, t0 = 0, time.perf_counter()
    while busy() and time.perf_counter() - t0 < seconds:
        time.sleep(0)
        count += 1
    return count / (time.perf_counter() - t0)


@needs_pin
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core")
@pytest.mark.parametrize("n, k", [(256, 128), (512, 300)], ids=["256x256", "600x600"])
def test_eigvalsh_releases_the_gil(n, k):
    a = _conditioning_matrix(n, k, 4)
    _blas.eigvalsh(a)  # load the library outside the timed region
    shares = []
    for _ in range(3):
        done = threading.Event()

        def solve():
            for _ in range(4):
                _blas.eigvalsh(a)
            done.set()

        free = _loop_rate(lambda: True, 0.02)
        worker = threading.Thread(target=solve)
        worker.start()
        shares.append(_loop_rate(lambda: not done.is_set(), 30.0) / free)
        worker.join()
    # a call that holds the GIL stops this loop until it returns, so the
    # loop runs only between calls: on 2 vCPUs, at 1.5% of its free rate
    # beside numpy's own eigvalsh at 256 x 256, and at 5% with dsyevd loaded
    # through ctypes.PyDLL, which keeps the GIL; this wrapper reads 0.9-1.0
    assert max(shares) > 0.25, shares
