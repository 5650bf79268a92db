"""Reports do not depend on the BLAS thread count, and pinning it leaves no trace.

OpenBLAS splits the sums of a product by its thread count, so unpinned
angles, Gram matrices and eigenvalues can differ in the last bits between
one and two threads; reports are computed with BLAS on one thread instead.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import circembed
from circembed import _blas, embedders, validation
from circembed.embedders import embed, sample_operator
from circembed.io import generate_pointset
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
    get, set_ = _blas._functions()
    before = get()
    set_(2)
    try:
        yield
    finally:
        set_(before)


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
