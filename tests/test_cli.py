import argparse
import gc
import json
import math
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circembed import _blas, embedders, rng, validation
from circembed.cli import build_parser, main
from circembed.io import POINTSET_KINDS, generate_pointset, load_codes, load_pointset, load_result


def run(*argv):
    return main([str(a) for a in argv])


def gen_pointset(tmp_path, name="pts.pset", kind="uniform_sphere", n=32, N=8, seed=1):
    path = tmp_path / name
    code = run("gen", "--kind", kind, "--n", n, "--N", N, "--seed", seed, "--out", path)
    assert code == 0
    return path


# ---------------------------------------------------------------- gen

def test_gen_writes_loadable_pointset(tmp_path, capsys):
    p = gen_pointset(tmp_path, n=16, N=4)
    out = capsys.readouterr().out
    assert "N=4 n=16" in out
    assert "rho_direct=" in out
    ps = load_pointset(p)
    assert ps.N == 4 and ps.n == 16


def test_gen_unknown_kind_is_usage_error(tmp_path):
    code = run("gen", "--kind", "torus", "--n", 8, "--N", 4,
               "--out", tmp_path / "x.pset")
    assert code == 2


def test_gen_kinds_are_the_io_tuple(tmp_path):
    gen = build_parser()._subparsers._group_actions[0].choices["gen"]
    assert next(a for a in gen._actions if a.dest == "kind").choices is POINTSET_KINDS
    for kind in POINTSET_KINDS:
        assert run("gen", "--kind", kind, "--n", 8, "--N", 4, "--out", tmp_path / f"{kind}.pset") == 0
    with pytest.raises(ValueError, match="unknown point-set kind") as e:
        generate_pointset("torus", 8, 4, 0)
    assert all(kind in str(e.value) for kind in POINTSET_KINDS)


def test_gen_missing_out_is_usage_error():
    assert run("gen", "--kind", "flat_signs", "--n", 8, "--N", 4) == 2


def test_gen_rejects_misapplied_param(tmp_path):
    # theta only makes sense for clustered_pairs
    code = run("gen", "--kind", "flat_signs", "--n", 8, "--N", 4,
               "--theta", 0.2, "--out", tmp_path / "x.pset")
    assert code == 2


def test_gen_over_the_cap_is_usage_error_before_any_draw(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 32 * 8 - 1)
    for kind in ("uniform_sphere", "flat_signs", "spiky", "clustered_pairs"):
        with monkeypatch.context() as m:
            # nothing may be drawn for a set over the cap
            m.setattr(rng.Stream, "normals", lambda *a: pytest.fail("drew normals"))
            m.setattr(rng.Stream, "rademacher", lambda *a: pytest.fail("drew signs"))
            assert run("gen", "--kind", kind, "--n", 32, "--N", 8, "--out", tmp_path / "x.pset") == 2
        assert "over the cap of 255" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # a set exactly at the cap is still written
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 32 * 8)
    assert run("gen", "--kind", "uniform_sphere", "--n", 32, "--N", 8, "--out", tmp_path / "x.pset") == 0


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


# ---------------------------------------------------------------- embed

def test_embed_writes_codes_and_sidecar(tmp_path):
    pts = gen_pointset(tmp_path)
    out = tmp_path / "codes.csv"
    assert run("embed", "--pointset", pts, "--kind", "randomized", "--k", 16,
               "--seed", 7, "--out", out) == 0
    codes = load_codes(out)
    assert codes.shape == (8, 16)
    sidecar = tmp_path / "codes.csv.beop"
    blob = sidecar.read_bytes()
    assert len(blob) == 30 and blob[:5] == b"BEOP1"


def test_embed_reruns_byte_identical(tmp_path):
    pts = gen_pointset(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run("embed", "--pointset", pts, "--kind", "circulant", "--k", 8,
                   "--seed", 3, "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.beop").read_bytes() == (tmp_path / "b.csv.beop").read_bytes()


@pytest.mark.parametrize("subcommand", ["embed", "eval"])
def test_embed_and_eval_refuse_threads(tmp_path, capsys, subcommand):
    # neither runs Monte Carlo trials, so neither takes the flag
    pts = gen_pointset(tmp_path, N=16)
    out = tmp_path / "out"
    argv = [subcommand, "--pointset", pts, "--kind", "gaussian", "--k", 8, "--out", out]
    capsys.readouterr()
    assert run(*argv, "--threads", 2) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.beop").exists()
    assert run(*argv) == 0


def test_embed_missing_pointset_is_io_error(tmp_path):
    assert run("embed", "--pointset", tmp_path / "nope.pset", "--kind",
               "gaussian", "--k", 4, "--out", tmp_path / "c.csv") == 3


def test_embed_corrupt_pointset_is_io_error(tmp_path):
    bad = tmp_path / "bad.pset"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run("embed", "--pointset", bad, "--kind", "gaussian", "--k", 4,
               "--out", tmp_path / "c.csv") == 3


def test_embed_oversized_k_is_usage_error(tmp_path):
    pts = gen_pointset(tmp_path, n=16)
    assert run("embed", "--pointset", pts, "--kind", "circulant", "--k", 17,
               "--out", tmp_path / "c.csv") == 2


def test_embed_scaled_duplicate_rows_collapse(tmp_path):
    # a row and its doubled copy describe the same direction; the loader
    # renormalizes (with a warning) and both rows get the same code
    x = np.array([3.0, 4.0, 0.0, 0.0]) / 5.0
    rows = np.stack([x, 2.0 * x]).astype("<f8")
    pset = tmp_path / "dup.pset"
    pset.write_bytes(b"PSET1" + struct.pack("<QQ", 4, 2) + rows.tobytes())
    out = tmp_path / "dup.csv"
    with pytest.warns(UserWarning):
        assert run("embed", "--pointset", pset, "--kind", "gaussian", "--k", 8,
                   "--seed", 1, "--out", out) == 0
    codes = load_codes(out)
    np.testing.assert_array_equal(codes[0], codes[1])


@pytest.mark.parametrize(
    "subcommand, kind, r_dist",
    [
        ("embed", "gaussian", "rademacher"),
        ("eval", "gaussian", "rademacher"),
        ("sweep", "gaussian", "rademacher"),
        ("embed", "circulant", "uniform"),
        # the sidecar format has no r_dist field
        ("embed", "circulant", "rademacher"),
        ("embed", "randomized", "rademacher"),
    ],
)
def test_r_dist_misuse_is_usage_error_and_writes_nothing(tmp_path, subcommand, kind, r_dist):
    pts = gen_pointset(tmp_path)
    out = tmp_path / "out"
    extra = {
        "embed": ("--k", 8, "--out", out),
        "eval": ("--k", 8, "--out", out),
        "sweep": ("--k-list", 8, "--delta-list", 0.1, "--trials", 2, "--csv-out", out,
                  "--json-out", tmp_path / "out.json"),
    }[subcommand]
    assert run(subcommand, "--pointset", pts, "--kind", kind, "--r-dist", r_dist, *extra) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["pts.pset"]


def test_operator_over_the_cap_is_usage_error_and_writes_nothing(tmp_path, monkeypatch):
    pts = gen_pointset(tmp_path, n=32)
    # every kind at n=32 holds at least 32 entries
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 31)
    for kind in ("gaussian", "circulant", "randomized"):
        assert run("embed", "--pointset", pts, "--kind", kind, "--k", 8,
                   "--out", tmp_path / "c.csv") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["pts.pset"]


def test_eval_operator_record_over_the_cap_is_io_error(tmp_path, monkeypatch):
    pts = gen_pointset(tmp_path, n=32)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", pts, "--kind", "gaussian", "--k", 8, "--out", codes) == 0
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 32 * 8 - 1)
    assert run("eval", "--pointset", pts, "--codes", codes, "--operator", f"{codes}.beop",
               "--out", tmp_path / "r.json") == 3
    assert not (tmp_path / "r.json").exists()


def test_eval_operator_record_for_other_inputs_is_usage_error_and_writes_nothing(tmp_path):
    pts = gen_pointset(tmp_path, n=64, N=5)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", pts, "--kind", "circulant", "--k", 16, "--out", codes) == 0
    sidecar = (tmp_path / "c.csv.beop").read_bytes()
    fields = {"n=2^22,k=2^21": (1 << 22, 1 << 21), "k=3": (64, 3), "n=32": (32, 16)}
    for name, (n, k) in fields.items():
        record = tmp_path / f"{name}.beop"
        record.write_bytes(sidecar[:6] + struct.pack("<QQ", n, k) + sidecar[22:])
        t0 = time.perf_counter()
        # the record is read, never sampled: 2^22 entries would take seconds
        assert run("eval", "--pointset", pts, "--codes", codes, "--operator", record,
                   "--out", tmp_path / "r.json") == 2
        assert time.perf_counter() - t0 < 1.0, name
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------- eval

def test_eval_roundtrip_with_codes(tmp_path):
    pts = gen_pointset(tmp_path, N=6)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", pts, "--kind", "randomized", "--k", 16,
               "--seed", 2, "--out", codes) == 0
    report = tmp_path / "report.json"
    pairs = tmp_path / "pairs.csv"
    assert run("eval", "--pointset", pts, "--codes", codes,
               "--operator", f"{codes}.beop", "--out", report, "--pairs", pairs) == 0
    doc = load_result(report)
    assert doc.kind == "eval"
    assert doc.params["operator_kind"] == "RandomizedOperator"
    assert doc.params["N"] == 6
    assert len(doc.arrays["worst_per_point"]) == 6
    assert len(pairs.read_text().splitlines()) == 1 + 15
    assert 0.0 <= doc.stats["max_distortion"] <= 1.0
    assert 0.0 <= doc.stats["point_success_fraction"] <= 1.0


def test_eval_sampling_path_prints_json(tmp_path, capsys):
    pts = gen_pointset(tmp_path, N=4)
    capsys.readouterr()  # discard gen output
    assert run("eval", "--pointset", pts, "--kind", "gaussian", "--k", 8,
               "--seed", 5) == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert payload["schema_version"] == "2"
    assert payload["params"]["kind"] == "gaussian"
    # the report file holds exactly the printed bytes
    report = tmp_path / "report.json"
    assert run("eval", "--pointset", pts, "--kind", "gaussian", "--k", 8,
               "--seed", 5, "--out", report) == 0
    assert report.read_bytes() == printed.encode()
    capsys.readouterr()
    # with the report on stdout, the --pairs status line goes to stderr
    assert run("eval", "--pointset", pts, "--kind", "gaussian", "--k", 8,
               "--seed", 5, "--pairs", tmp_path / "pairs.csv") == 0
    assert capsys.readouterr().out == printed


def test_eval_pairs_file_holds_the_exact_pair_values(tmp_path):
    pts = gen_pointset(tmp_path, N=7)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", pts, "--kind", "circulant", "--k", 16, "--out", codes) == 0
    pairs = tmp_path / "pairs.csv"
    assert run("eval", "--pointset", pts, "--codes", codes, "--out", tmp_path / "r.json",
               "--pairs", pairs) == 0
    header, *lines = pairs.read_text().splitlines()
    assert header == "i,j,hamming,angular,diff"
    rows = [line.split(",") for line in lines]
    # the float64 formulas over np.triu_indices
    P = load_pointset(pts).points
    C = load_codes(codes).astype(np.float64)
    iu = np.triu_indices(7, 1)
    ang = np.arccos(np.clip((P @ P.T)[iu], -1.0, 1.0)) / math.pi
    ham = (16 - (C @ C.T)[iu]) / 32.0
    assert [(int(r[0]), int(r[1])) for r in rows] == list(zip(iu[0].tolist(), iu[1].tolist()))
    for column, expected in ((2, ham), (3, ang), (4, np.abs(ham - ang))):
        got = np.array([float(r[column]) for r in rows])
        assert got.tobytes() == expected.tobytes()
    # the report itself carries no pair table
    assert set(load_result(tmp_path / "r.json").arrays) == {"worst_per_point"}


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "1e999"])
def test_eval_non_finite_delta_is_usage_error_and_writes_nothing(tmp_path, monkeypatch, delta):
    pts = gen_pointset(tmp_path, N=4)
    outputs = set(tmp_path.iterdir())
    monkeypatch.setattr(embedders, "sample_operator", lambda *a: pytest.fail("sampled an operator"))
    assert run("eval", "--pointset", pts, "--kind", "gaussian", "--k", 8, f"--delta={delta}",
               "--out", tmp_path / "r.json", "--pairs", tmp_path / "p.csv") == 2
    assert set(tmp_path.iterdir()) == outputs


def test_eval_without_codes_or_kind_is_usage_error(tmp_path):
    pts = gen_pointset(tmp_path)
    assert run("eval", "--pointset", pts) == 2


def test_eval_mismatched_codes_is_usage_error(tmp_path):
    pts = gen_pointset(tmp_path, N=8)
    other = gen_pointset(tmp_path, name="other.pset", N=5)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", other, "--kind", "gaussian", "--k", 4,
               "--out", codes) == 0
    assert run("eval", "--pointset", pts, "--codes", codes) == 2


def test_eval_codes_not_utf8_is_io_error(tmp_path, capsys):
    pts = gen_pointset(tmp_path, N=2)
    codes = tmp_path / "c.csv"
    codes.write_bytes(b"+1,-1\n+1,\xff1\n")
    assert run("eval", "--pointset", pts, "--codes", codes, "--out", tmp_path / "r.json") == 3
    assert "UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_all_pairs_over_the_cap_is_usage_error_before_any_allocation(tmp_path, monkeypatch, capsys):
    pts = gen_pointset(tmp_path, n=8, N=16)
    codes = tmp_path / "c.csv"
    assert run("embed", "--pointset", pts, "--kind", "gaussian", "--k", 8, "--out", codes) == 0
    outputs = set(tmp_path.iterdir())
    commands = [
        ("eval", "--pointset", pts, "--codes", codes, "--out", tmp_path / "r.json",
         "--pairs", tmp_path / "p.csv"),
        ("eval", "--pointset", pts, "--kind", "circulant", "--k", 8, "--out", tmp_path / "r.json",
         "--pairs", tmp_path / "p.csv"),
        ("sweep", "--pointset", pts, "--kind", "gaussian", "--k-list", 8, "--delta-list", 0.1,
         "--trials", 2, "--csv-out", tmp_path / "s.csv", "--json-out", tmp_path / "s.json"),
    ]
    # the operators fit under the cap; only the 16 x 16 Gram matrix does not
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 16 * 16 - 1)
    for argv in commands:
        with monkeypatch.context() as m:
            m.setattr(np, "tri", lambda *a, **kw: pytest.fail("built the pair mask"))
            assert run(*argv) == 2
        assert "over the cap of 255" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == outputs
    # a set exactly at the cap still evaluates
    monkeypatch.setattr(embedders, "_MAX_ENTRIES", 16 * 16)
    for argv in commands:
        assert run(*argv) == 0
    assert len(load_result(tmp_path / "r.json").arrays["worst_per_point"]) == 16
    assert len((tmp_path / "p.csv").read_text().splitlines()) == 1 + 16 * 15 // 2


# ---------------------------------------------------------------- sweep

def test_sweep_csv_layout_and_determinism(tmp_path):
    pts = gen_pointset(tmp_path, N=6)
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    summary = tmp_path / "s.json"
    for csv in (csv_a, csv_b):
        assert run("sweep", "--pointset", pts, "--kind", "circulant",
                   "--k-list", "8,16", "--delta-list", "0.1,0.2",
                   "--trials", 3, "--seed", 9, "--csv-out", csv,
                   "--json-out", summary) == 0
    text = csv_a.read_text().splitlines()
    assert text[0] == "kind,n,N,k,delta,trial,max_distortion,mean_distortion"
    assert len(text) == 1 + 4 * 3  # 4 cells x 3 trials
    row = text[1].split(",")
    assert row[0] == "circulant" and int(row[3]) == 8
    float(row[6]), float(row[7])  # parse check
    assert csv_a.read_bytes() == csv_b.read_bytes()
    doc = load_result(summary)
    assert doc.kind == "sweep"
    assert len(doc.arrays["cells"]) == 4


@pytest.mark.parametrize("deltas", ["inf,nan", "0.1,nan", "-inf", "0.1,1e400"])
def test_sweep_non_finite_delta_is_usage_error_and_writes_nothing(tmp_path, monkeypatch, deltas):
    pts = gen_pointset(tmp_path, N=4)
    outputs = set(tmp_path.iterdir())
    monkeypatch.setattr(embedders, "sample_operator", lambda *a: pytest.fail("sampled an operator"))
    assert run("sweep", "--pointset", pts, "--kind", "gaussian", "--k-list", 8, f"--delta-list={deltas}",
               "--trials", 2, "--csv-out", tmp_path / "s.csv", "--json-out", tmp_path / "s.json") == 2
    assert set(tmp_path.iterdir()) == outputs


def test_sweep_over_the_row_cap_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys):
    pts = gen_pointset(tmp_path, N=4)
    outputs = set(tmp_path.iterdir())
    monkeypatch.setattr(validation, "_angular_pairs", lambda *a: pytest.fail("computed the angles"))
    monkeypatch.setattr(validation, "derive_seed", lambda *a: pytest.fail("derived a seed"))
    cap = embedders._MAX_ENTRIES // validation._SWEEP_ROW_ENTRIES
    # one row over the cap through the trials, just over it through the
    # cells, and far over it; no grid at the cap is run
    for trials, k_list, deltas in ((cap + 1, "8", "0.1"), (cap // 6 + 1, "8,16", "0.1,0.2,0.3"),
                                   (10**12, "8", "0.1")):
        assert run("sweep", "--pointset", pts, "--kind", "gaussian", "--k-list", k_list, "--delta-list", deltas,
                   "--trials", trials, "--csv-out", tmp_path / "s.csv", "--json-out", tmp_path / "s.json") == 2
        assert f"over the cap of {cap}" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == outputs


def test_sweep_bad_k_list_is_usage_error(tmp_path):
    pts = gen_pointset(tmp_path)
    assert run("sweep", "--pointset", pts, "--kind", "gaussian",
               "--k-list", "8,banana", "--delta-list", "0.1",
               "--csv-out", tmp_path / "x.csv") == 2


# ---------------------------------------------------------------- validate

def test_validate_quick_passes(tmp_path, capsys):
    out = tmp_path / "gates.json"
    code = run("validate", "--quick", "--threads", 4, "--json-out", out)
    stdout = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in stdout.splitlines() if ln.startswith("GATE ")]
    assert len(lines) == 7
    assert all(" PASS" in ln for ln in lines)
    assert "all gates passed" in stdout
    doc = load_result(out)
    assert doc.stats["all_pass"] is True
    assert len(doc.arrays["gates"]) == 7


def test_validate_times_gates_on_stderr_only(tmp_path, capsys):
    runs = []
    for name in ("a.json", "b.json"):
        assert run("validate", "--quick", "--json-out", tmp_path / name) == 0
        captured = capsys.readouterr()
        runs.append((captured, (tmp_path / name).read_bytes()))
    for captured, _ in runs:
        stdout = captured.out.splitlines()
        assert [ln.split(" ")[0] for ln in stdout] == ["GATE"] * 7 + ["wrote", "all"]
        assert stdout[-1] == "all gates passed"
        names = [ln.split(":")[0][len("GATE "):] for ln in stdout[:7]]
        timings = captured.err.splitlines()
        assert [ln.split(":")[0] for ln in timings] == [f"time {name}" for name in names]
        assert all(float(ln.split(": ")[1].removesuffix(" s")) >= 0.0 for ln in timings)
    assert runs[0][1] == runs[1][1]


# ---------------------------------------------------------------- info

def test_info_prints_numpy_blas_and_fwht(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("info") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"numpy: {np.__version__}"
    assert [ln.split(":")[0] for ln in lines] == [
        "numpy", "blas", "blas threads", "one-thread pin", "fwht", "lapack", "worker threads"]
    count = _blas.thread_count()
    assert lines[2] == f"blas threads: {'unknown' if count is None else count}"
    assert lines[3].startswith("one-thread pin: available" if _blas.pin_available() else "one-thread pin: unavailable")
    assert lines[4] == "fwht: numpy (BLAS matmul)"
    assert lines[5].startswith("lapack: ctypes into the bundled OpenBLAS" if _blas.pin_available()
                               else "lapack: numpy.linalg")
    assert lines[6] == (f"worker threads: {os.cpu_count() or 1} (Monte Carlo trials, draws of more than 65536 values "
                        "and the transforms of rows of at least 262144 entries; the values do not depend on this, "
                        "for the transforms on the BLAS builds tested)")
    assert list(tmp_path.iterdir()) == []  # writes no file


def test_info_without_the_pin_says_so(capsys, monkeypatch):
    monkeypatch.setattr(_blas, "_functions", lambda: None)
    assert run("info") == 0
    out = capsys.readouterr().out
    assert "blas threads: unknown\n" in out
    assert "one-thread pin: unavailable" in out
    assert "lapack: numpy.linalg (holds the GIL on small matrices, so eigvalsh, qr and SVD trials run one at a time)\n" in out


def test_info_takes_no_flags():
    assert run("info", "--seed", 1) == 2


def test_main_reuses_one_parser(capsys):
    assert run("info") == 0
    gc.collect()
    gc.garbage.clear()
    debug = gc.get_debug()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert run("info") == 0
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.enable()
    assert parsers == []


# ---------------------------------------------------------------- outside input

_u64 = st.integers(0, 2**64 - 1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A point set (n=8, N=4) and codes of length 8 with their sidecar."""
    d = tmp_path_factory.mktemp("fuzz")
    gen_pointset(d, n=8, N=4)
    assert run("embed", "--pointset", d / "pts.pset", "--kind", "circulant", "--k", 8,
               "--out", d / "c.csv") == 0
    return d


# records of any length, and well-formed ones with any kind byte, n, k and seed;
# a record is read without drawing, so any n and k is safe
_records = st.one_of(
    st.binary(max_size=29),
    st.binary(min_size=30, max_size=30),
    st.binary(min_size=31, max_size=64),
    st.builds(lambda kind, n, k, seed: b"BEOP1" + bytes([kind]) + struct.pack("<QQQ", n, k, seed),
              st.integers(0, 255), st.one_of(st.integers(0, 16), _u64), st.one_of(st.integers(0, 16), _u64), _u64),
)


@given(_records)
@example(b"BEOP1\x01" + struct.pack("<QQQ", 8, 8, 3))
@settings(max_examples=150, deadline=None)
def test_eval_takes_any_operator_record_to_a_documented_exit(fuzz_dir, record):
    path = fuzz_dir / "op.beop"
    path.write_bytes(record)
    assert run("eval", "--pointset", fuzz_dir / "pts.pset", "--codes", fuzz_dir / "c.csv",
               "--operator", path, "--out", fuzz_dir / "r.json") in {0, 2, 3}


# PSET1 headers declaring any n and N, over bodies of at most 64 bytes;
# load_pointset checks the file size before it allocates
_pset_files = st.one_of(
    st.binary(max_size=21),
    st.builds(lambda n, N, body: b"PSET1" + struct.pack("<QQ", n, N) + body,
              st.one_of(st.integers(0, 8), _u64), st.one_of(st.integers(0, 8), _u64), st.binary(max_size=64)),
)


@given(_pset_files)
@example(b"PSET1" + struct.pack("<QQ", 2, 1) + struct.pack("<2d", 0.6, 0.8))
@settings(max_examples=150, deadline=None)
def test_eval_takes_any_pset_header_to_a_documented_exit(fuzz_dir, data):
    path = fuzz_dir / "fuzz.pset"
    path.write_bytes(data)
    assert run("eval", "--pointset", path, "--kind", "gaussian", "--k", 1,
               "--out", fuzz_dir / "r.json") in {0, 2, 3}


# ---------------------------------------------------------------- entry point

def test_console_script_entry_point(tmp_path):
    out = tmp_path / "pts.pset"
    proc = subprocess.run(
        [sys.executable, "-m", "circembed.cli", "gen", "--kind", "flat_signs",
         "--n", "16", "--N", "4", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "N=4 n=16" in proc.stdout
