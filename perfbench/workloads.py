"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returned. A workload builds its inputs from the
workload seed in ``setup``, runs ``run_pass`` as often as the run allows,
and checks the outputs of its last pass in ``check``. Each pass returns the
sha256 of its outputs; the runner compares them across passes. Every call into
circembed goes through a module attribute (``circembed.embed``,
``cli.main``), so the tracer's wrappers see it.

Why each workload exists:

* ``corpus``: the user pipeline, gen -> embed (three kinds) -> eval ->
  sweep through the CLI, with single-vector queries between the calls. It
  covers both the write side (codes CSV and sidecar) and the read side
  (load_codes, pairwise scoring, JSON report), so a code-format change that
  helps one side and costs the other shows up. Pairwise scoring, report
  I/O, coherence and per-row Python overhead do the work; the FWHT runs
  only at n=1024.
* ``wide``: the paper's headline regime, one vector per call at n=2^20
  through the library. fwht, rfft and the samplers do nearly all the work,
  with no pairwise scoring, I/O or batching: an FWHT-kernel change must
  show here, and a batched-path or eval change must leave it unchanged.
* ``montecarlo``: ``circembed validate --quick``, the researcher's time to
  a verdict. Per-row fwht in the Hadamard modulation experiment dominates;
  Gram-Schmidt and eigvalsh run in no other workload, and the trial
  thread pool runs here, so a fan-out fix shows up only here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

import circembed
from circembed import cli

KINDS = ("gaussian", "circulant", "randomized")
_KNIFE = 1e-9  # projections this close to 0 may round either way


def sub_seed(seed: int, tag: str) -> int:
    """A nonnegative 32-bit seed derived from the workload seed and a tag."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "little")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_array(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def fail(self, count: int, what: str) -> None:
        """Mark ``count`` already attempted operations as failed."""
        if count:
            self.failed += count
            self.errors.append(what)


def run_cli(argv, ledger: Ledger) -> float:
    """Run one circembed subcommand in-process; return its wall time."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        dt = time.perf_counter() - t0
    ledger.op(code == 0, f"circembed {argv[0]} exited {code}: {err.getvalue().strip()}")
    return dt


@contextlib.contextmanager
def inside(directory: Path):
    """Run with ``directory`` as working directory, so CLI paths stay relative."""
    back = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(back)


def read_pset(path) -> np.ndarray:
    """Parse a PSET1 file without circembed: 21-byte header, then doubles."""
    data = Path(path).read_bytes()
    n, N = np.frombuffer(data, dtype="<u8", count=2, offset=5)
    return np.frombuffer(data, dtype="<f8", offset=21).reshape(int(N), int(n))


def read_codes(path) -> np.ndarray:
    """Parse a codes CSV without circembed."""
    return np.loadtxt(path, delimiter=",", dtype=np.int8, ndmin=2)


def unit_pair(rng, n: int, theta: float):
    """Two unit vectors at normalized angle ``theta``."""
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    g = rng.standard_normal(n)
    g -= (g @ x) * x
    g /= np.linalg.norm(g)
    return x, math.cos(theta * math.pi) * x + math.sin(theta * math.pi) * g


def angle(x, y) -> float:
    return math.acos(max(-1.0, min(1.0, float(x @ y)))) / math.pi


def hamming(a, b) -> float:
    return float(np.count_nonzero(a != b)) / a.size


class Corpus:
    name = "corpus"
    op_name = "query"
    SIZES = {"n": 1000, "N": 1000, "k": 256, "k_list": "64,256", "trials": 4, "queries": 2000, "sampled_rows": 32}

    def __init__(self, seed: int, workdir: Path, sizes=None):
        self.seed = seed
        self.dir = Path(workdir)
        self.sz = dict(sizes or self.SIZES)

    def setup(self, ledger: Ledger):
        sz = self.sz
        # warm every code path of the chain on a tiny point set
        warm = self.dir / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        with inside(warm):
            self._chain(ledger, n=32, N=8, k=16, k_list="8,16", trials=2)
        # the queries are the points gen writes, embedded by the operator embed writes
        self.points = circembed.generate_pointset("uniform_sphere", sz["n"], sz["N"], sub_seed(self.seed, "gen")).points
        self.op = circembed.sample_randomized_operator(sz["n"], sz["k"], sub_seed(self.seed, "op:randomized"))

    def _chain(self, ledger, n, N, k, k_list, trials, after_each=lambda: None):
        s = self.seed
        t = {"gen": run_cli(["gen", "--kind", "uniform_sphere", "--n", str(n), "--N", str(N),
                             "--seed", str(sub_seed(s, "gen")), "--out", "pts.pset"], ledger)}
        after_each()
        for kind in KINDS:
            t[f"embed_{kind}"] = run_cli(["embed", "--pointset", "pts.pset", "--kind", kind, "--k", str(k),
                                          "--seed", str(sub_seed(s, f"op:{kind}")),
                                          "--out", f"codes_{kind}.csv"], ledger)
            after_each()
        t["eval"] = run_cli(["eval", "--pointset", "pts.pset", "--codes", "codes_randomized.csv",
                             "--operator", "codes_randomized.csv.beop", "--out", "eval.json"], ledger)
        after_each()
        t["sweep"] = run_cli(["sweep", "--pointset", "pts.pset", "--kind", "circulant", "--k-list", k_list,
                              "--delta-list", "0.15", "--trials", str(trials), "--seed", str(sub_seed(s, "sweep")),
                              "--csv-out", "sweep.csv", "--json-out", "sweep.json"], ledger)
        after_each()
        return t

    def outputs(self):
        names = ["pts.pset", "eval.json", "sweep.csv", "sweep.json"]
        for kind in KINDS:
            names += [f"codes_{kind}.csv", f"codes_{kind}.csv.beop"]
        return sorted(names)

    def run_pass(self, ledger: Ledger) -> dict:
        sz = self.sz
        total = sz["queries"]
        lat = np.empty(total)
        codes = np.empty((total, sz["k"]), dtype=np.int8)
        done = 0
        clock = time.perf_counter

        def queries():
            # one sixth of the queries after each CLI call, so that they sample
            # the whole pass rather than one moment of it
            nonlocal done
            stop = min(total, done + -(-total // 6))
            for q in range(done, stop):
                x = self.points[q % sz["N"]]
                t0 = clock()
                codes[q] = circembed.embed(self.op, x)
                lat[q] = clock() - t0
            ledger.attempted += stop - done
            done = stop

        with inside(self.dir):
            t = self._chain(ledger, sz["n"], sz["N"], sz["k"], sz["k_list"], sz["trials"], after_each=queries)
            digests = {name: sha256_file(name) for name in self.outputs()}
        self.query_codes = codes
        digests["queries"] = sha256_array(codes)
        return {"stages": t, "ops": lat, "digests": digests, "busy": sum(t.values()) + float(lat.sum())}

    def check(self, ledger: Ledger):
        sz = self.sz
        rng = np.random.default_rng(sub_seed(self.seed, "check"))
        P = read_pset(self.dir / "pts.pset")
        rows = rng.choice(P.shape[0], size=min(sz["sampled_rows"], P.shape[0]), replace=False)
        for kind in KINDS:
            codes = read_codes(self.dir / f"codes_{kind}.csv")
            op = circembed.deserialize_operator((self.dir / f"codes_{kind}.csv.beop").read_bytes())
            proj = P[rows] @ circembed.materialize_operator(op).T
            keep = np.abs(proj) > _KNIFE
            bad = int(np.count_nonzero(np.where(proj >= 0, 1, -1)[keep] != codes[rows][keep]))
            ledger.op(bad == 0 and codes.shape == (P.shape[0], sz["k"]),
                      f"{kind}: {bad} code signs disagree with the dense operator")
        codes = read_codes(self.dir / "codes_randomized.csv")
        wrong = int(np.count_nonzero((self.query_codes != codes[np.arange(sz["queries"]) % P.shape[0]]).any(axis=1)))
        ledger.fail(wrong, f"{wrong} single-vector query codes differ from the CLI codes")
        # all-pairs distortion, recomputed with a different Hamming formula
        iu = np.triu_indices(P.shape[0], 1)
        ang = np.arccos(np.clip(P @ P.T, -1.0, 1.0))[iu] / math.pi
        B = (codes > 0).astype(np.float64)
        ham = (B @ (1.0 - B).T + (1.0 - B) @ B.T)[iu] / codes.shape[1]
        diff = np.abs(ham - ang)
        stats = json.loads((self.dir / "eval.json").read_text())["stats"]
        ok = (abs(stats["max_distortion"] - float(diff.max())) <= 1e-12
              and abs(stats["mean_distortion"] - float(diff.mean())) <= 1e-12)
        ledger.op(ok, f"eval.json stats {stats} disagree with recomputed max {diff.max()} mean {diff.mean()}")

    def stage_metrics(self, passes):
        def med(key):
            return float(np.median([p["stages"][key] for p in passes]))

        sz = self.sz
        ops = np.concatenate([p["ops"] for p in passes])
        out = {"gen_s": (med("gen"), "s")}
        for kind in KINDS:
            out[f"embed_{kind}_pts_per_s"] = (sz["N"] / med(f"embed_{kind}"), "pts/s")
        out["eval_pairs_per_s"] = (sz["N"] * (sz["N"] - 1) / 2 / med("eval"), "pairs/s")
        out["sweep_s"] = (med("sweep"), "s")
        out["query_p50_us"] = (float(np.percentile(ops, 50)) * 1e6, "us")
        out["query_p90_us"] = (float(np.percentile(ops, 90)) * 1e6, "us")
        return out


class Wide:
    name = "wide"
    op_name = "randomized embed"
    SIZES = {"n_rand": 1_000_000, "n_circ": 1 << 20, "k": 256, "vectors": 4, "repeats": 2, "circ_calls": 4,
             "loads": 2}

    def __init__(self, seed: int, workdir: Path, sizes=None):
        self.seed = seed
        self.sz = dict(sizes or self.SIZES)

    def setup(self, ledger: Ledger):
        sz = self.sz
        rng = np.random.default_rng(sub_seed(self.seed, "inputs"))
        # pairs at two angles, so the Hamming check sees more than orthogonal vectors
        self.xs = [v for i in range(sz["vectors"] // 2) for v in unit_pair(rng, sz["n_rand"], 0.1 + 0.2 * i)]
        self.zs = [v for i in range(sz["vectors"] // 2) for v in unit_pair(rng, sz["n_circ"], 0.1 + 0.2 * i)]
        self.rand = circembed.sample_randomized_operator(sz["n_rand"], sz["k"], sub_seed(self.seed, "op:randomized"))
        self.record = circembed.serialize_operator(self.rand)
        self.circ = circembed.sample_circulant_operator(sz["n_circ"], sz["k"], sub_seed(self.seed, "op:circulant"))
        circembed.embed(self.rand, self.xs[0])
        circembed.embed(self.circ, self.zs[0])

    def run_pass(self, ledger: Ledger) -> dict:
        sz = self.sz
        clock = time.perf_counter
        rand_lat, rand_codes = [], []
        for _ in range(sz["repeats"]):
            for x in self.xs:
                t0 = clock()
                rand_codes.append(circembed.embed(self.rand, x))
                rand_lat.append(clock() - t0)
        circ_lat, circ_codes = [], []
        for i in range(sz["circ_calls"]):
            z = self.zs[i % len(self.zs)]
            t0 = clock()
            circ_codes.append(circembed.embed(self.circ, z))
            circ_lat.append(clock() - t0)
        load_lat = []
        for _ in range(sz["loads"]):
            t0 = clock()
            loaded = circembed.deserialize_operator(self.record)
            load_lat.append(clock() - t0)
        ledger.attempted += len(rand_lat) + len(circ_lat) + len(load_lat)
        self.loaded = loaded
        self.rand_codes = rand_codes[: len(self.xs)]
        self.circ_codes = circ_codes[: len(self.zs)]
        for i, c in enumerate(rand_codes):
            ledger.op(np.array_equal(c, self.rand_codes[i % len(self.xs)]), f"randomized code of x{i} changed")
        for i, c in enumerate(circ_codes):
            ledger.op(np.array_equal(c, self.circ_codes[i % len(self.zs)]), f"circulant code of z{i} changed")
        digest = sha256_array(np.stack(self.rand_codes + self.circ_codes))
        return {"stages": {"randomized": rand_lat, "circulant": circ_lat, "load": load_lat},
                "ops": np.array(rand_lat), "digests": {"codes": digest},
                "busy": sum(rand_lat) + sum(circ_lat) + sum(load_lat)}

    def check(self, ledger: Ledger):
        for vecs, codes, kind in ((self.xs, self.rand_codes, "randomized"), (self.zs, self.circ_codes, "circulant")):
            for i in range(len(vecs)):
                for j in range(i + 1, len(vecs)):
                    gap = abs(hamming(codes[i], codes[j]) - angle(vecs[i], vecs[j]))
                    ledger.op(gap <= 0.15, f"{kind} pair ({i}, {j}): |hamming - angle| = {gap:.3f} > 0.15")
        ledger.op(np.array_equal(circembed.embed(self.loaded, self.xs[0]), self.rand_codes[0]),
                  "the reloaded randomized operator embeds differently")

    def stage_metrics(self, passes):
        def pooled(key):
            return np.concatenate([p["stages"][key] for p in passes])

        rand = pooled("randomized") * 1e3
        return {
            "wide_randomized_p50_ms": (float(np.percentile(rand, 50)), "ms"),
            "wide_randomized_p90_ms": (float(np.percentile(rand, 90)), "ms"),
            "wide_circulant_p50_ms": (float(np.median(pooled("circulant"))) * 1e3, "ms"),
            "load_op_ms": (float(np.median(pooled("load"))) * 1e3, "ms"),
        }


class Montecarlo:
    name = "montecarlo"
    op_name = "validate --quick"
    GATES = 7

    def __init__(self, seed: int, workdir: Path, sizes=None):
        self.seed = seed
        self.dir = Path(workdir)

    def setup(self, ledger: Ledger):
        # two trials of each experiment the gate suite runs, on tiny inputs,
        # through a pool as wide as the CLI's default
        v = circembed.validation
        threads = os.cpu_count() or 1
        ps = circembed.generate_pointset("flat_signs", 64, 4, sub_seed(self.seed, "warmup"))
        x, y = unit_pair(np.random.default_rng(sub_seed(self.seed, "warmup")), 64, 0.5)
        v.distortion_experiment(ps, "randomized", 16, 2, 1, threads=threads)
        v.conditioning_experiment(x, y, 4, 2, 1, threads=threads)
        v.hadamard_coherence_experiment(ps, 2, 1, threads=threads)
        v.decomposition_experiment(x, y, 4, 0.15, 2, 1, threads=threads)

    def run_pass(self, ledger: Ledger) -> dict:
        with inside(self.dir):
            dt = run_cli(["validate", "--quick", "--seed", str(sub_seed(self.seed, "validate")),
                          "--json-out", "gates.json"], ledger)
            gates = json.loads(Path("gates.json").read_text())["arrays"]["gates"]
            digest = sha256_file("gates.json")
        failing = [g["name"] for g in gates if not g["passed"]]
        ledger.op(len(gates) == self.GATES and not failing, f"{len(gates)} gates, failing: {failing}")
        return {"stages": {"validate": dt}, "ops": np.array([dt]), "digests": {"gates.json": digest}, "busy": dt}

    def check(self, ledger: Ledger):
        pass

    def stage_metrics(self, passes):
        return {"validate_s": (float(np.median([p["stages"]["validate"] for p in passes])), "s")}


WORKLOADS = {w.name: w for w in (Corpus, Wide, Montecarlo)}
