#!/usr/bin/env python3
"""Wall-clock scaling table for the transform kernels and the embedders.

Times fwht, circulant_apply, and the three embed paths over a geometric
range of sizes and prints per-doubling growth ratios. Near-linear kernels
should stay close to 2.0; the 2.5 acceptance line leaves headroom for FFT
log factors and cache effects. A second table times the batched paths at
fixed sizes: embed_points of N=1000 points at n=1024, k=256 for each kind.
A third times one trial of each Monte Carlo experiment, single-threaded, at
the sizes the gate suite runs it, conditioning also at k=300 on a flat
pair at n=512 (a 600 x 600 eigvalsh), decomposition at each of its k and on
the degenerate pair y = x, which takes the Gram-Schmidt fallback. A
fourth times the pairwise layer once per repeat: coherence of N=1000 points at n=1000 (what gen prints) and of the
sets its pruning bound helps least (spiky and clustered_pairs at n=N=1000,
uniform_sphere at n=8, N=2000), evaluate_codes of N=1000 randomized codes
with k=256 (what eval scores), save_result of that eval report, with its
1,000 worst_per_point values (what eval writes), _pair_table of the same
codes (the columns eval --pairs recomputes) and save_pairs of its 499,500
pairs (what eval --pairs writes). A fifth times the text readers
at N=1000: load_codes of a CRLF codes file with k=256, which takes the line
parser, and load_pointset_csv at n=1000. A sixth times one whole quick gate
suite with as many trial threads as cores, the default of validate. A
seventh times the gates' conditioning trials at k=128 (50 trials),
decomposition trials at k=128 (30 trials) and the column-growth gate's 30
trials at k=128, which compute column norms only, on one thread and on as
many as the worker pool has: their LAPACK calls overlap only if they
release the GIL. An eighth times the samplers: normals and rademacher from a fresh
stream at 2^10, 2^16 and 2^20 draws (above 2^16 they fan out in chunks), two threads
each drawing normals 2^20 at the same time (both fan out over the one
worker pool), index_subset at (n, k) = (256, 128) and (2^20, 256), and
deserialize_operator of a randomized BEOP1 record at n=10^6, k=256, which
replays all three. A ninth times np.dot of two 2^20 vectors followed at
once by a randomized embed at 2^20: the dot runs on every BLAS thread, whose
OpenBLAS workers then spin for a while, and the embed runs in that window.
A tenth times sweep of randomized operators over N=1000 points at n=1000,
k 64 and 256, 3 trials, on one thread, at one delta and at four. An
eleventh times _shift_rows, the gather of the modulated shift rows each
conditioning and decomposition trial makes twice, at (n, k) = (256, 128)
and (1000, 256). A twelfth times index_subset at k = n = 2^20 and
k = n = 2^22, one call per repeat (about 0.5 s and 3 s each).
A memory table, which runs first and in a process of its own, measures at
n=N=1000 the stages the CLI runs:
load_pointset, generate_pointset of uniform_sphere, save_pointset,
evaluate_codes with k=256 and one sweep trial (circulant, k=256, its pair
angles given, BLAS on one thread). It also measures a whole ``sweep``
command of 2,500 gaussian trials (one k, one delta) on a 3-point set, whose
peak grows with the rows it writes, and index_subset at k = n = 2^20, whose
peak over k is the bytes held per pick. It records, per repetition, the minor
page faults (``ru_minflt``) and the time per call, and the tracemalloc peak
of one more call: numpy reports its buffers to tracemalloc.
The header is the output of ``circembed info``: numpy, the BLAS build, its
thread count, whether reports pin it to one thread and the worker threads.

``--json-out PATH`` also records the run as JSON: the ``info`` lines, the
core count, a sha256 of the timed package's sources and, per table row,
the best time and the time of every repetition, in ms (the scaling table
gives one row per kernel and size), so a row shows its spread. The memory
table's rows go under ``memory``, with the faults per call of every
repetition and the traced peak in bytes.
A run is appended to the runs already in PATH, so runs of two source trees
(say, with PYTHONPATH at a checkout of the parent commit's src) sit side by
side in one file.

Usage:
    python3 scripts/bench_transforms.py --min-pow 14 --max-pow 20 --calls 20
    python3 scripts/bench_transforms.py --json-out BENCH.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import resource
import tempfile
import threading
import time
import tracemalloc

import numpy as np

import circembed
from circembed import _blas
from circembed._pool import WORKERS
from circembed.cli import main as cli_main
from circembed.embedders import (
    KINDS,
    deserialize_operator,
    embed,
    embed_points,
    sample_circulant_operator,
    sample_operator,
    sample_randomized_operator,
    serialize_operator,
)
from circembed.geometry import _angular_pairs, coherence
from circembed.io import (
    ResultDocument,
    generate_pointset,
    load_codes,
    load_pointset,
    load_pointset_csv,
    save_codes,
    save_pairs,
    save_pointset,
    save_pointset_csv,
    save_result,
)
from circembed.rng import Rng, Stream
from circembed.transforms import _shift_rows, circulant_apply, fwht
from circembed.validation import (
    _distortion,
    _max_col_trials,
    _pair_table,
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    evaluate_codes,
    hadamard_coherence_experiment,
    run_gate_suite,
    sweep,
)


def time_callable(fn, calls: int, repeats: int) -> list:
    """Mean time per call of each repetition, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return times


def concurrently(fns) -> None:
    """Call every fn on its own thread, all started together, and wait for all."""
    threads = [threading.Thread(target=fn) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def build_cases(n: int, seed: int):
    rng = Rng(seed)
    x = rng.stream(f"x:{n}").normals(n)
    h = rng.stream(f"h:{n}").normals(n)
    k = min(n, 256)
    circ = sample_circulant_operator(n, k, seed)
    rand = sample_randomized_operator(n, k, seed)
    return [
        ("fwht", lambda: fwht(x)),
        ("circulant_apply", lambda: circulant_apply(h, x)),
        ("embed circulant", lambda: embed(circ, x)),
        ("embed randomized", lambda: embed(rand, x)),
    ]


def build_batched_cases(seed: int):
    ps = generate_pointset("uniform_sphere", 1024, 1000, seed)
    cases = []
    for kind in KINDS:
        op = sample_operator(kind, 1024, 256, seed)
        cases.append((f"embed_points {kind}", lambda op=op: embed_points(op, ps.points)))
    return cases


def build_trial_cases(seed: int):
    # the inputs of run_gate_suite; conditioning at the largest k it uses and
    # at k=300, past the gates' sizes; decomposition at each k it uses and on
    # a degenerate pair (y is x), which takes the Gram-Schmidt fallback
    flat = generate_pointset("flat_signs", 1024, 32, seed)
    ups = generate_pointset("uniform_sphere", 1024, 1000, seed)
    x = np.ones(256) / 16.0
    y = np.tile([1.0, -1.0], 128) / 16.0
    x512 = np.ones(512) / math.sqrt(512)
    y512 = np.tile([1.0, -1.0], 256) / math.sqrt(512)
    return [
        ("distortion gaussian", lambda: distortion_experiment(flat, "gaussian", 1024, 1, seed)),
        ("distortion randomized", lambda: distortion_experiment(flat, "randomized", 1024, 1, seed)),
        ("conditioning k=128", lambda: conditioning_experiment(x, y, 128, 1, seed)),
        ("conditioning k=300", lambda: conditioning_experiment(x512, y512, 300, 1, seed)),
        ("modulation", lambda: hadamard_coherence_experiment(ups, 1, seed)),
        ("decomposition k=8", lambda: decomposition_experiment(x, y, 8, 0.15, 1, seed)),
        ("decomposition k=32", lambda: decomposition_experiment(x, y, 32, 0.15, 1, seed)),
        ("decomposition k=128", lambda: decomposition_experiment(x, y, 128, 0.15, 1, seed)),
        ("decomposition k=8 y is x", lambda: decomposition_experiment(x, x, 8, 0.15, 1, seed)),
    ]


def build_pairwise_cases(seed: int, tmp: str):
    ps = generate_pointset("uniform_sphere", 1000, 1000, seed)
    codes = embed_points(sample_operator("randomized", 1000, 256, seed), ps.points)
    report = evaluate_codes(ps, codes, kind="randomized", seed=seed)
    doc = ResultDocument(
        kind="eval",
        params={"n": ps.n, "N": ps.N, "k": report.k, "seed": seed},
        stats=report.to_stats(),
        arrays={"worst_per_point": report.worst_per_point},
    )
    table = _pair_table(ps, codes)
    worst = [generate_pointset(kind, n, N, seed) for kind, n, N in
             (("spiky", 1000, 1000), ("clustered_pairs", 1000, 1000), ("uniform_sphere", 8, 2000))]
    return [
        ("coherence N=n=1000", lambda: coherence(ps)),
        ("coherence spiky N=n=1000", lambda: coherence(worst[0])),
        ("coherence clustered N=n=1000", lambda: coherence(worst[1])),
        ("coherence n=8 N=2000", lambda: coherence(worst[2])),
        ("evaluate_codes k=256", lambda: evaluate_codes(ps, codes)),
        ("save_result eval N=1000", lambda: save_result(doc, os.path.join(tmp, "eval.json"))),
        ("_pair_table k=256", lambda: _pair_table(ps, codes)),
        ("save_pairs N=1000", lambda: save_pairs(table, os.path.join(tmp, "pairs.csv"))),
    ]


def build_codec_cases(seed: int, tmp: str):
    ps = generate_pointset("uniform_sphere", 1000, 1000, seed)
    codes_path = os.path.join(tmp, "codes.csv")
    save_codes(embed_points(sample_operator("randomized", 1000, 256, seed), ps.points), codes_path)
    crlf_path = os.path.join(tmp, "codes_crlf.csv")
    with open(codes_path, "rb") as f, open(crlf_path, "wb") as g:
        g.write(f.read().replace(b"\n", b"\r\n"))
    csv_path = os.path.join(tmp, "pts.csv")
    save_pointset_csv(ps, csv_path)
    return [
        ("load_codes CRLF k=256", lambda: load_codes(crlf_path)),
        ("load_pointset_csv n=1000", lambda: load_pointset_csv(csv_path)),
    ]


def build_sampler_cases(seed: int):
    cases = []
    for p in (10, 16, 20):
        cases.append((f"normals 2^{p}", lambda p=p: Stream(seed, "bench").normals(1 << p)))
        cases.append((f"rademacher 2^{p}", lambda p=p: Stream(seed, "bench").rademacher(1 << p)))
    cases.append(("2 x normals 2^20 at once", lambda: concurrently(
        [lambda i=i: Stream(seed, f"bench:{i}").normals(1 << 20) for i in range(2)])))
    for n, k, label in ((256, 128, "256"), (1 << 20, 256, "2^20")):
        cases.append((f"index_subset n={label} k={k}", lambda n=n, k=k: Stream(seed, "bench").index_subset(n, k)))
    record = serialize_operator(sample_randomized_operator(1_000_000, 256, seed))
    cases.append(("deserialize randomized n=10^6", lambda: deserialize_operator(record)))
    return cases


def build_window_cases(seed: int):
    n = 1 << 20
    op = sample_randomized_operator(n, 256, seed)
    x = Stream(seed, "window:x").normals(n)
    y = Stream(seed, "window:y").normals(n)

    def dot_then_embed():
        np.dot(x, y)
        embed(op, x)

    return [("np.dot then embed randomized 2^20", dot_then_embed)]


def build_sweep_cases(seed: int):
    ps = generate_pointset("uniform_sphere", 1000, 1000, seed)
    return [
        (f"sweep {len(deltas)} delta", lambda deltas=deltas: sweep(ps, "randomized", [64, 256], deltas, 3, seed))
        for deltas in ([0.15], [0.1, 0.15, 0.2, 0.25])
    ]


def build_suite_cases(seed: int):
    threads = os.cpu_count() or 1
    return [(f"gate suite threads={threads}", lambda: run_gate_suite(seed, quick=True, threads=threads))]


# the column-growth gate's trials, on one BLAS thread as run_gate_suite runs them
col_growth_trials = _blas.one_thread()(_max_col_trials)


def build_lapack_cases(seed: int):
    # the conditioning and decomposition gates at their largest k
    x = np.ones(256) / 16.0
    y = np.tile([1.0, -1.0], 128) / 16.0
    cases = []
    for t in sorted({1, WORKERS}):
        cases += [
            (f"conditioning x50 threads={t}", lambda t=t: conditioning_experiment(x, y, 128, 50, seed, threads=t)),
            (f"decomposition x30 threads={t}",
             lambda t=t: decomposition_experiment(x, y, 128, 0.15, 30, seed, threads=t)),
            (f"col growth gate x30 threads={t}", lambda t=t: col_growth_trials(x, y, 128, 30, seed, t)),
        ]
    return cases


def build_shift_cases(seed: int):
    cases = []
    for n, k in ((256, 128), (1000, 256)):
        v = Stream(seed, f"shift:{n}").normals(n)
        S = Stream(seed, f"shift:S:{n}").index_subset(n, k)
        cases.append((f"_shift_rows n={n} k={k}", lambda v=v, S=S: _shift_rows(v, S)))
    return cases


def build_pick_cases(seed: int):
    return [(f"index_subset n=k=2^{p}", lambda p=p: Stream(seed, "bench").index_subset(1 << p, 1 << p))
            for p in (20, 22)]


def build_memory_cases(seed: int, tmp: str):
    ps = generate_pointset("uniform_sphere", 1000, 1000, seed)
    path = os.path.join(tmp, "pts.pset")
    save_pointset(ps, path)
    tiny = os.path.join(tmp, "tiny.pset")
    save_pointset(generate_pointset("uniform_sphere", 8, 3, seed), tiny)
    sweep_argv = ["sweep", "--pointset", tiny, "--kind", "gaussian", "--k-list", "8", "--delta-list", "0.1",
                  "--trials", "2500", "--threads", "1", "--csv-out", os.path.join(tmp, "sweep.csv")]
    codes = embed_points(sample_operator("randomized", 1000, 256, seed), ps.points)
    ang = _angular_pairs(ps.points)

    def sweep_trial():
        with _blas.one_thread():
            _distortion(ps, ang, "circulant", 256, 1, seed, "gaussian", 1)

    def cli_sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(sweep_argv)

    return [
        ("load_pointset", lambda: load_pointset(path)),
        ("generate_pointset uniform_sphere", lambda: generate_pointset("uniform_sphere", 1000, 1000, seed)),
        ("save_pointset", lambda: save_pointset(ps, path)),
        ("evaluate_codes k=256", lambda: evaluate_codes(ps, codes)),
        ("sweep trial circulant k=256", sweep_trial),
        ("cli sweep gaussian 2500 trials N=3", cli_sweep),
        ("index_subset n=k=2^20", lambda: Stream(seed, "bench").index_subset(1 << 20, 1 << 20)),
    ]


def measure_memory(fn, calls: int, repeats: int):
    """(ms per call, minor faults per call) of each repetition, and the tracemalloc peak of one call in bytes."""
    ms, faults = [], []
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        ms.append((time.perf_counter() - t0) / calls * 1e3)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / calls)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ms, faults, peak


def memory_table(seed: int, repeats: int) -> list:
    """(name, ms, faults per call, traced peak) of each memory case, measured in this process."""
    memory = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, fn in build_memory_cases(seed, tmp):
            fn()
            memory.append((name, *measure_memory(fn, 5, repeats)))
    return memory


def source_sha256() -> str:
    """sha256 over the timed package's .py files, in name order."""
    h = hashlib.sha256()
    pkg = os.path.dirname(circembed.__file__)
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def write_run(path: str, info: list, args, rows: list, memory: list) -> None:
    """Append this run to the runs in the JSON file at path."""
    runs = []
    if os.path.exists(path):
        with open(path) as f:
            runs = json.load(f)["runs"]
    params = {k: v for k, v in vars(args).items() if k != "json_out"}
    runs.append({"info": info, "cores": os.cpu_count(), "source_sha256": source_sha256(),
                 "args": params,
                 "rows": [{"table": t, "name": n, "ms": min(ms), "repeat_ms": ms} for t, n, ms in rows],
                 "memory": [{"name": n, "ms": min(ms), "repeat_ms": ms, "minflt_per_call": min(f),
                             "repeat_minflt_per_call": f, "traced_peak_bytes": peak} for n, ms, f, peak in memory]})
    with open(path, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
        f.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-pow", type=int, default=14)
    ap.add_argument("--max-pow", type=int, default=20)
    ap.add_argument("--calls", type=int, default=20, help="calls per measurement")
    ap.add_argument("--repeats", type=int, default=3, help="repetitions, each recorded; the best is printed")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json-out", default=None, metavar="PATH", help="append this run to a JSON file")
    args = ap.parse_args()

    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli_main(["info"])
    info = out.getvalue().splitlines()
    print("\n".join(info))
    print(f"cores: {os.cpu_count()}")
    print()
    # the memory table runs in a process of its own, whose heap is as fresh as
    # that of a CLI call, and leaves this one's as the other tables expect it
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        memory = pool.apply(memory_table, (args.seed, args.repeats))
    print("memory (best of the repetitions; tracemalloc peak of one call):")
    for name, ms, faults, peak in memory:
        print(f"  {name.ljust(34)} {min(ms):9.3f}ms {min(faults):9.1f} faults {peak / 2**20:8.2f} MiB")
    print()
    rows = []  # (table, name, ms of each repetition)
    fwht(np.ones(2))  # first call outside the timed region
    sizes = [1 << p for p in range(args.min_pow, args.max_pow + 1)]
    names = [name for name, _ in build_cases(sizes[0], args.seed)]
    table = {name: [] for name in names}
    for n in sizes:
        for name, fn in build_cases(n, args.seed):
            fn()  # warm caches and FFT plans
            table[name].append(time_callable(fn, args.calls, args.repeats))

    header = "kernel".ljust(18) + "".join(f"n=2^{int(math.log2(n)):<8d}" for n in sizes)
    print(header)
    for name in names:
        row = name.ljust(18)
        row += "".join(f"{min(t) * 1e3:10.3f}ms " for t in table[name])
        print(row)
        rows += [("scaling", f"{name} n=2^{int(math.log2(n))}", [x * 1e3 for x in t])
                 for n, t in zip(sizes, table[name])]
    print()
    print("per-doubling ratios (near 2.0 is linear):")
    for name in names:
        ts = table[name]
        ratios = " ".join(f"{min(ts[i + 1]) / min(ts[i]):5.2f}" for i in range(len(ts) - 1))
        print(f"  {name.ljust(18)} {ratios}")
    with tempfile.TemporaryDirectory() as tmp:
        for title, cases, calls in (
            ("batched paths, N=1000 points at n=1024 (k=256):", build_batched_cases(args.seed), args.calls),
            ("one trial of each experiment at gate-suite sizes (threads=1):", build_trial_cases(args.seed),
             args.calls),
            ("pairwise layer, N=1000 points (one call per repeat):",
             build_pairwise_cases(args.seed, tmp), 1),
            ("text readers, N=1000 (one call per repeat):", build_codec_cases(args.seed, tmp), 1),
            ("quick gate suite (one call per repeat):", build_suite_cases(args.seed), 1),
            ("LAPACK trials at k=128 (one call per repeat):", build_lapack_cases(args.seed), 1),
            ("samplers, from a fresh stream:", build_sampler_cases(args.seed), args.calls),
            ("embed right after an unpinned BLAS call:", build_window_cases(args.seed), args.calls),
            ("sweep randomized, N=n=1000, k 64 and 256, 3 trials (one call per repeat):",
             build_sweep_cases(args.seed), 1),
            ("shift rows gather:", build_shift_cases(args.seed), args.calls),
            ("index_subset at k = n (one call per repeat):", build_pick_cases(args.seed), 1),
        ):
            print()
            print(title)
            for name, fn in cases:
                fn()
                ms = [t * 1e3 for t in time_callable(fn, calls, args.repeats)]
                rows.append((title.rstrip(":"), name, ms))
                print(f"  {name.ljust(30)} {min(ms):10.3f}ms")
    if args.json_out:
        write_run(args.json_out, info, args, rows, memory)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
