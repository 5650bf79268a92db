#!/usr/bin/env python3
"""Wall-clock scaling table for the transform kernels and the embedders.

Times fwht, circulant_apply, and the three embed paths over a geometric
range of sizes and prints per-doubling growth ratios. Near-linear kernels
should stay close to 2.0; the 2.5 acceptance line leaves headroom for FFT
log factors and cache effects. A second table times the batched paths at
fixed sizes: embed_points of N=1000 points at n=1024, k=256 for each kind.
A third times one trial of each Monte Carlo experiment, single-threaded, at
the sizes the gate suite runs it, decomposition at each of its k and on
the degenerate pair y = x, which takes the Gram-Schmidt fallback. A
fourth times the pairwise layer once per repeat: coherence of N=1000 points at n=1000 (what gen prints) and of the
sets its pruning bound helps least (spiky and clustered_pairs at n=N=1000,
uniform_sphere at n=8, N=2000), evaluate_codes of N=1000 randomized codes
with k=256 (what eval scores), save_result of that eval report, with its
1,000 worst_per_point values (what eval writes), and save_pairs of its
499,500 pairs (what eval --pairs writes). A fifth times the text readers
at N=1000: load_codes of a CRLF codes file with k=256, which takes the line
parser, and load_pointset_csv at n=1000. A sixth times one whole quick gate
suite with as many trial threads as cores, the default of validate.
The header is the output of ``circembed info``: numpy, the BLAS build, its
thread count and whether reports pin it to one thread.

Usage:
    python3 scripts/bench_transforms.py --min-pow 14 --max-pow 20 --calls 20
"""

import argparse
import math
import os
import tempfile
import time

import numpy as np

from circembed.cli import main as cli_main
from circembed.embedders import (
    KINDS,
    embed,
    embed_points,
    sample_circulant_operator,
    sample_operator,
    sample_randomized_operator,
)
from circembed.geometry import coherence
from circembed.io import (
    ResultDocument,
    generate_pointset,
    load_codes,
    load_pointset_csv,
    save_codes,
    save_pairs,
    save_pointset_csv,
    save_result,
)
from circembed.rng import Rng
from circembed.transforms import circulant_apply, fwht
from circembed.validation import (
    conditioning_experiment,
    decomposition_experiment,
    distortion_experiment,
    evaluate_codes,
    hadamard_coherence_experiment,
    run_gate_suite,
)


def time_callable(fn, calls: int, repeats: int) -> float:
    """Best mean-per-call over several repetitions, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


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
    # the inputs of run_gate_suite; conditioning at the largest k it uses,
    # decomposition at each k it uses and on a degenerate pair (y is x),
    # which takes the Gram-Schmidt fallback
    flat = generate_pointset("flat_signs", 1024, 32, seed)
    ups = generate_pointset("uniform_sphere", 1024, 1000, seed)
    x = np.ones(256) / 16.0
    y = np.tile([1.0, -1.0], 128) / 16.0
    return [
        ("distortion gaussian", lambda: distortion_experiment(flat, "gaussian", 1024, 1, seed)),
        ("distortion randomized", lambda: distortion_experiment(flat, "randomized", 1024, 1, seed)),
        ("conditioning k=128", lambda: conditioning_experiment(x, y, 128, 1, seed)),
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
    worst = [generate_pointset(kind, n, N, seed) for kind, n, N in
             (("spiky", 1000, 1000), ("clustered_pairs", 1000, 1000), ("uniform_sphere", 8, 2000))]
    return [
        ("coherence N=n=1000", lambda: coherence(ps)),
        ("coherence spiky N=n=1000", lambda: coherence(worst[0])),
        ("coherence clustered N=n=1000", lambda: coherence(worst[1])),
        ("coherence n=8 N=2000", lambda: coherence(worst[2])),
        ("evaluate_codes k=256", lambda: evaluate_codes(ps, codes)),
        ("save_result eval N=1000", lambda: save_result(doc, os.path.join(tmp, "eval.json"))),
        ("save_pairs N=1000", lambda: save_pairs(report.pairs, os.path.join(tmp, "pairs.csv"))),
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


def build_suite_cases(seed: int):
    threads = os.cpu_count() or 1
    return [(f"gate suite threads={threads}", lambda: run_gate_suite(seed, quick=True, threads=threads))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-pow", type=int, default=14)
    ap.add_argument("--max-pow", type=int, default=20)
    ap.add_argument("--calls", type=int, default=20, help="calls per measurement")
    ap.add_argument("--repeats", type=int, default=3, help="repetitions, best kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cli_main(["info"])
    print()
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
        row += "".join(f"{t * 1e3:10.3f}ms " for t in table[name])
        print(row)
    print()
    print("per-doubling ratios (near 2.0 is linear):")
    for name in names:
        ts = table[name]
        ratios = " ".join(f"{ts[i + 1] / ts[i]:5.2f}" for i in range(len(ts) - 1))
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
        ):
            print()
            print(title)
            for name, fn in cases:
                fn()
                print(f"  {name.ljust(30)} {time_callable(fn, calls, args.repeats) * 1e3:10.3f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
