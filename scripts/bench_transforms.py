#!/usr/bin/env python3
"""Wall-clock scaling table for the transform kernels and the embedders.

Times fwht, circulant_apply, and the three embed paths over a geometric
range of sizes and prints per-doubling growth ratios. Near-linear kernels
should stay close to 2.0; the 2.5 acceptance line leaves headroom for FFT
log factors and cache effects. A second table times the batched paths at
fixed sizes: embed_points of N=1000 points at n=1024, k=256 for each kind,
and one trial of hadamard_coherence_experiment on the same points.

Usage:
    python3 scripts/bench_transforms.py --min-pow 14 --max-pow 20 --calls 20
"""

import argparse
import math
import time

import numpy as np

from circembed.embedders import (
    KINDS,
    embed,
    embed_points,
    sample_circulant_operator,
    sample_operator,
    sample_randomized_operator,
)
from circembed.io import generate_pointset
from circembed.rng import Rng
from circembed.transforms import circulant_apply, fwht
from circembed.validation import hadamard_coherence_experiment


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
    cases.append(("hadamard trial", lambda: hadamard_coherence_experiment(ps, 1, seed)))
    return cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-pow", type=int, default=14)
    ap.add_argument("--max-pow", type=int, default=20)
    ap.add_argument("--calls", type=int, default=20, help="calls per measurement")
    ap.add_argument("--repeats", type=int, default=3, help="repetitions, best kept")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

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
    print()
    print("batched paths, N=1000 points at n=1024 (k=256):")
    for name, fn in build_batched_cases(args.seed):
        fn()
        print(f"  {name.ljust(24)} {time_callable(fn, args.calls, args.repeats) * 1e3:10.3f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
