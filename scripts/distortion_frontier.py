#!/usr/bin/env python3
"""Distortion frontier: worst-case angle error versus code length.

Runs the distortion experiment for each operator kind over a grid of code
lengths on a synthetic point set and writes a plot-ready CSV with one row
per (kind, k) cell. Columns: kind, k, mean_max_distortion, p90_max_distortion,
success_fraction.

Usage:
    python3 scripts/distortion_frontier.py --pointset-kind flat_signs \
        --n 1024 --N 32 --k-list 64,128,256,512,1024 --trials 20 \
        --csv-out frontier.csv
"""

import argparse
import csv

import numpy as np

from circembed.embedders import KINDS
from circembed.io import generate_pointset
from circembed.rng import derive_seed
from circembed.validation import distortion_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pointset-kind", default="flat_signs",
                    choices=["uniform_sphere", "flat_signs", "spiky", "clustered_pairs"])
    ap.add_argument("--n", type=int, default=1024)
    ap.add_argument("--N", type=int, default=32)
    ap.add_argument("--kind-list", default=",".join(KINDS))
    ap.add_argument("--k-list", default="64,128,256,512,1024")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--delta", type=float, default=0.15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--csv-out", required=True)
    args = ap.parse_args()

    kinds = [s.strip() for s in args.kind_list.split(",") if s.strip()]
    unknown = sorted(set(kinds) - set(KINDS))
    if unknown:
        ap.error(f"unknown kinds in --kind-list: {', '.join(unknown)} (choose from {', '.join(KINDS)})")
    ks = [int(s) for s in args.k_list.split(",") if s.strip()]
    ps = generate_pointset(args.pointset_kind, args.n, args.N,
                           derive_seed(args.seed, "frontier:pointset"))

    with open(args.csv_out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "k", "mean_max_distortion", "p90_max_distortion",
                    "success_fraction"])
        for kind in kinds:
            for k in ks:
                rep = distortion_experiment(
                    ps, kind, k, args.trials,
                    derive_seed(args.seed, f"frontier:{kind}:{k}"),
                    delta_target=args.delta, threads=args.threads,
                )
                w.writerow([
                    kind, k,
                    f"{np.mean(rep.per_trial_max):.17g}",
                    f"{np.percentile(rep.per_trial_max, 90):.17g}",
                    f"{rep.success_fraction:.17g}",
                ])
                print(f"{kind:>11s} k={k:<5d} mean max {np.mean(rep.per_trial_max):.4f} "
                      f"success {rep.success_fraction:.3f}")
    print(f"wrote {args.csv_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
