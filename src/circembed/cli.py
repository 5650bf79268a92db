"""Command-line front end.

Subcommands:
  gen       synthesize a point set and write it as PSET1
  embed     embed a point set, writing a codes CSV plus an operator sidecar
  eval      all-pairs distortion of codes against angles: a JSON report of
            the pair statistics and each point's worst pair, optionally
            every pair as CSV (--pairs)
  sweep     distortion over a grid of k and delta: one experiment per k,
            read at each delta; CSV plus JSON summary
  validate  frozen Monte Carlo gate suite; each gate's wall time goes to stderr
  info      numpy, BLAS, FWHT and LAPACK paths and BLAS thread count, for bug reports

Exit codes: 0 on success (and when all gates pass), 1 when gates fail,
2 on usage errors (bad flags or parameter combinations), 3 on I/O failures
including unreadable or malformed files.

All randomness flows from --seed through named substreams; no entropy is
taken from the environment. Reruns with identical flags produce
byte-identical outputs, independent of --threads and of the BLAS thread
count: reports are computed with numpy's bundled OpenBLAS pinned to one
thread (``info`` says whether that pin is available). ``info`` writes to
stdout only and feeds no output file.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import _blas, _pool, embedders, rng
from .embedders import (
    KINDS,
    R_DISTS,
    Operator,
    embed_points,
    read_operator_record,
    sample_operator,
    serialize_operator,
)
from .errors import ParseError
from .geometry import coherence
from .io import (
    POINTSET_KINDS,
    ResultDocument,
    generate_pointset,
    load_codes,
    load_pointset,
    save_codes,
    save_pairs,
    save_pointset,
    save_result,
    save_sweep,
)
from .validation import _pair_table, evaluate_codes, run_gate_suite, sweep

__all__ = ["main"]


def _finite_float(text: str) -> float:
    # NaN and infinities have no JSON token, so no report could hold them
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finite_floats(text: str) -> list:
    return [_finite_float(v) for v in text.split(",") if v]


def cmd_gen(args) -> int:
    params = {}
    if args.theta is not None:
        params["theta"] = args.theta
    if args.noise is not None:
        params["noise"] = args.noise
    ps = generate_pointset(args.kind, args.n, args.N, args.seed, params)
    save_pointset(ps, args.out)
    stats = coherence(ps)
    print(f"wrote {args.out}: N={ps.N} n={ps.n}")
    print(
        f"rho_direct={stats.rho_direct:.6g} rho_cross={stats.rho_cross:.6g} "
        f"theta_min={stats.theta_min:.6g}"
    )
    return 0


def cmd_embed(args) -> int:
    ps = load_pointset(args.pointset)
    op = sample_operator(args.kind, ps.n, args.k, args.seed)
    codes = embed_points(op, ps.points)
    save_codes(codes, args.out)
    sidecar = args.operator_out or (str(args.out) + ".beop")
    Path(sidecar).write_bytes(serialize_operator(op))
    print(f"wrote {args.out} ({codes.shape[0]} codes of length {codes.shape[1]}) and {sidecar}")
    return 0


_CLASS_NAMES = {cls.kind: cls.__name__ for cls in typing.get_args(Operator)}


def cmd_eval(args) -> int:
    ps = load_pointset(args.pointset)
    if args.codes:
        codes = load_codes(args.codes)
        op_echo = {"codes": str(args.codes)}
        if args.operator:
            # the record's fields are checked against the inputs, never sampled
            kind, n, k, seed = read_operator_record(Path(args.operator).read_bytes())
            if (n, k) != (ps.n, codes.shape[1]):
                raise ValueError(f"operator {args.operator} is for n={n}, k={k}, but the point set has "
                                 f"n={ps.n} and the codes k={codes.shape[1]}")
            op_echo["operator"] = str(args.operator)
            op_echo["operator_seed"] = seed
            op_echo["operator_kind"] = _CLASS_NAMES[kind]
        report = evaluate_codes(ps, codes, delta_target=args.delta)
    else:
        if args.kind is None or args.k is None:
            raise ValueError("eval needs either --codes or --kind plus --k")
        op = sample_operator(args.kind, ps.n, args.k, args.seed, args.r_dist)
        codes = embed_points(op, ps.points)
        op_echo = {"kind": args.kind, "k": args.k, "seed": args.seed, "r_dist": args.r_dist}
        report = evaluate_codes(ps, codes, delta_target=args.delta, kind=args.kind, seed=args.seed)
    doc = ResultDocument(
        kind="eval",
        params={
            "subcommand": "eval",
            "pointset": str(args.pointset),
            "delta_target": args.delta,
            **op_echo,
            "n": ps.n,
            "N": ps.N,
            "k": report.k,
        },
        stats=report.to_stats(),
        arrays={"worst_per_point": report.worst_per_point},
    )
    if args.out:
        save_result(doc, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(doc.to_json())
    if args.pairs:
        save_pairs(_pair_table(ps, codes), args.pairs)
        print(f"wrote {args.pairs}", file=sys.stderr if args.out is None else sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    ps = load_pointset(args.pointset)
    k_values = [int(v) for v in args.k_list.split(",") if v]
    if not k_values or not args.delta_list:
        raise ValueError("--k-list and --delta-list must be nonempty")
    reports = sweep(
        ps, args.kind, k_values, args.delta_list, args.trials, args.seed,
        r_dist=args.r_dist, threads=args.threads,
    )
    rows = save_sweep(reports, args.csv_out)
    print(f"wrote {args.csv_out} ({rows} rows)")
    if args.json_out:
        cells = [{"k": rep.k, "delta": rep.delta_target, **rep.to_stats()} for rep in reports]
        doc = ResultDocument(
            kind="sweep",
            params={
                "subcommand": "sweep",
                "pointset": str(args.pointset),
                "kind": args.kind,
                "k_list": k_values,
                "delta_list": args.delta_list,
                "trials": args.trials,
                "seed": args.seed,
                "r_dist": args.r_dist,
                "n": ps.n,
                "N": ps.N,
            },
            stats={"cells": len(cells)},
            arrays={"cells": cells},
        )
        save_result(doc, args.json_out)
        print(f"wrote {args.json_out}")
    return 0


def cmd_validate(args) -> int:
    results = run_gate_suite(seed=args.seed, quick=args.quick, threads=args.threads)
    all_pass = True
    for g in results:
        verdict = "PASS" if g.passed else "FAIL"
        extra = f"  [{g.detail}]" if g.detail else ""
        print(f"GATE {g.name}: measured={g.measured:.6g} {g.op} {g.threshold:.6g} {verdict}{extra}")
        # timings vary from run to run, so they stay out of stdout and gates.json
        print(f"time {g.name}: {g.seconds:.3f} s", file=sys.stderr)
        all_pass &= g.passed
    if args.json_out:
        doc = ResultDocument(
            kind="validate",
            params={"subcommand": "validate", "seed": args.seed, "quick": args.quick},
            stats={"all_pass": all_pass},
            arrays={
                "gates": [
                    {
                        "name": g.name,
                        "measured": g.measured,
                        "op": g.op,
                        "threshold": g.threshold,
                        "passed": g.passed,
                    }
                    for g in results
                ]
            },
        )
        save_result(doc, args.json_out)
        print(f"wrote {args.json_out}")
    print("all gates passed" if all_pass else "gate failures detected")
    return 0 if all_pass else 1


def cmd_info(args) -> int:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    count = _blas.thread_count()
    print(f"numpy: {np.__version__}")
    print(f"blas: {blas.get('name')} {blas.get('version')}")
    print(f"blas threads: {'unknown' if count is None else count}")
    if _blas.pin_available():
        print("one-thread pin: available (reports are computed on one BLAS thread)")
    else:
        print("one-thread pin: unavailable (reports run on the BLAS thread count in effect, "
              "and their last bits may depend on it)")
    print("fwht: numpy (BLAS matmul)")
    if _blas.pin_available():
        print("lapack: ctypes into the bundled OpenBLAS (eigvalsh, qr and the 2-norm SVD of Monte Carlo "
              "trials release the GIL and run on every trial thread)")
    else:
        print("lapack: numpy.linalg (holds the GIL on small matrices, so eigvalsh, qr and SVD trials "
              "run one at a time)")
    print(f"worker threads: {_pool.WORKERS} (Monte Carlo trials, draws of more than {2 * rng._CHUNK} "
          f"values and the transforms of rows of at least {embedders._FAN_MIN} entries; "
          f"the values do not depend on this, for the transforms on the BLAS builds tested)")
    return 0


def _add_common(p, threads=True):
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    if threads:
        p.add_argument(
            "--threads", type=int, default=_pool.WORKERS,
            help="pool threads for the Monte Carlo trials, at most one per core; with 1 the trials run on "
            "the calling thread, and a large draw inside a trial still fans out over the pool; "
            "results do not depend on this",
        )


# built once per process: each argparse tree is a reference cycle that only
# a full collection frees
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circembed",
        description="Binary embedding via circulant sign projections: generation, embedding, evaluation, validation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a synthetic point set (PSET1)")
    p.add_argument("--kind", required=True, choices=POINTSET_KINDS)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--N", type=int, required=True, help="number of points")
    p.add_argument("--theta", type=float, default=None, help="pair angle for clustered_pairs")
    p.add_argument("--noise", type=float, default=None, help="noise scale for spiky")
    p.add_argument("--out", required=True)
    _add_common(p, threads=False)

    p = sub.add_parser("embed", help="embed a point set into sign codes")
    p.add_argument("--pointset", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--k", type=int, required=True, help="code length")
    p.add_argument("--out", required=True, help="codes CSV path")
    p.add_argument("--operator-out", default=None, help="operator sidecar path (default <out>.beop)")
    _add_common(p, threads=False)

    p = sub.add_parser("eval", help="all-pairs distortion report")
    p.add_argument("--pointset", required=True)
    p.add_argument("--codes", default=None, help="codes CSV written by embed")
    p.add_argument("--operator", default=None, help="operator sidecar, checked against the point set and codes and echoed into the report")
    p.add_argument("--kind", default=None, choices=KINDS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r-dist", default="gaussian", choices=R_DISTS)
    p.add_argument("--delta", type=_finite_float, default=0.15, help="distortion target")
    p.add_argument("--out", default=None, help="JSON report path (default stdout)")
    p.add_argument("--pairs", default=None, help="also write every pair as CSV to this path")
    _add_common(p, threads=False)

    p = sub.add_parser("sweep", help="distortion grid over k and delta")
    p.add_argument("--pointset", required=True)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--k-list", required=True, help="comma-separated code lengths")
    p.add_argument("--delta-list", type=_finite_floats, required=True, help="comma-separated distortion targets")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--r-dist", default="gaussian", choices=R_DISTS)
    p.add_argument("--csv-out", required=True)
    p.add_argument("--json-out", default=None)
    _add_common(p)

    p = sub.add_parser("validate", help="run the frozen gate suite")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--json-out", default=None)
    _add_common(p)

    sub.add_parser("info", help="print the numpy and BLAS build and the BLAS thread count")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        # looked up per call, so a wrapper bound to a cmd_* name sees it
        return globals()[f"cmd_{args.subcommand}"](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
