#!/usr/bin/env python3
"""circembed benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``corpus``, ``wide``
and ``montecarlo``; ``all`` runs each in its own process and prints every
workload's stage metrics. The program under test is imported from ``src/``
of the current directory; without it the run exits 2 and prints no result.

With ``--trace 0`` the run times untraced passes for ``--seconds`` seconds
and reports the workload-neutral end-to-end metrics: ``setup_s``,
``pass_s`` (median busy time of one pass), ``op_p50_ms``/``op_p90_ms``
(latency of the workload's unit call: corpus a single-vector query, wide a
randomized embed at n=1e6, montecarlo one ``validate --quick``) and
``peak_rss_mb``. The workload's named stage metrics, the environment and
the output digests go to ``#`` lines before the result.

With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer self time and counts per pass (medians over traced
passes), plus the tracing overhead as the difference between the two.

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3


def info(tag: str, payload) -> None:
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def environment(seed: int) -> dict:
    import circembed.transforms as transforms

    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "fwht_backend": "numba" if getattr(transforms, "_HAVE_NUMBA", False) else "numpy",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, ledger, seconds: float, trace: bool):
    """Run passes for ``seconds``; return (untraced passes, traced passes).

    A pass that raises counts as one failed operation and ends the measurement.
    """
    import circembed
    from tracing import Tracer

    plain, traced = [], []
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            plain.append(workload.run_pass(ledger))
            if trace:
                tracer = Tracer()
                with tracer.installed(circembed):
                    traced.append(workload.run_pass(ledger))
                traced[-1]["spans"] = tracer.spans
            step = time.perf_counter() - t0
            if time.perf_counter() - start + step > seconds:
                break
    except Exception as e:
        ledger.op(False, f"pass raised {e!r}")
    return plain, traced


def check_digests(passes, ledger) -> None:
    """Count every pass whose output digests differ from the first pass's as failed."""
    first = passes[0]["digests"]
    for p in passes[1:]:
        changed = sorted(k for k in first.keys() | p["digests"].keys() if p["digests"].get(k) != first.get(k))
        ledger.op(not changed, f"outputs changed between passes: {changed}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes=None) -> dict:
    """Set up, measure and check one workload; return the result object."""
    t0 = time.perf_counter()
    import numpy as np
    import workloads
    from tracing import LAYER_METRICS, layer_totals

    import_s = time.perf_counter() - t0
    info("env", environment(seed))
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[name](seed, workdir, sizes)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(ledger)
        setups.append(time.perf_counter() - t0)
    plain, traced = measure(workload, ledger, seconds, trace)
    rss = peak_rss_mb()
    if plain:
        check_digests(plain + traced, ledger)
    if ledger.failed == 0:
        try:
            workload.check(ledger)
        except Exception as e:
            ledger.op(False, f"check raised {e!r}")
    if ledger.errors:
        info("errors", ledger.errors[:20])
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": {}}
    if not plain or (trace and not traced):
        return result
    info("digests", plain[-1]["digests"])

    pass_s = float(np.median([p["busy"] for p in plain]))
    if trace:
        per_pass = [layer_totals(p["spans"]) for p in traced]
        metrics = {m: (float(np.median([t[m] for t in per_pass])), unit) for m, unit in LAYER_METRICS.items()}
        traced_s = float(np.median([p["busy"] for p in traced]))
        metrics["trace.traced_pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - pass_s, "s")
        metrics["trace.spans"] = (float(np.median([len(p["spans"]) for p in traced])), "count")
        total = sum(v for m, (v, _) in metrics.items() if m.endswith(".self_s"))
        info("self_time_share", {m[:-7]: round(v / total, 4) for m, (v, _) in metrics.items()
                                 if m.endswith(".self_s") and v > 0})
    else:
        ops_ms = np.concatenate([p["ops"] for p in plain]) * 1e3
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "pass_s": (pass_s, "s"),
            "op_p50_ms": (float(np.percentile(ops_ms, 50)), "ms"),
            "op_p90_ms": (float(np.percentile(ops_ms, 90)), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        stages = workload.stage_metrics(plain)
        stages["setup_s"] = metrics["setup_s"]
        stages["peak_rss_mb"] = metrics["peak_rss_mb"]
        info("stages", {k: {"value": v, "unit": u} for k, (v, u) in stages.items()})
        info("samples", {"passes": len(plain), workload.op_name: int(ops_ms.size), "import_s": import_s,
                         "setups_s": setups})
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def run_all(args) -> int:
    """Run every workload in its own process and merge their stage metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("corpus", "wide", "montecarlo"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"# {name} {line[2:]}" if line.startswith("# ") else line)
            if line.startswith("# stages "):
                stages = json.loads(line[len("# stages "):])
                merged["metrics"].update({f"{name}.{k}": v for k, v in stages.items()})
        if args.trace:
            merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="circembed benchmark")
    ap.add_argument("--workload", required=True, choices=["corpus", "wide", "montecarlo", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    src = root / "src"
    if not (src / "circembed" / "__init__.py").is_file():
        print(f"error: no circembed sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    workdir = root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
