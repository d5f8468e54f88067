#!/usr/bin/env python3
"""Benchmark of the aspectgate reproduction on a synthetic Restaurant-14 corpus.

Run from the repository root:

    python3 bench/run.py --workload train-r14 --seed 1 --seconds 20 --trace 0

``--workload`` is train-r14, eval-r14 or inspect-b1 (see workloads.py),
or ``all``, which runs each of them in its own process and prints one
row per workload. The settings are the reference ones: aspect-dt
encoder, hidden 300, depth 4, token budget 4096, float64, category task,
lambda 0.4, dropout 0.5/0.3.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` times half the run untraced, then installs the wrappers of
tracing.py and times the other half; it prints the per-layer metrics and
the tracing overhead, and writes spans with self times under
``.bench_out/``. ``--smoke`` shrinks every shape so a run takes seconds;
it checks outputs the same way and gates no timing.

Every run prints the environment, one row of metrics with units, and as
its last line one JSON object with the keys correct, attempted, failed
and metrics. Exit code: 0 when every output check passed, 1 when one
failed, 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: on a shared 2-vCPU VM a 2-thread GEMM waits for the
# slower vCPU, and train tokens/s spread 25% between runs against 5% here.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-r14", "eval-r14", "inspect-b1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, seconds per run")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    rows = {}
    totals = {"attempted": 0, "failed": 0}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode == 2 or not lines:
            print(f"{name}: could not run (exit {proc.returncode})", file=sys.stderr)
            return 2
        print(next(line for line in lines if line.startswith(name)))
        result = json.loads(lines[-1])
        rows[name] = result["metrics"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        worst = max(worst, proc.returncode)
    print(json.dumps({"correct": worst == 0, **totals, "metrics": rows}))
    return worst


def environment(settings) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "dtype": "float64",
        "hidden": settings.hidden,
        "depth": settings.depth,
        "token_budget": settings.token_budget,
        "embed": settings.corpus.embed_dim,
    }


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports; the pinned request otherwise."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(str(lib)), fn)())
            except (AttributeError, OSError):
                continue
    return f"{BLAS_THREADS} (requested)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(args) -> int:
    from workloads import REFERENCE, SMOKE, WORKLOADS, run_traced, run_untraced

    settings = SMOKE if args.smoke else REFERENCE
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    w = WORKLOADS[args.workload](settings, args.seed, workdir)
    info = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "env": environment(settings)}
    metrics = {}
    try:
        if args.trace:
            stem = OUT / f"{args.workload}-seed{args.seed}"
            metrics, extra = run_traced(w, args.seconds, stem, info)
            extra["trace_files"] = [f"{stem.relative_to(ROOT)}{s}" for s in (".trace.json", ".spans.jsonl")]
        else:
            metrics, extra = run_untraced(w, args.seconds)
        info.update(extra)
    except Exception:  # a program failure is a failed operation, reported below
        traceback.print_exc()
        w.tally.record(False, "operation raised: " + traceback.format_exc(limit=1).strip())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["problems"] = w.tally.problems
    print(json.dumps(info))
    row = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{args.workload}  {row}  error_rate={w.tally.failed}/{w.tally.attempted}")
    print(json.dumps({
        "correct": w.tally.failed == 0,
        "attempted": w.tally.attempted,
        "failed": w.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if w.tally.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aspectgate" / "__init__.py").is_file():
        print(f"bench: no aspectgate sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # BLAS reads its thread count when numpy loads, so pin it first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
