"""glasd benchmark: one workload, timed untraced or traced, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scenario-p20 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout with BLAS pinned to one
thread.  After set-up (import, input generation and a tiny warm-up job, the
latter two repeated), the workload's fixed-budget job runs again and again
until ``--seconds`` have passed; every job's outputs are checked and digested
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  The second-to-last
line of output is a JSON summary (digest, quality, failures, environment);
the last line is the result object.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / "perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("scenario-p20", "scenario-p50", "cli-testfn")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
MAX_TRACED_JOBS = 8


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny optimizer budgets and one set-up; for the smoke test")
    return ap.parse_args(argv)


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, by library file name."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(pkg):
        try:
            return pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _timed_job(wl, tracer=None) -> float:
    gc.collect()
    if tracer is not None:
        tracer.job += 1
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl.run()
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return wall


def _measure(wl, tracer, seconds: float):
    """Run jobs until ``seconds`` have passed; with a tracer, in adjacent pairs.

    Returns (untraced, traced, crash): lists of (wall, outcome) per job and
    the traceback of a job that raised, if any.  Once MAX_TRACED_JOBS traced
    jobs are kept, the rest of the run is untraced, which bounds span memory.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        order = [None]
        if tracer is not None and len(traced) < MAX_TRACED_JOBS:
            order = [None, tracer] if len(traced) % 2 == 0 else [tracer, None]
        for t in order:
            try:
                wall = _timed_job(wl, t)
                outcome = wl.check()
            except Exception:   # a crashed job fails every attempt it held
                return plain, traced, traceback.format_exc()
            (plain if t is None else traced).append((wall, outcome))
        if time.perf_counter() >= deadline:
            return plain, traced, None


def _trace_metrics(wl, tracer, plain, traced, errors: list) -> dict:
    """Per-layer medians over the traced jobs; appends consistency failures."""
    import spans
    # traced job k ran next to untraced job k, so their ratio cancels most of
    # the machine's slow drifts in speed
    overhead = statistics.median(t / u for (t, _), (u, _) in zip(traced, plain)) - 1.0
    summaries = spans.job_summaries(tracer, getattr(wl, "p", 0), getattr(wl, "n", 0))
    per_job = []
    for job, (wall, outcome) in enumerate(traced, start=1):
        m, self_total = summaries.get(job, ({}, 0.0))
        # the layers' self times must account for the traced wall, give or
        # take the tracing overhead
        tol = max(overhead, 0.0) * wall + 0.01 * wall
        if abs(wall - self_total) > tol:
            errors.append(f"traced job {job}: layer self times sum to {self_total:.6f} s, "
                          f"wall {wall:.6f} s, tolerance {tol:.6f} s")
        m["simulate.rmse_mean"] = outcome.quality.get("rmse_mean", 0.0)
        m["benchmarks.f_best_mean"] = outcome.quality.get("f_best_mean", 0.0)
        m["trace.overhead_frac"] = overhead
        per_job.append(m)
    return {name: {"value": float(statistics.median(m.get(name, 0.0) for m in per_job)),
                   "unit": unit}
            for name, unit in spans.UNITS.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "glasd" / "__init__.py").is_file():
        print(f"error: no glasd sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    t_import = time.perf_counter()
    import glasd
    if Path(glasd.__file__).resolve().parent != (src / "glasd").resolve():
        print(f"error: glasd imported from {glasd.__file__}, not {src}", file=sys.stderr)
        return 2
    import spans
    import workloads
    import_s = time.perf_counter() - t_import

    work_root = OUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)

    # set-up: input generation plus a tiny warm-up job that fills lazy caches
    setup_times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.make(args.workload, args.seed, args.tiny, work_root)
        warm = workloads.make(args.workload, args.seed, True, work_root)
        with warm.capturing():
            warm.run()
        warm.check()
        setup_times.append(time.perf_counter() - t0)

    tracer = spans.Tracer() if args.trace else None
    with wl.capturing():
        plain, traced, crashed = _measure(wl, tracer, args.seconds)
    shutil.rmtree(work_root, ignore_errors=True)

    outcomes = [o for _, o in plain + traced]
    digest = outcomes[0].digest if outcomes else None
    errors = [crashed] if crashed else []
    attempted = failed = wl.attempts if crashed else 0
    for o in outcomes:
        bad = list(o.errors)
        if o.digest != digest:
            bad.append(f"output digest {o.digest} differs from the first job's {digest}")
        attempted += o.attempted
        failed += min(len(bad), o.attempted)
        errors.extend(bad)

    walls = [w for w, _ in plain]
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(walls) if walls else 0.0,
            "iters_per_s": statistics.median(o.iterations / w for w, o in plain) if plain else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    elif traced:
        n_errors = len(errors)
        metrics = _trace_metrics(wl, tracer, plain, traced, errors)
        failed += len(errors) - n_errors
        tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = {}

    correct = failed == 0 and bool(outcomes)
    reference = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    ref = None if args.tiny else reference["digests"].get(args.workload, {}).get(str(args.seed))
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "held_out_seed": args.seed == reference["held_out_seed"],
        "digest": digest,
        "digest_vs_reference": "none" if ref is None else ("same" if ref == digest else "changed"),
        "failed_frac": failed / attempted if attempted else 1.0,
        "jobs": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_each": walls,
        "import_s": import_s,
        "setup_s_each": setup_times,
        "absent_spans": sorted(tracer.absent) if tracer else [],
        "environment": _environment(args.seed),
    }
    if outcomes:
        summary.update(outcomes[0].quality)
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
