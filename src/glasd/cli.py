"""Command-line interface.

Subcommands: ``optimize`` (benchmark functions, box or correlation-manifold
variants), ``benchmark`` (summary table over several functions, with an
optional random-search baseline), ``estimate`` (robust correlation estimation
from a CSV), ``simulate`` (contamination scenario from a config file), and
``outlier-report`` (per-column IQR fence counts).

Exit codes: 0 success, 1 runtime failure (including degenerate data), 2 bad
arguments, malformed input files, or invalid configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from dataclasses import asdict, replace

import numpy as np

from .artifacts import (
    ensure_outdir,
    load_optimizer_overrides,
    load_scenario_config,
    make_loss_spec,
    optimizer_config_from,
    write_angles_csv,
    write_csv,
    write_heatmap_csv,
    write_json,
    write_matrix_csv,
    write_trace_csv,
)
from .benchmarks import BENCHMARKS, BenchmarkSpec, benchmark_box_domain, corr_objective
from .errors import ConfigError, GlasdError, MalformedDataError
from .estimate import estimate_correlation
from .losses import LOSS_KINDS, outlier_report, read_data_csv, standardize_columns
from .manifold import MatrixObjective, angle_dim, angles_to_corr, default_angle_box
from .optimizer import (
    OptimizerConfig,
    RunRecord,
    _resolve_seed,
    derive_seeds,
    multi_start_minimize,
    random_search_minimize,
)
from .simulate import _standard_error, run_scenario


def _at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="glasd")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_loss=False):
        p.add_argument("--seed", type=_at_least(0), default=None, help="master seed")
        p.add_argument("--starts", type=_at_least(1), default=10, help="independent restarts")
        p.add_argument("--out", default="glasd_out", help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite an existing run record")
        p.add_argument("--config", default=None, help="INI file with an [optimizer] section")
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--stagnation-window", type=int, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("-v", "--verbose", action="count", default=0)
        if with_loss:
            p.add_argument("--loss", default="gaussian", choices=LOSS_KINDS)
            p.add_argument("--threshold", default="iqr",
                           help="'iqr' (per-evaluation Q3+3*IQR cutoff), "
                                "'iqr-pilot' (frozen under a pilot), or a "
                                "positive number on the d^2 scale")

    p_opt = sub.add_parser("optimize", help="minimize one benchmark function")
    p_opt.add_argument("--fn", required=True, choices=sorted(BENCHMARKS))
    p_opt.add_argument("--variant", default="corr", choices=["box", "corr"])
    p_opt.add_argument("--M", type=_at_least(2), default=5,
                       help="matrix dimension (corr variant)")
    p_opt.add_argument("--dim", type=_at_least(1), default=10,
                       help="vector dimension (box variant)")
    common(p_opt)

    p_bench = sub.add_parser("benchmark", help="summary table over several functions")
    p_bench.add_argument("--fn", default="all",
                         help="comma-separated benchmark names, or 'all'")
    p_bench.add_argument("--variant", default="corr", choices=["box", "corr"])
    p_bench.add_argument("--M", type=_at_least(2), default=5)
    p_bench.add_argument("--dim", type=_at_least(1), default=10)
    p_bench.add_argument("--baseline", default=None, choices=["random"],
                         help="also run a random-search baseline")
    common(p_bench)

    p_est = sub.add_parser("estimate", help="robust correlation estimation from CSV")
    p_est.add_argument("data", help="CSV file, rows = observations")
    common(p_est, with_loss=True)

    p_sim = sub.add_parser("simulate", help="run one contamination scenario")
    p_sim.add_argument("scenario", help="INI scenario config")
    p_sim.add_argument("--seed", type=_at_least(0), default=None,
                       help="override the master seed")
    p_sim.add_argument("--out", default="glasd_out")
    p_sim.add_argument("--force", action="store_true")
    p_sim.add_argument("-v", "--verbose", action="count", default=0)

    p_out = sub.add_parser("outlier-report", help="per-column IQR outlier counts")
    p_out.add_argument("data", help="CSV file")
    p_out.add_argument("--out", default="glasd_out")
    p_out.add_argument("--force", action="store_true")
    p_out.add_argument("-v", "--verbose", action="count", default=0)

    return parser


def _optimizer_config(args) -> OptimizerConfig:
    """The --config file's [optimizer] overrides with the set flags laid over them."""
    overrides = load_optimizer_overrides(args.config) if args.config else {}
    flags = ("max_iters", "stagnation_window", "epsilon")
    overrides.update((key, getattr(args, key)) for key in flags if getattr(args, key) is not None)
    return optimizer_config_from(overrides)


def _benchmark_spec(name: str, variant: str, size: int) -> BenchmarkSpec:
    """The benchmark instance; a name or size it cannot take is a ConfigError."""
    try:
        return BenchmarkSpec(name, "corr-manifold" if variant == "corr" else "box", dim=size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _problem(spec: BenchmarkSpec):
    """The benchmark as a search problem: (objective over the box, box)."""
    if spec.variant == "corr-manifold":
        return MatrixObjective(corr_objective(spec), spec.dim), default_angle_box(spec.dim)
    return BENCHMARKS[spec.name][0], benchmark_box_domain(spec.name, spec.dim)


def _run_benchmark(spec, config, n_starts, master_seed):
    """One multi-start benchmark run; returns (records, secs)."""
    t0 = time.perf_counter()
    records = multi_start_minimize(*_problem(spec), config=config, n_starts=n_starts,
                                   master_seed=master_seed)
    return records, time.perf_counter() - t0


def _search_record(config: OptimizerConfig, records: list[RunRecord], master_seed: int,
                   dim: int) -> dict:
    """The keys result.json and run.json share: the starts with their seeds and
    counters, and the configuration as given and as resolved at search
    dimension ``dim``."""
    return {
        "n_starts": len(records),
        "master_seed": master_seed,
        "per_start": [{"seed": r.seed, "f_best": r.f_best, "termination": r.termination,
                       **r.counters()} for r in records],
        "optimizer_config": asdict(config),
        "optimizer_config_resolved": asdict(config.resolved(dim)),
    }


def cmd_optimize(args) -> int:
    config = _optimizer_config(args)
    master_seed = _resolve_seed(args.seed)
    size = args.M if args.variant == "corr" else args.dim
    spec = _benchmark_spec(args.fn, args.variant, size)
    out = ensure_outdir(args.out, "result.json", args.force)

    records, elapsed = _run_benchmark(spec, config, args.starts, master_seed)
    f_bests = np.array([r.f_best for r in records])
    dim = angle_dim(size) if args.variant == "corr" else size
    record = {
        "command": "optimize",
        "benchmark": args.fn,
        "variant": args.variant,
        "size": size,
        "min_value": float(f_bests.min()),
        "se_of_values": _standard_error(f_bests),
        "mean_runtime_s": elapsed / args.starts,
        **_search_record(config, records, master_seed, dim),
    }
    os.makedirs(out, exist_ok=True)
    write_json(f"{out}/result.json", record)
    for k, rec in enumerate(records):
        write_trace_csv(f"{out}/trace_{k:02d}.csv", rec.trace)
    if args.variant == "corr":
        best = min(records, key=lambda r: r.f_best)
        names = [f"x{j + 1}" for j in range(size)]
        write_matrix_csv(f"{out}/best_matrix.csv", angles_to_corr(best.x_best), names)
        write_angles_csv(f"{out}/best_angles.csv", best.x_best)
    print(f"{args.fn} ({args.variant}, size {size}): min {f_bests.min():.4g}, "
          f"s.e. {_standard_error(f_bests):.4g} over {args.starts} starts")
    return 0


def cmd_benchmark(args) -> int:
    config = _optimizer_config(args)
    master_seed = _resolve_seed(args.seed)
    size = args.M if args.variant == "corr" else args.dim
    names = sorted(BENCHMARKS) if args.fn == "all" else [t.strip() for t in args.fn.split(",")]
    specs = [_benchmark_spec(name, args.variant, size) for name in names]
    out = ensure_outdir(args.out, "benchmark.json", args.force)

    rows = []
    detail = []
    fn_seeds = derive_seeds(master_seed, len(names))
    for k, (name, spec) in enumerate(zip(names, specs)):
        fn_seed = fn_seeds[k]
        records, elapsed = _run_benchmark(spec, config, args.starts, fn_seed)
        f_bests = np.array([r.f_best for r in records])
        rows.append((name, "glasd", float(f_bests.min()), _standard_error(f_bests),
                     elapsed / args.starts))
        detail.append({"benchmark": name, "solver": "glasd", "seed": fn_seed,
                       "values": [r.f_best for r in records]})
        if args.baseline == "random":
            t0 = time.perf_counter()
            objective, domain = _problem(spec)
            budget = config.resolved(domain.dim).max_iters
            base_vals = np.array([
                random_search_minimize(objective, domain, budget, seed=s).f_best
                for s in derive_seeds(fn_seed + 1, args.starts)
            ])
            rows.append((name, "random-search", float(base_vals.min()), _standard_error(base_vals),
                         (time.perf_counter() - t0) / args.starts))
            detail.append({"benchmark": name, "solver": "random-search",
                           "seed": fn_seed + 1, "values": base_vals.tolist()})

    os.makedirs(out, exist_ok=True)
    write_csv(f"{out}/summary.csv",
              ["benchmark", "solver", "min_value", "se_of_values", "mean_runtime_s"], rows)
    write_json(f"{out}/benchmark.json", {
        "command": "benchmark", "variant": args.variant, "size": size,
        "n_starts": args.starts, "master_seed": master_seed,
        "optimizer_config": asdict(config), "runs": detail,
    })
    for name, solver, mn, se, _ in rows:
        print(f"{name:12s} {solver:14s} min {mn:.4g}  s.e. {se:.4g}")
    return 0


def cmd_estimate(args) -> int:
    config = _optimizer_config(args)
    master_seed = _resolve_seed(args.seed)
    spec = make_loss_spec(args.loss, args.threshold)
    data = read_data_csv(args.data)
    out = ensure_outdir(args.out, "run.json", args.force)

    X_std = standardize_columns(data)
    t0 = time.perf_counter()
    fit = estimate_correlation(X_std, spec, config=config,
                               n_starts=args.starts, master_seed=master_seed)
    elapsed = time.perf_counter() - t0

    names = data.names()
    os.makedirs(out, exist_ok=True)
    write_matrix_csv(f"{out}/corr.csv", fit.corr, names)
    write_heatmap_csv(f"{out}/heatmap.csv", fit.corr, names)
    write_json(f"{out}/run.json", {
        "command": "estimate",
        "input": str(args.data),
        "n": data.n, "p": data.p,
        "loss": args.loss,
        "threshold_policy": args.threshold,
        "threshold": fit.threshold,
        "f_best": fit.f_best,
        "runtime_s": elapsed,
        **_search_record(config, fit.records, master_seed, angle_dim(data.p)),
    })
    print(f"estimated {data.p} x {data.p} correlation ({args.loss}); "
          f"objective {fit.f_best:.4g}")
    return 0


def cmd_simulate(args) -> int:
    spec = load_scenario_config(args.scenario)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    out = ensure_outdir(args.out, "scenario.json", args.force)

    result = run_scenario(spec)
    agg = result.aggregate()
    os.makedirs(out, exist_ok=True)
    write_csv(f"{out}/rmse_table.csv", ["loss", "mean_rmse", "se", "mean_runtime"],
              ([ls.kind] + [agg[ls.kind][k] for k in ("mean_rmse", "se_rmse", "mean_runtime_s")]
               for ls in spec.losses))
    write_json(f"{out}/scenario.json", {
        "command": "simulate",
        "config_file": str(args.scenario),
        "spec": asdict(spec),
        "data_seeds": result.data_seeds,
        "cells": [
            {"replicate": c.replicate, "loss": c.loss, "rmse": c.rmse,
             "f_best": c.f_best, "threshold": c.threshold,
             "runtime_s": c.runtime_s, "opt_seed": c.opt_seed, **c.counters}
            for c in result.cells
        ],
        "aggregates": agg,
    })
    for ls in spec.losses:
        a = agg[ls.kind]
        print(f"{ls.kind:10s} rmse {a['mean_rmse']:.4g} (se {a['se_rmse']:.4g})")
    return 0


def cmd_outlier_report(args) -> int:
    data = read_data_csv(args.data)
    out = ensure_outdir(args.out, "run.json", args.force)
    counts = outlier_report(data)
    os.makedirs(out, exist_ok=True)
    write_csv(f"{out}/outliers.csv", ["column", "count"], counts)
    write_json(f"{out}/run.json", {
        "command": "outlier-report",
        "input": str(args.data),
        "n": data.n, "p": data.p,
        "counts": {name: cnt for name, cnt in counts},
    })
    for name, cnt in counts:
        print(f"{name}: {cnt}")
    return 0


_DISPATCH = {
    "optimize": cmd_optimize,
    "benchmark": cmd_benchmark,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "outlier-report": cmd_outlier_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, MalformedDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlasdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure of any other kind
        print(f"error: {exc}", file=sys.stderr)
        if args.verbose:
            traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
