"""Command-line interface.

Subcommands: ``optimize`` (benchmark functions, box or correlation-manifold
variants), ``benchmark`` (summary table over several functions, with an
optional random-search baseline), ``estimate`` (robust correlation estimation
from a CSV), ``simulate`` (contamination scenario from a config file), and
``outlier-report`` (per-column IQR fence counts).

Each command returns its JSON run record; :func:`main` refuses to clobber an
existing one before the command runs and writes the new one after it.

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

    def command(name, help, search=False):
        """A subcommand with the output flags, and the search flags if ``search``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default="glasd_out", help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite an existing run record")
        p.add_argument("-v", "--verbose", action="count", default=0)
        if search:
            p.add_argument("--seed", type=_at_least(0), default=None, help="master seed")
            p.add_argument("--starts", type=_at_least(1), default=10, help="independent restarts")
            p.add_argument("--config", default=None, help="INI file with an [optimizer] section")
            p.add_argument("--max-iters", type=int, default=None)
            p.add_argument("--stagnation-window", type=int, default=None)
            p.add_argument("--epsilon", type=float, default=None)
        return p

    p_opt = command("optimize", "minimize one benchmark function", search=True)
    p_opt.add_argument("--fn", required=True, choices=sorted(BENCHMARKS))
    p_bench = command("benchmark", "summary table over several functions", search=True)
    p_bench.add_argument("--fn", default="all",
                         help="comma-separated benchmark names, or 'all'")
    p_bench.add_argument("--baseline", default=None, choices=["random"],
                         help="also run a random-search baseline")
    for p in (p_opt, p_bench):
        p.add_argument("--variant", default="corr", choices=["box", "corr"])
        p.add_argument("--M", type=_at_least(2), default=5, help="matrix dimension (corr variant)")
        p.add_argument("--dim", type=_at_least(1), default=10, help="vector dimension (box variant)")

    p_est = command("estimate", "robust correlation estimation from CSV", search=True)
    p_est.add_argument("data", help="CSV file, rows = observations")
    p_est.add_argument("--loss", default="gaussian", choices=LOSS_KINDS)
    p_est.add_argument("--threshold", default="iqr",
                       help="'iqr' (per-evaluation Q3+3*IQR cutoff), 'iqr-pilot' (frozen "
                            "under a pilot), or a positive number on the d^2 scale")

    p_sim = command("simulate", "run one contamination scenario")
    p_sim.add_argument("scenario", help="INI scenario config")
    p_sim.add_argument("--seed", type=_at_least(0), default=None,
                       help="override the master seed")

    command("outlier-report", "per-column IQR outlier counts").add_argument("data", help="CSV file")
    return parser


def _search_options(args) -> tuple[OptimizerConfig, int]:
    """The configuration and master seed of a search command: the --config
    file's [optimizer] overrides with the set flags laid over them, and
    --seed or a fresh seed."""
    overrides = load_optimizer_overrides(args.config) if args.config else {}
    flags = ("max_iters", "stagnation_window", "epsilon")
    overrides.update((key, getattr(args, key)) for key in flags if getattr(args, key) is not None)
    return optimizer_config_from(overrides), _resolve_seed(args.seed)


def _problem(name: str, variant: str, size: int):
    """Benchmark ``name`` as a search problem: (objective over the box, box).
    A name or size it cannot take is a ConfigError."""
    try:
        spec = BenchmarkSpec(name, "corr-manifold" if variant == "corr" else "box", dim=size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if variant == "corr":
        return MatrixObjective(corr_objective(spec), size), default_angle_box(size)
    return BENCHMARKS[name][0], benchmark_box_domain(name, size)


def _summary(values, t0: float) -> tuple[float, float, float]:
    """(min, standard error, mean seconds per start since ``t0``) of the
    starts' best ``values``."""
    values = np.asarray(values, dtype=float)
    return float(values.min()), _standard_error(values), (time.perf_counter() - t0) / values.size


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


def cmd_optimize(args) -> dict:
    config, master_seed = _search_options(args)
    size = args.M if args.variant == "corr" else args.dim
    objective, domain = _problem(args.fn, args.variant, size)
    t0 = time.perf_counter()
    records = multi_start_minimize(objective, domain, config=config, n_starts=args.starts,
                                   master_seed=master_seed)
    min_value, se, runtime = _summary([r.f_best for r in records], t0)

    os.makedirs(args.out, exist_ok=True)
    for k, rec in enumerate(records):
        write_trace_csv(f"{args.out}/trace_{k:02d}.csv", rec.trace)
    if args.variant == "corr":
        best = min(records, key=lambda r: r.f_best)
        names = [f"x{j + 1}" for j in range(size)]
        write_matrix_csv(f"{args.out}/best_matrix.csv", angles_to_corr(best.x_best), names)
        write_angles_csv(f"{args.out}/best_angles.csv", best.x_best)
    print(f"{args.fn} ({args.variant}, size {size}): min {min_value:.4g}, "
          f"s.e. {se:.4g} over {args.starts} starts")
    return {
        "benchmark": args.fn, "variant": args.variant, "size": size,
        "min_value": min_value, "se_of_values": se, "mean_runtime_s": runtime,
        **_search_record(config, records, master_seed, domain.dim),
    }


def cmd_benchmark(args) -> dict:
    config, master_seed = _search_options(args)
    size = args.M if args.variant == "corr" else args.dim
    names = sorted(BENCHMARKS) if args.fn == "all" else [t.strip() for t in args.fn.split(",")]
    problems = [_problem(name, args.variant, size) for name in names]

    rows, runs = [], []
    for name, (objective, domain), fn_seed in zip(names, problems,
                                                  derive_seeds(master_seed, len(names))):
        t0 = time.perf_counter()
        values = [r.f_best for r in multi_start_minimize(
            objective, domain, config=config, n_starts=args.starts, master_seed=fn_seed)]
        rows.append((name, "glasd", *_summary(values, t0)))
        runs.append({"benchmark": name, "solver": "glasd", "seed": fn_seed, "values": values})
        if args.baseline == "random":
            t0 = time.perf_counter()
            budget = config.resolved(domain.dim).max_iters
            values = [random_search_minimize(objective, domain, budget, seed=s).f_best
                      for s in derive_seeds(fn_seed + 1, args.starts)]
            rows.append((name, "random-search", *_summary(values, t0)))
            runs.append({"benchmark": name, "solver": "random-search",
                         "seed": fn_seed + 1, "values": values})

    os.makedirs(args.out, exist_ok=True)
    write_csv(f"{args.out}/summary.csv",
              ["benchmark", "solver", "min_value", "se_of_values", "mean_runtime_s"], rows)
    for name, solver, mn, se, _ in rows:
        print(f"{name:12s} {solver:14s} min {mn:.4g}  s.e. {se:.4g}")
    return {"variant": args.variant, "size": size, "n_starts": args.starts,
            "master_seed": master_seed, "optimizer_config": asdict(config), "runs": runs}


def cmd_estimate(args) -> dict:
    config, master_seed = _search_options(args)
    spec = make_loss_spec(args.loss, args.threshold)
    data = read_data_csv(args.data)
    X_std = standardize_columns(data)
    t0 = time.perf_counter()
    fit = estimate_correlation(X_std, spec, config=config,
                               n_starts=args.starts, master_seed=master_seed)
    elapsed = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(f"{args.out}/corr.csv", fit.corr, data.names())
    write_heatmap_csv(f"{args.out}/heatmap.csv", fit.corr, data.names())
    print(f"estimated {data.p} x {data.p} correlation ({args.loss}); "
          f"objective {fit.f_best:.4g}")
    return {
        "input": str(args.data), "n": data.n, "p": data.p,
        "loss": args.loss, "threshold_policy": args.threshold, "threshold": fit.threshold,
        "f_best": fit.f_best, "runtime_s": elapsed,
        **_search_record(config, fit.records, master_seed, angle_dim(data.p)),
    }


def cmd_simulate(args) -> dict:
    spec = load_scenario_config(args.scenario)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    result = run_scenario(spec)
    agg = result.aggregate()

    os.makedirs(args.out, exist_ok=True)
    write_csv(f"{args.out}/rmse_table.csv", ["loss", "mean_rmse", "se", "mean_runtime"],
              ([ls.kind] + [agg[ls.kind][k] for k in ("mean_rmse", "se_rmse", "mean_runtime_s")]
               for ls in spec.losses))
    for ls in spec.losses:
        a = agg[ls.kind]
        print(f"{ls.kind:10s} rmse {a['mean_rmse']:.4g} (se {a['se_rmse']:.4g})")
    return {
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
    }


def cmd_outlier_report(args) -> dict:
    data = read_data_csv(args.data)
    counts = outlier_report(data)
    os.makedirs(args.out, exist_ok=True)
    write_csv(f"{args.out}/outliers.csv", ["column", "count"], counts)
    for name, cnt in counts:
        print(f"{name}: {cnt}")
    return {"input": str(args.data), "n": data.n, "p": data.p, "counts": dict(counts)}


_DISPATCH = {
    "optimize": cmd_optimize,
    "benchmark": cmd_benchmark,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "outlier-report": cmd_outlier_report,
}
# the file in --out that holds each command's run record
_RECORDS = {
    "optimize": "result.json",
    "benchmark": "benchmark.json",
    "estimate": "run.json",
    "simulate": "scenario.json",
    "outlier-report": "run.json",
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        out = ensure_outdir(args.out, _RECORDS[args.command], args.force)
        record = _DISPATCH[args.command](args)
        write_json(f"{out}/{_RECORDS[args.command]}", {"command": args.command, **record})
        return 0
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
