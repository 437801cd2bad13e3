"""In-memory span tracing at glasd's layer boundaries, and per-layer metrics.

A ``Tracer`` replaces public functions by timing wrappers in the namespace of
the module that calls them, because each glasd module looks its
collaborators up in its own globals at call time (``glasd.manifold`` calls
``cholesky_rows`` through ``glasd.manifold.cholesky_rows``).  A span records
name, start, end, parent span and job id; spans stay in a list until the run
ends.  A boundary that no longer exists is reported as absent instead of
failing, so the tracer survives refactors that rename or merge functions.

The layer of a span is the prefix of its name.  Two spans are made at run
time rather than from the table: the objective handed to ``glasd_minimize``
(``losses.objective.<kind>`` inside a correlation fit, ``benchmarks.objective``
otherwise) and the move-counting callback the tracer injects
(``trace.callback``).
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("optimizer", "manifold", "losses", "estimate", "simulate",
          "benchmarks", "artifacts", "cli", "trace")
LOSS_KINDS = ("gaussian", "huber", "truncated", "tukey")

# every per-layer metric with its unit; a layer that does not run reports 0
UNITS = {
    "optimizer.starts": "count",
    "optimizer.iterations": "count",
    "optimizer.self_us_per_iter": "us",
    "optimizer.objective_us_per_call": "us",
    "optimizer.accept_frac": "ratio",
    "optimizer.explore_frac": "ratio",
    "optimizer.stagnation_frac": "ratio",
    "manifold.cholesky_rows.calls": "count",
    "manifold.cholesky_rows.us_per_call": "us",
    "manifold.angles_to_corr.calls": "count",
    "manifold.angles_to_corr.us_per_call": "us",
    "manifold.self_ms": "ms",
    "losses.eval_us_per_call": "us",
    **{f"losses.{kind}.us_per_call": "us" for kind in LOSS_KINDS},
    "losses.solve_flops_per_eval": "flop_computed",
    "losses.bytes_per_eval": "B_computed",
    "losses.gflops": "GFLOP/s",
    "estimate.fits": "count",
    "estimate.self_ms_per_fit": "ms",
    "simulate.datagen_ms": "ms",
    "simulate.rmse_us": "us",
    "simulate.rmse_mean": "1",
    "benchmarks.fn_us_per_call": "us",
    "benchmarks.f_best_mean": "1",
    "artifacts.files": "count",
    "artifacts.bytes": "B",
    "artifacts.write_ms": "ms",
    "cli.self_ms": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

# (module, attribute as that module looks it up, span name, wrapper kind)
BOUNDARIES = (
    ("glasd.simulate", "run_scenario", "simulate.run_scenario", "plain"),
    ("glasd.cli", "main", "cli.main", "plain"),
    ("glasd.simulate", "gen_structure", "simulate.gen_structure", "plain"),
    ("glasd.simulate", "sample_data", "simulate.sample_data", "plain"),
    ("glasd.simulate", "standardize_columns", "simulate.standardize_columns", "plain"),
    ("glasd.simulate", "contaminate", "simulate.contaminate", "plain"),
    ("glasd.simulate", "rmse", "simulate.rmse", "plain"),
    ("glasd.simulate", "estimate_correlation", "estimate.estimate_correlation", "fit"),
    ("glasd.estimate", "resolved_spec", "losses.resolved_spec", "plain"),
    ("glasd.estimate", "pilot_correlation", "losses.pilot_correlation", "plain"),
    ("glasd.estimate", "iqr_threshold", "losses.iqr_threshold", "plain"),
    ("glasd.estimate", "mahalanobis_sq_all", "losses.mahalanobis_sq_all", "plain"),
    ("glasd.estimate", "loss_robust", "losses.loss_robust", "plain"),
    ("glasd.estimate", "loss_robust_from_factor", "losses.loss_robust_from_factor", "plain"),
    ("glasd.estimate", "corr_to_angles", "manifold.corr_to_angles", "plain"),
    ("glasd.estimate", "minimize_over_corr", "manifold.minimize_over_corr", "plain"),
    ("glasd.cli", "minimize_over_corr", "manifold.minimize_over_corr", "plain"),
    ("glasd.manifold", "cholesky_rows", "manifold.cholesky_rows", "plain"),
    ("glasd.manifold", "angles_to_corr", "manifold.angles_to_corr", "plain"),
    ("glasd.manifold", "default_angle_box", "manifold.default_angle_box", "plain"),
    ("glasd.manifold", "multi_start_minimize", "optimizer.multi_start_minimize", "plain"),
    ("glasd.cli", "multi_start_minimize", "optimizer.multi_start_minimize", "plain"),
    ("glasd.optimizer", "glasd_minimize", "optimizer.glasd_minimize", "minimize"),
    ("glasd.benchmarks", "BENCHMARKS", "benchmarks.fn", "testfns"),
    ("glasd.cli", "ensure_outdir", "artifacts.ensure_outdir", "plain"),
    ("glasd.cli", "write_json", "artifacts.write_json", "writer"),
    ("glasd.cli", "write_trace_csv", "artifacts.write_trace_csv", "writer"),
    ("glasd.cli", "write_matrix_csv", "artifacts.write_matrix_csv", "writer"),
    ("glasd.cli", "write_angles_csv", "artifacts.write_angles_csv", "writer"),
)


class Tracer:
    """Installs span wrappers, collects spans and counters per traced job."""

    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index, job)
        self.job = 0
        self.absent: set[str] = set()
        self.counts = defaultdict(lambda: defaultdict(int))   # job -> counter
        self._stack: list[int] = []
        self._kind: str | None = None    # loss kind of the fit being traced
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
        return traced

    def _fit(self, name, orig):
        inner = self._span(name, orig)

        def fit(X, spec, *args, **kwargs):
            outer, self._kind = self._kind, getattr(spec, "kind", "unknown")
            try:
                return inner(X, spec, *args, **kwargs)
            finally:
                self._kind = outer
        return fit

    def _minimize(self, name, orig):
        inner = self._span(name, orig)
        try:
            takes_callback = "callback" in inspect.signature(orig).parameters
        except (TypeError, ValueError):
            takes_callback = False

        def minimize(f, *args, **kwargs):
            c = self.counts[self.job]
            obj_name = f"losses.objective.{self._kind}" if self._kind else "benchmarks.objective"
            if takes_callback and len(args) < 3:
                user_cb = kwargs.get("callback")

                def count_moves(state, move):
                    c["moves"] += 1
                    c["explore"] += bool(getattr(move, "explore", False))
                    c["accepted"] += bool(getattr(move, "accepted", False))
                    if user_cb is not None:
                        user_cb(state, move)
                kwargs["callback"] = self._span("trace.callback", count_moves)
            record = inner(self._span(obj_name, f), *args, **kwargs)
            c["starts"] += 1
            c["iterations"] += int(getattr(record, "iterations", 0))
            c["stagnation"] += getattr(record, "termination", "") == "stagnation"
            return record
        return minimize

    def _writer(self, name, orig):
        inner = self._span(name, orig)

        def writer(path, *args, **kwargs):
            out = inner(path, *args, **kwargs)
            c = self.counts[self.job]
            c["files"] += 1
            c["bytes"] += os.path.getsize(path)
            return out
        return writer

    def install(self) -> None:
        """Wrap every boundary that exists; remember the absent ones."""
        for mod_name, attr, name, kind in BOUNDARIES:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            orig = getattr(module, attr, None)
            if kind == "testfns":
                if not isinstance(orig, dict):
                    self.absent.add(f"{mod_name}.{attr}")
                    continue
                for key, entry in list(orig.items()):
                    if isinstance(entry, tuple) and entry and callable(entry[0]):
                        self._patches.append((orig, key, entry, "item"))
                        orig[key] = (self._span(name, entry[0]),) + entry[1:]
                continue
            if not callable(orig):
                self.absent.add(f"{mod_name}.{attr}")
                continue
            make = {"plain": self._span, "fit": self._fit,
                    "minimize": self._minimize, "writer": self._writer}[kind]
            self._patches.append((module, attr, orig, "attr"))
            setattr(module, attr, make(name, orig))

    def uninstall(self) -> None:
        for owner, key, orig, how in reversed(self._patches):
            if how == "item":
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "job"])
            w.writerows(s for s in self.spans if s is not None)


def job_summaries(tracer: Tracer, p: int, n: int) -> dict:
    """Per-layer metrics and summed self time of every traced job, by job id.

    ``p`` and ``n`` are the data shape of the fits (0 when nothing is fitted).
    """
    by_job = defaultdict(dict)
    for i, s in enumerate(tracer.spans):
        if s is not None:
            by_job[s[4]][i] = s
    return {job: _job_summary(spans, tracer.counts[job], p, n)
            for job, spans in by_job.items()}


def _job_summary(spans: dict, c, p: int, n: int) -> tuple[dict, float]:
    child = defaultdict(float)
    manifold_child = defaultdict(float)
    for name, t0, t1, parent, _ in spans.values():
        if parent in spans:
            child[parent] += t1 - t0
            if name.startswith("manifold."):
                manifold_child[parent] += t1 - t0
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    roots = 0.0          # wall covered by the job's top-level spans
    for i, (name, t0, t1, parent, _) in spans.items():
        s = (t1 - t0) - child[i]
        dur[name] += t1 - t0
        self_t[name] += s
        calls[name] += 1
        layer_self[name.split(".")[0]] += s
        if parent not in spans:
            roots += t1 - t0
    loss_t = defaultdict(float)
    loss_n = defaultdict(int)
    for i, (name, t0, t1, _, _) in spans.items():
        if name.startswith("losses.objective."):
            kind = name.rsplit(".", 1)[1]
            loss_t[kind] += (t1 - t0) - manifold_child[i]
            loss_n[kind] += 1

    iters = c["iterations"]
    starts = c["starts"]
    moves = c["moves"]

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    obj_t = sum(v for k, v in dur.items() if ".objective" in k)
    obj_n = sum(v for k, v in calls.items() if ".objective" in k)
    evals = sum(loss_n.values())
    loss_total = sum(loss_t.values())
    solve_flops = float(n * p * p) if evals else 0.0
    datagen = ("simulate.gen_structure", "simulate.sample_data",
               "simulate.standardize_columns", "simulate.contaminate")
    writes = [k for k in dur if k.startswith("artifacts.write_")]
    m = {
        "optimizer.starts": starts,
        "optimizer.iterations": iters,
        "optimizer.self_us_per_iter": per(self_t["optimizer.glasd_minimize"], iters, 1e6),
        "optimizer.objective_us_per_call": per(obj_t, obj_n, 1e6),
        "optimizer.accept_frac": per(c["accepted"], moves),
        "optimizer.explore_frac": per(c["explore"], moves),
        "optimizer.stagnation_frac": per(c["stagnation"], starts),
        "manifold.cholesky_rows.calls": calls["manifold.cholesky_rows"],
        "manifold.cholesky_rows.us_per_call": per(dur["manifold.cholesky_rows"],
                                                  calls["manifold.cholesky_rows"], 1e6),
        "manifold.angles_to_corr.calls": calls["manifold.angles_to_corr"],
        "manifold.angles_to_corr.us_per_call": per(dur["manifold.angles_to_corr"],
                                                   calls["manifold.angles_to_corr"], 1e6),
        "manifold.self_ms": layer_self["manifold"] * 1e3,
        "losses.eval_us_per_call": per(loss_total, evals, 1e6),
    }
    for kind in LOSS_KINDS:
        m[f"losses.{kind}.us_per_call"] = per(loss_t[kind], loss_n[kind], 1e6)
    m.update({
        # computed, not measured: forward solve L^-1 X^T (n p^2 flops) and the
        # bytes it must touch at least once (packed factor, data in, result out)
        "losses.solve_flops_per_eval": solve_flops,
        "losses.bytes_per_eval": 8.0 * (p * (p + 1) / 2 + 2 * n * p) if evals else 0.0,
        "losses.gflops": per(solve_flops * evals, loss_total, 1e-9),
        "estimate.fits": calls["estimate.estimate_correlation"],
        "estimate.self_ms_per_fit": per(layer_self["estimate"],
                                        calls["estimate.estimate_correlation"], 1e3),
        "simulate.datagen_ms": sum(dur[k] for k in datagen) * 1e3,
        "simulate.rmse_us": per(dur["simulate.rmse"], calls["simulate.rmse"], 1e6),
        "benchmarks.fn_us_per_call": per(dur["benchmarks.fn"], calls["benchmarks.fn"], 1e6),
        "artifacts.files": c["files"],
        "artifacts.bytes": c["bytes"],
        "artifacts.write_ms": sum(dur[k] for k in writes) * 1e3,
        "cli.self_ms": self_t["cli.main"] * 1e3,
    })
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per(layer_self[layer], roots)
    return m, sum(layer_self.values())
