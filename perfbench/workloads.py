"""The three benchmark workloads: inputs from a seed, one timed job, its checks.

Each workload object is built from the benchmark seed (the program sees only
the generated scenario spec or argument list), runs one fixed-budget job per
``run()`` through a public entry point (``glasd.simulate.run_scenario`` or
``glasd.cli.main``), and ``check()``s the job's outputs afterwards, outside
the timed region.  Early stopping is switched off (``epsilon = 0``) so every
job does the same number of optimizer iterations whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import glasd.cli
import glasd.simulate
from glasd.benchmarks import BenchmarkSpec, eval_benchmark
from glasd.errors import GlasdError
from glasd.losses import LossSpec, loss_robust, resolved_spec
from glasd.manifold import check_correlation
from glasd.optimizer import OptimizerConfig
from glasd.simulate import ContaminationSpec, ScenarioSpec, StructureSpec

REL_TOL = 1e-9    # f_best against the reference re-evaluation


@dataclass
class Outcome:
    """What one checked job produced."""

    attempted: int      # fits or CLI calls
    errors: list        # one message per failed fit or call
    digest: str         # SHA-256 of the canonical outputs
    iterations: int     # optimizer iterations in the job
    quality: dict       # {"rmse_mean": ...} or {"f_best_mean": ...}


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= REL_TOL * max(abs(b), 1.0)


def _mask_runtime(obj):
    """The determinism mask of the test suite: drop keys naming 'runtime'."""
    if isinstance(obj, dict):
        return {k: _mask_runtime(v) for k, v in obj.items() if "runtime" not in k}
    if isinstance(obj, list):
        return [_mask_runtime(v) for v in obj]
    return obj


def _canonical_file(path: Path) -> bytes:
    """File bytes with runtime JSON keys and runtime CSV columns masked."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        return json.dumps(_mask_runtime(json.loads(raw)), sort_keys=True).encode()
    if path.suffix == ".csv":
        lines = raw.decode("utf-8").splitlines()
        keep = [i for i, h in enumerate(lines[0].split(",")) if "runtime" not in h]
        return "\n".join(",".join(ln.split(",")[i] for i in keep) for ln in lines).encode()
    return raw


# The scenario cells, and their (replicates, starts, max_iters) budgets.
SCENARIOS = {
    "scenario-p20": dict(
        structure=StructureSpec("sparse-uniform", p=20), n=100, distribution="gaussian",
        contamination=ContaminationSpec("rows", fraction=0.10),
        losses=(LossSpec("gaussian"), LossSpec("huber", "iqr-auto"),
                LossSpec("tukey", "iqr-auto"))),
    "scenario-p50": dict(
        structure=StructureSpec("block-toeplitz", p=50), n=500, distribution="t", df=3.0,
        contamination=ContaminationSpec("none"),
        losses=(LossSpec("truncated", "iqr-pilot"), LossSpec("tukey", "iqr-auto"))),
}
BUDGETS = {"scenario-p20": (2, 2, 500), "scenario-p50": (1, 2, 600)}
TINY_BUDGET = (1, 1, 20)


class ScenarioWorkload:
    """``run_scenario`` on one cell with a fixed optimizer budget."""

    def __init__(self, name: str, seed: int, tiny: bool):
        replicates, starts, iters = TINY_BUDGET if tiny else BUDGETS[name]
        self.spec = ScenarioSpec(
            **SCENARIOS[name], replicates=replicates, n_starts=starts,
            master_seed=_seeds(seed, 1)[0],
            optimizer=OptimizerConfig(max_iters=iters, epsilon=0.0))
        self.p, self.n = self.spec.p, self.spec.n
        self.attempts = replicates * len(self.spec.losses)
        self._fits: list = []
        self._result = None

    @contextlib.contextmanager
    def capturing(self):
        """Record (data, loss, fit) of every fit, as run_scenario looks it up."""
        orig = glasd.simulate.estimate_correlation

        def capture(X, spec, *args, **kwargs):
            fit = orig(X, spec, *args, **kwargs)
            self._fits.append((X, spec, fit))
            return fit
        glasd.simulate.estimate_correlation = capture
        try:
            yield
        finally:
            glasd.simulate.estimate_correlation = orig

    def run(self) -> None:
        self._fits = []
        self._result = glasd.simulate.run_scenario(self.spec)

    def check(self) -> Outcome:
        cells, fits = self._result.cells, self._fits
        errors = []
        if not len(cells) == len(fits) == self.attempts:
            errors.append(f"{len(cells)} cells, {len(fits)} fits, expected {self.attempts}")
        h = hashlib.sha256()
        iterations = 0
        for cell, (X, spec, fit) in zip(cells, fits):
            iterations += sum(rec.iterations for rec in fit.records)
            try:
                _check_fit(cell, X, spec, fit)
            except (ValueError, GlasdError) as exc:
                errors.append(f"replicate {cell.replicate} loss {cell.loss}: "
                              f"{type(exc).__name__}: {exc}")
                continue
            h.update(np.ascontiguousarray(fit.corr, dtype="<f8").tobytes())
            h.update(repr(float(fit.f_best)).encode())
            for rec in fit.records:
                h.update(np.ascontiguousarray(rec.trace, dtype="<f8").tobytes())
        table = {"cells": [{"replicate": c.replicate, "loss": c.loss, "rmse": c.rmse,
                            "f_best": c.f_best, "threshold": c.threshold,
                            "runtime_s": c.runtime_s, "opt_seed": c.opt_seed}
                           for c in cells],
                 "aggregates": self._result.aggregate()}
        h.update(json.dumps(_mask_runtime(table), sort_keys=True).encode())
        rmse_mean = float(np.mean([c.rmse for c in cells])) if cells else math.nan
        return Outcome(self.attempts, errors, h.hexdigest(), iterations,
                       {"rmse_mean": rmse_mean})


def _check_fit(cell, X, spec, fit) -> None:
    """Raise unless the fit is a valid matrix whose f_best re-evaluates."""
    check_correlation(fit.corr)
    ref = loss_robust(X, fit.corr, resolved_spec(X, spec))
    if not _close(fit.f_best, ref) or cell.f_best != fit.f_best:
        raise ValueError(f"f_best {fit.f_best!r} vs reference {ref!r}")
    if not (math.isfinite(cell.rmse) and cell.rmse >= 0.0):
        raise ValueError(f"rmse {cell.rmse!r}")


class CliWorkload:
    """Two ``glasd optimize`` calls into a fresh directory."""

    def __init__(self, seed: int, tiny: bool, work_root: Path):
        s_box, s_corr = _seeds(seed, 2)
        extra = ["--starts", "2", "--max-iters", "20"] if tiny else ["--max-iters", "400"]
        extra += ["--epsilon", "0"]
        self.calls = {
            "box": ["optimize", "--variant", "box", "--fn", "rastrigin", "--dim", "100",
                    "--seed", str(s_box)] + extra,
            "corr": ["optimize", "--variant", "corr", "--fn", "ackley", "--M", "10",
                     "--seed", str(s_corr)] + extra,
        }
        self.attempts = len(self.calls)
        self.work_root = work_root
        self._dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work_root))
        self._codes: dict = {}

    @contextlib.contextmanager
    def capturing(self):
        yield

    def run(self) -> None:
        self._codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv in self.calls.items():
                self._codes[label] = glasd.cli.main(argv + ["--out", str(self._dir / label)])

    def check(self) -> Outcome:
        errors, h, iterations, values = [], hashlib.sha256(), 0, []
        try:
            for label in self.calls:
                out = self._dir / label
                try:
                    iterations += self._check_call(label, out, values)
                except (OSError, ValueError, KeyError, IndexError, GlasdError) as exc:
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                for path in sorted(out.iterdir()):
                    h.update(f"{label}/{path.name}\n".encode())
                    h.update(_canonical_file(path))
        finally:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_root))
        f_best_mean = float(np.mean(values)) if values else math.nan
        return Outcome(self.attempts, errors, h.hexdigest(), iterations,
                       {"f_best_mean": f_best_mean})

    def _check_call(self, label: str, out: Path, values: list) -> int:
        """Raise ValueError unless the call's artifacts are consistent."""
        if self._codes[label] != 0:
            raise ValueError(f"exit code {self._codes[label]}")
        record = json.loads((out / "result.json").read_text(encoding="utf-8"))
        bests = [s["f_best"] for s in record["per_start"]]
        if not all(math.isfinite(v) for v in bests) or record["min_value"] != min(bests):
            raise ValueError(f"min_value {record['min_value']!r} vs per-start {bests!r}")
        for k, best in enumerate(bests):
            last = (out / f"trace_{k:02d}.csv").read_text(encoding="utf-8").splitlines()[-1]
            if float(last.split(",")[2]) != best:
                raise ValueError(f"trace_{k:02d}.csv ends at {last!r}, f_best {best!r}")
        if record["variant"] == "corr":
            lines = (out / "best_matrix.csv").read_text(encoding="utf-8").splitlines()[1:]
            C = np.array([[float(v) for v in ln.split(",")] for ln in lines])
            check_correlation(C)
            again = eval_benchmark(BenchmarkSpec(record["benchmark"], "corr-manifold",
                                                 dim=record["size"]), C)
            if not _close(record["min_value"], again):
                raise ValueError(f"min_value {record['min_value']!r}, re-evaluated {again!r}")
        values.extend(bests)
        return sum(s["iterations"] for s in record["per_start"])


def make(name: str, seed: int, tiny: bool, work_root: Path):
    if name == "cli-testfn":
        return CliWorkload(seed, tiny, work_root)
    return ScenarioWorkload(name, seed, tiny)
