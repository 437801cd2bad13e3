"""Contamination simulation: data generation, corruption, estimation, scoring.

One scenario cell fixes a true correlation structure, a sampling distribution
(gaussian or heavy-tailed t), a contamination mechanism, a size (p, n), and a
set of losses.  Per replicate the harness generates a truth, samples data,
standardizes columns, contaminates the standardized values, estimates one
matrix per loss by multi-start search, and scores each estimate by the root
mean squared error over the unique off-diagonal entries.

Contamination shifts land on the standardized scale.  Standardizing after
contamination instead would let the injected shifts inflate the column scales
and shrink every clean observation toward zero; the weakened data term then
loses to the log-determinant and the corrupted geometry becomes the global
optimum of every loss in the family, robust or not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError
from .estimate import estimate_correlation
from .losses import LossSpec, shrink_to_pd, standardize_columns
from .manifold import angles_to_corr, default_angle_box
from .optimizer import OptimizerConfig, derive_seeds

STRUCTURE_KINDS = ("random-dense", "sparse-uniform", "block-toeplitz")
CONTAMINATION_KINDS = ("none", "rows", "columns", "random")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of values; 0 for fewer than two values."""
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


@dataclass(frozen=True)
class StructureSpec:
    """True correlation structure for one scenario."""

    kind: str
    p: int
    sparsity: float = 0.9                                  # sparse-uniform
    value_range: tuple[float, float] = (0.1, 0.3)          # sparse-uniform
    block_fractions: tuple[float, ...] = (0.25, 0.5, 0.25)  # block-toeplitz
    block_decays: tuple[float, ...] = (0.6, 0.3, 0.4)       # block-toeplitz

    def __post_init__(self):
        if self.kind not in STRUCTURE_KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        lo, hi = self.value_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError("value_range must lie within (0, 1)")
        # every check is written so that NaN fails it
        if not all(f >= 0.0 for f in self.block_fractions):
            raise ValueError("block fractions must be nonnegative numbers")
        if not abs(sum(self.block_fractions) - 1.0) <= 1e-12:
            raise ValueError("block fractions must sum to 1")
        if len(self.block_fractions) != len(self.block_decays):
            raise ValueError("need one decay per block")
        if not all(0.0 < d < 1.0 for d in self.block_decays):
            raise ValueError("decays must lie in (0, 1)")
        if self.kind == "block-toeplitz" and min(_block_sizes(self)) < 1:
            raise ValueError(f"block fractions {self.block_fractions} leave a block "
                             f"empty at p = {self.p}")


def _block_sizes(spec: StructureSpec) -> list[int]:
    """Block sizes of a block-toeplitz structure: rounded fractions of p, the
    last block taking the rest."""
    sizes = [_round_half_up(spec.p * f) for f in spec.block_fractions[:-1]]
    sizes.append(spec.p - sum(sizes))
    return sizes


@dataclass(frozen=True)
class ContaminationSpec:
    """How the sampled data is corrupted before estimation."""

    kind: str = "none"
    fraction: float | None = None          # of rows/columns/entries; kind default
    entry_fraction: tuple[float, float] = (0.3, 0.7)
    shift: float | None = None             # added to each hit entry; kind default

    def __post_init__(self):
        if self.kind not in CONTAMINATION_KINDS:
            raise ValueError(f"unknown contamination kind {self.kind!r}")
        frac = self.fraction
        if frac is None:
            frac = {"none": 0.0, "rows": 0.10, "columns": 0.10, "random": 0.05}[self.kind]
            object.__setattr__(self, "fraction", frac)
        if not 0.0 <= frac <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        lo, hi = self.entry_fraction
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError("entry_fraction bounds must lie in [0, 1]")
        if self.shift is None:
            object.__setattr__(self, "shift", 100.0 if self.kind == "random" else 10.0)
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell."""

    structure: StructureSpec
    n: int
    distribution: str = "gaussian"          # "gaussian" or "t"
    df: float = 3.0
    contamination: ContaminationSpec = field(default_factory=ContaminationSpec)
    losses: tuple[LossSpec, ...] = (
        LossSpec("gaussian"),
        LossSpec("huber", "iqr-auto"),
        LossSpec("truncated", "iqr-auto"),
        LossSpec("tukey", "iqr-auto"),
    )
    replicates: int = 10
    n_starts: int = 10
    master_seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if self.distribution not in ("gaussian", "t"):
            raise ValueError("distribution must be 'gaussian' or 't'")
        if not 1.0 <= self.df < math.inf:
            raise ValueError("df must be finite and >= 1")
        if self.replicates < 1 or self.n_starts < 1:
            raise ValueError("replicates and n_starts must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        kinds = [ls.kind for ls in self.losses]
        if len(set(kinds)) != len(kinds):
            raise ValueError("loss kinds must be unique within a scenario")

    @property
    def p(self) -> int:
        return self.structure.p


@dataclass(frozen=True)
class CellResult:
    replicate: int
    loss: str
    rmse: float
    f_best: float
    threshold: float | None
    runtime_s: float
    opt_seed: int
    counters: dict[str, int]    # RunRecord.counters() summed over the fit's starts


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    cells: list[CellResult]
    data_seeds: list[int]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-loss mean RMSE, its standard error, and mean runtime."""
        out = {}
        for ls in self.spec.losses:
            vals = np.array([c.rmse for c in self.cells if c.loss == ls.kind])
            times = np.array([c.runtime_s for c in self.cells if c.loss == ls.kind])
            out[ls.kind] = {
                "mean_rmse": float(vals.mean()),
                "se_rmse": _standard_error(vals),
                "mean_runtime_s": float(times.mean()),
            }
        return out


def gen_structure(spec: StructureSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a true correlation matrix of the requested structure."""
    p = spec.p
    if spec.kind == "random-dense":
        box = default_angle_box(p)
        return angles_to_corr(rng.uniform(box.lower, box.upper))

    if spec.kind == "sparse-uniform":
        n_pairs = p * (p - 1) // 2
        keep = _round_half_up((1.0 - spec.sparsity) * n_pairs)
        C = np.eye(p)
        if keep > 0:
            chosen = rng.choice(n_pairs, size=keep, replace=False)
            iu, ju = np.triu_indices(p, k=1)
            lo, hi = spec.value_range
            vals = rng.uniform(lo, hi, size=keep)
            C[iu[chosen], ju[chosen]] = vals
            C[ju[chosen], iu[chosen]] = vals
        # identity shrinkage keeps the unit diagonal and the zero pattern
        return shrink_to_pd(C)

    C = np.zeros((p, p))
    start = 0
    for size, decay in zip(_block_sizes(spec), spec.block_decays):
        idx = np.arange(size)
        C[start:start + size, start:start + size] = decay ** np.abs(idx[:, None] - idx[None, :])
        start += size
    return C


def sample_data(C: np.ndarray, n: int, distribution: str, rng: np.random.Generator,
                df: float = 3.0) -> np.ndarray:
    """Sample n rows with correlation/scale C; gaussian or multivariate t."""
    L = np.linalg.cholesky(np.asarray(C, dtype=float))
    Z = rng.standard_normal((n, L.shape[0]))
    X = Z @ L.T
    if distribution == "gaussian":
        return X
    if distribution == "t":
        w = rng.chisquare(df, size=n)
        return X / np.sqrt(w / df)[:, None]
    raise ValueError("distribution must be 'gaussian' or 't'")


def contaminate(X: np.ndarray, spec: ContaminationSpec, rng: np.random.Generator) -> np.ndarray:
    """Corrupted copy of X; the input is never modified."""
    X = np.asarray(X, dtype=float)
    out = X.copy()
    n, p = X.shape
    if spec.kind == "none":
        return out

    if spec.kind in ("rows", "columns"):
        axis_len, other_len = (n, p) if spec.kind == "rows" else (p, n)
        n_sel = _round_half_up(spec.fraction * axis_len)
        if n_sel == 0:
            return out
        selected = rng.choice(axis_len, size=n_sel, replace=False)
        lo, hi = spec.entry_fraction
        for idx in selected:
            frac = rng.uniform(lo, hi)
            k = _round_half_up(frac * other_len)
            if k == 0:
                continue
            hit = rng.choice(other_len, size=k, replace=False)
            if spec.kind == "rows":
                out[idx, hit] += spec.shift
            else:
                out[hit, idx] += spec.shift
        return out

    k = _round_half_up(spec.fraction * n * p)
    if k > 0:
        flat = rng.choice(n * p, size=k, replace=False)
        out.flat[flat] += spec.shift
    return out


def rmse(C_hat: np.ndarray, C_true: np.ndarray) -> float:
    """Root mean squared deviation over the unique off-diagonal entries."""
    A = np.asarray(C_hat, dtype=float)
    B = np.asarray(C_true, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainMismatchError("matrices must be square and equally sized")
    iu, ju = np.triu_indices(A.shape[0], k=1)
    diff = A[iu, ju] - B[iu, ju]
    return float(np.sqrt(np.mean(diff * diff)))


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute every (replicate x loss) cell of the scenario, reproducibly.

    Replicate seeds derive from the master seed; within a replicate, one seed
    drives data generation and one per loss drives the multi-start search, so
    results do not depend on execution order.
    """
    rep_seeds = derive_seeds(spec.master_seed, spec.replicates)
    cells: list[CellResult] = []
    data_seeds: list[int] = []
    for r, rep_seed in enumerate(rep_seeds):
        sub = derive_seeds(rep_seed, 1 + len(spec.losses))
        data_seed, loss_seeds = sub[0], sub[1:]
        data_seeds.append(data_seed)

        rng = np.random.default_rng(data_seed)
        C_true = gen_structure(spec.structure, rng)
        X = sample_data(C_true, spec.n, spec.distribution, rng, df=spec.df)
        X_std = contaminate(standardize_columns(X), spec.contamination, rng)

        for ls, seed in zip(spec.losses, loss_seeds):
            t0 = time.perf_counter()
            try:
                fit = estimate_correlation(
                    X_std, ls, config=spec.optimizer,
                    n_starts=spec.n_starts, master_seed=seed,
                )
            except Exception as exc:
                raise RuntimeError(
                    f"estimation failed in replicate {r} for loss {ls.kind!r}"
                ) from exc
            elapsed = time.perf_counter() - t0
            counts = [rec.counters() for rec in fit.records]
            cells.append(CellResult(
                replicate=r, loss=ls.kind, rmse=rmse(fit.corr, C_true),
                f_best=fit.f_best, threshold=fit.threshold,
                runtime_s=elapsed, opt_seed=seed,
                counters={k: sum(c[k] for c in counts) for k in counts[0]},
            ))
    return ScenarioResult(spec=spec, cells=cells, data_seeds=data_seeds)
