"""End-to-end robust correlation estimation from a standardized data matrix.

Pipeline: resolve the loss threshold policy (a pilot-frozen cutoff resolves
here; the per-evaluation policy resolves inside the loss), warm-start one
search from the positive-definite-repaired sample correlation, run
independent restarts over the angle box, keep the matrix with the smallest
objective value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError
from .losses import (AngleObjective, LossSpec, _iqr_cutoff, _sq_dist, _values,
                     pilot_correlation, resolved_spec)
from .manifold import (angles_to_corr, check_correlation, cholesky_rows, corr_to_angles,
                       default_angle_box)
from .optimizer import OptimizerConfig, RunRecord, _resolve_seed, multi_start_minimize


@dataclass(frozen=True)
class EstimateResult:
    corr: np.ndarray
    f_best: float
    threshold: float | None     # d^2-scale cutoff in force at the solution
    records: list[RunRecord]
    seed: int


def estimate_correlation(
    X_std: np.ndarray,
    spec: LossSpec,
    config: OptimizerConfig | None = None,
    n_starts: int = 10,
    master_seed: int | None = None,
) -> EstimateResult:
    """Fit a correlation matrix to standardized data under the given loss.

    ``X_std`` must already be column-standardized.  ``n_starts`` restarts are
    seeded from ``master_seed``, else from ``config.seed``, else from a fresh
    seed; the first restart is warm-started from the positive-definite-repaired
    sample correlation.  The reported threshold is the d^2-scale cutoff in
    force at the returned solution: for 'iqr-auto', Q3 + 3*IQR of the squared
    distances under the best angles' factor; the number itself for a fixed or
    pilot-frozen threshold; None for gaussian.

    The returned matrix passes :func:`check_correlation`, else this raises
    NotPositiveDefiniteError: a frozen truncated or biweight cutoff leaves the
    objective unbounded below toward singular matrices.
    """
    X_std = _values(X_std)
    pilot = pilot_correlation(X_std)
    spec = resolved_spec(X_std, spec, pilot)
    warm = corr_to_angles(pilot)

    master_seed = _resolve_seed(master_seed, config)
    records = multi_start_minimize(
        AngleObjective(X_std, spec), default_angle_box(X_std.shape[1]), config=config,
        n_starts=n_starts, master_seed=master_seed, x0_first=warm,
    )
    best = min(records, key=lambda r: r.f_best)
    corr = angles_to_corr(best.x_best)
    try:
        check_correlation(corr)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"the {spec.kind} fit ended at a matrix that is not positive definite; "
            "a frozen cutoff leaves the objective unbounded below toward singular "
            "matrices") from exc
    thr = spec.threshold
    if thr == "iqr-auto":
        thr = _iqr_cutoff(np.sort(_sq_dist(X_std, cholesky_rows(best.x_best))))
    return EstimateResult(corr=corr, f_best=best.f_best,
                          threshold=None if thr is None else float(thr),
                          records=records, seed=master_seed)
