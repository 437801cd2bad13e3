"""Gradient-free global optimization over boxes and correlation matrices.

The box optimizer accepts any black-box objective on a compact
hyperrectangle; the manifold layer maps angle vectors bijectively to
full-rank correlation matrices so the same optimizer drives robust
correlation estimation under Gaussian, Huber, truncated, and biweight
objectives.
"""

from .benchmarks import BenchmarkSpec, eval_benchmark, vec_offdiag
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainMismatchError,
    GlasdError,
    MalformedDataError,
    NotPositiveDefiniteError,
    ObjectiveEvaluationError,
)
from .estimate import EstimateResult, estimate_correlation
from .losses import (
    AngleObjective,
    DataMatrix,
    LossSpec,
    iqr_threshold,
    loss_gaussian,
    loss_robust,
    mahalanobis_sq_all,
    outlier_report,
    read_data_csv,
    rho_huber,
    rho_truncated,
    rho_tukey,
    sample_correlation,
    shrink_to_pd,
    standardize_columns,
)
from .manifold import (
    MatrixObjective,
    angle_dim,
    angles_to_corr,
    cholesky_rows,
    corr_to_angles,
    default_angle_box,
    factor_row,
    minimize_over_corr,
)
from .optimizer import (
    BoxDomain,
    OptimizerConfig,
    RunRecord,
    Search,
    acceptance_prob,
    asd_minimize,
    glasd_minimize,
    multi_start_minimize,
    random_search_minimize,
)
from .simulate import (
    ContaminationSpec,
    ScenarioSpec,
    StructureSpec,
    contaminate,
    gen_structure,
    rmse,
    run_scenario,
    sample_data,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec", "eval_benchmark", "vec_offdiag",
    "ConfigError", "DegenerateDataError", "DomainMismatchError", "GlasdError",
    "MalformedDataError", "NotPositiveDefiniteError", "ObjectiveEvaluationError",
    "EstimateResult", "estimate_correlation",
    "AngleObjective", "DataMatrix", "LossSpec", "iqr_threshold", "loss_gaussian", "loss_robust",
    "mahalanobis_sq_all", "outlier_report",
    "read_data_csv", "rho_huber", "rho_truncated",
    "rho_tukey", "sample_correlation", "shrink_to_pd", "standardize_columns",
    "MatrixObjective", "angle_dim", "angles_to_corr", "cholesky_rows", "corr_to_angles",
    "default_angle_box", "factor_row", "minimize_over_corr",
    "BoxDomain", "OptimizerConfig", "RunRecord", "Search", "acceptance_prob",
    "asd_minimize", "glasd_minimize", "multi_start_minimize",
    "random_search_minimize",
    "ContaminationSpec", "ScenarioSpec", "StructureSpec", "contaminate",
    "gen_structure", "rmse", "run_scenario", "sample_data",
]
