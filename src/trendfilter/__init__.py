"""L1 trend filtering: joint piecewise-linear trend recovery with kink detection.

Fits minimize 0.5 * ||y - mu||^2 + lam * sum |mu_t - 2 mu_{t-1} + mu_{t-2}|
via two independent production routes (pathwise fused runs on slopes, lasso
coordinate descent on slope changes), certified by a KKT oracle, with SIC/MC
tuning selection and a replicated simulation benchmark.
"""

__version__ = "0.1.0"

from .core import (
    KinkSet,
    LambdaPath,
    PathEntry,
    TimeSeries,
    TrendFit,
    extract_kinks,
    objective_value,
)
from .design import (
    DesignZ,
    irrepresentable_holds,
    irrepresentable_vectors,
    second_diff,
    spectral_check,
)
from .kkt import KktReport, affine_fit, check_kkt, lambda_max, oracle_solve
from .selection import SelectionScore, default_grid, score, select
from .simulate import (
    ExperimentConfig,
    NoiseSpec,
    PiecewiseLinearSpec,
    add_noise,
    example1,
    example2,
    gen_trend,
    hausdorff,
    relative_error,
    run_experiment,
    sign_consistency,
)

__all__ = [
    "TimeSeries", "TrendFit", "KinkSet", "LambdaPath", "PathEntry",
    "extract_kinks", "objective_value",
    "DesignZ", "second_diff", "spectral_check", "irrepresentable_vectors",
    "irrepresentable_holds",
    "KktReport", "check_kkt", "affine_fit", "lambda_max", "oracle_solve",
    "SelectionScore", "score", "select", "default_grid",
    "PiecewiseLinearSpec", "NoiseSpec", "ExperimentConfig",
    "gen_trend", "add_noise", "relative_error", "hausdorff",
    "sign_consistency", "run_experiment", "example1", "example2",
    "__version__",
]
