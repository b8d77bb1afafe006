"""Box-Cox symmetric distributions.

Four-parameter positive-data models built by applying the Box-Cox
transformation to a symmetric generator: density, distribution, quantile,
and sampling routines; right-tail classification; maximum-likelihood fitting
with analytic score and observed information; LR testing of the
log-symmetric submodel; goodness-of-fit statistics; and Monte Carlo study
harnesses.  The ``bcsym`` console command exposes the same operations.

Underflow follows numpy's setting, which is silent by default, and is guarded
nowhere; every other floating-point event is guarded with ``np.errstate``
where it is expected.
"""

from .distribution import (
    LAMBDA_SEAM,
    BcsParams,
    MomentResult,
    TruncationInfo,
    cdf,
    centile_cv,
    inverse_transform,
    log_pdf,
    log_symmetric_centile_cv,
    moment,
    pdf,
    power_transform_law,
    quantile,
    rescale,
    sample,
    survival,
    transform,
    truncation,
)
from .estimation import (
    FitResult,
    LikelihoodContext,
    fit,
    hessian,
    loglik,
    score,
)
from .families import (
    DensityFamily,
    FamilyKind,
    eval_generator,
    symmetric_cdf,
    symmetric_quantile,
    symmetric_survival,
    weight_derivative,
    weight_function,
)
from .gof import (
    FitFailedError,
    GofReport,
    LrTestResult,
    anderson_darling_suite,
    gof_report,
    lr_test_lambda_zero,
    qq_data,
    quantile_residuals,
)
from .rng import RngStream
from .simulate import (
    CellResult,
    ParameterSummary,
    RecoveryResult,
    SimulationPlan,
    SimulationResult,
    run_recovery_study,
    run_type1_study,
)
from .tails import (
    TailCategory,
    TailForm,
    TailReport,
    classify,
    empirical_tail_slope,
    tail_form,
    tail_index,
)

__all__ = [
    "LAMBDA_SEAM",
    "BcsParams",
    "CellResult",
    "DensityFamily",
    "FamilyKind",
    "FitFailedError",
    "FitResult",
    "GofReport",
    "LikelihoodContext",
    "LrTestResult",
    "MomentResult",
    "ParameterSummary",
    "RecoveryResult",
    "RngStream",
    "SimulationPlan",
    "SimulationResult",
    "TailCategory",
    "TailForm",
    "TailReport",
    "TruncationInfo",
    "anderson_darling_suite",
    "cdf",
    "centile_cv",
    "classify",
    "empirical_tail_slope",
    "eval_generator",
    "fit",
    "gof_report",
    "hessian",
    "inverse_transform",
    "log_pdf",
    "log_symmetric_centile_cv",
    "loglik",
    "lr_test_lambda_zero",
    "moment",
    "pdf",
    "power_transform_law",
    "qq_data",
    "quantile",
    "quantile_residuals",
    "rescale",
    "run_recovery_study",
    "run_type1_study",
    "sample",
    "score",
    "survival",
    "symmetric_cdf",
    "symmetric_quantile",
    "symmetric_survival",
    "tail_form",
    "tail_index",
    "transform",
    "truncation",
    "weight_derivative",
    "weight_function",
]
