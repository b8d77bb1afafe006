"""Model adequacy: LR test of lambda = 0, Anderson-Darling variants, residuals.

The three Anderson-Darling statistics are the order-statistic forms of the
weighted Cramer-von Mises integrals with weights 1/(F(1-F)), 1/(1-F) and
1/(1-F)^2; the last two emphasize the right tail.  Lower is better for all
three.  Quantile residuals are the normal quantiles of the fitted cdf and
behave approximately as a standard normal sample under a correct model.

Probability transforms are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before
logs and reciprocals, and reports carry a flag when the clamp fires.  A BCS
law has support (0, inf), so in ``gof_report`` and ``quantile_residuals`` its
cdf rounds to an exact 0 or 1 only at observations far in a tail, and those
are clamped too.  ``gof_report`` and ``bcsym compare`` share one private
helper, ``_gof``, for the clamped probabilities and the three statistics;
only ``gof_report`` goes on to the quantile residuals.  ``anderson_darling_suite`` takes any cdf callable, and
rejects an exact 0 or 1 as an observation outside the model's support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import BcsParams, cdf
from .estimation import FitResult, LikelihoodContext, fit
from .families import DensityFamily
from .special import chi2_survival, std_normal_quantile

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LrTestResult:
    statistic: float
    p_value: float
    loglik_null: float
    loglik_full: float


@dataclass(frozen=True, eq=False)
class GofReport:
    aic: float
    ad: float
    adr: float
    ad2r: float
    quantile_residuals: np.ndarray
    clamped: bool


class FitFailedError(RuntimeError):
    """A maximum-likelihood fit required by a procedure did not converge."""

    def __init__(self, which: str, result: FitResult):
        super().__init__(f"{which} model fit did not converge: {result.message}")
        self.which = which
        self.result = result


def lr_test_lambda_zero(
    data,
    family: DensityFamily,
    mode: str = "analytic",
    fit_extra: bool = False,
) -> LrTestResult:
    """Likelihood-ratio test of the log-symmetric submodel lambda = 0.

    Twice the log-likelihood gap, floored at zero against optimizer noise,
    referred to chi-squared with one degree of freedom.  The full fit is
    warm-started from the null solution, so the nesting inequality holds
    numerically and not just in exact arithmetic.
    """
    null_fit = fit(
        LikelihoodContext(data, family, fixed_lambda=0.0, fit_extra=fit_extra),
        mode=mode,
    )
    if not null_fit.converged:
        raise FitFailedError("null (lambda = 0)", null_fit)
    full_fit = fit(
        LikelihoodContext(data, family, fit_extra=fit_extra),
        init=null_fit.params,
        mode=mode,
    )
    if not full_fit.converged:
        raise FitFailedError("full", full_fit)
    statistic = max(2.0 * (full_fit.loglik - null_fit.loglik), 0.0)
    return LrTestResult(
        statistic=statistic,
        p_value=float(chi2_survival(statistic)),
        loglik_null=null_fit.loglik,
        loglik_full=full_fit.loglik,
    )


def _check_finite(u: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise ValueError("fitted cdf produced non-finite values")
    return u


def _check_open_unit(u: np.ndarray) -> np.ndarray:
    _check_finite(u)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("fitted cdf must lie strictly inside (0, 1) on the data")
    return u


def _clamp_probs(u: np.ndarray) -> tuple[np.ndarray, bool]:
    clipped = np.clip(u, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return clipped, bool(np.any(clipped != u))


def _bcs_probs(params: BcsParams, ya: np.ndarray) -> tuple[np.ndarray, bool]:
    """The clamped cdf of a BCS law on the data, and whether the clamp fired.

    A BCS law has support (0, inf): a cdf of exactly 0 or 1 is rounding far
    in a tail, not an observation outside the support.
    """
    return _clamp_probs(_check_finite(np.asarray(cdf(params, ya), dtype=float)))


def _eval_cdf(fitted_cdf, ya: np.ndarray) -> np.ndarray:
    try:
        u = np.asarray(fitted_cdf(ya), dtype=float)
        if u.shape != ya.shape:
            raise TypeError
    except TypeError:
        u = np.fromiter((float(fitted_cdf(v)) for v in ya), dtype=float, count=ya.size)
    return u


def _ad_statistics(u_sorted: np.ndarray) -> tuple[float, float, float]:
    n = u_sorted.size
    w = 2.0 * np.arange(1, n + 1, dtype=float) - 1.0
    rev = u_sorted[::-1]
    log_1m_rev = np.log1p(-rev)
    ad = -n - float(np.sum(w * (np.log(u_sorted) + log_1m_rev))) / n
    adr = n / 2.0 - 2.0 * float(np.sum(u_sorted)) - float(np.sum(w * log_1m_rev)) / n
    ad2r = 2.0 * float(np.sum(np.log1p(-u_sorted))) + float(np.sum(w / (1.0 - rev))) / n
    return ad, adr, ad2r


def anderson_darling_suite(data, fitted_cdf) -> tuple[float, float, float]:
    """(AD, ADR, AD2R) of the data under a fitted cdf callable.

    The statistics depend on the data only through the probability
    transforms u_i = F(y_(i)), so any strictly monotone rescaling applied
    consistently to data and model leaves them unchanged.
    """
    ya = np.asarray(data, dtype=float).ravel()
    if ya.size < 2:
        raise ValueError("need at least two observations")
    u = _check_open_unit(_eval_cdf(fitted_cdf, ya))
    u, _ = _clamp_probs(u)
    return _ad_statistics(np.sort(u))


def quantile_residuals(data, fitted: BcsParams) -> np.ndarray:
    """Normal quantiles of the fitted cdf, one per observation."""
    ya = np.asarray(data, dtype=float).ravel()
    if ya.size == 0:
        raise ValueError("need at least one observation")
    u, _ = _bcs_probs(fitted, ya)
    return np.asarray(std_normal_quantile(u), dtype=float)


def qq_data(residuals) -> np.ndarray:
    """(theoretical, empirical) normal QQ pairs, ascending in both columns.

    Theoretical coordinates are the plotting-position quantiles
    Phi^-1((i - 0.5) / n); plotting itself is left to the caller.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if r.size == 0:
        raise ValueError("need at least one residual")
    n = r.size
    positions = (np.arange(1, n + 1, dtype=float) - 0.5) / n
    theoretical = np.asarray(std_normal_quantile(positions), dtype=float)
    return np.column_stack((theoretical, np.sort(r)))


def _gof(data, params: BcsParams) -> tuple[np.ndarray, bool, tuple[float, float, float]]:
    """(the clamped cdf of a BCS law on the data, whether the clamp fired,
    (AD, ADR, AD2R)): what ``gof_report`` and ``bcsym compare`` share, without
    the quantile residuals, which compare does not print."""
    ya = np.asarray(data, dtype=float).ravel()
    if ya.size < 2:
        raise ValueError("need at least two observations")
    u, clamped = _bcs_probs(params, ya)
    return u, clamped, _ad_statistics(np.sort(u))


def gof_report(data, fit_result: FitResult) -> GofReport:
    """Assemble the adequacy summary for a fitted model on its data."""
    u, clamped, (ad, adr, ad2r) = _gof(data, fit_result.params)
    return GofReport(
        aic=fit_result.aic,
        ad=ad,
        adr=adr,
        ad2r=ad2r,
        quantile_residuals=np.asarray(std_normal_quantile(u), dtype=float),
        clamped=clamped,
    )
