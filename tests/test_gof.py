"""Adequacy statistics against hand-expanded, integral-checked oracles.

Frozen Anderson-Darling values come from tests/oracles/gen_gof.py: the
order-statistic sums are expanded at 30 digits and cross-checked against
mpmath integration of the defining weighted Cramer-von Mises integrals
(agreement to 25+ digits).
"""

import math

import numpy as np
import pytest

from bcsym.distribution import BcsParams, cdf, quantile, sample
from bcsym.estimation import FitResult, LikelihoodContext, fit
from bcsym.families import DensityFamily
from bcsym.gof import (
    FitFailedError,
    GofReport,
    LrTestResult,
    anderson_darling_suite,
    gof_report,
    lr_test_lambda_zero,
    qq_data,
    quantile_residuals,
)
from bcsym.rng import RngStream
from bcsym.special import chi2_survival, std_normal_cdf, std_normal_quantile

# frozen by tests/oracles/gen_gof.py
FROZEN_2PT = (0.2493405784752333, 0.1246702892376166, 0.652047132856657)
FROZEN_4PT = (0.17164966840209566, 0.085925798731204084, 0.73344820680184004)
FROZEN_PLOT_1E4_AD = 0.000191704115269


def _identity(u):
    return u


# ---------------------------------------------------------------------------
# Anderson-Darling suite.

def test_ad_suite_frozen_two_point():
    stats = anderson_darling_suite(np.array([0.25, 0.75]), _identity)
    for got, want in zip(stats, FROZEN_2PT):
        assert abs(got - want) < 1e-13


def test_ad_suite_frozen_four_point():
    stats = anderson_darling_suite(np.array([0.4, 0.9, 0.1, 0.65]), _identity)
    for got, want in zip(stats, FROZEN_4PT):
        assert abs(got - want) < 1e-13


def test_ad_suite_order_invariance():
    u = np.array([0.7, 0.2, 0.5, 0.9, 0.05])
    assert anderson_darling_suite(u, _identity) == anderson_darling_suite(np.sort(u), _identity)


def test_ad_suite_probability_transform_invariance():
    # computing on (y, fitted cdf) equals computing on (u, identity) exactly
    params = BcsParams(1.8, 0.6, 0.5, DensityFamily.student_t(4.0))
    y = 2.0 * (np.linspace(0.05, 0.95, 25) / np.linspace(0.95, 0.05, 25)) ** 0.4
    u = np.asarray(cdf(params, y), dtype=float)
    assert anderson_darling_suite(y, lambda v: cdf(params, v)) == anderson_darling_suite(
        u, _identity
    )


def test_ad_suite_accepts_scalar_only_cdf():
    u = np.array([0.25, 0.75])
    vectorized = anderson_darling_suite(u, _identity)
    scalar_only = anderson_darling_suite(u, lambda v: float(v))
    assert vectorized == scalar_only


def test_ad_suite_perfect_plotting_positions_small():
    n = 10**4
    u = (np.arange(1, n + 1) - 0.5) / n
    ad, adr, ad2r = anderson_darling_suite(u, _identity)
    assert abs(ad - FROZEN_PLOT_1E4_AD) < 1e-11
    assert 0.0 < ad < 0.01
    assert 0.0 < adr < 0.01


def test_ad_right_tail_sensitivity():
    # pushing the largest u toward 1 moves AD2R far more than AD
    n = 50
    base = (np.arange(1, n + 1) - 0.5) / n
    pushed = base.copy()
    pushed[-1] = 1.0 - 1e-6
    ad0, _, ad2r0 = anderson_darling_suite(base, _identity)
    ad1, _, ad2r1 = anderson_darling_suite(pushed, _identity)
    assert ad1 > ad0
    assert ad2r1 > ad2r0
    assert ad2r1 - ad2r0 > 100.0 * (ad1 - ad0)


def test_ad_suite_lower_for_generating_model():
    truth = BcsParams(2.0, 0.5, 0.7, DensityFamily.normal())
    y = sample(truth, 2000, RngStream(20260816, 55))
    misfit = BcsParams(2.0, 0.5, 1.7, DensityFamily.normal())
    s_true = anderson_darling_suite(y, lambda v: cdf(truth, v))
    s_mis = anderson_darling_suite(y, lambda v: cdf(misfit, v))
    assert all(t < m for t, m in zip(s_true, s_mis))


def test_ad_suite_validation():
    with pytest.raises(ValueError, match="two"):
        anderson_darling_suite(np.array([0.5]), _identity)
    for u in ([0.0, 0.5], [0.5, 1.0], [-0.1, 0.5], [0.5, 1.2], [0.5, math.nan]):
        with pytest.raises(ValueError):
            anderson_darling_suite(np.array(u), _identity)


def test_ad_suite_clamps_near_boundary():
    # values inside (0, 1) but beyond the floor are pulled to it, exactly
    a = anderson_darling_suite(np.array([1e-15, 0.5, 1.0 - 1e-15]), _identity)
    b = anderson_darling_suite(np.array([1e-12, 0.5, 1.0 - 1e-12]), _identity)
    assert a == b
    assert all(math.isfinite(v) for v in a)


# ---------------------------------------------------------------------------
# Likelihood-ratio test.

def test_lr_test_under_null():
    truth = BcsParams(2.0, 0.5, 0.0, DensityFamily.normal())
    y = sample(truth, 200, RngStream(20260816, 51))
    res = lr_test_lambda_zero(y, DensityFamily.normal())
    assert isinstance(res, LrTestResult)
    assert res.statistic >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    # nesting: freeing lambda cannot lose likelihood
    assert res.loglik_full >= res.loglik_null - 1e-9
    assert res.p_value == float(chi2_survival(res.statistic))
    assert res.p_value > 0.05


def test_lr_test_exactly_symmetric_data_gives_zero():
    # data exactly log-symmetric about 2: the lambda = 0 submodel already
    # attains the full maximum, so the floored statistic is zero
    grid = np.linspace(-1.5, 1.5, 21)
    y = 2.0 * np.exp(0.5 * grid)
    res = lr_test_lambda_zero(y, DensityFamily.normal())
    assert res.statistic < 1e-7
    assert res.p_value > 0.999


def test_lr_test_rejects_under_alternative():
    truth = BcsParams(2.0, 0.5, 1.5, DensityFamily.normal())
    y = sample(truth, 400, RngStream(20260816, 57))
    res = lr_test_lambda_zero(y, DensityFamily.normal())
    assert res.statistic > 10.0
    assert res.p_value < 0.01


def test_lr_test_propagates_fit_failure():
    y = 1.0 + 1e-12 * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    with pytest.raises(FitFailedError) as exc_info:
        lr_test_lambda_zero(y, DensityFamily.normal())
    assert exc_info.value.which in ("null (lambda = 0)", "full")
    assert "converge" in str(exc_info.value)


# ---------------------------------------------------------------------------
# Quantile residuals.

def test_quantile_residual_zero_at_fitted_median():
    params = BcsParams(1.5, 0.4, 0.5, DensityFamily.student_t(4.0))
    y_med = quantile(params, 0.5)
    r = quantile_residuals(np.array([y_med]), params)
    assert abs(r[0]) < 1e-7


def test_quantile_residuals_monotone_in_y():
    params = BcsParams(1.8, 0.6, -0.4, DensityFamily.logistic_i())
    y = np.sort(2.0 * (np.linspace(0.05, 0.95, 40) / np.linspace(0.95, 0.05, 40)) ** 0.4)
    r = quantile_residuals(y, params)
    assert np.all(np.diff(r) >= 0.0)


def test_quantile_residuals_calibrated_under_truth():
    truth = BcsParams(1.5, 0.4, 0.5, DensityFamily.student_t(4.0))
    y = sample(truth, 10000, RngStream(20260816, 53))
    r = quantile_residuals(y, truth)
    assert abs(float(np.mean(r))) < 0.05
    assert 0.9 <= float(np.var(r)) <= 1.1


def test_quantile_residuals_boundary_error():
    params = BcsParams(2.0, 0.5, 1.0, DensityFamily.normal())
    with pytest.raises(ValueError, match="inside"):
        quantile_residuals(np.array([2.0, 1e300]), params)
    with pytest.raises(ValueError):
        quantile_residuals(np.array([]), params)


# ---------------------------------------------------------------------------
# QQ data emission.

def test_qq_data_single_residual():
    pairs = qq_data(np.array([1.7]))
    assert pairs.shape == (1, 2)
    assert pairs[0, 0] == 0.0
    assert pairs[0, 1] == 1.7


def test_qq_data_sorted_and_diagonal_for_exact_scores():
    # residuals that are exactly the plotting-position quantiles, shuffled:
    # the pairs land exactly on the diagonal
    n = 101
    scores = std_normal_quantile((np.arange(1, n + 1) - 0.5) / n)
    shuffled = scores[np.argsort(np.sin(np.arange(n)))]
    pairs = qq_data(shuffled)
    assert np.all(np.diff(pairs[:, 0]) > 0.0)
    assert np.all(np.diff(pairs[:, 1]) >= 0.0)
    np.testing.assert_array_equal(pairs[:, 0], pairs[:, 1])


def test_qq_data_near_diagonal_for_sampled_normals():
    n = 2000
    r = np.asarray(std_normal_quantile(RngStream(20260816, 59).uniforms(n)))
    pairs = qq_data(r)
    # deviation measured on the probability scale obeys the 95% KS band
    gap = np.abs(std_normal_cdf(pairs[:, 1]) - (np.arange(1, n + 1) - 0.5) / n)
    assert float(np.max(gap)) < 1.36 / math.sqrt(n)


def test_qq_data_rejects_empty():
    with pytest.raises(ValueError):
        qq_data(np.array([]))


# ---------------------------------------------------------------------------
# Report assembly.

def test_gof_report_assembly():
    truth = BcsParams(2.0, 0.5, 0.7, DensityFamily.normal())
    y = sample(truth, 300, RngStream(20260816, 61))
    r = fit(LikelihoodContext(y, DensityFamily.normal()))
    assert r.converged
    report = gof_report(y, r)
    assert isinstance(report, GofReport)
    assert report.aic == r.aic
    assert report.quantile_residuals.shape == y.shape
    assert not report.clamped
    expected = (report.ad, report.adr, report.ad2r)
    assert anderson_darling_suite(y, lambda v: cdf(r.params, v)) == expected
    np.testing.assert_array_equal(report.quantile_residuals, quantile_residuals(y, r.params))
    assert all(math.isfinite(v) for v in expected)


def _stub_fit_result(params):
    k = 2.0
    return FitResult(
        params=params,
        loglik=-1.0,
        aic=2.0 * k + 2.0,
        free_names=("mu", "sigma"),
        estimates={},
        std_errors={},
        converged=True,
        iterations=1,
        gradient_norm=0.0,
        mode="analytic",
        message="",
    )


def test_gof_report_flags_clamping():
    params = BcsParams(1.0, 1.0, 0.0, DensityFamily.normal())
    # cdf value about 7e-14 at the far-left point: inside (0,1), below the floor
    y = np.array([math.exp(-7.4), 1.0, math.exp(7.4)])
    report = gof_report(y, _stub_fit_result(params))
    assert report.clamped
    assert all(math.isfinite(v) for v in (report.ad, report.adr, report.ad2r))
    tame = gof_report(np.array([0.5, 1.0, 2.0]), _stub_fit_result(params))
    assert not tame.clamped
