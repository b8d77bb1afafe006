"""Likelihood derivatives and the ML fitter, cross-checked numerically.

The analytic score is tested against finite differences of the
log-likelihood and the analytic observed information against finite
differences of the score; the two routes share no derivative code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsym import estimation
from bcsym.distribution import BcsParams, log_pdf, sample, transform
from bcsym.estimation import (
    PARAM_NAMES,
    DerivativeBundle,
    FitResult,
    LikelihoodContext,
    derivative_bundle,
    fit,
    fixed_point_check,
    hessian,
    loglik,
    score,
    _phi1,
    _phi2,
)
from bcsym.families import DensityFamily, FamilyKind, weight_derivative, weight_function
from bcsym.numdiff import finite_diff_gradient, finite_diff_jacobian
from bcsym.rng import RngStream

# deterministic skewed positive data, no RNG involved
_P = np.linspace(0.05, 0.95, 25)
DATA = 2.0 * (_P / (1.0 - _P)) ** 0.4

FAMILIES = {
    "normal": DensityFamily.normal(),
    "de": DensityFamily.double_exponential(),
    "pe15": DensityFamily.power_exponential(1.5),
    "cauchy": DensityFamily.cauchy(),
    "t4": DensityFamily.student_t(4.0),
    "logi": DensityFamily.logistic_i(),
    "logii": DensityFamily.logistic_ii(),
    "cslash": DensityFamily.canonical_slash(),
    "slash2": DensityFamily.slash(2.0),
}

# Families whose generator density tail s^-g has g <= 3.  For those the
# truncation part of the lambda-lambda second derivative has no limit at
# lambda = 0 (the log R(v) term behaves like |lambda|^(g-1)), so the
# lambda = 0 branch is the symmetric principal part and finite differences
# straddling zero diverge; the entry is excluded from the grid check below
# and covered by the one-sided continuity test instead.
HEAVY_AT_ZERO = {"cauchy", "cslash", "slash2"}

LAMBDA_GRID = (-0.7, 0.0, 0.5, 1.3)


def _params(name, lam):
    return BcsParams(1.8, 0.6, lam, FAMILIES[name])


def _ctx(name, **kwargs):
    return LikelihoodContext(DATA, FAMILIES[name], **kwargs)


def _numeric_score(ctx, params):
    fam = params.family

    def ll(theta):
        lam_t = theta[2] if abs(theta[2]) > 1e-8 else 0.0
        return loglik(ctx, BcsParams(theta[0], theta[1], lam_t, fam))

    return finite_diff_gradient(ll, np.array([params.mu, params.sigma, params.lam]))


# ---------------------------------------------------------------------------
# Derivatives against finite differences.

@pytest.mark.parametrize("lam", LAMBDA_GRID)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_score_matches_numeric_gradient(name, lam):
    ctx = _ctx(name)
    params = _params(name, lam)
    s = score(ctx, params)
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, _numeric_score(ctx, params), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("lam", LAMBDA_GRID)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_hessian_matches_score_differences(name, lam):
    ctx = _ctx(name)
    params = _params(name, lam)
    H = hessian(ctx, params)
    assert np.allclose(H, H.T)

    fam = FAMILIES[name]

    def sc(theta):
        lam_t = theta[2] if abs(theta[2]) > 1e-8 else 0.0
        return score(ctx, BcsParams(theta[0], theta[1], lam_t, fam))

    Hfd = finite_diff_jacobian(sc, np.array([1.8, 0.6, lam]), step=1e-5)
    Hfd = 0.5 * (Hfd + Hfd.T)
    mask = np.ones((3, 3), dtype=bool)
    if lam == 0.0 and name in HEAVY_AT_ZERO:
        mask[2, 2] = False
    np.testing.assert_allclose(H[mask], Hfd[mask], rtol=1e-5, atol=1e-5)


def test_lambda_lambda_entry_continuity_light_tail():
    # with a light generator tail the lambda = 0 branch is the full limit
    ctx = _ctx("t4")
    h0 = hessian(ctx, _params("t4", 0.0))[2, 2]
    h1 = hessian(ctx, _params("t4", 1e-6))[2, 2]
    assert abs(h1 - h0) < 1e-3 * (1.0 + abs(h0))


def test_lambda_lambda_entry_heavy_tail_one_sided():
    # slash(2) has generator tail exponent 3: the nonzero-lambda branch is
    # continuous in lambda and matches finite differences of the score, but
    # its limit differs from the lambda = 0 branch by a finite truncation
    # contribution that the principal-part formulas exclude.
    ctx = _ctx("slash2")
    fam = FAMILIES["slash2"]
    vals = {}
    for lam in (1e-6, 1e-5):
        params = BcsParams(1.8, 0.6, lam, fam)
        vals[lam] = hessian(ctx, params)[2, 2]
        h = 0.5 * lam
        sp = score(ctx, BcsParams(1.8, 0.6, lam + h, fam))[2]
        sm = score(ctx, BcsParams(1.8, 0.6, lam - h, fam))[2]
        fd = (sp - sm) / (2.0 * h)
        assert abs(vals[lam] - fd) < 1e-5 * (1.0 + abs(fd))
    assert abs(vals[1e-6] - vals[1e-5]) < 1e-3 * (1.0 + abs(vals[1e-5]))
    zero_branch = hessian(ctx, BcsParams(1.8, 0.6, 0.0, fam))[2, 2]
    assert abs(vals[1e-6] - zero_branch) > 1.0


def test_loglik_is_sum_of_log_densities():
    ctx = _ctx("t4")
    for lam in (-0.5, 0.0, 0.8):
        params = _params("t4", lam)
        direct = float(np.sum(log_pdf(params, DATA)))
        assert abs(loglik(ctx, params) - direct) < 1e-12 * (1.0 + abs(direct))


def test_loglik_closed_form_single_point_at_median():
    # y = mu, lambda = 0, normal generator: z = 0, no truncation, and the
    # density is the standard normal peak scaled by 1 / (y sigma)
    mu, sigma = 3.0, 0.25
    ctx = LikelihoodContext(np.array([mu]), DensityFamily.normal())
    val = loglik(ctx, BcsParams(mu, sigma, 0.0, DensityFamily.normal()))
    expected = -math.log(mu) - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)
    assert abs(val - expected) < 1e-12


# ---------------------------------------------------------------------------
# The extra-parameter row (finite differences inside score/hessian).

def test_score_and_hessian_grow_with_extra():
    ctx = _ctx("t4", fit_extra=True)
    params = _params("t4", 0.5)
    s = score(ctx, params)
    H = hessian(ctx, params)
    assert s.shape == (4,)
    assert H.shape == (4, 4)
    assert np.allclose(H, H.T)
    np.testing.assert_allclose(s[:3], score(_ctx("t4"), params), rtol=0, atol=0)
    np.testing.assert_allclose(H[:3, :3], hessian(_ctx("t4"), params), rtol=0, atol=0)


def test_extra_entries_match_full_numeric_hessian():
    ctx = _ctx("t4", fit_extra=True)
    params = _params("t4", 0.5)

    def ll(theta):
        fam = DensityFamily.student_t(theta[3])
        return loglik(ctx, BcsParams(theta[0], theta[1], theta[2], fam))

    theta0 = np.array([1.8, 0.6, 0.5, 4.0])
    s_fd = finite_diff_gradient(ll, theta0)
    np.testing.assert_allclose(score(ctx, params), s_fd, rtol=1e-5, atol=1e-6)
    H_fd = finite_diff_jacobian(
        lambda t: finite_diff_gradient(ll, t, step=1e-5), theta0, step=1e-5
    )
    H_fd = 0.5 * (H_fd + H_fd.T)
    np.testing.assert_allclose(hessian(ctx, params), H_fd, rtol=5e-3, atol=1e-2)


# ---------------------------------------------------------------------------
# The single-observation derivative bundle.

def test_derivative_bundle_matches_transform_differences():
    fam = DensityFamily.student_t(4.0)
    for lam in (-0.7, 0.4, 1e-6):
        for y in (0.9, 1.8, 3.5):
            params = BcsParams(1.8, 0.6, lam, fam)
            b = derivative_bundle(y, params)
            assert isinstance(b, DerivativeBundle)
            assert abs(b.z - transform(params, y)) < 1e-12 * (1.0 + abs(b.z))

            def z_of(theta):
                return transform(BcsParams(theta[0], 0.6, theta[1], fam), y)

            theta0 = np.array([1.8, lam])
            g = finite_diff_gradient(z_of, theta0)
            assert abs(b.dz_dmu - g[0]) < 1e-6 * (1.0 + abs(g[0]))
            assert abs(b.dz_dlambda - g[1]) < 1e-6 * (1.0 + abs(g[1]))
            Hz = finite_diff_jacobian(
                lambda t: finite_diff_gradient(z_of, t, step=1e-4), theta0, step=1e-4
            )
            assert abs(b.d2z_dmu2 - Hz[0, 0]) < 1e-5 * (1.0 + abs(Hz[0, 0]))
            assert abs(b.d2z_dlambda2 - Hz[1, 1]) < 1e-5 * (1.0 + abs(Hz[1, 1]))
            mixed = 0.5 * (Hz[0, 1] + Hz[1, 0])
            assert abs(b.d2z_dmudlambda - mixed) < 1e-5 * (1.0 + abs(mixed))


def test_derivative_bundle_zero_lambda_limits():
    mu, sigma, y = 1.8, 0.6, 3.5
    u = math.log(y / mu)
    b = derivative_bundle(y, BcsParams(mu, sigma, 0.0, DensityFamily.normal()))
    assert abs(b.z - u / sigma) < 1e-15
    assert b.dz_dmu == -1.0 / (mu * sigma)
    assert b.dz_dlambda == u * u / (2.0 * sigma)
    assert b.d2z_dmu2 == 1.0 / (sigma * mu * mu)
    assert b.d2z_dlambda2 == u**3 / (3.0 * sigma)
    assert b.d2z_dmudlambda == -u / (mu * sigma)
    assert b.xi == b.dxi_dsigma == b.dxi_dlambda == 0.0


def test_derivative_bundle_seam_uses_limit_formulas():
    # inside the seam the bundle does not refuse: it switches to the limits
    fam = DensityFamily.student_t(4.0)
    b_seam = derivative_bundle(3.5, BcsParams(1.8, 0.6, 1e-12, fam))
    b_zero = derivative_bundle(3.5, BcsParams(1.8, 0.6, 0.0, fam))
    assert b_seam == b_zero


def test_derivative_bundle_edge_quantities():
    fam = DensityFamily.student_t(4.0)
    for lam in (-0.7, 0.5):
        params = BcsParams(1.8, 0.6, lam, fam)
        b = derivative_bundle(3.5, params)
        assert b.xi > 0.0
        assert b.varpi == float(weight_function(fam, b.z))
        assert b.dvarpi_dz == float(weight_derivative(fam, b.z))

        def xi_of(theta):
            p = BcsParams(1.8, theta[0], theta[1], fam)
            return derivative_bundle(3.5, p).xi

        g = finite_diff_gradient(xi_of, np.array([0.6, lam]))
        assert abs(b.dxi_dsigma - g[0]) < 1e-5 * (1.0 + abs(g[0]))
        assert abs(b.dxi_dlambda - g[1]) < 1e-5 * (1.0 + abs(g[1]))


@pytest.mark.parametrize("lam", LAMBDA_GRID)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_derivative_bundle_sums_to_score(name, lam):
    # the per-observation chain rule, summed, is the score: d log f / d mu =
    # -lambda/mu - varpi z dz/dmu and d log f / d lambda = log(y/mu)
    # - varpi z dz/dlambda + xi v / lambda, the last from -log R(v)
    params = _params(name, lam)
    s = score(_ctx(name), params)
    bundles = [derivative_bundle(y, params) for y in DATA]
    s_mu = sum(-lam / params.mu - b.varpi * b.z * b.dz_dmu for b in bundles)
    s_lam = sum(
        math.log(y / params.mu) - b.varpi * b.z * b.dz_dlambda for y, b in zip(DATA, bundles)
    )
    if lam != 0.0:
        v = 1.0 / (params.sigma * abs(lam))
        s_lam += DATA.size * bundles[0].xi * v / lam
    assert abs(s_mu - s[0]) <= 1e-10 * abs(s[0])
    assert abs(s_lam - s[2]) <= 1e-10 * abs(s[2])


def test_derivative_bundle_rejects_bad_y():
    params = _params("normal", 0.5)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            derivative_bundle(bad, params)


# ---------------------------------------------------------------------------
# The phi helpers around their series seams.

def test_phi_series_seam_continuity():
    for f, seam in ((_phi1, 1e-3), (_phi2, 1e-2)):
        for sign in (1.0, -1.0):
            w = sign * seam
            below = float(f(w * (1.0 - 1e-9)))
            above = float(f(w * (1.0 + 1e-9)))
            assert abs(above - below) < 1e-8 * abs(above)


def test_phi_leading_order():
    w = 1e-6
    assert abs(float(_phi1(w)) / (w * w / 2.0) - 1.0) < 1e-5
    assert abs(float(_phi2(w)) / (w**3 / 3.0) - 1.0) < 1e-5
    assert float(_phi1(0.0)) == 0.0
    assert float(_phi2(0.0)) == 0.0


# ---------------------------------------------------------------------------
# Seam and data validation.

def test_seam_lambda_is_rejected():
    ctx = _ctx("normal")
    params = BcsParams(1.8, 0.6, 1e-12, FAMILIES["normal"])
    for call in (
        lambda: score(ctx, params),
        lambda: hessian(ctx, params),
        lambda: fixed_point_check(ctx, params),
    ):
        with pytest.raises(ValueError, match="seam"):
            call()


def test_context_validates_data():
    for bad in ([], [1.0, -2.0], [1.0, 0.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            LikelihoodContext(np.array(bad, dtype=float), FAMILIES["normal"])


def test_context_validates_specification():
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match="extra"):
        LikelihoodContext(y, DensityFamily.normal(), fit_extra=True)
    with pytest.raises(ValueError):
        LikelihoodContext(y, DensityFamily.normal(), fixed_lambda=math.inf)
    assert LikelihoodContext(y, DensityFamily.normal(), fixed_lambda=5e-9).fixed_lambda == 0.0
    ctx = LikelihoodContext(y, DensityFamily.student_t(4.0), fit_extra=True)
    assert ctx.n == 5
    assert ctx.free_names == ("mu", "sigma", "lambda", "tau")
    assert LikelihoodContext(y, DensityFamily.normal(), fixed_lambda=0.0).free_names == (
        "mu",
        "sigma",
    )


# ---------------------------------------------------------------------------
# Fitting.

def test_fit_recovers_normal_bcs():
    truth = BcsParams(2.0, 0.5, 1.5, DensityFamily.normal())
    y = sample(truth, 800, RngStream(20260816, 12))
    ctx = LikelihoodContext(y, DensityFamily.normal())
    r = fit(ctx)
    assert isinstance(r, FitResult)
    assert r.converged
    assert r.gradient_norm < 1e-6
    assert r.free_names == ("mu", "sigma", "lambda")
    assert r.mode == "analytic"
    assert abs(r.aic - (2.0 * 3 - 2.0 * r.loglik)) < 1e-12 * (1.0 + abs(r.loglik))
    for name, true_val in (("mu", 2.0), ("sigma", 0.5), ("lambda", 1.5)):
        se = r.std_errors[name]
        assert math.isfinite(se) and se > 0.0
        assert abs(r.estimates[name] - true_val) < 3.0 * se
    # interior maximum: the observed information is positive definite
    assert np.all(np.linalg.eigvalsh(hessian(ctx, r.params)) < 0.0)
    fp = fixed_point_check(ctx, r.params)
    assert fp.residual_mu < 1e-8
    assert fp.residual_sigma < 1e-8


def test_fit_estimates_extra_parameter():
    truth = BcsParams(1.5, 0.4, 0.5, DensityFamily.student_t(4.0))
    y = sample(truth, 1500, RngStream(20260816, 13))
    ctx = LikelihoodContext(y, DensityFamily.student_t(10.0), fit_extra=True)
    r = fit(ctx)
    assert r.converged
    assert r.free_names == ("mu", "sigma", "lambda", "tau")
    assert abs(r.aic - (2.0 * 4 - 2.0 * r.loglik)) < 1e-12 * (1.0 + abs(r.loglik))
    for name, true_val in (("mu", 1.5), ("sigma", 0.4), ("lambda", 0.5), ("tau", 4.0)):
        se = r.std_errors[name]
        assert math.isfinite(se) and se > 0.0
        assert abs(r.estimates[name] - true_val) < 3.0 * se
    assert r.params.family.extra == r.estimates["tau"]
    fp = fixed_point_check(ctx, r.params)
    assert fp.residual_mu < 1e-6
    assert fp.residual_sigma < 1e-6


def test_fit_fixed_lambda_zero_hits_weighted_geometric_mean():
    truth = BcsParams(2.0, 0.5, 0.0, DensityFamily.normal())
    y = sample(truth, 400, RngStream(20260816, 31))
    ctx = LikelihoodContext(y, DensityFamily.normal(), fixed_lambda=0.0)
    r = fit(ctx)
    assert r.converged
    assert r.free_names == ("mu", "sigma")
    assert "lambda" not in r.estimates
    assert r.params.lam == 0.0
    # constant weights for the normal generator: mu is the geometric mean
    gm = math.exp(float(np.mean(np.log(y))))
    assert abs(r.params.mu / gm - 1.0) < 1e-7
    fp = fixed_point_check(ctx, r.params)
    assert abs(fp.mu_implied / gm - 1.0) < 1e-14
    assert fp.residual_sigma < 1e-8


def test_fit_fixed_lambda_nonzero():
    truth = BcsParams(2.0, 0.5, 0.7, DensityFamily.normal())
    y = sample(truth, 300, RngStream(20260816, 33))
    r = fit(LikelihoodContext(y, DensityFamily.normal(), fixed_lambda=0.7))
    assert r.converged
    assert r.params.lam == 0.7
    assert r.free_names == ("mu", "sigma")
    # fixing lambda cannot beat the free fit
    r_free = fit(LikelihoodContext(y, DensityFamily.normal()))
    assert r_free.loglik >= r.loglik - 1e-9
    assert r.aic == 2.0 * 2 - 2.0 * r.loglik


def test_fit_numeric_mode_agrees_with_analytic():
    truth = BcsParams(2.0, 0.5, 1.5, DensityFamily.normal())
    y = sample(truth, 200, RngStream(20260816, 12))
    ctx = LikelihoodContext(y, DensityFamily.normal())
    ra = fit(ctx, mode="analytic")
    rn = fit(ctx, mode="numeric")
    assert rn.converged
    assert rn.mode == "numeric"
    for name in ra.estimates:
        assert abs(ra.estimates[name] - rn.estimates[name]) < 1e-5
        assert abs(ra.std_errors[name] - rn.std_errors[name]) < 1e-4


@pytest.mark.parametrize("family", [DensityFamily.student_t(4.0), DensityFamily.normal()], ids=DensityFamily.label)
@pytest.mark.parametrize("factor", [1e-6, 1e-4, 1.0, 1e6])
def test_numeric_standard_errors_hold_at_any_scale_of_the_data(family, factor):
    # numeric mode differentiates in log mu and log sigma, so its steps are
    # relative: an absolute step in mu crosses 0 at a factor of 1e-6 and is
    # too coarse at 1e-4
    y = sample(BcsParams(1.0, 0.3, 0.5, DensityFamily.student_t(4.0)), 200, RngStream(5, 0))
    ctx = LikelihoodContext(y * factor, family)
    ra = fit(ctx, mode="analytic")
    rn = fit(ctx, mode="numeric")
    assert rn.converged and rn.message == ""
    for name in ra.std_errors:
        assert abs(rn.std_errors[name] / ra.std_errors[name] - 1.0) < 1e-4


def test_fit_numeric_mode_agrees_with_analytic_on_fixed_lambda_layouts():
    normal_truth = BcsParams(2.0, 0.5, 1.5, DensityFamily.normal())
    normal_y = sample(normal_truth, 200, RngStream(20260816, 12))
    t_truth = BcsParams(1.5, 0.4, 0.5, DensityFamily.student_t(4.0))
    t_y = sample(t_truth, 800, RngStream(20260816, 13))
    contexts = [
        LikelihoodContext(normal_y, DensityFamily.normal(), fixed_lambda=1.5),
        LikelihoodContext(t_y, DensityFamily.student_t(10.0), fixed_lambda=0.5, fit_extra=True),
    ]
    for ctx in contexts:
        ra = fit(ctx, mode="analytic")
        rn = fit(ctx, mode="numeric")
        assert ra.converged and rn.converged
        assert rn.free_names == ra.free_names == ctx.free_names
        for name in ra.estimates:
            assert abs(rn.estimates[name] / ra.estimates[name] - 1.0) < 1e-6
            assert abs(rn.std_errors[name] / ra.std_errors[name] - 1.0) < 1e-3


# n = 100 draws of BCS-t4 on which a free-q slash fit walks toward its normal
# limit, until the slash normalizing constant overflows at q of about 2030
_WALK_Y = sample(BcsParams(1.0, 0.3, 0.5, DensityFamily.student_t(4.0)), 100, RngStream(304, 0))


@pytest.mark.parametrize("mode", ["analytic", "numeric"])
@pytest.mark.parametrize("fixed_lambda", [None, 0.0])
def test_fit_stops_unconverged_when_the_score_overflows(mode, fixed_lambda):
    ctx = LikelihoodContext(
        _WALK_Y, DensityFamily.slash(2.0), fixed_lambda=fixed_lambda, fit_extra=True
    )
    r = fit(ctx, mode=mode)
    assert not r.converged
    assert r.message == "score is not finite at the iterate"
    assert r.estimates["q"] > 1000.0
    assert r.loglik == loglik(ctx, r.params)
    assert set(r.std_errors) == set(r.free_names)


# Rounded data: tied observations sit at the start mu = median(y), so some z
# are exactly 0 there
_ROUNDED = [np.round(np.random.default_rng(s).lognormal(2.0, 0.3, 60)) for s in range(10)]


@pytest.mark.parametrize(
    "family",
    [DensityFamily.logistic_ii(), DensityFamily.canonical_slash(), DensityFamily.slash(2.0), DensityFamily.slash(4.5)],
    ids=lambda family: family.label(),
)
def test_fit_smooth_weights_on_rounded_data(family):
    # these weights are smooth at z = 0, so z = 0 is an ordinary point; some
    # canonical-slash fits walk to the sigma -> inf boundary (ROADMAP item 1)
    for y in _ROUNDED:
        r = fit(LikelihoodContext(y, family))
        assert r.converged or r.message
        assert math.isfinite(r.loglik)


@pytest.mark.parametrize(
    "family", [DensityFamily.double_exponential(), DensityFamily.power_exponential(1.5)], ids=lambda family: family.label()
)
def test_fit_on_a_singular_weight_ends_unconverged_with_a_reason(family):
    # the kink retry moves mu one ulp, but log mu rounds to the same double,
    # so z stays 0 where the weight is singular
    for y in _ROUNDED:
        _assert_stopped_on_singular_weight(fit(LikelihoodContext(y, family)))


def test_fit_kink_retry_on_continuous_data_ends_unconverged_with_a_reason():
    y = np.random.default_rng(12345).lognormal(0.0, 1.0, 50)
    # mu bitwise on an observation whose log does not move when mu moves one
    # ulp, so the one-ulp retry lands on the same kink (9 of the 50 qualify)
    mu = y[np.argmin(np.abs(y - 3.5386))]
    assert math.log(np.nextafter(mu, np.inf)) == math.log(mu)
    family = DensityFamily.double_exponential()
    r = fit(LikelihoodContext(y, family), init=BcsParams(float(mu), 1.0, 1.0, family))
    _assert_stopped_on_singular_weight(r)


def _assert_stopped_on_singular_weight(r):
    assert not r.converged
    assert r.message.endswith(f"weight function of {r.params.family.label()} is singular at z = 0")
    assert set(r.std_errors) == set(r.free_names)


def _adversarial_samples():
    # nine samples drawn in this order from one default_rng(12345)
    rng = np.random.default_rng(12345)
    return [
        rng.lognormal(0.0, 1.0, 50),
        rng.lognormal(0.0, 3.0, 50),
        rng.lognormal(0.0, 1.0, 5),
        np.round(rng.lognormal(2.0, 0.3, 60)),
        np.repeat([1.0, 2.0], 20),
        1.0 + 1e-10 * rng.uniform(0.0, 1.0, 40),
        np.append(rng.lognormal(0.0, 0.2, 49), 1e6),
        rng.pareto(0.7, 80) + 1e-3,
        rng.uniform(1.0, 2.0, 60),
    ]


def test_fit_on_adversarial_samples_raises_nothing_and_explains_every_failure():
    # 108 fits: every family at its default extra, and t, pe and slash with
    # the extra free; a RuntimeWarning is an error under the suite's filter
    specs = [(kind.value, False) for kind in FamilyKind] + [
        (name, True) for name in ("student_t", "power_exponential", "slash")
    ]
    for y in _adversarial_samples():
        for name, free in specs:
            r = fit(LikelihoodContext(y, DensityFamily.from_name(name), fit_extra=free))
            assert r.converged or r.message, (name, free)


def test_fit_scale_consistency():
    truth = BcsParams(2.0, 0.5, 0.7, DensityFamily.normal())
    y = sample(truth, 300, RngStream(20260816, 43))
    r1 = fit(LikelihoodContext(y, DensityFamily.normal()))
    r10 = fit(LikelihoodContext(10.0 * y, DensityFamily.normal()))
    assert r1.converged and r10.converged
    assert abs(r10.estimates["mu"] / (10.0 * r1.estimates["mu"]) - 1.0) < 1e-4
    assert abs(r10.estimates["sigma"] - r1.estimates["sigma"]) < 1e-4
    assert abs(r10.estimates["lambda"] - r1.estimates["lambda"]) < 1e-4


def test_fit_warm_start():
    truth = BcsParams(1.5, 0.4, -0.6, DensityFamily.logistic_ii())
    y = sample(truth, 500, RngStream(20260816, 37))
    ctx = LikelihoodContext(y, DensityFamily.logistic_ii())
    cold = fit(ctx)
    warm = fit(ctx, init=cold.params)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    for name in cold.estimates:
        assert abs(warm.estimates[name] - cold.estimates[name]) < 1e-5


def test_fit_that_walks_to_the_boundary_restarts_from_the_log_symmetric_optimum():
    # one replicate of a t4 recovery study (n = 500): from the default start
    # the search walks to sigma |lambda| of about 2e9, where the likelihood
    # flattens toward -475.63, below its value at the truth
    truth = BcsParams(1.0, 0.5, 0.5, DensityFamily.student_t(4.0))
    y = sample(truth, 500, RngStream(21_001_635, 0))
    ctx = LikelihoodContext(y, truth.family)
    result = fit(ctx)
    assert result.converged
    assert result.params.sigma * abs(result.params.lam) < 10.0
    assert result.loglik >= loglik(ctx, truth)


@pytest.mark.parametrize("seed", [1000, 1009, 1015])
def test_fit_is_never_below_its_log_symmetric_submodel(seed):
    # lognormal(0, 1), n = 100: before fit restarted boundary walks,
    # free-lambda fits of these samples walked to the sigma |lambda| boundary
    # and ended up to 20 below their own lambda = 0 fit, in six of the eight
    # families
    y = np.random.default_rng(seed).lognormal(0.0, 1.0, 100)
    for family in (
        DensityFamily.normal(), DensityFamily.power_exponential(2.0), DensityFamily.cauchy(),
        DensityFamily.student_t(4.0), DensityFamily.logistic_i(), DensityFamily.logistic_ii(),
        DensityFamily.canonical_slash(), DensityFamily.slash(2.0),
    ):
        full = fit(LikelihoodContext(y, family))
        null = fit(LikelihoodContext(y, family, fixed_lambda=0.0))
        assert full.loglik >= null.loglik - 1e-8, family.label()


def _compare_corpus_sample(j):
    # sample j of the benchmark's compare corpus: BCS-t4, n = 1000, truth
    # (1, 0.3, 0.5), by rejection on the truncated support
    rng, edge, z = np.random.default_rng(j), -1.0 / (0.3 * 0.5), np.empty(0)
    while z.size < 1000:
        draw = rng.standard_t(4.0, size=1000)
        z = np.concatenate([z, draw[draw > edge]])
    return (1.0 + 0.3 * 0.5 * z[:1000]) ** (1.0 / 0.5)


def _counting_loglik(monkeypatch):
    calls = []

    def counting(ctx, params):
        calls.append(1)
        return loglik(ctx, params)

    monkeypatch.setattr(estimation, "loglik", counting)
    return calls


@pytest.mark.parametrize(
    "j, family, expected",
    [
        (14, DensityFamily.normal(), -506.35840307853226),
        (14, DensityFamily.cauchy(), -468.30653585003984),
        (6, DensityFamily.logistic_ii(), -478.0054393567763),
    ],
)
def test_fit_stops_at_the_resolution_of_the_likelihood(j, family, expected, monkeypatch):
    # these fits end within the rounding noise of the log-likelihood; a line
    # search that halved t down to its floor there, then retried, once cost
    # about 700 objective evaluations each
    calls = _counting_loglik(monkeypatch)
    r = fit(LikelihoodContext(_compare_corpus_sample(j), family))
    assert r.converged
    assert len(calls) <= 100
    assert abs(r.loglik - expected) < 1e-10


# the eight smooth families of the benchmark's compare, extras held, on
# compare-corpus samples 0-7: the log-likelihood each default fit reached
# before BFGS started from the inverse observed information, when these fits
# took a median of 36-44 objective evaluations per family
_CORPUS_LOGLIK = {
    "normal": (
        -482.7669732748129, -504.2622533032955, -465.3067521820527, -489.6796822442301,
        -494.8102702414565, -545.107246070687, -560.0393148360125, -446.3995014232943,
    ),
    "pe:1.5": (
        -440.84565426744723, -462.8846471601705, -434.4748596114503, -464.7458650940434,
        -447.67650682290684, -493.81499569330435, -494.77652321180574, -420.1786267475498,
    ),
    "cauchy": (
        -437.2021183802573, -478.4422258152715, -453.41393155170556, -496.9330254791739,
        -444.4515201307205, -491.1378096484867, -482.78784345386987, -436.86160529602563,
    ),
    "t:4": (
        -421.4625340849761, -443.20863898396124, -426.99316489344994, -455.8084657817497,
        -428.2858991368541, -471.1226234621621, -460.5127079383677, -414.8820542373042,
    ),
    "logistic_i": (
        -575.7919033425524, -596.4931169398267, -542.5142166631294, -559.6385380020345,
        -588.8618943189416, -647.4939265937289, -671.0144767786302, -517.0954591546995,
    ),
    "logistic_ii": (
        -430.79824659828273, -453.106706659379, -431.9767201766724, -459.3387254952223,
        -438.20685106006476, -486.8429295943067, -478.0054393567764, -416.9884697040488,
    ),
    "cslash": (
        -436.43817461127696, -473.4089581526342, -443.58811546850643, -485.7979108825021,
        -443.2680640715977, -484.03978855988635, -479.2014116390746, -431.4882933695437,
    ),
    "slash:2": (
        -425.38270690121453, -446.9294544258171, -429.64214869986927, -457.5827846450301,
        -433.4405564935802, -470.34297139230694, -463.24484102879194, -418.04629663891797,
    ),
}


@pytest.fixture(scope="module")
def corpus_fits():
    """Each family's (loglik, converged, objective evaluations) on samples 0-7."""
    samples = [_compare_corpus_sample(j) for j in range(8)]
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_loglik(mp)
        for spec in _CORPUS_LOGLIK:
            name, _, extra = spec.partition(":")
            family = DensityFamily.from_name(name, float(extra) if extra else None)
            out[spec] = []
            for y in samples:
                calls.clear()
                r = fit(LikelihoodContext(y, family))
                out[spec].append((r.loglik, r.converged, len(calls)))
    return out


def test_fits_from_the_observed_information_reach_the_same_maxima(corpus_fits):
    for spec, expected in _CORPUS_LOGLIK.items():
        for (ll, converged, _), frozen in zip(corpus_fits[spec], expected):
            assert converged
            assert abs(ll - frozen) < 1e-10, (spec, ll, frozen)


_SLASH_SHORTFALL = pytest.mark.xfail(strict=True, reason=(
    "median 17: 4 of the 8 fits end where a line search cannot resolve a decrease,"
    " which costs 4-10 evaluations beyond one per iteration"
))


@pytest.mark.parametrize(
    "spec", [pytest.param(s, marks=_SLASH_SHORTFALL) if s == "cslash" else s for s in _CORPUS_LOGLIK]
)
def test_fit_from_the_observed_information_takes_a_third_of_the_evaluations(corpus_fits, spec):
    # a median of 8-13.5 per family, down from 36-44; a single fit may still
    # cost more than from the identity (Cauchy on sample 26: 58 against 40)
    evals = [n for _, _, n in corpus_fits[spec]]
    assert np.median(evals) <= 16, evals


@pytest.mark.parametrize(
    "j, family, expected, iterations",
    [
        (0, DensityFamily.normal(), -482.7669732748128, 13),
        (1, DensityFamily.student_t(4.0), -443.2086389839611, 12),
    ],
)
def test_numeric_mode_starts_from_the_identity(j, family, expected, iterations):
    # numeric mode stays the independent cross-check: its fits keep their bits
    r = fit(LikelihoodContext(_compare_corpus_sample(j), family), mode="numeric")
    assert r.converged
    assert r.loglik == expected
    assert r.iterations == iterations


def test_fit_score_vanishes_at_optimum():
    truth = BcsParams(2.0, 0.5, 1.0, DensityFamily.power_exponential(1.5))
    y = sample(truth, 400, RngStream(20260816, 39))
    ctx = LikelihoodContext(y, DensityFamily.power_exponential(1.5))
    r = fit(ctx)
    assert r.converged
    s = score(ctx, r.params)
    # gradient in search coordinates: (s_mu mu, s_sigma sigma, s_lambda)
    g = np.array([s[0] * r.params.mu, s[1] * r.params.sigma, s[2]])
    assert np.max(np.abs(g)) < 1e-6


def test_fit_degenerate_data_reports_failure():
    y = 1.0 + 1e-12 * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    r = fit(LikelihoodContext(y, DensityFamily.normal()))
    assert not r.converged
    assert r.message != ""
    assert set(r.std_errors) == set(r.free_names)


def test_fit_requires_five_observations():
    ctx = LikelihoodContext(np.array([1.0, 2.0, 3.0, 4.0]), DensityFamily.normal())
    with pytest.raises(ValueError, match="observations"):
        fit(ctx)


@pytest.mark.parametrize("n", [7, 20])
@pytest.mark.parametrize("family", [DensityFamily.normal(), DensityFamily.student_t(4.0)])
def test_fit_rejects_zero_spread(n, family):
    # sigma would run to 0 (a ZeroDivisionError in the Hessian at n = 20)
    ctx = LikelihoodContext(np.full(n, 3.0), family)
    with pytest.raises(ValueError, match="zero spread"):
        fit(ctx)


def test_fit_rejects_unknown_mode():
    ctx = LikelihoodContext(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), DensityFamily.normal())
    with pytest.raises(ValueError, match="mode"):
        fit(ctx, mode="exact")


# ---------------------------------------------------------------------------
# The fitted point is a local maximum.

_OPT_TRUTH = BcsParams(2.0, 0.5, 1.5, DensityFamily.normal())
_OPT_Y = sample(_OPT_TRUTH, 300, RngStream(20260816, 41))
_OPT_CTX = LikelihoodContext(_OPT_Y, DensityFamily.normal())
_OPT_FIT = fit(_OPT_CTX)


@settings(max_examples=40, deadline=None)
@given(
    dmu=st.floats(min_value=-0.05, max_value=0.05),
    dsigma=st.floats(min_value=-0.05, max_value=0.05),
    dlam=st.floats(min_value=-0.1, max_value=0.1),
)
def test_fitted_point_is_local_maximum(dmu, dsigma, dlam):
    p = _OPT_FIT.params
    lam = p.lam + dlam
    if abs(lam) < 1e-8:
        lam = 0.0
    perturbed = BcsParams(p.mu * math.exp(dmu), p.sigma * math.exp(dsigma), lam, p.family)
    assert loglik(_OPT_CTX, perturbed) <= _OPT_FIT.loglik + 1e-9


def test_param_names_constant():
    assert PARAM_NAMES == ("mu", "sigma", "lambda")
