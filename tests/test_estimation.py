"""Likelihood derivatives and the ML fitter, cross-checked numerically.

The analytic score is tested against finite differences of the
log-likelihood and the analytic observed information against finite
differences of the score; the two routes share no derivative code.
"""

import math
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsym import estimation, gof
from bcsym.distribution import BcsParams, log_pdf, sample
from bcsym.estimation import (
    PARAM_NAMES,
    FitResult,
    LikelihoodContext,
    fit,
    hessian,
    loglik,
    score,
    _phi1,
    _phi2,
)
from bcsym.families import DensityFamily, FamilyKind
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


# past |z| = 1e100 the derivatives of a power-tailed law are read off its
# power law: z^2 overflows at 1e-310 and 1e300, z itself at 5e-324, and
# w'(z) underflows at 1e-124
FAR_SAMPLES = {
    "small_y": (np.array([5e-324, 1e-310, 1e-124, 0.3, 1.0, 4.0]), -0.97),
    "large_y": (np.array([1e100, 1e300, 0.3, 1.0, 4.0]), 3.0),
}


@pytest.mark.parametrize("where", sorted(FAR_SAMPLES))
@pytest.mark.parametrize("name", ["cauchy", "t4", "slash2", "cslash"])
def test_derivatives_where_z_overflows(name, where):
    y, lam = FAR_SAMPLES[where]
    fam = FAMILIES[name]
    ctx = LikelihoodContext(y, fam)
    params = BcsParams(1.0, 1.0, lam, fam)
    s, H = score(ctx, params), hessian(ctx, params)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(H))
    np.testing.assert_allclose(s, _numeric_score(ctx, params), rtol=1e-6, atol=1e-6)

    def sc(theta):
        return score(ctx, BcsParams(theta[0], theta[1], theta[2], fam))

    Hfd = finite_diff_jacobian(sc, np.array([1.0, 1.0, lam]), step=1e-5)
    np.testing.assert_allclose(H, 0.5 * (Hfd + Hfd.T), rtol=1e-5, atol=1e-5)


# At lambda = 0 a sigma of 1e-101 puts every z of this sample past 1e100,
# where a power-tailed law is read off its power law; at 1e-99 none is.  The
# normal law, with its exponential tail, is never read off a power law.
_EXTREME_Y = np.array([0.5, 0.9, 1.3, 2.0, 7.0])


def _relative_difference(ctx, params, name, rel=1e-6):
    """Central difference of loglik in mu or sigma with a step relative to it."""
    x = getattr(params, name)
    h = rel * x
    up, down = (loglik(ctx, replace(params, **{name: x + d})) for d in (h, -h))
    return (up - down) / (2.0 * h)


@pytest.mark.parametrize("sigma", [1e-101, 1e-99])
@pytest.mark.parametrize("name", ["normal", "cauchy", "t4", "slash2"])
def test_mu_and_sigma_scores_at_lambda_zero_where_z_passes_the_power_law_switch(name, sigma):
    fam = FAMILIES[name]
    ctx = LikelihoodContext(_EXTREME_Y, fam)
    params = BcsParams(1.1, sigma, 0.0, fam)
    s = score(ctx, params)
    assert np.all(np.isfinite(s))
    for i, entry in enumerate(("mu", "sigma")):
        fd = _relative_difference(ctx, params, entry)
        assert abs(s[i] - fd) <= 1e-6 * abs(fd), (entry, s[i], fd)


# ten families at valid extreme points, where some entries of the score or
# the Hessian overflow or are undefined (an inf or NaN entry, not a warning)
_EXTREME_FAMILIES = [*FAMILIES.values(), DensityFamily.power_exponential(2.5)]
_EXTREME_POINTS = [
    (1.1, 0.4, 0.5),
    (1.1, 1e-101, 0.0),
    (1.1, 1e-101, -0.5),
    (1.1, 1e-101, 0.5),
    (1.1, 1e-120, -0.5),
    (1.1, 1e-150, 0.5),
    (1.1, 1e-160, 0.0),
]


@pytest.mark.parametrize("point", _EXTREME_POINTS, ids=str)
def test_score_and_hessian_leak_no_warning_at_extreme_points(point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in _EXTREME_FAMILIES:
            ctx = LikelihoodContext(_EXTREME_Y, fam)
            params = BcsParams(*point, fam)
            assert not math.isnan(loglik(ctx, params))
            assert score(ctx, params).shape == (3,)
            assert hessian(ctx, params).shape == (3, 3)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_score_leaks_no_warning_at_a_huge_sigma(lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in _EXTREME_FAMILIES:
            ctx = LikelihoodContext(_EXTREME_Y, fam)
            assert score(ctx, BcsParams(1.1, 1e300, lam, fam)).shape == (3,)


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


@pytest.mark.parametrize("f, seam", [(_phi1, 1e-3), (_phi2, 1e-2)])
def test_phi_gives_the_same_bits_with_or_without_a_series_element(f, seam):
    # an array with no |w| below the seam skips the series: its elements get
    # the bits they get next to one that takes it
    w = np.array([-800.0, -3.0, -seam, seam, 2.5e-2, 0.7, 1.5, 40.0, 710.0, np.inf, np.nan])
    with np.errstate(over="ignore"):
        alone = f(w)
        beside = f(np.append(w, 0.5 * seam))[:-1]
    assert alone.view(np.int64).tolist() == beside.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# Seam and data validation.

def test_seam_lambda_is_rejected():
    ctx = _ctx("normal")
    params = BcsParams(1.8, 0.6, 1e-12, FAMILIES["normal"])
    for call in (
        lambda: score(ctx, params),
        lambda: hessian(ctx, params),
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


def test_context_keeps_its_own_copy_of_the_data():
    y = np.array([0.8, 1.1, 1.5, 2.0, 2.6, 3.9])
    original = y.copy()
    ctx = LikelihoodContext(y, FAMILIES["normal"])
    y[0] = 40.0
    params = BcsParams(1.8, 0.6, 0.0, FAMILIES["normal"])
    assert loglik(ctx, params) == loglik(LikelihoodContext(original, FAMILIES["normal"]), params)
    with pytest.raises(ValueError):
        ctx.data[0] = 1.0


def _outcome(call, ctx, params):
    try:
        return np.asarray(call(ctx, params))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize(
    "name, fit_extra", [("t4", False), ("t4", True), ("slash2", True), ("de", False)]
)
def test_calls_through_the_last_point_equal_calls_on_a_fresh_context(name, fit_extra):
    # the context keeps the last point; interleaved calls, a seam point, a
    # point with mu on an observation (z = 0, singular for "de") and the
    # fitter's one-ulp retry from it must not see a stale or altered point
    ctx = _ctx(name, fit_extra=fit_extra)
    a, b, zero = (_params(name, lam) for lam in (0.5, -0.7, 0.0))
    seam = _params(name, 1e-12)
    kink = BcsParams(float(DATA[12]), 0.6, 0.5, FAMILIES[name])
    retry = BcsParams(float(np.nextafter(DATA[12], np.inf)), 0.6, 0.5, FAMILIES[name])
    sequence = [
        (loglik, a), (score, a), (hessian, a), (score, a), (loglik, b), (hessian, b),
        (score, a), (loglik, b), (score, b), (loglik, seam), (score, seam), (hessian, seam),
        (score, zero), (loglik, seam), (hessian, zero), (loglik, kink), (score, kink),
        (score, retry), (hessian, retry), (loglik, kink), (hessian, kink), (loglik, a),
    ]
    for call, params in sequence:
        got = _outcome(call, ctx, params)
        fresh = _outcome(call, _ctx(name, fit_extra=fit_extra), params)
        if isinstance(fresh, str):
            assert got == fresh
            continue
        assert got.shape == fresh.shape and np.all(got == fresh), (call.__name__, params)
        got.fill(np.nan)  # a caller that writes into a result changes nothing kept
    assert math.isfinite(loglik(ctx, seam))
    with pytest.raises(ValueError, match="seam"):
        score(ctx, seam)
    if name == "de":
        with pytest.raises(ValueError, match="singular"):
            score(ctx, kink)


# ---------------------------------------------------------------------------
# Fitting.

def _newton_step(ctx, params):
    """The Newton step -H^-1 s from params over the free set, relative in mu and sigma."""
    free = list(ctx.free_index)
    step = np.linalg.solve(-hessian(ctx, params)[np.ix_(free, free)], score(ctx, params)[free])
    return step[0] / params.mu, step[1] / params.sigma


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
    assert all(abs(d) < 1e-8 for d in _newton_step(ctx, r.params))


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
    assert all(abs(d) < 1e-6 for d in _newton_step(ctx, r.params))


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
    d_mu, d_sigma = _newton_step(ctx, r.params)
    assert abs(r.params.mu * (1.0 + d_mu) / gm - 1.0) < 1e-14
    assert abs(d_sigma) < 1e-8


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


@pytest.mark.parametrize("family", [DensityFamily.power_exponential(1.5)], ids=lambda family: family.label())
def test_fit_on_a_singular_weight_ends_unconverged_with_a_reason(family):
    # the kink retry moves mu one ulp, but log mu rounds to the same double,
    # so z stays 0 where the weight is singular
    for y in _ROUNDED:
        r = fit(LikelihoodContext(y, family))
        assert not r.converged
        assert r.message.endswith(f"weight function of {r.params.family.label()} is singular at z = 0")
        assert set(r.std_errors) == set(r.free_names)


def _assert_kink_maximum(ctx, r, h=1e-8):
    # converged with mu bitwise on an observation, where score and hessian
    # raise, and the one-sided difference quotients in log mu bracket 0
    p = r.params
    assert r.converged
    assert "kink" in r.message
    assert np.any(ctx.data == p.mu)
    for call in (score, hessian):
        with pytest.raises(ValueError, match="kink"):
            call(ctx, p)
    assert set(r.std_errors) == set(r.free_names)
    assert all(math.isnan(se) for se in r.std_errors.values())
    assert r.loglik == loglik(ctx, p)
    up = (loglik(ctx, replace(p, mu=p.mu * (1.0 + h))) - r.loglik) / h
    down = (r.loglik - loglik(ctx, replace(p, mu=p.mu * (1.0 - h)))) / h
    assert up < 1e-4 and down > -1e-4, (up, down)
    return up, down


def test_fit_on_rounded_data_certifies_a_kink_maximum():
    # tied observations sit on the start mu = median(y); the score there is
    # undefined, and one ulp sideways log mu rounds to the same double
    for y in _ROUNDED:
        ctx = LikelihoodContext(y, DensityFamily.double_exponential())
        _assert_kink_maximum(ctx, fit(ctx))


def test_fit_from_a_kink_on_continuous_data_certifies_a_kink_maximum():
    y = np.random.default_rng(12345).lognormal(0.0, 1.0, 50)
    # mu bitwise on an observation whose log does not move when mu moves one
    # ulp, so the one-ulp retry lands on the same kink (9 of the 50 qualify)
    mu = y[np.argmin(np.abs(y - 3.5386))]
    assert math.log(np.nextafter(mu, np.inf)) == math.log(mu)
    family = DensityFamily.double_exponential()
    ctx = LikelihoodContext(y, family)
    r = fit(ctx, init=BcsParams(float(mu), 1.0, 1.0, family))
    _assert_kink_maximum(ctx, r)
    assert r.loglik >= fit(ctx).loglik


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


# a fit that ends at each stop, on the samples above: (sample, family, free
# extra) and the fit's (converged, message) there
_STOP_CASES = {
    "GRADIENT_TOL": (lambda: _adversarial_samples()[3], ("normal", None), False, True, ""),
    "KINK_OPTIMUM": (
        lambda: _adversarial_samples()[0], ("double_exponential", None), False, True,
        "maximum on a kink: mu is an observation, where the log-likelihood has no mu"
        " derivative, so there are no standard errors",
    ),
    "FLAT_PLATEAU": (
        lambda: _ROUNDED[0], ("canonical_slash", None), False, True,
        "stopped where the likelihood is flat to machine precision",
    ),
    "LINE_SEARCH_STALL": (
        lambda: _adversarial_samples()[5], ("normal", None), False, False,
        "line search stalled before the gradient tolerance",
    ),
    "SCORE_NOT_FINITE": (
        lambda: _adversarial_samples()[2], ("power_exponential", None), True, False,
        "score is not finite at the iterate",
    ),
    "SCORE_UNDEFINED": (
        lambda: _ROUNDED[0], ("power_exponential", 1.5), False, False,
        "score is undefined at the iterate: weight function of power_exponential(tau=1.5)"
        " is singular at z = 0",
    ),
    "ITER_LIMIT": (
        lambda: _adversarial_samples()[1], ("power_exponential", None), True, False,
        "iteration limit reached",
    ),
}


@pytest.mark.parametrize("stop", list(estimation._Stop), ids=lambda stop: stop.name)
def test_every_stop_is_reached_with_its_converged_flag_and_message(stop, monkeypatch):
    y, (name, extra), free, converged, message = _STOP_CASES[stop.name]
    # fit runs one search or three; pair each search's result with its stop
    searches = []
    drive, maximize = estimation._drive, estimation._maximize

    def recording_drive(step, it):
        out = drive(step, it)
        searches.append([out[1]])
        return out

    def recording_maximize(*args):
        result = maximize(*args)
        searches[-1].append(result)
        return result

    monkeypatch.setattr(estimation, "_drive", recording_drive)
    monkeypatch.setattr(estimation, "_maximize", recording_maximize)
    r = fit(LikelihoodContext(y(), DensityFamily.from_name(name, extra), fit_extra=free))
    assert [s for s, result in searches if result is r] == [stop]
    assert (r.converged, r.message) == (converged, message)


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


def _perfbench_tracer():
    # the benchmark's tracer, read from its source without writing anything
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.Tracer()


def test_the_benchmark_tracer_counts_the_evaluations_of_a_fit(monkeypatch):
    # perfbench counts objective, score and Hessian evaluations as the calls
    # that fit makes to loglik, score and hessian by their module names
    import bcsym.cli  # noqa: F401 -- the tracer wraps every layer

    calls = _counting_loglik(monkeypatch)
    family = DensityFamily.student_t(4.0)
    y = sample(BcsParams(1.0, 0.5, 0.5, family), 50, RngStream(20260816, 50))
    tracer = _perfbench_tracer()
    tracer.install()
    try:
        gof.fit(LikelihoodContext(y, family))  # the tracer wraps fit where other layers import it
    finally:
        tracer.uninstall()
    tracer.fold()
    assert tracer.edges[("estimation.fit", "estimation.loglik")] == len(calls) > 0
    assert tracer.edges[("estimation.fit", "estimation.score")] >= 1
    assert tracer.edges[("estimation.fit", "estimation.hessian")] >= 1


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


@pytest.mark.parametrize("spec", list(_CORPUS_LOGLIK))
def test_fit_from_the_observed_information_takes_a_third_of_the_evaluations(corpus_fits, spec):
    # a median of 8-14 per family, down from 36-44; a single fit may still
    # cost more than from the identity (Cauchy on sample 26: 58 against 40).
    # Canonical slash needs the Newton retry of a fit that ends at the
    # resolution of f: half its fits end there, and halving a stale BFGS
    # step, then steepest descent's, cost each 4-11 more evaluations
    evals = [n for _, _, n in corpus_fits[spec]]
    assert np.median(evals) <= 16, evals


# double exponential on compare-corpus samples 0-7: the log-likelihood at which
# each default fit stopped when BFGS crawled toward the kink, after a median of
# 286 objective evaluations; 7 of the 8 fits ended "line search stalled"
_DE_CORPUS_CRAWL_LOGLIK = (
    -435.737234120979, -455.9488399667301, -431.25889552039206, -470.08834426045473,
    -436.05265787709135, -470.9957316019985, -471.40351010345535, -424.5037631000231,
)


def test_double_exponential_fits_finish_on_the_kink_in_a_fifth_of_the_evaluations(monkeypatch):
    calls = _counting_loglik(monkeypatch)
    evals = []
    for j, crawl in enumerate(_DE_CORPUS_CRAWL_LOGLIK):
        calls.clear()
        ctx = LikelihoodContext(_compare_corpus_sample(j), DensityFamily.double_exponential())
        r = fit(ctx)
        evals.append(len(calls))
        _assert_kink_maximum(ctx, r)
        assert r.loglik >= crawl - 1e-9, (j, r.loglik, crawl)
    assert np.median(evals) <= 80, evals


@pytest.mark.parametrize("j", [0, 15])
def test_double_exponential_fit_ends_on_an_observation_where_score_raises(j):
    # np.log(y_k) and math.log(mu) differ by one ulp at the fitted mu = y_k, so
    # u = 0 there only because _Point sets it where y == mu; with u one ulp
    # off, score returned a one-sided slope instead of raising
    y = _compare_corpus_sample(j)
    ctx = LikelihoodContext(y, DensityFamily.double_exponential())
    r = fit(ctx)
    (k,) = np.flatnonzero(y == r.params.mu)
    assert np.log(y[k]) != math.log(r.params.mu)
    up, down = _assert_kink_maximum(ctx, r)
    assert up < -0.1 and down > 5.0


# the kink survey: the log-likelihood each default fit reached when BFGS
# crawled toward the kink (the crawling fitter, rerun on these draws); 32 of
# the 60 double-exponential fits and 58 of the 60 power-exponential(0.8) fits
# ended "line search stalled", two more at the iteration limit
_KINK_SURVEY_LOGLIK = {
    ("double_exponential", 0.5, 50): (
        1.0873438133352138, -1.0842326270051197, -1.2117353464555551, -13.94186320987012,
        -1.2470648860764229, -15.848382939965045, 1.2215540990559577, 1.7518309576266917,
        -17.961182949666135, -3.203143435820938, -4.891549354664195, 3.874523024030117,
        4.21416385999634, -13.417288144910525, -12.4751515320731,
    ),
    ("double_exponential", 0.5, 200): (
        -18.15149070459966, -35.177625531062084, -46.82607688338523, -27.66754091025565,
        -31.18545793832067, -36.20178193475688, -22.75262838890408, -1.7154975679756856,
        -42.44728007086577, -55.51969965064237, -38.38205965155648, -15.455967466334277,
        -18.99581272603751, -31.271740976994852, -13.712761908895706,
    ),
    ("double_exponential", 0.0, 50): (
        1.4324085193799174, -0.08501938964761308, -2.4805067889862835, -16.38682242385745,
        -1.2251521262753502, -18.038203467824637, 1.176736402574516, 1.6660958894779256,
        -19.711137275820093, -3.6184235234718067, -7.49987958520622, 2.3420213165344497,
        3.3972245149364912, -15.275151735819527, -12.821791875565465,
    ),
    ("double_exponential", 0.0, 200): (
        -18.35941945857774, -34.80177272402513, -51.25411642019107, -27.783696816525467,
        -36.19655106873182, -40.958405394029825, -24.760533085302953, -2.13890416395824,
        -45.23263695234943, -62.36863818591065, -43.11671428253432, -20.370968750763367,
        -19.036994032634443, -35.51876958956539, -15.665549038798442,
    ),
    ("pe:0.8", 0.5, 50): (
        5.38627860430234, 3.391643748026916, 3.517496350558812, -12.59915434604141,
        3.1377072802930845, -12.919478558445304, 5.47497274510691, 7.036912117017943,
        -14.598046040568459, 0.8032923050105292, -1.2716403463826156, 8.663723266880222,
        9.36444609611718, -10.479022598563791, -9.920995290309493,
    ),
    ("pe:0.8", 0.5, 200): (
        -2.8705933922630837, -22.08009185191489, -35.32980622061356, -13.550189339174326,
        -16.01163416703381, -22.94517057602586, -8.533088210983056, 13.880760573468717,
        -28.993804455639243, -42.760001310691145, -24.467139419244035, -0.43488068671653757,
        -2.9322434752808317, -15.504158018678986, 1.7547547948959812,
    ),
    ("pe:0.8", 0.0, 50): (
        5.534805479760678, 4.374101770410917, 2.1274791035229157, -15.605848772131228,
        3.1167491244210264, -15.33287294780807, 5.251304228818168, 6.03933284462247,
        -17.261511489315705, 0.38434598776389084, -3.953751003885862, 7.217489126270513,
        8.60261600162442, -12.44922623811071, -10.385078558235985,
    ),
    ("pe:0.8", 0.0, 200): (
        -3.807809253006104, -22.380121810382633, -40.177594785296776, -14.219680533411793,
        -21.20791590000416, -27.889848059207708, -10.770261058448598, 13.476559041702487,
        -32.97597082475376, -50.76928648639806, -29.301432131298856, -5.2392564575073965,
        -3.28934294154855, -20.736351446234472, -0.5208719500658185,
    ),
}


# power exponential(0.8) draws at (1, 0.3, lam), n = 50, whose default fits
# ran to the iteration limit while an iterate that landed bitwise on an
# observation, on the cusp, drew a huge one-sided slope one ulp off, stepped
# off and was halved back onto it: the first eight with the draws of Newton's
# tail-quantile steps, the rest with those of Halley's steps
_PE_CUSP_LANDINGS = (
    [(0.5, s) for s in (20, 35, 43, 47, 48)] + [(0.0, s) for s in (15, 48, 54)]
    + [(0.5, s) for s in (25, 27, 29, 34, 46, 52)] + [(0.0, s) for s in (22, 24)]
)


@pytest.mark.parametrize("lam, s", _PE_CUSP_LANDINGS)
def test_cusp_fits_converge_where_no_neighbouring_observation_is_higher(lam, s, monkeypatch):
    family = DensityFamily.power_exponential(0.8)
    y = sample(BcsParams(1.0, 0.3, lam, family), 50, RngStream(s, 0))
    ctx = LikelihoodContext(y, family)
    calls = _counting_loglik(monkeypatch)
    r = fit(ctx)
    assert len(calls) < 300, len(calls)
    monkeypatch.undo()
    _assert_kink_maximum(ctx, r)
    # on a cusp every observation is a local maximum in mu
    ys = np.unique(y)
    k = int(np.searchsorted(ys, r.params.mu))
    for j in (k - 1, k + 1):
        if 0 <= j < ys.size:
            assert loglik(ctx, replace(r.params, mu=float(ys[j]))) <= r.loglik, (j, k)


@pytest.mark.parametrize("spec, lam, n", list(_KINK_SURVEY_LOGLIK))
def test_kink_fits_converge_no_lower_than_the_crawl(spec, lam, n):
    # draws of the fitted family itself at (1, 0.3, lam); every fit converges,
    # by the gradient test or on a certified kink, and no lower than the crawl
    name, _, extra = spec.partition(":")
    family = DensityFamily.from_name(name, float(extra) if extra else None)
    for s, crawl in enumerate(_KINK_SURVEY_LOGLIK[spec, lam, n]):
        y = sample(BcsParams(1.0, 0.3, lam, family), n, RngStream(s, 0))
        ctx = LikelihoodContext(y, family)
        r = fit(ctx)
        assert r.loglik >= crawl - 1e-9, (s, r.loglik, crawl)
        if np.any(y == r.params.mu):
            _assert_kink_maximum(ctx, r)
        else:
            assert r.converged, (s, r.message)


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


# wide-range samples holding subnormal observations, where trial steps in
# lambda make z overflow; the log-likelihoods are those the fits reached when
# such steps read -inf and the line search backed off
SUBNORMAL_FITS = [
    ("cauchy", 1, 1237.8729597488004),
    ("slash2", 3, 997.2129292224055),
    ("cslash", 10, 562.9412276678295),
]


@pytest.mark.parametrize("name,seed,ll", SUBNORMAL_FITS)
def test_fit_on_subnormal_observations(name, seed, ll):
    rng = np.random.default_rng(500 + seed)
    y = np.clip(np.exp(2.0 * rng.standard_cauchy(40)), 1e-300, 1e300)
    y = np.append(y, [1e-310, 5e-324][: 1 + seed % 2])
    r = fit(LikelihoodContext(y, FAMILIES[name]))
    assert r.converged
    assert r.loglik == pytest.approx(ll, abs=1e-6)


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


# ---------------------------------------------------------------------------
# What one parameter point costs: points kept, calls made.

def test_context_returns_the_iterate_point_after_other_points():
    # the fitter reads an iterate's value and its score, then tries steps;
    # where the line search fails the iterate's point is asked for again
    t4 = FAMILIES["t4"]
    ctx = _ctx("t4")
    iterate = BcsParams(2.0, 0.4, 0.5, t4)
    loglik(ctx, iterate)
    score(ctx, iterate)
    point = ctx._point(iterate)
    loglik(ctx, BcsParams(2.1, 0.4, 0.5, t4))
    assert ctx._point(iterate) is point
    loglik(ctx, BcsParams(2.05, 0.4, 0.5, t4))
    assert ctx._point(iterate) is point
    assert loglik(ctx, iterate) == point.loglik


def test_a_point_off_lambda_zero_makes_no_survival_call(monkeypatch):
    # the truncation mass R(v) is one upper-tail value at v > 0, taken
    # without symmetric_survival's reshaping and mirror
    from bcsym import distribution, families

    calls = []
    for module in (distribution, families):
        real = module.symmetric_survival
        monkeypatch.setattr(
            module, "symmetric_survival", lambda f, s, real=real: calls.append(s) or real(f, s)
        )
    for name in ("t4", "slash2", "normal"):
        ctx = _ctx(name)
        params = BcsParams(2.0, 0.4, 0.5, FAMILIES[name])
        loglik(ctx, params)
        score(ctx, params)
        hessian(ctx, params)
    assert calls == []


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("sigma", [1e-163, 1e-200, 1.4e154, 1e300])
def test_hessian_returns_where_sigma_squared_leaves_the_doubles(name, lam, sigma):
    # sigma^2 underflows to 0 below about 2.2e-162 and overflows above about
    # 1.34e154; loglik and score return there, and so does the Hessian
    family = FAMILIES[name]
    ctx = LikelihoodContext((0.5, 0.9, 1.3, 2.0, 7.0), family)
    params = BcsParams(1.1, sigma, lam, family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loglik(ctx, params)
        score(ctx, params)
        H = hessian(ctx, params)
    assert H.shape == (3, 3)
