"""Maximum likelihood for Box-Cox symmetric models.

The score and observed-information formulas are exact: the chain rule is
applied to z = ((y/mu)^lambda - 1) / (sigma lambda) and to the truncation
term log R(v), v = 1 / (sigma |lambda|).  Numerically delicate pieces are
the lambda-derivatives of z, handled through

    phi1(w) = 1 + e^w (w - 1)          (dz/dlambda   = phi1 / (sigma lambda^2))
    phi2(w) = e^w (w^2 - 2w + 2) - 2   (d2z/dlambda2 = phi2 / (sigma lambda^3))

with w = lambda log(y/mu); both vanish to high order at w = 0 and switch
to Taylor series there.  At lambda = 0 the exact limit formulas are used;
inside 0 < |lambda| < LAMBDA_SEAM the general formulas lose precision and
the derivative routines refuse to run (derivative_bundle instead switches
to the limit formulas there).

The extra parameter (tau or q) has no closed-form derivatives; where it is
fitted, its score and information entries come from central finite
differences with step 1e-5 * (1 + extra).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import LAMBDA_SEAM, BcsParams, log_pdf, truncation
from .families import (
    DensityFamily,
    eval_generator,
    symmetric_quantile,
    weight_derivative,
    weight_function,
)
from .numdiff import finite_diff_gradient, finite_diff_jacobian

PARAM_NAMES = ("mu", "sigma", "lambda")


def _phi1(w):
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-3
    ws = np.where(small, w, 0.0)
    series = ws * ws * (0.5 + ws * (1.0 / 3.0 + ws * (0.125 + ws * (1.0 / 30.0 + ws / 144.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        direct = 1.0 + np.exp(w) * (w - 1.0)
    return np.where(small, series, direct)


def _phi2(w):
    w = np.asarray(w, dtype=float)
    small = np.abs(w) < 1e-2
    ws = np.where(small, w, 0.0)
    series = ws**3 * (
        1.0 / 3.0 + ws * (0.25 + ws * (0.1 + ws * (1.0 / 36.0 + ws / 168.0)))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.exp(w) * (w * w - 2.0 * w + 2.0) - 2.0
    return np.where(small, series, direct)


def _check_data(y) -> np.ndarray:
    ya = np.asarray(y, dtype=float).ravel()
    if ya.size == 0:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(ya) & (ya > 0.0)):
        raise ValueError("observations must be positive and finite")
    return ya


def _check_seam(lam: float) -> None:
    if 0.0 < abs(lam) < LAMBDA_SEAM:
        raise ValueError(
            "lambda lies inside the numerical seam around zero; "
            "use lambda = 0 exactly"
        )


def _clamp_lambda(lam: float) -> float:
    # the seam interval is numerically indistinguishable from zero
    return 0.0 if abs(lam) < LAMBDA_SEAM else lam


def _extra_step(extra: float) -> float:
    return min(1e-5 * (1.0 + abs(extra)), 0.5 * extra)


def _with_extra(params: BcsParams, extra: float) -> BcsParams:
    fam = DensityFamily(params.family.kind, extra)
    return BcsParams(params.mu, params.sigma, params.lam, fam)


@dataclass(frozen=True, eq=False)
class LikelihoodContext:
    """What is being fitted: the observations and the model specification.

    ``fixed_lambda`` pins lambda (0 gives the log-symmetric submodel);
    ``fit_extra`` frees the family's extra parameter, starting from the
    value carried by ``family``.
    """

    data: np.ndarray
    family: DensityFamily
    fixed_lambda: float | None = None
    fit_extra: bool = False

    def __post_init__(self):
        object.__setattr__(self, "data", _check_data(self.data))
        if self.fixed_lambda is not None:
            fl = float(self.fixed_lambda)
            if not math.isfinite(fl):
                raise ValueError("fixed lambda must be finite")
            object.__setattr__(self, "fixed_lambda", _clamp_lambda(fl))
        if self.fit_extra and self.family.extra_name is None:
            raise ValueError(f"{self.family.label()} has no extra parameter to estimate")

    @property
    def n(self) -> int:
        return self.data.size

    @property
    def free_names(self) -> tuple[str, ...]:
        names = ["mu", "sigma"]
        if self.fixed_lambda is None:
            names.append("lambda")
        if self.fit_extra:
            names.append(self.family.extra_name)
        return tuple(names)


@dataclass(frozen=True, eq=False)
class _PointCache:
    """Per-observation quantities shared by the derivative formulas."""

    u: np.ndarray  # log(y / mu)
    z: np.ndarray
    weight: np.ndarray  # varpi(z) = -2 r'(z^2) / r(z^2)
    weight_deriv: np.ndarray
    edge: float  # v, +inf at lambda = 0
    edge_ratio: float  # r(v^2) / R(v), 0 at lambda = 0
    edge_weight: float  # varpi(v), 0 at lambda = 0


def _point_cache(params: BcsParams, ya: np.ndarray) -> _PointCache:
    _check_seam(params.lam)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    u = np.log(ya) - math.log(mu)
    if lam == 0.0:
        z = u / sigma
        edge, edge_ratio, edge_weight = math.inf, 0.0, 0.0
    else:
        z = np.expm1(lam * u) / (sigma * lam)
        edge = 1.0 / (sigma * abs(lam))
        info = truncation(params)
        r_v = float(eval_generator(params.family, edge * edge).r)
        edge_ratio = r_v / info.normalizer
        edge_weight = float(weight_function(params.family, edge)) if r_v > 0.0 else 0.0
    return _PointCache(
        u=u,
        z=z,
        weight=np.atleast_1d(weight_function(params.family, z)),
        weight_deriv=np.atleast_1d(weight_derivative(params.family, z)),
        edge=edge,
        edge_ratio=edge_ratio,
        edge_weight=edge_weight,
    )


def loglik(ctx: LikelihoodContext, params: BcsParams) -> float:
    """Sample log-likelihood; -inf when any observation has zero density."""
    return float(np.sum(log_pdf(params, ctx.data)))


def _core_score(params: BcsParams, ya: np.ndarray) -> np.ndarray:
    c = _point_cache(params, ya)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    z, W, u = c.z, c.weight, c.u
    if lam == 0.0:
        s_mu = float(np.sum(W * z)) / (sigma * mu)
        s_sigma = -n / sigma + float(np.sum(W * z * z)) / sigma
        s_lam = float(np.sum(u - W * z * u * u / (2.0 * sigma)))
        return np.array([s_mu, s_sigma, s_lam])
    E = 1.0 + sigma * lam * z  # (y/mu)^lambda
    C = _phi1(lam * u) / (sigma * lam * lam)  # dz/dlambda
    xe, v = c.edge_ratio, c.edge
    s_mu = -n * lam / mu + float(np.sum(W * z * E)) / (sigma * mu)
    s_sigma = -n / sigma + float(np.sum(W * z * z)) / sigma + n * xe * v / sigma
    s_lam = float(np.sum(u - W * z * C)) + n * xe * v / lam
    return np.array([s_mu, s_sigma, s_lam])


def _core_hessian(params: BcsParams, ya: np.ndarray) -> np.ndarray:
    c = _point_cache(params, ya)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    z, W, V, u = c.z, c.weight, c.weight_deriv, c.u
    G = W + z * V  # -(d2/dz2) log r(z^2)
    if lam == 0.0:
        A = -1.0 / (sigma * mu)
        h_mm = float(np.sum(-G * A * A - W * z / (sigma * mu * mu)))
        h_ms = float(np.sum(-G * z - W * z)) / (sigma * sigma * mu)
        h_ml = float(np.sum(G * z * z / 2.0 + W * z * z)) / mu - n / mu
        h_ss = n / sigma**2 + float(np.sum(-G * z * z - 2.0 * W * z * z)) / sigma**2
        h_sl = float(np.sum((G + W) * z**3)) / 2.0
        h_ll = float(np.sum(-G * z**4 / 4.0 - W * z**4 / 3.0)) * sigma * sigma
        return np.array([[h_mm, h_ms, h_ml], [h_ms, h_ss, h_sl], [h_ml, h_sl, h_ll]])
    w = lam * u
    E = 1.0 + sigma * lam * z
    A = -E / (sigma * mu)
    B = -z / sigma
    C = _phi1(w) / (sigma * lam * lam)
    z_mm = E * (1.0 + lam) / (sigma * mu * mu)
    z_ms = E / (sigma * sigma * mu)
    z_ml = -u * E / (sigma * mu)
    z_ss = 2.0 * z / (sigma * sigma)
    z_sl = -C / sigma
    z_ll = _phi2(w) / (sigma * lam**3)
    h_mm = n * lam / mu**2 + float(np.sum(-G * A * A - W * z * z_mm))
    h_ms = float(np.sum(-G * A * B - W * z * z_ms))
    h_ml = -n / mu + float(np.sum(-G * A * C - W * z * z_ml))
    h_ss = n / sigma**2 + float(np.sum(-G * B * B - W * z * z_ss))
    h_sl = float(np.sum(-G * B * C - W * z * z_sl))
    h_ll = float(np.sum(-G * C * C - W * z * z_ll))
    # truncation term: T = -log R(v) per observation, v = 1/(sigma |lambda|)
    xe, v = c.edge_ratio, c.edge
    if xe > 0.0:
        d2 = xe * (v * c.edge_weight + xe)  # -d(edge ratio)/dv
        h_ss += n * (d2 * v * v - 2.0 * xe * v) / sigma**2
        h_ll += n * (d2 * v * v - 2.0 * xe * v) / lam**2
        h_sl += n * (d2 * v * v - xe * v) / (sigma * lam)
    return np.array([[h_mm, h_ms, h_ml], [h_ms, h_ss, h_sl], [h_ml, h_sl, h_ll]])


def score(ctx: LikelihoodContext, params: BcsParams) -> np.ndarray:
    """Gradient of the log-likelihood in (mu, sigma, lambda[, extra])."""
    s = _core_score(params, ctx.data)
    if not ctx.fit_extra:
        return s
    e = params.family.extra
    h = _extra_step(e)
    d = (loglik(ctx, _with_extra(params, e + h)) - loglik(ctx, _with_extra(params, e - h))) / (
        2.0 * h
    )
    return np.append(s, d)


def hessian(ctx: LikelihoodContext, params: BcsParams) -> np.ndarray:
    """Observed second-derivative matrix of the log-likelihood.

    3x3 over (mu, sigma, lambda); with ``fit_extra`` a fourth row/column for
    the extra parameter is appended from finite differences of the score.
    """
    H = _core_hessian(params, ctx.data)
    if not ctx.fit_extra:
        return H
    e = params.family.extra
    h = _extra_step(e)
    pp, pm = _with_extra(params, e + h), _with_extra(params, e - h)
    row = (_core_score(pp, ctx.data) - _core_score(pm, ctx.data)) / (2.0 * h)
    h_ee = (loglik(ctx, pp) - 2.0 * loglik(ctx, params) + loglik(ctx, pm)) / (h * h)
    out = np.empty((4, 4))
    out[:3, :3] = H
    out[3, :3] = row
    out[:3, 3] = row
    out[3, 3] = h_ee
    return out


# ---------------------------------------------------------------------------
# Single-observation transform derivatives.

@dataclass(frozen=True)
class DerivativeBundle:
    """Derivatives of z = h(y; mu, sigma, lambda) plus the edge quantities.

    The sigma-derivatives are simple rescalings (dz/dsigma = -z/sigma and so
    on) and are not carried.  xi = r(v^2)/R(v) with v = 1/(sigma |lambda|);
    it and its derivatives are zero at lambda = 0, where the truncation
    vanishes.
    """

    z: float
    dz_dmu: float
    dz_dlambda: float
    d2z_dmu2: float
    d2z_dlambda2: float
    d2z_dmudlambda: float
    xi: float
    dxi_dsigma: float
    dxi_dlambda: float
    varpi: float
    dvarpi_dz: float


def derivative_bundle(y: float, params: BcsParams) -> DerivativeBundle:
    """Transform derivatives at one observation, with lambda -> 0 limits.

    Inside |lambda| < LAMBDA_SEAM the limit formulas replace the general
    ones (they agree to machine precision at the seam).
    """
    y = float(y)
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError("y must be positive and finite")
    mu, sigma, lam = params.mu, params.sigma, params.lam
    u = math.log(y) - math.log(mu)
    if abs(lam) < LAMBDA_SEAM:
        z = u / sigma
        dz_dmu = -1.0 / (mu * sigma)
        dz_dlambda = u * u / (2.0 * sigma)
        d2z_dmu2 = 1.0 / (sigma * mu * mu)
        d2z_dlambda2 = u**3 / (3.0 * sigma)
        d2z_dmudlambda = -u / (mu * sigma)
        xi = dxi_dsigma = dxi_dlambda = 0.0
    else:
        w = lam * u
        E = math.exp(w)  # (y/mu)^lambda
        z = math.expm1(w) / (sigma * lam)
        dz_dmu = -E / (sigma * mu)
        dz_dlambda = float(_phi1(w)) / (sigma * lam * lam)
        d2z_dmu2 = E * (1.0 + lam) / (sigma * mu * mu)
        d2z_dlambda2 = float(_phi2(w)) / (sigma * lam**3)
        d2z_dmudlambda = -u * E / (sigma * mu)
        v = 1.0 / (sigma * abs(lam))
        info = truncation(params)
        r_v = float(eval_generator(params.family, v * v).r)
        xi = r_v / info.normalizer
        vw = float(weight_function(params.family, v)) if r_v > 0.0 else 0.0
        dxi_dv = -xi * (v * vw + xi)
        dxi_dsigma = -dxi_dv * v / sigma  # dv/dsigma = -v/sigma
        dxi_dlambda = -dxi_dv * v / lam  # dv/dlambda = -v/lambda
    return DerivativeBundle(
        z=z,
        dz_dmu=dz_dmu,
        dz_dlambda=dz_dlambda,
        d2z_dmu2=d2z_dmu2,
        d2z_dlambda2=d2z_dlambda2,
        d2z_dmudlambda=d2z_dmudlambda,
        xi=xi,
        dxi_dsigma=dxi_dsigma,
        dxi_dlambda=dxi_dlambda,
        varpi=float(weight_function(params.family, z)),
        dvarpi_dz=float(weight_derivative(params.family, z)),
    )


# ---------------------------------------------------------------------------
# Fitting.

@dataclass(frozen=True)
class FitResult:
    params: BcsParams
    loglik: float
    aic: float
    free_names: tuple[str, ...]
    estimates: dict[str, float]
    std_errors: dict[str, float]
    converged: bool
    iterations: int
    gradient_norm: float
    mode: str
    message: str = ""


# gradient ceiling for accepting a machine-precision plateau as converged
_PLATEAU_GTOL = 1e-3


def _initial_sigma(y: np.ndarray, family: DensityFamily) -> float:
    q25, q50, q75 = np.quantile(y, [0.25, 0.5, 0.75])
    cv = 0.75 * (q75 - q25) / q50
    s75 = symmetric_quantile(family, 0.75)
    return max(math.asinh(cv / 1.5) / s75, 1e-3)


def fit(
    ctx: LikelihoodContext,
    init: BcsParams | None = None,
    mode: str = "analytic",
    gtol: float = 1e-6,
    max_iter: int = 500,
) -> FitResult:
    """Maximize the likelihood over the free parameters of ``ctx``.

    The search runs in (log mu, log sigma, lambda, log extra) coordinates
    with BFGS and an Armijo backtracking line search.  ``init`` warm-starts
    all coordinates it covers.  mode "analytic" assembles the gradient from
    the closed-form score; "numeric" differentiates the objective and serves
    as an independent cross-check.
    """
    ya = ctx.data
    if ya.size < 5:
        raise ValueError("need at least 5 observations to fit")
    if ya.max() == ya.min():
        raise ValueError("observations have zero spread")
    if mode not in ("analytic", "numeric"):
        raise ValueError("mode must be 'analytic' or 'numeric'")
    family = ctx.family
    free_lambda = ctx.fixed_lambda is None
    free_names = ctx.free_names

    def build(x) -> BcsParams:
        fam = family
        if ctx.fit_extra:
            fam = DensityFamily(family.kind, math.exp(x[-1]))
        lam = _clamp_lambda(x[2]) if free_lambda else ctx.fixed_lambda
        return BcsParams(math.exp(x[0]), math.exp(x[1]), lam, fam)

    def objective(x) -> float:
        # a step whose exp() under- or overflows is simply not admissible
        try:
            val = loglik(ctx, build(x))
        except (ValueError, OverflowError):
            return math.inf
        return -val if math.isfinite(val) else math.inf

    def gradient(x) -> np.ndarray:
        if mode == "numeric":
            return finite_diff_gradient(objective, x)
        params = build(x)
        try:
            s = score(ctx, params)
        except ValueError:
            # an iterate can land mu bitwise on a data point, putting one z on
            # the weight kink; one ulp sideways yields a valid one-sided slope
            params = BcsParams(
                np.nextafter(params.mu, np.inf), params.sigma, params.lam, params.family
            )
            s = score(ctx, params)
        g = [-s[0] * params.mu, -s[1] * params.sigma]
        if free_lambda:
            g.append(-s[2])
        if ctx.fit_extra:
            g.append(-s[-1] * params.family.extra)
        return np.array(g)

    # starting point
    if init is not None:
        mu0, sigma0, lam0 = init.mu, init.sigma, init.lam
        extra0 = init.family.extra if init.family.extra is not None else family.extra
    else:
        mu0 = float(np.median(ya))
        sigma0 = _initial_sigma(ya, family)
        lam0 = 1.0
        extra0 = family.extra
    x = [math.log(mu0), math.log(sigma0)]
    if free_lambda:
        x.append(_clamp_lambda(lam0))
    if ctx.fit_extra:
        x.append(math.log(extra0))
    x = np.array(x)

    dim = x.size
    h_inv = np.eye(dim)
    identity_h = True
    f0 = objective(x)
    g0 = gradient(x)
    converged = False
    message = ""
    iterations = 0
    history = [f0]
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(g0)) < gtol:
            converged = True
            break
        d = -h_inv @ g0
        if d @ g0 >= 0.0:
            h_inv = np.eye(dim)
            identity_h = True
            d = -g0
        slope = d @ g0
        t = 1.0
        while t > 1e-14:
            f1 = objective(x + t * d)
            if math.isfinite(f1) and f1 <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            if not identity_h:
                # the curvature model may be stale; retry from steepest descent
                h_inv = np.eye(dim)
                identity_h = True
                continue
            if np.max(np.abs(g0)) < _PLATEAU_GTOL:
                converged = True
                message = "stopped where the likelihood is flat to machine precision"
            else:
                message = "line search stalled before the gradient tolerance"
            break
        x1 = x + t * d
        g1 = gradient(x1)
        s_step = x1 - x
        y_step = g1 - g0
        sy = s_step @ y_step
        if sy > 1e-10 * np.linalg.norm(s_step) * np.linalg.norm(y_step):
            rho = 1.0 / sy
            outer = np.eye(dim) - rho * np.outer(s_step, y_step)
            h_inv = outer @ h_inv @ outer.T + rho * np.outer(s_step, s_step)
            identity_h = False
        x, f0, g0 = x1, f1, g1
        history.append(f0)
        if len(history) == 26:
            del history[0]
            # an unresolvable objective over a whole window marks a plateau
            # (likelihoods whose supremum sits at infinite mu and sigma reach
            # it along a valley the gradient test alone may never terminate)
            if history[0] - f0 <= 1e-11 * (1.0 + abs(f0)):
                if np.max(np.abs(g0)) < _PLATEAU_GTOL:
                    converged = True
                    message = "stopped where the likelihood is flat to machine precision"
                else:
                    message = "no objective progress before the gradient tolerance"
                break
    else:
        message = "iteration limit reached"

    params_hat = build(x)
    estimates = {"mu": params_hat.mu, "sigma": params_hat.sigma}
    if free_lambda:
        estimates["lambda"] = params_hat.lam
    if ctx.fit_extra:
        estimates[family.extra_name] = params_hat.family.extra
    std_errors, se_message = _standard_errors(ctx, params_hat, mode)
    if se_message and not message:
        message = se_message
    ll_hat = loglik(ctx, params_hat)
    return FitResult(
        params=params_hat,
        loglik=ll_hat,
        aic=2.0 * len(free_names) - 2.0 * ll_hat,
        free_names=free_names,
        estimates=estimates,
        std_errors=std_errors,
        converged=converged,
        iterations=iterations,
        gradient_norm=float(np.max(np.abs(g0))),
        mode=mode,
        message=message,
    )


def _standard_errors(ctx: LikelihoodContext, params: BcsParams, mode: str):
    """Square roots of the inverse observed information over the free set."""
    free = ctx.free_names
    nan_errors = {name: math.nan for name in free}
    try:
        if mode == "analytic":
            H = hessian(ctx, params)
            idx = [0, 1]
            if "lambda" in free:
                idx.append(2)
            if ctx.fit_extra:
                idx.append(3)
            h_obs = H[np.ix_(idx, idx)]
        else:
            core = [n for n in free if n in PARAM_NAMES]
            core_idx = [PARAM_NAMES.index(n) for n in core]

            def build(theta) -> BcsParams:
                vals = [params.mu, params.sigma, params.lam]
                for pos, t in zip(core_idx, theta):
                    vals[pos] = t
                fam = params.family
                if ctx.fit_extra:
                    fam = DensityFamily(params.family.kind, theta[-1])
                return BcsParams(vals[0], vals[1], _clamp_lambda(vals[2]), fam)

            theta_hat = [(params.mu, params.sigma, params.lam)[i] for i in core_idx]
            if ctx.fit_extra:
                theta_hat.append(params.family.extra)
            theta_hat = np.array(theta_hat)

            def ll(theta):
                return loglik(ctx, build(theta))

            h_obs = finite_diff_jacobian(
                lambda t: finite_diff_gradient(ll, t, step=1e-5), theta_hat, step=1e-5
            )
        h_obs = (h_obs + h_obs.T) / 2.0
        cov = np.linalg.inv(-h_obs)
    except (np.linalg.LinAlgError, ValueError):
        return nan_errors, "observed information is singular"
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        return nan_errors, "observed information is not positive definite"
    return dict(zip(free, np.sqrt(diag))), ""


# ---------------------------------------------------------------------------
# Fixed-point form of the stationarity equations.

@dataclass(frozen=True)
class FixedPointReport:
    mu_implied: float
    sigma_implied: float
    residual_mu: float
    residual_sigma: float


def fixed_point_check(ctx: LikelihoodContext, params: BcsParams) -> FixedPointReport:
    """Evaluate the ML stationarity equations in their fixed-point form.

    At the maximum, mu equals a weighted power mean of the data (a weighted
    geometric mean when lambda = 0) and sigma^2 a weighted mean square; the
    residuals are the relative gaps between the implied and given values.
    """
    ya = ctx.data
    _check_seam(params.lam)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    u = np.log(ya) - math.log(mu)
    if lam == 0.0:
        W = np.atleast_1d(weight_function(params.family, u / sigma))
        mu_implied = math.exp(float(np.sum(W * np.log(ya)) / np.sum(W)))
        sigma_implied = math.sqrt(float(np.sum(W * u * u)) / n)
    else:
        z = np.expm1(lam * u) / (sigma * lam)
        W = np.atleast_1d(weight_function(params.family, z))
        v = 1.0 / (sigma * abs(lam))
        info = truncation(params)
        r_v = float(eval_generator(params.family, v * v).r)
        delta = (r_v / info.normalizer) / (sigma * abs(lam))
        g = sigma * z
        sigma_implied = math.sqrt(float(np.sum(W * g * g)) / (n * (1.0 - delta)))
        t = np.exp(lam * u)  # (y/mu)^lambda
        m = float(np.sum(W * t)) / (
            float(np.sum(W)) + n * lam * lam * sigma * sigma * delta
        )
        mu_implied = mu * m ** (1.0 / lam)
    return FixedPointReport(
        mu_implied=mu_implied,
        sigma_implied=sigma_implied,
        residual_mu=abs(mu_implied / mu - 1.0),
        residual_sigma=abs(sigma_implied / sigma - 1.0),
    )
