"""Maximum likelihood for Box-Cox symmetric models.

The score and observed-information formulas are exact: the chain rule is
applied to z = ((y/mu)^lambda - 1) / (sigma lambda) and to the truncation
term log R(v), v = 1 / (sigma |lambda|).  Numerically delicate pieces are
the lambda-derivatives of z, handled through

    phi1(w) = 1 + e^w (w - 1)          (dz/dlambda   = phi1 / (sigma lambda^2))
    phi2(w) = e^w (w^2 - 2w + 2) - 2   (d2z/dlambda2 = phi2 / (sigma lambda^3))

with w = lambda log(y/mu); both vanish to high order at w = 0 and switch
to Taylor series there.  One kernel evaluates z, these derivatives and the
truncation-edge terms per parameter point, at their exact limits when
lambda = 0; the score, the Hessian, derivative_bundle and fixed_point_check
all read it.  Inside 0 < |lambda| < LAMBDA_SEAM the general formulas lose
precision and the derivative routines refuse to run; derivative_bundle
instead clamps lambda to 0 there.

The extra parameter (tau or q) has no closed-form derivatives; where it is
fitted, its score and information entries come from central finite
differences with step 1e-5 * (1 + extra).

fit runs BFGS.  In analytic mode it starts from the inverse observed
information at the start point where that is positive definite, and from the
identity otherwise; in numeric mode from the identity.  It stops at the gradient tolerance; where a line
search cannot resolve a decrease of the log-likelihood (converged if the
gradient is below 1e-3); on a score that is not finite or undefined; or at
the iteration limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .distribution import LAMBDA_SEAM, BcsParams, _z, log_pdf, truncation
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
    value carried by ``family``.  The context owns the layout of the free
    parameters: ``free_index`` gives their positions in (mu, sigma, lambda,
    extra), ``free_values`` reads them from a parameter point and
    ``params_at`` builds the point from them.  The fitter and its standard
    errors go through these three alone.
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
    def free_index(self) -> tuple[int, ...]:
        """Positions of the free parameters in (mu, sigma, lambda, extra)."""
        index = (0, 1) if self.fixed_lambda is not None else (0, 1, 2)
        return index + (3,) if self.fit_extra else index

    @property
    def free_names(self) -> tuple[str, ...]:
        names = PARAM_NAMES + (self.family.extra_name,)
        return tuple(names[i] for i in self.free_index)

    def free_values(self, params: BcsParams) -> list[float]:
        """The free parameters of ``params``, lambda clamped out of the seam."""
        full = (params.mu, params.sigma, _clamp_lambda(params.lam), params.family.extra)
        return [full[i] for i in self.free_index]

    def params_at(self, values) -> BcsParams:
        """The parameter point whose free parameters, in ``free_index`` order, take ``values``."""
        lam = _clamp_lambda(values[2]) if self.fixed_lambda is None else self.fixed_lambda
        family = DensityFamily(self.family.kind, values[-1]) if self.fit_extra else self.family
        return BcsParams(values[0], values[1], lam, family)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """z, its lambda-derivatives and the truncation edge at one parameter point.

    Every field holds its exact limit at lambda = 0, where there is no
    truncation: E = 1, C = u^2/(2 sigma), z_ll = u^3/(3 sigma), v = inf and
    xi = dxi = 0.
    """

    u: np.ndarray  # log(y / mu)
    z: np.ndarray
    E: np.ndarray  # (y / mu)^lambda
    C: np.ndarray  # dz/dlambda
    z_ll: np.ndarray  # d2z/dlambda2
    W: np.ndarray  # varpi(z) = -2 r'(z^2) / r(z^2)
    v: float  # edge 1 / (sigma |lambda|)
    xi: float  # r(v^2) / R(v)
    dxi: float  # -dxi/dv = xi (v varpi(v) + xi)


def _kernel(params: BcsParams, ya: np.ndarray) -> _Kernel:
    _check_seam(params.lam)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    u = np.log(ya) - math.log(mu)
    z = _z(params, u)
    if lam == 0.0:
        E = np.ones_like(u)
        C = u * u / (2.0 * sigma)
        z_ll = u**3 / (3.0 * sigma)
        v, xi, dxi = math.inf, 0.0, 0.0
    else:
        E = 1.0 + sigma * lam * z
        C = _phi1(lam * u) / (sigma * lam * lam)
        z_ll = _phi2(lam * u) / (sigma * lam**3)
        v = 1.0 / (sigma * abs(lam))
        info = truncation(params)
        r_v = float(eval_generator(params.family, v * v).r)
        xi = r_v / info.normalizer
        vw = float(weight_function(params.family, v)) if r_v > 0.0 else 0.0
        dxi = xi * (v * vw + xi)
    W = np.atleast_1d(weight_function(params.family, z))
    return _Kernel(u=u, z=z, E=E, C=C, z_ll=z_ll, W=W, v=v, xi=xi, dxi=dxi)


def loglik(ctx: LikelihoodContext, params: BcsParams) -> float:
    """Sample log-likelihood; -inf when any observation has zero density."""
    return float(np.sum(log_pdf(params, ctx.data)))


def _core_score(params: BcsParams, ya: np.ndarray) -> np.ndarray:
    k = _kernel(params, ya)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    Wz = k.W * k.z
    # at lambda = 0 this term keeps its order of operations: the LR full fit
    # starts from the null fit there, and regrouping it as Wz * C moves that
    # first gradient by ulps, enough to flip convergence of fits that run off
    # to the sigma -> inf boundary
    WzC = Wz * k.u * k.u / (2.0 * sigma) if lam == 0.0 else Wz * k.C
    s_mu = -n * lam / mu + float(np.sum(Wz * k.E)) / (sigma * mu)
    s_sigma = -n / sigma + float(np.sum(Wz * k.z)) / sigma
    s_lam = float(np.sum(k.u - WzC))
    if k.xi > 0.0:
        # truncation term: -log R(v) per observation, v = 1/(sigma |lambda|)
        s_sigma += n * k.xi * k.v / sigma
        s_lam += n * k.xi * k.v / lam
    return np.array([s_mu, s_sigma, s_lam])


def _core_hessian(params: BcsParams, ya: np.ndarray) -> np.ndarray:
    k = _kernel(params, ya)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    z, W, E, C, u = k.z, k.W, k.E, k.C, k.u
    G = W + z * np.atleast_1d(weight_derivative(params.family, z))  # -(d2/dz2) log r(z^2)
    A = -E / (sigma * mu)
    B = -z / sigma
    z_mm = E * (1.0 + lam) / (sigma * mu * mu)
    z_ms = E / (sigma * sigma * mu)
    z_ml = -u * E / (sigma * mu)
    z_ss = 2.0 * z / (sigma * sigma)
    z_sl = -C / sigma
    h_mm = n * lam / mu**2 + float(np.sum(-G * A * A - W * z * z_mm))
    h_ms = float(np.sum(-G * A * B - W * z * z_ms))
    h_ml = -n / mu + float(np.sum(-G * A * C - W * z * z_ml))
    h_ss = n / sigma**2 + float(np.sum(-G * B * B - W * z * z_ss))
    h_sl = float(np.sum(-G * B * C - W * z * z_sl))
    h_ll = float(np.sum(-G * C * C - W * z * k.z_ll))
    # truncation term: T = -log R(v) per observation, v = 1/(sigma |lambda|)
    xe, v, d2 = k.xi, k.v, k.dxi
    if xe > 0.0:
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
    """Transform derivatives at one observation: a view of the kernel.

    Inside |lambda| < LAMBDA_SEAM lambda is clamped to 0, where the kernel
    holds the limit formulas (they agree to machine precision at the seam).
    """
    y = float(y)
    if not (math.isfinite(y) and y > 0.0):
        raise ValueError("y must be positive and finite")
    params = replace(params, lam=_clamp_lambda(params.lam))
    mu, sigma, lam = params.mu, params.sigma, params.lam
    k = _kernel(params, np.array([y]))
    u, z, E = float(k.u[0]), float(k.z[0]), float(k.E[0])
    dxi_dsigma = dxi_dlambda = 0.0
    if k.xi > 0.0:
        dxi_dsigma = k.dxi * k.v / sigma  # dv/dsigma = -v/sigma
        dxi_dlambda = k.dxi * k.v / lam  # dv/dlambda = -v/lambda
    return DerivativeBundle(
        z=z,
        dz_dmu=-E / (sigma * mu),
        dz_dlambda=float(k.C[0]),
        d2z_dmu2=E * (1.0 + lam) / (sigma * mu * mu),
        d2z_dlambda2=float(k.z_ll[0]),
        d2z_dmudlambda=-u * E / (sigma * mu),
        xi=k.xi,
        dxi_dsigma=dxi_dsigma,
        dxi_dlambda=dxi_dlambda,
        varpi=float(k.W[0]),
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


# a search stops below _GTOL; where a line search cannot resolve a decrease
# (converged below _PLATEAU_GTOL); on a non-finite score; or at _MAX_ITER
_GTOL = 1e-6
_PLATEAU_GTOL = 1e-3
_MAX_ITER = 500


def _initial_sigma(y: np.ndarray, family: DensityFamily) -> float:
    q25, q50, q75 = np.quantile(y, [0.25, 0.5, 0.75])
    cv = 0.75 * (q75 - q25) / q50
    s75 = symmetric_quantile(family, 0.75)
    return max(math.asinh(cv / 1.5) / s75, 1e-3)


# a fit from the default start that ends with sigma |lambda| beyond this has
# walked toward the sigma -> inf limit law: in t4 type-I and recovery studies
# interior fits end below 3, and such walks beyond 1e6
_BOUNDARY_SIGMA_LAMBDA = 1e6


def fit(
    ctx: LikelihoodContext,
    init: BcsParams | None = None,
    mode: str = "analytic",
) -> FitResult:
    """Maximize the likelihood over the free parameters of ``ctx``.

    The search runs in (log mu, log sigma, lambda, log extra) coordinates
    with BFGS and an Armijo backtracking line search.  ``init`` warm-starts
    all coordinates it covers.  mode "analytic" assembles the gradient from
    the closed-form score and starts BFGS from the inverse of the observed
    information at the start point, mapped to the search coordinates, each
    eigenvalue e raised to at least 1e-8 max e (the identity where that
    information is not finite or not positive definite); "numeric"
    differentiates the objective, starts from the identity and serves as an
    independent cross-check.  A first line search from the observed
    information that fails still retries from steepest descent.  The search
    converges at a gradient below 1e-6.  It also ends where a line search,
    even from steepest descent, cannot resolve a decrease t |g'd| >
    eps (1 + |f|), one ulp of the objective: converged if the gradient is
    below 1e-3 (the likelihood is flat to machine precision), stalled
    otherwise.  A score that overflows, is not finite or stays on a singular
    weight one ulp past a kink ends the fit unconverged, and so do 500
    iterations.

    Without ``init``, a free-lambda search that walks toward the
    sigma |lambda| -> inf boundary is run again from the optimum of the
    lambda = 0 submodel, and the higher of the two maxima is returned.  At
    that boundary the likelihood flattens toward the limit law's supremum,
    which may lie below the interior maximum.
    """
    result = _maximize(ctx, init, mode)
    p = result.params
    if init is None and ctx.fixed_lambda is None and p.sigma * abs(p.lam) > _BOUNDARY_SIGMA_LAMBDA:
        null = _maximize(replace(ctx, fixed_lambda=0.0), None, mode)
        second = _maximize(ctx, null.params, mode)
        if second.loglik > result.loglik:
            return second
    return result


def _search_space(ctx: LikelihoodContext):
    """The fitter's coordinates x = (log mu, log sigma, lambda, log extra) over
    the free set: which are logged, the map x -> params, and the objective
    -loglik(x), inf where x is not admissible."""
    # lambda is the only free coordinate the optimizer does not log
    logged = [i != 2 for i in ctx.free_index]

    def build(x) -> BcsParams:
        return ctx.params_at([math.exp(v) if lg else v for v, lg in zip(x.tolist(), logged)])

    def objective(x) -> float:
        # a step whose exp() under- or overflows is simply not admissible
        try:
            val = loglik(ctx, build(x))
        except (ValueError, OverflowError):
            return math.inf
        return -val if math.isfinite(val) else math.inf

    return logged, build, objective


# fit rejects a non-finite objective, stops with a reason on a non-finite gradient, gives NaN SEs
@np.errstate(all="ignore")
def _maximize(ctx: LikelihoodContext, init: BcsParams | None, mode: str) -> FitResult:
    ya = ctx.data
    if ya.size < 5:
        raise ValueError("need at least 5 observations to fit")
    if ya.max() == ya.min():
        raise ValueError("observations have zero spread")
    if mode not in ("analytic", "numeric"):
        raise ValueError("mode must be 'analytic' or 'numeric'")
    free_names = ctx.free_names
    logged, build, objective = _search_space(ctx)
    kink = []  # the error of a score that stayed on a weight singularity

    def gradient(x) -> np.ndarray:
        if mode == "numeric":
            return finite_diff_gradient(objective, x)
        params = build(x)
        try:
            s = score(ctx, params)
        except ValueError:
            # an iterate can land mu bitwise on a data point, putting one z on
            # the weight kink; one ulp sideways yields a valid one-sided slope,
            # unless log of the moved mu rounds to the same double
            params = replace(params, mu=np.nextafter(params.mu, np.inf))
            try:
                s = score(ctx, params)
            except ValueError as err:
                kink.append(f"score is undefined at the iterate: {err}")
                return np.full(x.size, math.nan)
        except OverflowError:
            return np.full(x.size, math.nan)
        terms = zip(ctx.free_index, ctx.free_values(params), logged)
        return np.array([-s[i] * v if lg else -s[i] for i, v, lg in terms])

    if init is None:
        init = BcsParams(float(np.median(ya)), _initial_sigma(ya, ctx.family), 1.0, ctx.family)
    elif init.family.extra is None:
        init = replace(init, family=ctx.family)
    x = np.array([math.log(v) if lg else v for v, lg in zip(ctx.free_values(init), logged)])

    dim = x.size
    f0 = objective(x)
    g0 = gradient(x)
    h_inv = _start_inverse(ctx, build(x), logged, g0) if mode == "analytic" else None
    identity_h = h_inv is None
    if identity_h:
        h_inv = np.eye(dim)
    converged = False
    message = ""
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        g_max = np.max(np.abs(g0))  # NaN if any component is NaN
        if not math.isfinite(g_max):
            message = kink[-1] if kink else "score is not finite at the iterate"
            break
        if g_max < _GTOL:
            converged = True
            break
        d = -h_inv @ g0
        if d @ g0 >= 0.0:
            h_inv = np.eye(dim)
            identity_h = True
            d = -g0
        slope = d @ g0
        resolution = sys.float_info.epsilon * (1.0 + abs(f0))  # one ulp of f
        t = 1.0
        # after the unit step, stop at the step floor or an unresolvable t |g'd|
        while t == 1.0 or (t > 1e-14 and t * abs(slope) > resolution):
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
            if g_max < _PLATEAU_GTOL:
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
    else:
        message = "iteration limit reached"

    params_hat = build(x)
    estimates = dict(zip(free_names, ctx.free_values(params_hat)))
    std_errors, se_message = _standard_errors(ctx, params_hat, mode)
    if se_message and not message:
        message = se_message
    ll_hat = -f0  # f0 is the objective at x
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


def _start_inverse(ctx: LikelihoodContext, params: BcsParams, logged, g0) -> np.ndarray | None:
    """BFGS's first inverse Hessian: the inverse observed information.

    The Hessian of -loglik is mapped to the optimizer's coordinates, where a
    logged coordinate x = log theta adds its gradient g0 on the diagonal, and
    each eigenvalue e is raised to at least 1e-8 max e.  None, for the
    identity, where the Hessian raises, is not finite or is not positive
    definite: a step along a direction of negative curvature, scaled as if
    it were positive, walks far from the start.
    """
    scale = np.array([v if lg else 1.0 for v, lg in zip(ctx.free_values(params), logged)])
    try:
        h = hessian(ctx, params)[np.ix_(ctx.free_index, ctx.free_index)]
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    curv = -h * np.outer(scale, scale) + np.diag(np.where(logged, g0, 0.0))
    if not np.all(np.isfinite(curv)):
        return None
    eig, vec = np.linalg.eigh((curv + curv.T) / 2.0)
    if not eig[0] > 0.0:
        return None
    h_inv = (vec / np.maximum(eig, 1e-8 * eig[-1])) @ vec.T
    return h_inv if np.all(np.isfinite(h_inv)) else None


def _standard_errors(ctx: LikelihoodContext, params: BcsParams, mode: str):
    """Square roots of the inverse observed information over the free set.

    Numeric mode differentiates the search objective twice in the fitter's
    coordinates, where the steps are relative in mu, sigma and extra, and
    maps the covariance C back by the delta method: theta sqrt(C_ii) on a
    logged coordinate (the gradient term vanishes at a stationary point).
    """
    free = ctx.free_names
    nan_errors = {name: math.nan for name in free}
    scale = 1.0
    try:
        if mode == "analytic":
            curv = -hessian(ctx, params)[np.ix_(ctx.free_index, ctx.free_index)]
        else:
            logged, _, objective = _search_space(ctx)
            terms = list(zip(ctx.free_values(params), logged))
            x_hat = np.array([math.log(v) if lg else v for v, lg in terms])
            curv = finite_diff_jacobian(
                lambda x: finite_diff_gradient(objective, x, step=1e-5), x_hat, step=1e-5
            )
            scale = np.array([v if lg else 1.0 for v, lg in terms])
        cov = np.linalg.inv((curv + curv.T) / 2.0)
    except (np.linalg.LinAlgError, ValueError, OverflowError, ZeroDivisionError):
        return nan_errors, "observed information is singular"
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        return nan_errors, "observed information is not positive definite"
    return dict(zip(free, scale * np.sqrt(diag))), ""


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
    k = _kernel(params, ya)
    mu, sigma, lam = params.mu, params.sigma, params.lam
    n = ya.size
    W = k.W
    if lam == 0.0:
        mu_implied = math.exp(float(np.sum(W * np.log(ya)) / np.sum(W)))
        sigma_implied = math.sqrt(float(np.sum(W * k.u * k.u)) / n)
    else:
        delta = k.xi * k.v
        g = sigma * k.z
        sigma_implied = math.sqrt(float(np.sum(W * g * g)) / (n * (1.0 - delta)))
        m = float(np.sum(W * k.E)) / (
            float(np.sum(W)) + n * lam * lam * sigma * sigma * delta
        )
        mu_implied = mu * m ** (1.0 / lam)
    return FixedPointReport(
        mu_implied=mu_implied,
        sigma_implied=sigma_implied,
        residual_mu=abs(mu_implied / mu - 1.0),
        residual_sigma=abs(sigma_implied / sigma - 1.0),
    )
