"""Maximum likelihood for Box-Cox symmetric models.

The score and observed-information formulas are exact: the chain rule is
applied to z = ((y/mu)^lambda - 1) / (sigma lambda) and to the truncation
term log R(v), v = 1 / (sigma |lambda|).  Numerically delicate pieces are
the lambda-derivatives of z, handled through

    phi1(w) = 1 + e^w (w - 1)          (dz/dlambda   = phi1 / (sigma lambda^2))
    phi2(w) = e^w (w^2 - 2w + 2) - 2   (d2z/dlambda2 = phi2 / (sigma lambda^3))

with w = lambda log(y/mu); both vanish to high order at w = 0 and switch
to Taylor series there.  One object per parameter point evaluates u, z, the
truncation R(v) and the log-likelihood once, and z's derivatives and the
truncation-edge terms when first asked, at their exact limits when
lambda = 0.  loglik, score and hessian all read it, and the context keeps the
last point and the last one read more than once, so a score or Hessian at the
point of the preceding loglik, or at the iterate after a failed line search,
reuses its value level.  Inside 0 < |lambda| < LAMBDA_SEAM the general
formulas lose precision: loglik still evaluates there, while score and
hessian refuse to run.

Where log r(z^2) has a kink at z = 0 (double exponential, power exponential
with tau <= 1), the log-likelihood has one in mu at every observation, and
the ML mu is typically an observation: a weighted median (Kotz, Kozubowski
and Podgorski 2001, ch. 2).  With mu on an observation, score and hessian
raise; the observation adds nothing to the sigma, lambda and extra
derivatives, and each one-sided mu derivative is the others' plus or minus
kink_slope / (sigma mu).

The extra parameter (tau or q) has no closed-form derivatives; where it is
fitted, its score and information entries come from central finite
differences with step 1e-5 * (1 + extra).

fit runs BFGS.  In analytic mode it starts from the inverse observed
information at the start point where that is positive definite, and from the
identity otherwise; in numeric mode from the identity.  A gradient search only
crawls toward a kink in mu, so in analytic mode fit snaps mu onto the
observation and holds it while Newton steps fit the other parameters.  The
search is a loop over one step function, from one iterate (x, the objective,
its gradient, the inverse curvature model and the held mu) to the next, until
the step returns a _Stop: GRADIENT_TOL, KINK_OPTIMUM, FLAT_PLATEAU,
LINE_SEARCH_STALL, SCORE_NOT_FINITE, SCORE_UNDEFINED or ITER_LIMIT (fit
describes each).  The fit's converged flag and message follow from the stop.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .distribution import LAMBDA_SEAM, BcsParams, _log_density, _z, truncation
from .families import (
    DensityFamily,
    _weight_1d,
    eval_generator,
    generator_decay,
    kink_slope,
    symmetric_quantile,
)
from .numdiff import finite_diff_gradient, finite_diff_jacobian

PARAM_NAMES = ("mu", "sigma", "lambda")

# |z| past which the score and the Hessian read a power-tailed generator off
# its power law: there w'(z) ~ z^-3 underflows, while W z^2 = g and
# G z^2 = -g hold to double precision
_Z_FAR = 1e100


def _taylor_switch(w, radius: float, direct, series):
    """direct(w), or series(w) where |w| < radius: the phi's lose their digits
    to cancellation near w = 0, where their series converge fast."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = direct(w)
    small = np.abs(w) < radius
    if not small.any():
        return out
    out = np.asarray(out)
    out[small] = series(w[small])
    return out


def _phi1(w):
    return _taylor_switch(
        w, 1e-3, lambda w: 1.0 + np.exp(w) * (w - 1.0),
        lambda w: w * w * (0.5 + w * (1.0 / 3.0 + w * (0.125 + w * (1.0 / 30.0 + w / 144.0)))),
    )


def _phi2(w):
    return _taylor_switch(
        w, 1e-2, lambda w: np.exp(w) * (w * w - 2.0 * w + 2.0) - 2.0,
        lambda w: w**3 * (1.0 / 3.0 + w * (0.25 + w * (0.1 + w * (1.0 / 36.0 + w / 168.0)))),
    )


def _power(x: float, k: int) -> np.float64:
    """x**k as Python's ** rounds it, as a numpy float, and inf of its sign
    where it overflows, where ** raises: a division by it then follows the
    caller's errstate, where a Python float raises at a zero divisor."""
    try:
        return np.float64(x**k)
    except OverflowError:
        return np.float64(math.copysign(math.inf, x) if k % 2 else math.inf)


def _check_data(y) -> np.ndarray:
    ya = np.array(y, dtype=float).ravel()  # a copy: the caller's array may change
    if ya.size == 0:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(ya) & (ya > 0.0)):
        raise ValueError("observations must be positive and finite")
    ya.flags.writeable = False
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

    The context keeps a read-only copy of the data and of its logs, and two
    parameter points evaluated on it: the last one, and the last one read
    more than once.  ``loglik``, ``score`` and ``hessian`` at a ``BcsParams``
    equal to either share its u, z and truncation.  In a fit the second is
    the iterate, whose value and score were both read, and the first the
    last trial of the line search; a search that stops on a failed line
    search finds the iterate's point again for its standard errors.
    """

    data: np.ndarray
    family: DensityFamily
    fixed_lambda: float | None = None
    fit_extra: bool = False
    log_data: np.ndarray = field(init=False, repr=False)  # log y, read-only
    # (the last point, the last point read more than once), either may be None
    _recent: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        ya = _check_data(self.data)
        log_y = np.log(ya)
        log_y.flags.writeable = False
        object.__setattr__(self, "data", ya)
        object.__setattr__(self, "log_data", log_y)
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

    def _point(self, params: BcsParams) -> _Point:
        last, kept = self._recent
        if last is not None and last.params == params:
            object.__setattr__(self, "_recent", (last, last))
            return last
        if kept is not None and kept.params == params:
            return kept
        point = _Point(params, self.data, self.log_data)
        object.__setattr__(self, "_recent", (point, kept))
        return point


class _Point:
    """The log-likelihood of a sample at one parameter point, and its derivatives.

    The constructor evaluates the value level: u = log(y / mu), z, the
    truncation and the log-likelihood.  The score level (``score_pieces``,
    ``score``) and the Hessian level (``hessian``) are computed on first use;
    the score level refuses a lambda inside the seam.  Every piece holds its
    exact limit at lambda = 0, where there is no truncation: E = 1,
    C = u^2/(2 sigma), z_ll = u^3/(3 sigma), v = inf and xi = dxi = 0.
    Past |z| = 1e100 a power-tailed generator is read off its power law
    (``_far``), so the derivatives stay finite where the log-likelihood is.
    """

    def __init__(self, params: BcsParams, ya: np.ndarray, log_y: np.ndarray):
        self.params = params
        self.ya = ya
        self.log_y = log_y
        self.u = log_y - math.log(params.mu)
        # np.log and math.log can round one ulp apart: an observation at mu has u = 0
        self.u[ya == params.mu] = 0.0
        self.z = _z(params, self.u)
        self.info = truncation(params)  # info.edge is v = 1 / (sigma |lambda|)
        self.loglik = float(_log_density(params, self.u, self.z, self.info).sum())

    @cached_property
    def kinked(self) -> int:
        """How many observations sit at mu (z = 0) in a family whose log r(z^2)
        has a kink at 0: the log-likelihood has a kink in mu there."""
        if kink_slope(self.params.family) == 0.0:
            return 0
        return int(np.count_nonzero(self.u == 0.0))

    def _off_kink(self, derivative: bool) -> np.ndarray:
        """The weight w(z), or dw/dz with ``derivative``, per observation, 0 at
        the kinked ones: their z = 0 for every sigma and lambda, so they add
        nothing to the sigma, lambda and extra derivatives, and the mu
        derivative is left without them.  It raises, as ``weight_function``
        does, at a z = 0 where the weight is singular."""
        family, z = self.params.family, self.z
        if not self.kinked:
            return _weight_1d(family, z, derivative)
        out = np.zeros_like(z)
        off = self.u != 0.0
        out[off] = _weight_1d(family, z[off], derivative)
        return out

    @cached_property
    def score_pieces(self):
        """The pieces the score and the Hessian share: (z, E, C, W, xi, dxi, far).

        E = (y / mu)^lambda, C = dz/dlambda, W = varpi(z) = -2 r'(z^2) / r(z^2),
        and at the edge xi = r(v^2) / R(v) and dxi = -dxi/dv = xi (v varpi(v) + xi).
        ``far`` is ``_far()``: at its rows z, E, C and W come with z scaled out.
        """
        p, u = self.params, self.u
        _check_seam(p.lam)
        sigma, lam, family = p.sigma, p.lam, p.family
        if lam == 0.0:
            E = np.ones_like(u)
            C = u * u / (2.0 * sigma)
            xi = dxi = 0.0
        else:
            E = 1.0 + sigma * lam * self.z
            C = _phi1(lam * u) / (sigma * lam * lam)
            v = self.info.edge
            r_v = float(eval_generator(family, v * v).r)
            xi = r_v / self.info.normalizer
            vw = float(_weight_1d(family, np.array([v]), False)[0]) if r_v > 0.0 else 0.0
            dxi = xi * (v * vw + xi)
        W = self._off_kink(False)
        z, far = self.z, self._far()
        if far is not None:
            mask, g, e, c, _ = far
            z = z.copy()
            z[mask], E[mask], C[mask], W[mask] = 1.0, e, c, g
        return z, E, C, W, xi, dxi, far

    def _far(self):
        """The rows past |z| = _Z_FAR under a power-tailed generator,
        r(z^2) ~ |z|^-g, as (mask, g, E/z, C/z, z_ll/z); None if there are none.

        Every per-row term of the score and the Hessian is of degree 0 in z, so
        these rows take it with z scaled out: z, W, G, E, C and z_ll become
        1, g, -g, E/z, C/z and z_ll/z.  The ratios come from w = lambda u, so
        they stay finite where z, C or z_ll overflowed.
        """
        if not np.abs(self.z).max() > _Z_FAR:
            return None
        decay = generator_decay(self.params.family)
        if decay[0] != "power":
            return None
        p = self.params
        mask = np.abs(self.z) > _Z_FAR
        u = self.u[mask]
        if p.lam == 0.0:
            return mask, decay[1], 1.0 / self.z[mask], 0.5 * u, u * u / 3.0
        w = p.lam * u
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m = np.expm1(w)
            # phi1 / expm1 = w - 1 + w / expm1 and
            # phi2 / expm1 = w^2 - 2w + 2 + (w^2 - 2w) / expm1, which cancel near w = 0
            near = np.abs(w) < 1.0
            c = np.where(near, _phi1(w) / m, w - 1.0 + w / m) / p.lam
            l = np.where(near, _phi2(w) / m, w * (w - 2.0) * (1.0 + 1.0 / m) + 2.0)
        return mask, decay[1], 1.0 / self.z[mask] + p.sigma * p.lam, c, l / p.lam**2

    @cached_property
    def score(self) -> np.ndarray:
        """Gradient in (mu, sigma, lambda).

        With observations on a kink, the mu entry is the one-sided mu
        derivative nearest 0: 0 where the two bracket 0.
        """
        z, E, C, W, xi, _, far = self.score_pieces
        p = self.params
        mu, sigma, lam = p.mu, p.sigma, p.lam
        n, u, v = self.ya.size, self.u, self.info.edge
        Wz = W * z
        # at lambda = 0 this term keeps its order of operations: the LR full fit
        # starts from the null fit there, and regrouping it as Wz * C moves that
        # first gradient by ulps, enough to flip convergence of fits that run off
        # to the sigma -> inf boundary
        WzC = Wz * u * u / (2.0 * sigma) if lam == 0.0 and far is None else Wz * C
        s_mu = -n * lam / mu + float((Wz * E).sum()) / (sigma * mu)
        if self.kinked:
            # each observation at mu adds -+ kink_slope / (sigma mu) to the
            # derivative from above and from below
            jump = self.kinked * kink_slope(p.family) / (sigma * mu)
            s_mu = float(np.clip(0.0, s_mu - jump, s_mu + jump))
        s_sigma = -n / sigma + float((Wz * z).sum()) / sigma
        s_lam = float((u - WzC).sum())
        if xi > 0.0:
            # truncation term: -log R(v) per observation
            s_sigma += n * xi * v / sigma
            s_lam += n * xi * v / lam
        return np.array([s_mu, s_sigma, s_lam])

    @cached_property
    def hessian(self) -> np.ndarray:
        """Second-derivative matrix over (mu, sigma, lambda).  Where mu^2,
        sigma^2 or lambda^2 under- or overflows its entries read inf or NaN."""
        z, E, C, W, xi, dxi, far = self.score_pieces
        p = self.params
        mu, sigma, lam = p.mu, p.sigma, p.lam
        n, u, v = self.ya.size, self.u, self.info.edge
        sigma2 = _power(sigma, 2)
        z_ll = u**3 / (3.0 * sigma) if lam == 0.0 else _phi2(lam * u) / (sigma * _power(lam, 3))
        G = W + z * self._off_kink(True)  # -(d2/dz2) log r(z^2)
        if far is not None:
            mask, g, _, _, l = far
            z_ll[mask], G[mask] = l, -g
        A = -E / (sigma * mu)
        B = -z / sigma
        z_mm = E * (1.0 + lam) / (sigma * mu * mu)
        z_ms = E / (sigma * sigma * mu)
        z_ml = -u * E / (sigma * mu)
        z_ss = 2.0 * z / (sigma * sigma)
        z_sl = -C / sigma
        h_mm = n * lam / _power(mu, 2) + float((-G * A * A - W * z * z_mm).sum())
        h_ms = float((-G * A * B - W * z * z_ms).sum())
        h_ml = -n / mu + float((-G * A * C - W * z * z_ml).sum())
        h_ss = n / sigma2 + float((-G * B * B - W * z * z_ss).sum())
        h_sl = float((-G * B * C - W * z * z_sl).sum())
        h_ll = float((-G * C * C - W * z * z_ll).sum())
        # truncation term: T = -log R(v) per observation
        if xi > 0.0:
            h_ss += n * (dxi * v * v - 2.0 * xi * v) / sigma2
            h_ll += n * (dxi * v * v - 2.0 * xi * v) / _power(lam, 2)
            h_sl += n * (dxi * v * v - xi * v) / np.float64(sigma * lam)
        return np.array([[h_mm, h_ms, h_ml], [h_ms, h_ss, h_sl], [h_ml, h_sl, h_ll]])

    @cached_property
    def extra_pair(self):
        """The step h and the points at extra + h and extra - h."""
        kind, e = self.params.family.kind, self.params.family.extra
        h = min(1e-5 * (1.0 + abs(e)), 0.5 * e)
        pp, pm = (replace(self.params, family=DensityFamily(kind, x)) for x in (e + h, e - h))
        return h, _Point(pp, self.ya, self.log_y), _Point(pm, self.ya, self.log_y)


def loglik(ctx: LikelihoodContext, params: BcsParams) -> float:
    """Sample log-likelihood; -inf when any observation has zero density."""
    return ctx._point(params).loglik


class _OnKink(ValueError):
    """score or hessian where mu is an observation on a kink of the log-likelihood.

    ``value`` is what the fitter takes there: the score with its mu entry the
    one-sided derivative nearest 0, or the Hessian without the observations
    at mu, whose sigma, lambda and extra block is exact.
    """

    def __init__(self, point: _Point, value: np.ndarray):
        super().__init__(
            f"weight function of {point.params.family.label()} is singular at z = 0: "
            "mu is an observation, where the log-likelihood has a kink in mu"
        )
        self.value = value


# at a valid extreme point an entry of the score or the Hessian may overflow or
# be undefined; the entry then reads inf or NaN, and no warning leaks
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def score(ctx: LikelihoodContext, params: BcsParams) -> np.ndarray:
    """Gradient of the log-likelihood in (mu, sigma, lambda[, extra]).

    Raises ValueError where mu is an observation and the family's log r(z^2)
    has a kink at z = 0 (double exponential, power exponential with
    tau <= 1): the mu derivative takes two one-sided values there.
    """
    point = ctx._point(params)
    s = point.score
    if ctx.fit_extra:
        h, pp, pm = point.extra_pair
        s = np.append(s, (pp.loglik - pm.loglik) / (2.0 * h))
    else:
        s = s.copy()
    if point.kinked:
        raise _OnKink(point, s)
    return s


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def hessian(ctx: LikelihoodContext, params: BcsParams) -> np.ndarray:
    """Observed second-derivative matrix of the log-likelihood.

    3x3 over (mu, sigma, lambda); with ``fit_extra`` a fourth row/column for
    the extra parameter is appended from finite differences of the score.
    Raises ValueError where ``score`` does.
    """
    point = ctx._point(params)
    H = point.hessian.copy()
    if ctx.fit_extra:
        h, pp, pm = point.extra_pair
        row = (pp.score - pm.score) / (2.0 * h)
        H = np.pad(H, (0, 1))
        H[3, :3] = H[:3, 3] = row
        H[3, 3] = (pp.loglik - 2.0 * point.loglik + pm.loglik) / (h * h)
    if point.kinked:
        raise _OnKink(point, H)
    return H

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


_GTOL = 1e-6
_PLATEAU_GTOL = 1e-3
_MAX_ITER = 500


class _Stop(enum.Enum):
    """How a search ended; ``fit`` describes each ending."""

    GRADIENT_TOL = enum.auto()
    KINK_OPTIMUM = enum.auto()
    FLAT_PLATEAU = enum.auto()
    LINE_SEARCH_STALL = enum.auto()
    SCORE_NOT_FINITE = enum.auto()
    SCORE_UNDEFINED = enum.auto()
    ITER_LIMIT = enum.auto()


_CONVERGED = {_Stop.GRADIENT_TOL, _Stop.KINK_OPTIMUM, _Stop.FLAT_PLATEAU}
# the fit's message at each stop that fixes one; at the others it is the
# standard errors' (empty where there are standard errors) or, at
# SCORE_UNDEFINED, the iterate's reason
_STOP_TEXT = {
    _Stop.FLAT_PLATEAU: "stopped where the likelihood is flat to machine precision",
    _Stop.LINE_SEARCH_STALL: "line search stalled before the gradient tolerance",
    _Stop.SCORE_NOT_FINITE: "score is not finite at the iterate",
    _Stop.ITER_LIMIT: "iteration limit reached",
}


@dataclass(slots=True)
class _Iterate:
    """One point of a search: x, the objective f there and its gradient g,
    the inverse curvature model ``h_inv`` (the search's identity matrix
    itself where there is none), mu while held bitwise on an observation on
    a kink in mu, and why g is NaN where the score is undefined."""

    x: np.ndarray
    f: float
    g: np.ndarray
    h_inv: np.ndarray
    held: float | None = None
    undefined: str | None = None


@functools.lru_cache(maxsize=64)
def _upper_quartile(kind, extra) -> float:
    """s_0.75 of the standard symmetric law: its inverse table's t = 1/4 node.

    Cached per family here, at the caller: through ``symmetric_quantile``'s
    full entry, fetching the stored node costs about 100 us a fit.
    """
    return symmetric_quantile(DensityFamily(kind, extra), 0.75)


def _initial_sigma(y: np.ndarray, family: DensityFamily) -> float:
    """The sigma whose log-symmetric law has the sample's centile CV,
    0.75 (q75 - q25) / q50 = 1.5 sinh(sigma s_0.75), at least 1e-3; s_0.75
    is the family's inverse-table node at t = 1/4, cached per family."""
    q25, q50, q75 = np.quantile(y, [0.25, 0.5, 0.75])
    cv = 0.75 * (q75 - q25) / q50
    return max(math.asinh(cv / 1.5) / _upper_quartile(family.kind, family.extra), 1e-3)


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
    information that fails still retries from steepest descent.  In analytic
    mode, once the gradient is below 1e-3, a unit BFGS step that fails is
    retried from the observed information at the iterate instead, and where
    that step too cannot resolve a decrease there is no steepest-descent
    retry.

    Where the log-likelihood has a kink in mu at each observation (see
    ``families.kink_slope``), the gradient jumps there, so BFGS cannot meet
    the gradient test at the optimum: it crawls toward the observation, each
    line search halving 10-50 times, until it stalls.  In analytic mode, once
    a line search is cut to 1/16 of its step with mu within 1e-5 (relative)
    of an observation, mu is set to it bitwise if the likelihood is no lower
    there; where the kink is a cusp (power exponential, tau < 1), every
    observation is a local maximum in mu, so only a stalled search, or one
    whose iterate lands on the observation bitwise, snaps.  With mu held,
    damped Newton steps on the analytic Hessian fit the other parameters.
    The one-sided mu derivatives certify the stop: where one side rises,
    BFGS resumes toward it.  On a cusp they bracket 0 at every observation,
    so there mu moves on to a neighbouring observation while one is higher
    at the other parameters, and the Newton steps resume from it.

    The search ends at one of these stops; the fit converges at the first
    three.  A line search that cannot resolve a decrease means one that,
    after the retries above, cannot resolve t |g'd| > eps (1 + |f|), one ulp
    of the objective.

    - GRADIENT_TOL: the gradient is below 1e-6.
    - KINK_OPTIMUM: mu is held on an observation, and either the one-sided
      mu derivatives bracket 0 with the other components below 1e-6, or no
      line search resolves a decrease with the gradient below 1e-3.  The
      message names the kink: the score and Hessian raise there, so the
      standard errors are NaN.
    - FLAT_PLATEAU: no line search resolves a decrease, and the gradient is
      below 1e-3: the likelihood is flat to machine precision.
    - LINE_SEARCH_STALL: no line search resolves a decrease, and the
      gradient is 1e-3 or more.
    - SCORE_NOT_FINITE: the score overflows or is not finite.
    - SCORE_UNDEFINED: the score stays on a singular weight one ulp past a
      kink; the message gives the reason.
    - ITER_LIMIT: 500 iterations.

    An unconverged fit's message says why it stopped.  A converged fit's is
    empty, unless the likelihood is flat or the standard errors are NaN.

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
    the free set: which are logged, the map x -> params, the objective
    -loglik(x), inf where x is not admissible, and the map params -> x.
    Given ``mu``, the map x -> params and the objective take it in place of
    exp(x[0])."""
    # lambda is the only free coordinate the optimizer does not log
    logged = [i != 2 for i in ctx.free_index]

    def build(x, mu=None) -> BcsParams:
        values = [math.exp(v) if lg else v for v, lg in zip(x.tolist(), logged)]
        if mu is not None:  # held bitwise, which exp(log mu) need not give back
            values[0] = mu
        return ctx.params_at(values)

    def objective(x, mu=None) -> float:
        # a step whose exp() under- or overflows is simply not admissible
        try:
            val = loglik(ctx, build(x, mu))
        except (ValueError, OverflowError):
            return math.inf
        return -val if math.isfinite(val) else math.inf

    def to_x(params: BcsParams) -> np.ndarray:
        values = ctx.free_values(params)
        return np.array([math.log(v) if lg else v for v, lg in zip(values, logged)])

    return logged, build, objective, to_x


# a line search cut to this step or below, in a family whose log-likelihood has
# a kink in mu at each observation, that leaves mu within _SNAP_DIST (in log mu)
# of an observation has run into that kink: mu snaps onto it.  On the compare
# corpus (n = 1000, observations about 1e-3 apart near the median) a reach of
# 1e-4 snapped one fit onto a kink 0.037 lower, and 1e-6 snaps later
_SNAP_T = 1.0 / 16.0
_SNAP_DIST = 1e-5


def _drive(step, it: _Iterate):
    """(last iterate, stop, iterations) of the search that ``step`` takes from ``it``."""
    for iterations in range(1, _MAX_ITER + 1):
        nxt = step(it)
        if isinstance(nxt, _Stop):
            return it, nxt, iterations
        it = nxt
    return it, _Stop.ITER_LIMIT, _MAX_ITER


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
    logged, build, objective, to_x = _search_space(ctx)
    eye = np.eye(len(logged))  # h_inv is rebound, never written, so it may be eye itself
    # whether snap can move mu: in analytic mode, where a family the search
    # may reach has a kink in mu
    snaps = mode == "analytic" and (ctx.fit_extra or kink_slope(ctx.family) != 0.0)

    def at(x, f, held, h_inv) -> _Iterate:
        """The iterate at x, where the objective is f, with its gradient."""
        if mode == "numeric":
            return _Iterate(x, f, finite_diff_gradient(objective, x), h_inv, held)
        params = build(x, held)
        try:
            s = score(ctx, params)
        except _OnKink as err:
            s = err.value if held is not None else None  # held: the one-sided slope nearest 0
        except ValueError:
            s = None
        except OverflowError:
            return _Iterate(x, f, np.full(x.size, math.nan), h_inv, held)
        if s is None:
            # an iterate can land mu bitwise on a data point, putting one z on
            # the weight kink; one ulp sideways yields a valid one-sided slope,
            # unless log of the moved mu rounds to the same double: on a kink
            # of the log-likelihood, the one-sided slope nearest 0 is taken
            params = replace(params, mu=np.nextafter(params.mu, np.inf))
            try:
                s = score(ctx, params)
            except _OnKink as err:
                s = err.value
            except ValueError as err:
                why = f"score is undefined at the iterate: {err}"
                return _Iterate(x, f, np.full(x.size, math.nan), h_inv, held, why)
        terms = zip(ctx.free_index, ctx.free_values(params), logged)
        g = np.array([-s[i] * v if lg else -s[i] for i, v, lg in terms])
        return _Iterate(x, f, g, h_inv, held)

    def onto(x, y):
        """(x with mu on observation y, the objective there, y): mu held bitwise."""
        x_y = np.concatenate(([math.log(y)], x[1:]))
        return x_y, objective(x_y, y), y

    def snap(x1, f1, h_inv, stalled: bool) -> _Iterate | None:
        """The iterate with mu moved onto the observation nearest
        exp(x1[0]), if that lies within _SNAP_DIST, is on a kink and is no
        lower; else None.  Where the kink's slope is infinite every
        observation is a local maximum in mu, so a cut step says nothing:
        there mu snaps only once the search has stalled, or once an iterate
        lands on the observation bitwise (one ulp off it, the one-sided slope
        is huge, and BFGS steps off and halves back onto it for good)."""
        slope = kink_slope(build(x1).family) if mode == "analytic" else 0.0
        if slope == 0.0:
            return None
        mu1 = math.exp(x1[0])
        y_k = float(ya[np.argmin(np.abs(ya - mu1))])
        far = abs(math.log(y_k / mu1)) > _SNAP_DIST
        if far or (math.isinf(slope) and not stalled and y_k != mu1):
            return None
        moved = onto(x1, y_k)
        return at(*moved, h_inv) if moved[1] <= f1 else None

    def neighbour(it: _Iterate) -> _Iterate | None:
        """The iterate with the held mu moved to the next observation below
        or above it, whichever is higher, if either is higher than ``it``;
        else None.  On a cusp every observation is a local maximum in mu, so
        the one-sided mu derivatives bracket 0 at each: the fit compares the
        neighbours instead before it stops."""
        ys = np.unique(ya)
        k = int(np.searchsorted(ys, it.held))
        moves = [onto(it.x, float(ys[j])) for j in (k - 1, k + 1) if 0 <= j < ys.size]
        best = min(moves, key=lambda moved: moved[1], default=None)  # the lower on a tie
        return at(*best, it.h_inv) if best and best[1] < it.f else None

    def step(it: _Iterate) -> _Iterate | _Stop:
        """The next iterate from ``it``, or why the search stops there."""
        x, f, g, h_inv, held = it.x, it.f, it.g, it.h_inv, it.held
        g_max = np.abs(g).max()  # NaN if any component is NaN
        if not math.isfinite(g_max):
            return _Stop.SCORE_UNDEFINED if it.undefined else _Stop.SCORE_NOT_FINITE
        if g_max < _GTOL:
            if held is not None and math.isinf(kink_slope(build(x, held).family)):  # a cusp
                return neighbour(it) or _Stop.KINK_OPTIMUM
            return _Stop.GRADIENT_TOL if held is None else _Stop.KINK_OPTIMUM
        newton = held is not None and abs(g[0]) < _GTOL
        if newton:
            # the one-sided mu derivatives bracket 0: damped Newton over the
            # other coordinates, mu held
            d = np.zeros(x.size)
            inv = _inverse_information(ctx, build(x, held), logged, g, rest=True)
            d[1:] = -(inv @ g[1:]) if inv is not None else -g[1:]
        else:
            # off a kink, or uphill on one side of it
            d = -h_inv @ g
            if d @ g >= 0.0:
                h_inv = eye
                d = -g
        hold = held if newton else None
        slope = d @ g
        resolution = sys.float_info.epsilon * (1.0 + abs(f))  # one ulp of f
        t = 1.0
        # near a flat optimum a stale BFGS model overshoots, and halving its
        # step, then steepest descent's, runs down to the resolution of f:
        # there the unit step is retried from the observed information
        # instead, and where that cannot resolve a decrease, neither can
        # steepest descent
        refresh = mode == "analytic" and not (newton or h_inv is eye) and g_max < _PLATEAU_GTOL
        # after the unit step, stop at the step floor or an unresolvable t |g'd|
        while t == 1.0 or (t > 1e-14 and t * abs(slope) > resolution):
            x1 = x + t * d
            f1 = objective(x1, hold)
            if math.isfinite(f1) and f1 <= f + 1e-4 * t * slope:
                break
            inv = _inverse_information(ctx, build(x), logged, g) if refresh else None
            refresh = False
            if inv is not None:
                h_inv = inv
                d = -h_inv @ g
                slope = d @ g
                continue
            t *= 0.5
        else:
            if not newton and h_inv is it.h_inv and h_inv is not eye:
                # the BFGS model, neither reset nor refreshed in this step,
                # may be stale; retry from steepest descent
                return _Iterate(x, f, g, eye, held)
            if held is None and (snapped := snap(x, f, h_inv, stalled=True)):
                return snapped
            if g_max >= _PLATEAU_GTOL:
                return _Stop.LINE_SEARCH_STALL
            return _Stop.FLAT_PLATEAU if held is None else _Stop.KINK_OPTIMUM
        # a kink in mu may have cut the step, or the step landed on one
        near_kink = snaps and hold is None and (t <= _SNAP_T or math.exp(x1[0]) in ya)
        if near_kink and (snapped := snap(x1, f1, h_inv, stalled=False)):
            return snapped
        nxt = at(x1, f1, hold, h_inv)
        if hold is None:
            s_step = x1 - x
            y_step = nxt.g - g
            sy = s_step @ y_step
            # norms as np.linalg.norm forms them, outer products as np.outer does
            if sy > 1e-10 * math.sqrt(s_step.dot(s_step)) * math.sqrt(y_step.dot(y_step)):
                rho = 1.0 / sy
                outer = eye - rho * (s_step[:, None] * y_step)
                nxt.h_inv = outer @ h_inv @ outer.T + rho * (s_step[:, None] * s_step)
        return nxt

    if init is None:
        init = BcsParams(float(np.median(ya)), _initial_sigma(ya, ctx.family), 1.0, ctx.family)
    elif init.family.extra is None:
        init = replace(init, family=ctx.family)
    x = to_x(init)
    it = at(x, objective(x), None, eye)
    inv = _inverse_information(ctx, build(x), logged, it.g) if mode == "analytic" else None
    it.h_inv = eye if inv is None else inv
    it, stop, iterations = _drive(step, it)

    params_hat = build(it.x, it.held)
    std_errors, se_message = _standard_errors(ctx, params_hat, mode)
    message = it.undefined if stop is _Stop.SCORE_UNDEFINED else _STOP_TEXT.get(stop, se_message)
    ll_hat = -it.f
    return FitResult(
        params=params_hat,
        loglik=ll_hat,
        aic=2.0 * len(free_names) - 2.0 * ll_hat,
        free_names=free_names,
        estimates=dict(zip(free_names, ctx.free_values(params_hat))),
        std_errors=std_errors,
        converged=stop in _CONVERGED,
        iterations=iterations,
        gradient_norm=float(np.abs(it.g).max()),
        mode=mode,
        message=message,
    )


def _inverse_information(
    ctx: LikelihoodContext, params: BcsParams, logged, g0, rest: bool = False
) -> np.ndarray | None:
    """The inverse observed information at ``params`` in the optimizer's
    coordinates, over the free parameters, or all but mu with ``rest``.

    The Hessian of -loglik is mapped to the optimizer's coordinates, where a
    logged coordinate x = log theta adds its gradient g0 on the diagonal, and
    each eigenvalue e is raised to at least 1e-8 max e.  None, for the
    identity, where the Hessian raises, is not finite or is not positive
    definite: a step along a direction of negative curvature, scaled as if
    it were positive, walks far from the start.
    """
    skip = 1 if rest else 0
    index = ctx.free_index[skip:]
    scale = np.where(logged, ctx.free_values(params), 1.0)[skip:]
    try:
        h = hessian(ctx, params)
    except _OnKink as err:
        h = err.value
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    h = h[np.ix_(index, index)]
    curv = -h * np.outer(scale, scale) + np.diag(np.where(logged, g0, 0.0)[skip:])
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
            logged, _, objective, to_x = _search_space(ctx)
            curv = finite_diff_jacobian(
                lambda x: finite_diff_gradient(objective, x, step=1e-5), to_x(params), step=1e-5
            )
            scale = np.where(logged, ctx.free_values(params), 1.0)
        cov = np.linalg.inv((curv + curv.T) / 2.0)
    except _OnKink:
        return nan_errors, (
            "maximum on a kink: mu is an observation, where the log-likelihood "
            "has no mu derivative, so there are no standard errors"
        )
    except (np.linalg.LinAlgError, ValueError, OverflowError, ZeroDivisionError):
        return nan_errors, "observed information is singular"
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        return nan_errors, "observed information is not positive definite"
    return dict(zip(free, scale * np.sqrt(diag))), ""
