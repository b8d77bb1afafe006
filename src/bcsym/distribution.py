"""Box-Cox symmetric distributions: transform, density, cdf, quantile, sampling.

A positive variable Y follows the law BCS(mu, sigma, lambda, family) when

    Z = ((Y/mu)^lambda - 1) / (sigma * lambda)    (lambda != 0)
    Z = log(Y/mu) / sigma                          (lambda == 0)

restricted to the event that keeps 1 + sigma*lambda*Z positive, follows the
symmetric law with density generator r of the chosen family.  The implied
truncation has mass R(v) with v = 1/(sigma*|lambda|), where R is the
symmetric cdf; v is infinite (no truncation) at lambda == 0.

All public functions accept scalars or arrays for the data argument and
return matching shapes; scalars come back as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import (
    DensityFamily,
    eval_generator,
    symmetric_quantile,
    symmetric_survival,
)
from .quadrature import QuadratureSpec, integrate
from .rng import RngStream

__all__ = [
    "LAMBDA_SEAM",
    "BcsParams",
    "TruncationInfo",
    "MomentResult",
    "truncation",
    "transform",
    "inverse_transform",
    "log_pdf",
    "pdf",
    "cdf",
    "survival",
    "quantile",
    "sample",
    "moment",
    "centile_cv",
    "log_symmetric_centile_cv",
    "rescale",
    "power_transform_law",
]

# |lambda| below this (but nonzero) is numerically indistinguishable from the
# log-symmetric case in the score equations; fitting clamps to zero here.
LAMBDA_SEAM = 1e-8

# the real scalar types a parameter may take; bool is an int and is refused
_REAL = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class BcsParams:
    """Parameter triple plus generator family; mu and sigma are positive."""

    mu: float
    sigma: float
    lam: float
    family: DensityFamily

    def __post_init__(self):
        if not isinstance(self.family, DensityFamily):
            raise TypeError("family must be a DensityFamily")
        for name in ("mu", "sigma", "lam"):
            val = getattr(self, name)
            if not isinstance(val, _REAL) or isinstance(val, bool):
                raise TypeError(f"{name} must be a real number")
            object.__setattr__(self, name, float(val))
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError("mu must be positive and finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")


@dataclass(frozen=True)
class TruncationInfo:
    """Support edge in z-space and the mass retained inside it.

    edge:           v = 1/(sigma*|lambda|), infinite when lambda == 0
    normalizer:     R(v), the retained symmetric mass
    complement:     1 - R(v) = survival at v, kept separately because it is
                    relatively accurate when tiny
    log_normalizer: log R(v), computed as log1p(-complement)
    """

    edge: float
    normalizer: float
    complement: float
    log_normalizer: float


@dataclass(frozen=True)
class MomentResult:
    """Raw moment value; value is +inf when the moment does not exist."""

    value: float
    exists: bool


def truncation(params: BcsParams) -> TruncationInfo:
    if params.lam == 0.0:
        return TruncationInfo(math.inf, 1.0, 0.0, 0.0)
    v = 1.0 / (params.sigma * abs(params.lam))
    sv = symmetric_survival(params.family, v)
    return TruncationInfo(v, 1.0 - sv, sv, math.log1p(-sv))


def _as_positive_array(y, what: str = "observations"):
    arr = np.asarray(y, dtype=float)
    if (arr <= 0.0).any():
        raise ValueError(f"{what} must be positive")
    return arr


def _z(params: BcsParams, lf):
    """The Box-Cox transform of lf = log(y/mu); the one place it is written."""
    if params.lam == 0.0:
        return lf / params.sigma
    with np.errstate(over="ignore"):
        return np.expm1(params.lam * lf) / (params.sigma * params.lam)


def transform(params: BcsParams, y):
    """Map data to the symmetric scale: z such that Z ~ truncated family law."""
    scalar = np.ndim(y) == 0
    z = _z(params, np.log(_as_positive_array(y)) - math.log(params.mu))
    return float(z) if scalar else z


def inverse_transform(params: BcsParams, z):
    """Map symmetric-scale values back to the data scale."""
    scalar = np.ndim(z) == 0
    za = np.asarray(z, dtype=float)
    if params.lam == 0.0:
        with np.errstate(over="ignore"):
            y = params.mu * np.exp(params.sigma * za)
    else:
        w = params.sigma * params.lam * za
        if (1.0 + w <= 0.0).any():
            raise ValueError("z lies outside the truncated support")
        with np.errstate(over="ignore"):
            y = params.mu * np.exp(np.log1p(w) / params.lam)
    return float(y) if scalar else y


def log_pdf(params: BcsParams, y):
    scalar = np.ndim(y) == 0
    ya = _as_positive_array(y)
    lf = np.log(ya) - math.log(params.mu)
    z = _z(params, lf)
    # y = inf with lam > 1, or a z that overflowed as y -> 0 with lam < 0,
    # gives inf - inf below; the density -> 0 there
    with np.errstate(over="ignore", invalid="ignore"):
        u = z * z
        out = (
            (params.lam - 1.0) * lf
            - math.log(params.mu)
            - math.log(params.sigma)
            + eval_generator(params.family, u).log_r
            - truncation(params).log_normalizer
        )
    out = np.where(np.isnan(out) & ~np.isnan(ya), -np.inf, out)
    return float(out) if scalar else out


def pdf(params: BcsParams, y):
    scalar = np.ndim(y) == 0
    # the true density overflows at y -> 0 for some heavy-tailed laws
    with np.errstate(over="ignore"):
        out = np.exp(log_pdf(params, y))
    return float(out) if scalar else out


def _truncated_tail(params: BcsParams, y, side: float):
    """Mass of the truncated law above y (side 1) or below it (side -1).

    It is S(side z) / R(v), with S the symmetric survival function.  When
    the support edge lies on that side (below for lambda > 0, above for
    lambda <= 0), the cut mass 1 - R(v) comes off S first.
    """
    scalar = np.ndim(y) == 0
    z = transform(params, np.asarray(y, dtype=float))
    info = truncation(params)
    tail = symmetric_survival(params.family, side * z)
    if (params.lam > 0.0) == (side < 0.0):
        tail = np.maximum(tail - info.complement, 0.0)
    out = np.minimum(tail / info.normalizer, 1.0)
    return float(out) if scalar else out


def cdf(params: BcsParams, y):
    return _truncated_tail(params, y, -1.0)


def survival(params: BcsParams, y):
    return _truncated_tail(params, y, 1.0)


def quantile(params: BcsParams, p):
    scalar = np.ndim(p) == 0
    pa = np.asarray(p, dtype=float)
    if not ((pa > 0.0) & (pa < 1.0)).all():
        raise ValueError("probability must lie strictly inside (0, 1)")
    info = truncation(params)
    # the lower half uses the cdf target directly; the upper half goes
    # through the survival mass and symmetry, so tail resolution is never
    # squeezed against 1 (1 - pa is exact for pa >= 0.5)
    if params.lam > 0.0:
        lower_t = info.complement + pa * info.normalizer
        upper_t = (1.0 - pa) * info.normalizer
    else:
        lower_t = pa * info.normalizer
        upper_t = (1.0 - pa) * info.normalizer + info.complement
    use_lower = lower_t < 0.5
    target = np.where(use_lower, lower_t, upper_t)
    zq = symmetric_quantile(params.family, target)
    z = np.where(use_lower, zq, -zq)
    if params.lam == 0.0:
        with np.errstate(over="ignore"):
            y = params.mu * np.exp(params.sigma * z)
    else:
        w = params.sigma * params.lam * np.asarray(z)
        # probabilities this close to the support edge fall below z-space
        # resolution; saturate instead of failing
        one_plus = np.maximum(1.0 + w, 1e-308)
        with np.errstate(over="ignore", divide="ignore"):
            y = params.mu * np.exp(np.log(one_plus) / params.lam)
    return float(y) if scalar else y


def sample(params: BcsParams, n: int, stream: RngStream, start: int = 0):
    """n inverse-cdf draws using positions start..start+n-1 of the stream."""
    u = stream.uniforms(n, start=start)
    return quantile(params, u)


def moment(params: BcsParams, k: float) -> MomentResult:
    """Raw moment E[Y^k], by quadrature over l = log(y / mu).

    l has density e^(lambda l) r(z(l)^2) / (sigma R(v)), so E[Y^k] is
    mu^k / (sigma R(v)) times the integral of exp((k + lambda) l + log r(z^2))
    over the real line.  The support edge of z lies at l = +-inf, so the
    integrand is smooth for every lambda.  The moment exists precisely when
    k times the right tail index is below one, which is where the integrand
    decays at +inf; otherwise the result is (+inf, False).
    """
    if not isinstance(k, _REAL) or isinstance(k, bool):
        raise TypeError("k must be a real number")
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("k must be positive and finite")

    from .tails import tail_index  # deferred: tails imports this module

    xi = tail_index(params)
    if not (xi == 0.0 or k * xi < 1.0):
        return MomentResult(math.inf, False)

    def integrand(lf):
        # integrate's maps of the two half-lines ignore floating-point
        # events: far out z overflows to inf, where log r is -inf
        u = _z(params, lf) ** 2
        return np.exp((k + params.lam) * lf + eval_generator(params.family, u).log_r)

    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=8000)
    # generators with |z|-type kinks (Laplace, power exponential below 2,
    # the logistic pair) are non-smooth at z = 0, that is at l = 0
    res = integrate(integrand, -np.inf, np.inf, spec, breakpoints=(0.0,))
    value = res.value / (params.sigma * truncation(params).normalizer)
    return MomentResult(params.mu**k * value, True)


def centile_cv(params: BcsParams) -> float:
    """Centile coefficient of variation, 0.75 * (y_.75 - y_.25) / y_.50."""
    q = quantile(params, np.array([0.25, 0.5, 0.75]))
    return float(0.75 * (q[2] - q[0]) / q[1])


def log_symmetric_centile_cv(sigma: float, family: DensityFamily) -> float:
    """Closed form of the centile CV at lambda == 0: 1.5 sinh(sigma s_0.75)."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be positive and finite")
    return 1.5 * math.sinh(sigma * symmetric_quantile(family, 0.75))


def rescale(params: BcsParams, c: float) -> BcsParams:
    """Law of c*Y: only mu scales; sigma, lambda, family are invariant."""
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError("scale factor must be positive and finite")
    return BcsParams(c * params.mu, params.sigma, params.lam, params.family)


def power_transform_law(params: BcsParams, a: float) -> BcsParams:
    """Law of Y^a: BCS(mu^a, |a| sigma, lambda/a) with the same family."""
    if not (math.isfinite(a) and a != 0.0):
        raise ValueError("exponent must be nonzero and finite")
    return BcsParams(params.mu**a, abs(a) * params.sigma, params.lam / a, params.family)
