"""Standard symmetric density generators.

Every distribution in this library is built from a density generator r(u),
defined for u >= 0, such that s -> r(s^2) is a density on the real line.
This module owns the nine supported generators, the cdfs, survival
functions and quantiles of the standard symmetric laws, and the weight
function

    w(z) = -2 r'(z^2) / r(z^2)

plus its z-derivative, which drive scoring and maximum likelihood.  The
weight is where each generator's derivative is written: r' = -w r / 2.

Design notes
------------
* Survival functions are computed directly in the upper tail so they stay
  relatively accurate down to the underflow threshold; cdf values reuse
  them through the exact symmetry cdf(s) = survival(-s).
* The slash generators admit a closed-form cdf, Phi(s) - s r(s^2) / q,
  obtained by integrating the scale-mixture representation by parts.
* The type I logistic generator has no closed-form antiderivative.  Its
  cdf uses a cached cumulative Gauss-Kronrod table on [0, 9] plus direct
  panel sums for the far tail, which is accurate to ~1e-15.
* Quantiles use exact inversions where available.  Otherwise a vectorized
  Halley iteration in y = log s solves log P(S > e^y) = log t, and bisects
  in y where a step leaves its bracket of finite doubles.  It starts from a
  table of the family's exact inverse at 368 fixed nodes in t, built on
  first use and cached, by cubic Hermite interpolation with the known
  slopes, so a draw costs about 1 tail evaluation (the numerical
  inversion of Hoermann and Leydold 2003, ACM TOMACS 13:347).  A t on a node
  returns the stored value.  The table is built by the same iteration
  started cold, from the generator's decay fact or from the centre between
  the quartiles; a t outside the table starts cold too.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .quadrature import KRONROD_NODES, KRONROD_WEIGHTS
from .special import (
    log_beta,
    lower_gamma_ratio,
    reg_inc_beta,
    reg_upper_gamma,
    std_normal_cdf,
    std_normal_quantile,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal float

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# 1 / integral of exp(-t^2) (1 + exp(-t^2))^-2 over the real line, to the
# ten digits usually quoted.  The module derives a full-precision value at
# runtime (see _logistic_i_cache) so density, cdf and quantile stay mutually
# consistent; tests pin the derived value against this one.
LOGISTIC_I_NORMALIZER = 1.484300029


class FamilyKind(str, enum.Enum):
    """The nine supported symmetric generator families."""

    NORMAL = "normal"
    DOUBLE_EXPONENTIAL = "double_exponential"
    POWER_EXPONENTIAL = "power_exponential"
    CAUCHY = "cauchy"
    STUDENT_T = "student_t"
    LOGISTIC_I = "logistic_i"
    LOGISTIC_II = "logistic_ii"
    CANONICAL_SLASH = "canonical_slash"
    SLASH = "slash"

    @property
    def extra_name(self) -> str | None:
        """Name of the kind's extra parameter, or None for two-parameter kinds."""
        return _SPECS[self].extra_name


@dataclass(frozen=True)
class DensityFamily:
    """A symmetric generator family, possibly with one extra parameter.

    ``extra`` is tau for the power exponential and Student t families and
    q for the slash family; it must be omitted everywhere else.
    """

    kind: FamilyKind
    extra: float | None = None

    def __post_init__(self) -> None:
        kind = FamilyKind(self.kind)
        object.__setattr__(self, "kind", kind)
        name = kind.extra_name
        if name is None:
            if self.extra is not None:
                raise ValueError(f"{kind.value} takes no extra parameter")
        else:
            if self.extra is None:
                raise ValueError(f"{kind.value} requires {name} > 0")
            extra = float(self.extra)
            if not (math.isfinite(extra) and extra > 0.0):
                raise ValueError(f"{kind.value} requires {name} > 0")
            object.__setattr__(self, "extra", extra)

    @property
    def extra_name(self) -> str | None:
        """Name of the extra parameter, or None for two-parameter kinds."""
        return self.kind.extra_name

    def label(self) -> str:
        if self.extra is None:
            return self.kind.value
        return f"{self.kind.value}({self.extra_name}={self.extra:g})"

    @classmethod
    def from_name(cls, name: str, extra: float | None = None) -> "DensityFamily":
        """Build from a kind name or its alias, in any case, with hyphens for underscores.

        A kind with an extra parameter takes its default extra when ``extra``
        is None.
        """
        key = name.strip().lower().replace("-", "_")
        for kind, spec in _SPECS.items():
            if key in (kind.value, spec.alias):
                return cls(kind, spec.default_extra if extra is None else extra)
        choices = sorted(k.value for k in FamilyKind)
        raise ValueError(f"unknown family {name!r}; choose from {choices}")

    @classmethod
    def from_flags(cls, name: str, tau: float | None = None, q: float | None = None) -> "DensityFamily":
        """``from_name`` with the extra given as the command-line flag --tau or --q.

        Giving both flags, or a flag the kind does not take, is an error.
        """
        if tau is not None and q is not None:
            raise ValueError("give --tau or --q, not both")
        family = cls.from_name(name, tau if tau is not None else q)
        for flag, value in (("tau", tau), ("q", q)):
            if value is not None and family.extra_name != flag:
                raise ValueError(f"{family.kind.value} does not take --{flag}")
        return family

    @classmethod
    def normal(cls) -> "DensityFamily":
        return cls(FamilyKind.NORMAL)

    @classmethod
    def double_exponential(cls) -> "DensityFamily":
        return cls(FamilyKind.DOUBLE_EXPONENTIAL)

    @classmethod
    def power_exponential(cls, tau: float) -> "DensityFamily":
        return cls(FamilyKind.POWER_EXPONENTIAL, tau)

    @classmethod
    def cauchy(cls) -> "DensityFamily":
        return cls(FamilyKind.CAUCHY)

    @classmethod
    def student_t(cls, tau: float) -> "DensityFamily":
        return cls(FamilyKind.STUDENT_T, tau)

    @classmethod
    def logistic_i(cls) -> "DensityFamily":
        return cls(FamilyKind.LOGISTIC_I)

    @classmethod
    def logistic_ii(cls) -> "DensityFamily":
        return cls(FamilyKind.LOGISTIC_II)

    @classmethod
    def canonical_slash(cls) -> "DensityFamily":
        return cls(FamilyKind.CANONICAL_SLASH)

    @classmethod
    def slash(cls, q: float) -> "DensityFamily":
        return cls(FamilyKind.SLASH, q)


@dataclass(frozen=True)
class GeneratorEval:
    """r and log r at a batch of u >= 0; log r stays finite where r underflows."""

    r: np.ndarray
    log_r: np.ndarray


# ---------------------------------------------------------------------------
# Family-specific constants.

def _pe_log_p(tau: float) -> float:
    """log p(tau), p(tau)^2 = 2^(-2/tau) Gamma(1/tau) / Gamma(3/tau); p(2) = 1."""
    return -math.log(2.0) / tau + 0.5 * (math.lgamma(1.0 / tau) - math.lgamma(3.0 / tau))


def _pe_scale(tau: float) -> tuple[float, float]:
    """p^tau and log p for the scale p(tau) of the power exponential law.

    Below tau of about 9e-3, p underflows while p^tau stays near 1e-3, so
    both are then taken from log p.  Above tau of about 1290, p^tau (p near
    sqrt 3) overflows and raises OverflowError.
    """
    log_p = _pe_log_p(tau)
    p = math.exp(log_p)
    if p < _TINY:
        return math.exp(tau * log_p), log_p
    return p**tau, math.log(p)


def _pe_log_norm(tau: float, log_p: float) -> float:
    return (
        math.log(tau)
        - log_p
        - (1.0 + 1.0 / tau) * math.log(2.0)
        - math.lgamma(1.0 / tau)
    )


def _slash_amp(q: float) -> float:
    # A_q = q 2^(q/2 - 1) / sqrt(pi)
    return math.exp(math.log(q) + (0.5 * q - 1.0) * math.log(2.0) - 0.5 * math.log(math.pi))


# ---------------------------------------------------------------------------
# Type I logistic: cached cumulative quadrature of exp(-t^2)(1+exp(-t^2))^-2.

_LOGISTIC_EDGE_STEP = 0.25
_LOGISTIC_EDGE_MAX = 9.0
_logistic_cache: dict | None = None


def _kronrod_sum(f: np.ndarray) -> np.ndarray:
    """The Kronrod rule over the last axis of f, with the same bits at any size.

    f @ KRONROD_WEIGHTS hands the sum to BLAS, whose order can depend on the
    number of rows (one row takes another kernel); an elementwise product
    summed over the last axis is reduced row by row in one order.
    """
    return (f * KRONROD_WEIGHTS).sum(axis=-1)


def _logistic_i_unnorm(t: np.ndarray) -> np.ndarray:
    # t * t overflows beyond t of about 1.3e154, where w is 0
    with np.errstate(over="ignore"):
        w = np.exp(-t * t)
    return w / (1.0 + w) ** 2


def _logistic_i_cache() -> dict:
    global _logistic_cache
    if _logistic_cache is None:
        edges = np.linspace(0.0, _LOGISTIC_EDGE_MAX, 37)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        nodes = mid[:, None] + half * KRONROD_NODES[None, :]
        panels = _kronrod_sum(_logistic_i_unnorm(nodes)) * half
        cum = np.concatenate([[0.0], np.cumsum(panels)])
        # the tail mass beyond 9 is below 1e-36, negligible at double precision
        _logistic_cache = {"edges": edges, "cum": cum, "c": 0.5 / cum[-1]}
    return _logistic_cache


def logistic_i_normalizer() -> float:
    """Full-precision normalizer of the type I logistic generator."""
    return _logistic_i_cache()["c"]


def _logistic_i_mass0(x: np.ndarray) -> np.ndarray:
    """Unnormalized mass of the symmetric density over [0, x] for x in [0, 9]."""
    cache = _logistic_i_cache()
    idx = np.minimum((x / _LOGISTIC_EDGE_STEP).astype(int), 35)
    a = cache["edges"][idx]
    mid = 0.5 * (a + x)
    half = 0.5 * (x - a)
    nodes = mid[..., None] + half[..., None] * KRONROD_NODES
    seg = _kronrod_sum(_logistic_i_unnorm(nodes)) * half
    return cache["cum"][idx] + seg


def _logistic_i_tail0(x: np.ndarray) -> np.ndarray:
    """Unnormalized mass over [x, inf) for x >= 2 (truncated at x + 8)."""
    offsets = np.arange(16) * 0.5
    half = 0.25
    mid = x[..., None] + offsets + half
    nodes = mid[..., None] + half * KRONROD_NODES
    seg = _kronrod_sum(_logistic_i_unnorm(nodes)) * half
    return seg.sum(axis=-1)


# ---------------------------------------------------------------------------
# Generator evaluation.

def _split(mask: np.ndarray, inside: Callable, outside: Callable, *rows: np.ndarray) -> np.ndarray:
    """inside(*rows) on the rows of mask and outside(*rows) on the others,
    elementwise: each is called only on its own rows, and not at all where
    it holds none, so one element costs one branch and no masking."""
    k = np.count_nonzero(mask)
    if k == mask.size:
        return inside(*rows)
    if k == 0:
        return outside(*rows)
    out = np.empty(mask.shape)
    out[mask] = inside(*(a[mask] for a in rows))
    rest = ~mask
    out[rest] = outside(*(a[rest] for a in rows))
    return out


def _gen_normal(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_r = -0.5 * (_LOG_2PI + u)
    r = np.exp(log_r)
    return r, log_r


def _gen_double_exponential(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_r = -0.5 * math.log(2.0) - _SQRT2 * np.sqrt(u)
    r = np.exp(log_r)
    return r, log_r


def _gen_power_exponential(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tau = family.extra
    ptau, log_p = _pe_scale(tau)
    with np.errstate(over="ignore"):
        log_r = _pe_log_norm(tau, log_p) - u ** (0.5 * tau) / (2.0 * ptau)
    # r(0) itself overflows for tau below about 2e-3
    with np.errstate(over="ignore"):
        r = np.exp(log_r)
    return r, log_r


def _gen_cauchy(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        r = 1.0 / (math.pi * (1.0 + u))
    log_r = -math.log(math.pi) - np.log1p(u)
    return r, log_r


# from this tau on, the Student t log-density is written in log1p(u / tau):
# 0.5 tau log tau - 0.5 (tau + 1) log(tau + u) cancels two terms of size
# tau log tau / 2, an error of 2e-12 relative at tau = 1e4 and of order 1
# at 1e16, where -0.5 log tau - log B(1/2, tau/2) - 0.5 (tau + 1)
# log1p(u / tau) keeps about 1e-15; below it, every tau keeps its bits
_T_LOG1P_TAU = 1e4


def _gen_student_t(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tau = family.extra
    if tau >= _T_LOG1P_TAU:
        log_norm = -0.5 * math.log(tau) - log_beta(0.5, 0.5 * tau)
        log_r = log_norm - 0.5 * (tau + 1.0) * np.log1p(u / tau)
    else:
        log_norm = 0.5 * tau * math.log(tau) - log_beta(0.5, 0.5 * tau)
        log_r = log_norm - 0.5 * (tau + 1.0) * np.log(tau + u)
    r = np.exp(log_r)
    return r, log_r


def _gen_logistic_i(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _logistic_i_cache()["c"]
    eu = np.exp(-u)
    log_r = math.log(c) - u - 2.0 * np.log1p(eu)
    r = np.exp(log_r)
    return r, log_r


def _gen_logistic_ii(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.sqrt(u)
    eg = np.exp(-g)
    log_r = -g - 2.0 * np.log1p(eg)
    r = np.exp(log_r)
    return r, log_r


def _gen_canonical_slash(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = 0.5 * u
    # below the smallest normal u, x = u / 2 rounds and r is r(0) to the ulp
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(u < _TINY, 1.0 / (2.0 * _SQRT_2PI), -np.expm1(-x) / (_SQRT_2PI * u))
        log_r = np.log(r)
    # sqrt(2 pi) u overflows beyond u of about 7e307, where log r is finite
    under = (r == 0.0) & np.isfinite(u)
    if under.any():
        log_r[under] = np.log(-np.expm1(-x[under])) - math.log(_SQRT_2PI) - np.log(u[under])
    return r, log_r


def _gen_slash_finite(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = family.extra
    a = 0.5 * (q + 1.0)
    amp = _slash_amp(q) * 2.0**-a
    x = 0.5 * u
    ratio = lower_gamma_ratio(a, x)
    r = amp * ratio
    with np.errstate(divide="ignore"):
        log_r = math.log(amp) + np.log(ratio)
    # where r underflows, Q(a, x) is 0 and the ratio is Gamma(a) / x^a
    under = r == 0.0
    if under.any():
        log_r[under] = math.log(amp) + math.lgamma(a) - a * np.log(x[under])
    return r, log_r


def _gen_slash(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fin = np.isfinite(u)
    if fin.all():
        return _gen_slash_finite(family, u)
    r = np.zeros_like(u)
    log_r = np.full_like(u, -np.inf)
    nan = np.isnan(u)
    r[nan] = log_r[nan] = np.nan
    r[fin], log_r[fin] = _gen_slash_finite(family, u[fin])
    return r, log_r


def _generator(family: DensityFamily, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, log r) at a 1-D float u >= 0, which the generators only read."""
    return _SPECS[family.kind].generator(family, u)


def eval_generator(family: DensityFamily, u) -> GeneratorEval:
    """Evaluate r and log r of the family's generator at u >= 0."""
    ua = np.asarray(u, dtype=float)
    flat = ua if ua.ndim == 1 else ua.reshape(-1)
    if (flat < 0.0).any():
        raise ValueError("generator argument must be nonnegative")
    r, log_r = _generator(family, flat)
    if ua.ndim != 1:
        r, log_r = r.reshape(ua.shape), log_r.reshape(ua.shape)
    return GeneratorEval(r=r, log_r=log_r)


# ---------------------------------------------------------------------------
# cdf / survival of the standard symmetric laws.

def _tail_double_exponential(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    return 0.5 * np.exp(-_SQRT2 * s)


def _tail_power_exponential(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    """Q(a, x) / 2 with a = 1 / tau and x = (s / p)^tau / 2.

    x is formed as s^tau / (2 p^tau).  At large tau that quotient loses x
    where s^tau, p^tau or x itself leaves the normal range (x = 0 read
    P(S > 0.5) as 1/2 at tau = 1000, where it is 0.356), and there x comes
    from log x = tau (log s - log p) - log 2 instead.  Below the smallest
    normal x, Q(a, x) = 1 - x^a / Gamma(1 + a) to within a relative a x.
    """
    tau = family.extra
    a = 1.0 / tau
    try:
        ptau = _pe_scale(tau)[0]
    except OverflowError:
        ptau = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        st = s**tau
        arg = st / (2.0 * ptau)
    lost = np.flatnonzero((st < _TINY) | (st == math.inf) | (arg < _TINY))
    if lost.size:
        with np.errstate(divide="ignore", over="ignore"):
            log_x = tau * (np.log(s[lost]) - _pe_log_p(tau)) - math.log(2.0)
            arg[lost] = np.exp(log_x)
    out = 0.5 * reg_upper_gamma(a, arg)
    if lost.size:
        tiny = log_x < math.log(_TINY)
        out[lost[tiny]] = 0.5 - 0.5 * np.exp(a * log_x[tiny] - math.lgamma(1.0 + a))
    return out


def _tail_cauchy(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    return _split(
        s <= 1.0, lambda s: 0.5 - np.arctan(s) / math.pi, lambda s: np.arctan(1.0 / s) / math.pi, s
    )


def _tail_student_t(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    tau = family.extra
    a = 0.5 * tau
    with np.errstate(over="ignore", invalid="ignore"):
        u = s * s
        y = u / (tau + u)
    # P(S > s) = I_x(a, 1/2) / 2 = 1/2 - I_y(1/2, a) / 2, x = tau / (tau + s^2)
    # and y = 1 - x.  Where y < 3 / (tau + 5), reg_inc_beta(a, 1/2, x) takes
    # that complement and runs its continued fraction on 1 - x, which keeps
    # only the bits of the rounded x: y is off by up to eps / 2, a relative
    # eps tau / (2 s^2).  Near s = 0 the tail then moves in steps (6e-13 for
    # t4 at s = 2.7e-4).  There the same fraction runs on y, formed to a
    # rounding.  Two cuts bound the switch:
    # - y < 3 / (tau + 5), the complement branch: beyond it the direct
    #   fraction on x has no cancellation.  The cut is tested on y: at huge
    #   tau (a free-tau walk tried 3.7e140) x rounds to 1, and a cut tested
    #   on x let y past the branch point, where the fraction did not converge;
    # - s^2 <= tau / 16, so y <= 1/17: beyond it the rounded 1 - x is off by
    #   at most 8 eps relative, and the values toward the quartiles keep their
    #   bits, t4's quartile among them, which starts every t4 fit.
    near = (y < 1.5 / (a + 2.5)) & (u <= tau / 16.0)
    out = _split(
        near,
        lambda y, u: 0.5 - 0.5 * reg_inc_beta(0.5, a, y),
        lambda y, u: 0.5 * reg_inc_beta(a, 0.5, tau / (tau + u)),
        y, u,
    )
    far = np.isinf(u) & np.isfinite(s)
    if far.any():
        # x = tau / s^2 < 1e-308, where I_x(a, 1/2) is x^a / (a B(a, 1/2))
        log_x = math.log(tau) - 2.0 * np.log(s[far])
        out[far] = 0.5 * np.exp(a * log_x - math.log(a) - log_beta(a, 0.5))
    return out


def _tail_logistic_i(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    c = _logistic_i_cache()["c"]
    return _split(
        s < 2.0, lambda s: 0.5 - c * _logistic_i_mass0(s), lambda s: c * _logistic_i_tail0(s), s
    )


def _tail_logistic_ii(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    eg = np.exp(-s)
    return eg / (1.0 + eg)


def _tail_slash_form(family: DensityFamily, s: np.ndarray, q: float) -> np.ndarray:
    """Phi(-s) + s r(s^2) / q, with r the family's own slash generator."""
    with np.errstate(over="ignore"):
        r = _generator(family, s * s)[0]
    with np.errstate(invalid="ignore"):
        bulge = s * r / q
    fin = np.isfinite(s)
    if not fin.all():
        bulge = np.where(fin, bulge, 0.0)
    # where r(s^2) underflows, s r(s^2) is A_q Gamma((q + 1)/2) s^-q
    far = (r < _TINY) & fin
    if far.any():
        log_lead = math.log(_slash_amp(q)) + math.lgamma(0.5 * (q + 1.0)) - math.log(q)
        bulge[far] = np.exp(log_lead - q * np.log(s[far]))
    return std_normal_cdf(-s) + bulge


def symmetric_cdf(family: DensityFamily, s):
    """cdf of the standard symmetric law with generator r."""
    return symmetric_survival(family, -np.asarray(s, dtype=float))


def _upper_tail(family: DensityFamily, s: np.ndarray) -> np.ndarray:
    """P(S > s) at a 1-D float s >= 0."""
    return _SPECS[family.kind].upper_tail(family, s)


def symmetric_survival(family: DensityFamily, s):
    """P(S > s), relatively accurate in the upper tail."""
    sa = np.asarray(s, dtype=float)
    flat = sa.reshape(-1)
    # one upper-tail call on |s|, mirrored by P(S > s) = 1 - P(S > -s)
    # where s is negative (or NaN)
    tail = _upper_tail(family, np.abs(flat))
    upper = flat >= 0.0
    out = (tail if upper.all() else np.where(upper, tail, 1.0 - tail)).reshape(sa.shape)
    return float(out) if sa.shape == () else out


# ---------------------------------------------------------------------------
# Quantiles.

# the bracket of the tail quantile: the positive finite doubles
_S_MIN = float(np.nextafter(0.0, 1.0))
_S_MAX = float(np.finfo(float).max)

# the quantile solver stops an element once any step in log s is within
# this: the computed tails are relatively accurate to a few eps (tens of eps
# far out in the power tails), so a smaller correction moves s by their
# rounding, a few ulps
_TAIL_RESOLUTION = 16.0 * _EPS

# and once a Halley step is within this.  Halley's method leaves an error of
# C |e|^3 from an error e, with C = c2^2 - c3, c_j = F^(j) / (j! F'); in y,
# F' = -m and F'' = -m k (below), so C = k^2 / 12 - k' / 6, k' = dk/dy.  The
# step is e to within C e^3, so |step| <= 1e-6 leaves at most C 1e-18, below
# eps / 2, the rounding of the corrected point in log s, for any C up to
# 111.  Over t in [2^-54, 1/2), C is at most 0.48 for t(1.5, 4, 30, 1e6),
# logistic I, canonical slash and slash(1, 2, 4.5), and 0.70 for pe(3); a
# one-step measurement from starts 1e-3 off agrees.  In an exp(-c |z|^e)
# tail k tends to e and C to e^2 / 12, which passes 111 for the power
# exponential past tau = 36; its table starts err by far less than 1e-6
# there, and a threshold of (6 eps / tau^2)^(1/3) moved neither the mean
# nor the max error of pe(100) or pe(300) quantiles against mpmath.
_SETTLED_STEP = 1e-6


def _tail_quantile_cauchy(family: DensityFamily, t: np.ndarray) -> np.ndarray:
    # the quantile overflows to inf below t of about 2e-309
    with np.errstate(over="ignore"):
        return np.where(
            t < 0.25,
            1.0 / np.tan(math.pi * np.minimum(t, 0.25)),
            np.tan(math.pi * (0.5 - np.maximum(t, 0.25))),
        )


def _cold_start(family: DensityFamily, t: np.ndarray) -> np.ndarray:
    """The start from the decay with the tail's constant dropped, or between
    the quartiles from the centre's (0.5 - t) / r(0)."""
    decay = generator_decay(family)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if decay[0] == "power":
            y = -np.log(t) / (decay[1] - 1.0)
        else:
            y = np.log(-np.log(2.0 * t) / decay[1]) / decay[2]
        centre = np.log(0.5 - t) - float(eval_generator(family, 0.0).log_r)
        return np.clip(np.exp(np.where(t > 0.25, centre, y)), _S_MIN, _S_MAX)


def _halley_in_log_s(family: DensityFamily, t: np.ndarray, s: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Solve P(S > s) = t for the active elements, from the start s.

    Halley's method in y = log s on F(y) = log P(S > e^y) - log t.  With
    m = s r(s^2) / P(S > s), F' = -m and F'' = -m k, k = 1 - s^2 w(s) + m,
    so a step is y <- y + F / (m + F k / 2); where that denominator is not
    finite and positive, the Newton step y <- y + F / m.  An element stops,
    keeping its corrected point without evaluating the tail there, once a
    Halley step is within ``_SETTLED_STEP`` (its cubic remainder is then
    below the rounding of that point), any step is within
    ``_TAIL_RESOLUTION``, or |F| <= 4 eps; it stops where it is once no
    double is left in its bracket.  From the table's start one evaluation
    settles almost every element.  A step that leaves the bracket bisects
    it in y.  The inactive elements keep s, except that t >= 0.5 gives 0; a
    t beyond every double gives inf.
    """
    upper_tail = _SPECS[family.kind].upper_tail
    decay = generator_decay(family)
    log_t = np.log(t)
    s = s.copy()
    lo = np.zeros_like(t)
    hi = np.full_like(t, np.inf)
    for _ in range(200):
        if not active.any():
            break
        sa = s[active]
        tail = upper_tail(family, sa)
        with np.errstate(divide="ignore", over="ignore"):
            log_tail = np.log(tail)
            # log(P / t) keeps the tail's relative accuracy, where
            # log P - log t carries the rounding of two logs of size |log t|
            # (16 eps at t = 1e-10); the quotient overflows at subnormal t
            ratio = tail / t[active]
            f = np.where(np.isinf(ratio), log_tail - log_t[active], np.log(ratio))
        lo_a = np.where(f > 0.0, sa, lo[active])
        hi_a = np.where(f < 0.0, sa, hi[active])
        with np.errstate(over="ignore"):
            u = sa * sa
        with np.errstate(invalid="ignore", over="ignore"):
            slope = np.exp(np.log(sa) + eval_generator(family, u).log_r - log_tail)
            # d log slope / dy; not finite where u over- or underflows
            k = 1.0 - u * weight_function(family, sa) + slope
        # where s^2 overflows, a power tail's slope is its limit g - 1; where
        # s^2 underflows, r is read at 0, which misleads at tiny tau: bisect
        if decay[0] == "power":
            slope[np.isinf(u)] = decay[1] - 1.0
        slope[u == 0.0] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            halley = slope + 0.5 * f * k
            is_halley = np.isfinite(halley) & (halley > 0.0)
            step = f / np.where(is_halley, halley, slope)
            proposal = np.clip(sa * np.exp(step), _S_MIN, _S_MAX)
        # solved to the tail's resolution, a Halley step whose cubic remainder
        # is below rounding, or a step below an ulp
        done = (np.abs(f) <= 4.0 * _EPS) | (np.abs(step) <= _TAIL_RESOLUTION)
        done |= is_halley & (np.abs(step) <= _SETTLED_STEP)
        done |= hi_a - lo_a <= _EPS * sa
        done |= (proposal == sa) & np.isfinite(slope)
        a, b = np.maximum(lo_a, _S_MIN), np.minimum(hi_a, _S_MAX)
        inside = (lo_a < proposal) & (proposal < hi_a)
        proposal = np.where(inside, proposal, np.clip(np.sqrt(a) * np.sqrt(b), a, b))
        # no double is left inside the bracket
        done |= (proposal <= lo_a) | (proposal >= hi_a)
        lo[active] = lo_a
        hi[active] = hi_a
        # a last step inside the bracket is kept; it needs no evaluation
        s[active] = np.where(done & ~inside, sa, proposal)
        still = active.copy()
        still[active] = ~done
        active = still
    s = np.where(t >= 0.5, 0.0, s)
    return np.where(lo == _S_MAX, np.inf, s)


# Nodes of the cached inverse tables: 255 in log t over [2^-60, 1/16), where
# y = log s is smooth in x = log t, and 113 more in steps of 1/256 in t over
# [1/16, 1/2], where s falls to s(1/2) = 0; t = 1/4 is a node.  A draw's
# t = min(p, 1 - p) lies in [2^-54, 1/2].  The cubic Hermite start errs by at
# most h^4 max|f^(4)| / 384 on a step h of a function f.
# - Log part, h = log(2^56) / 255 = 0.152, so 1.4e-6 max|y^(4)|.  The
#   centre's log(1/2 - t) gives |y^(4)| = q (1 + q)(1 + 6 q + 6 q^2),
#   q = t / (1/2 - t): 26 at t = 1/4, where the split was, but 0.32 at
#   t = 1/16, so the start errs in log s by about 5e-7.
# - Linear part, h = 1/256: h^4 / 384 = 6e-13 bounds the error in s by
#   6e-13 max|s^(4)|, small in log s wherever r is smooth at 0.
# Measured over t in [2^-54, 1/2) for pe(3), t(1.5, 4), logistic I,
# canonical slash and slash(1, 2, 4.5): at most 8.5e-7 in log s (canonical
# slash and slash(1) near t = 0.064; 3.4e-7 to 5e-7 for the others), within
# ``_SETTLED_STEP``, so one Halley step settles a draw in one tail
# evaluation.  The exceptions are the power exponentials with tau < 2,
# whose r has a cusp at 0: s(t) is not smooth at t = 1/2, and the start
# errs by up to 7.4e-6 for pe(1.5) (t > 0.4969, 0.6% of draws) and 5.5e-4
# for pe(0.8) (t > 0.493, 1.3%).  Those elements take a second round.
_TABLE_SPLIT = 1.0 / 16.0
_TABLE_T = np.concatenate([
    np.exp(np.linspace(math.log(2.0**-60), math.log(_TABLE_SPLIT), 256)[:-1]),
    _TABLE_SPLIT + np.arange(113) / 256.0,
])
_TABLE_LOG_T = np.log(_TABLE_T)


class _InverseTable(NamedTuple):
    """One family's exact tail quantiles at ``_TABLE_T``, with their slopes."""

    s: np.ndarray  # P(S > s) = t, as the cold-started iteration solves it
    log_s: np.ndarray
    dlog_s: np.ndarray  # d log s / d log t = -t / (s r(s^2)), used below _TABLE_SPLIT
    ds: np.ndarray  # ds/dt = -1 / r(s^2), used above it


@functools.lru_cache(maxsize=64)
def _inverse_table(kind: FamilyKind, extra: float | None) -> _InverseTable:
    family = DensityFamily(kind, extra)
    t = _TABLE_T
    s = _halley_in_log_s(family, t, _cold_start(family, t), t < 0.5)
    with np.errstate(over="ignore"):
        log_r = eval_generator(family, s * s).log_r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_s = np.log(s)
        table = _InverseTable(s, log_s, -np.exp(_TABLE_LOG_T - log_s - log_r), -np.exp(-log_r))
    # every caller gets these same arrays
    for column in table:
        column.setflags(write=False)
    return table


def _hermite(theta, h, f0, f1, m0, m1):
    """The cubic through (0, f0) and (h, f1) with slopes m0 and m1, at theta h."""
    d = f1 - f0
    return f0 + theta * (h * m0 + theta * (3.0 * d - h * (2.0 * m0 + m1) + theta * (h * (m0 + m1) - 2.0 * d)))


def _table_start(family: DensityFamily, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start of the tail quantile at t in (0, 0.5], and where t is a node.

    From the family's cached inverse table: at a node, its stored value;
    between two nodes, the cubic Hermite through them, in log s over log t
    below ``_TABLE_SPLIT`` and in s over t above.  A t outside the table, or
    a start that is not a positive double, starts cold (``_cold_start``).
    The start is a function of (family, t) alone.
    """
    table = _inverse_table(family.kind, family.extra)
    k = np.clip(np.searchsorted(_TABLE_T, t, side="right") - 1, 0, _TABLE_T.size - 2)
    t0, t1 = _TABLE_T[k], _TABLE_T[k + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_log = _TABLE_LOG_T[k + 1] - _TABLE_LOG_T[k]
        in_log = np.exp(_hermite(
            (np.log(t) - _TABLE_LOG_T[k]) / h_log, h_log,
            table.log_s[k], table.log_s[k + 1], table.dlog_s[k], table.dlog_s[k + 1],
        ))
        in_t = _hermite((t - t0) / (t1 - t0), t1 - t0, table.s[k], table.s[k + 1], table.ds[k], table.ds[k + 1])
    hit = t == t0
    start = np.where(hit, table.s[k], np.where(t1 <= _TABLE_SPLIT, in_log, in_t))
    cold = ~((t >= _TABLE_T[0]) & (start > 0.0) & (start <= _S_MAX))
    if cold.any():
        start[cold] = _cold_start(family, t[cold])
    return start, hit


def _tail_quantile_halley(family: DensityFamily, t: np.ndarray) -> np.ndarray:
    """Solve P(S > s) = t for s > 0, elementwise; t must lie in (0, 0.5].

    Halley in log s (``_halley_in_log_s``) from the table's start
    (``_table_start``); a t on a node returns the stored value as it is.
    The start is a function of (family, t) alone, so a quantile has the same
    bits at any input size.
    """
    start, hit = _table_start(family, t)
    return _halley_in_log_s(family, t, start, (t < 0.5) & ~hit)


def symmetric_quantile(family: DensityFamily, p):
    """Quantile of the standard symmetric law; p must lie strictly in (0, 1)."""
    pa = np.asarray(p, dtype=float)
    flat = np.atleast_1d(pa).ravel()
    if not ((flat > 0.0) & (flat < 1.0)).all():
        raise ValueError("probability must lie strictly inside (0, 1)")
    t = np.minimum(flat, 1.0 - flat)
    mag = _SPECS[family.kind].tail_quantile(family, t)
    out = np.where(flat >= 0.5, mag, -mag)
    out = np.where(flat == 0.5, 0.0, out).reshape(pa.shape)
    return float(out) if pa.shape == () else out


# ---------------------------------------------------------------------------
# Weight function w(z) = -2 r'(z^2) / r(z^2) and its derivative.

# Bernoulli-series coefficients of 2/u - 1/expm1(u/2) in x = u/2:
# 1/2 - x/12 + x^3/720 - x^5/30240 + x^7/1209600 - x^9/47900160
_CSLASH_W_COEF = np.array([
    0.5, -1.0 / 12.0, 0.0, 1.0 / 720.0, 0.0, -1.0 / 30240.0,
    0.0, 1.0 / 1209600.0, 0.0, -1.0 / 47900160.0,
])
# and of its x-derivative (halved for d/du):
# -1/12 + x^2/240 - x^4/6048 + x^6/172800 - x^8/5322240
_CSLASH_DW_COEF = np.array([
    -1.0 / 12.0, 0.0, 1.0 / 240.0, 0.0, -1.0 / 6048.0,
    0.0, 1.0 / 172800.0, 0.0, -1.0 / 5322240.0,
])


def _w_power_exponential(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    tau = family.extra
    ptau, _ = _pe_scale(tau)
    return tau * u ** (0.5 * tau - 1.0) / (2.0 * ptau)


def _w_logistic_ii(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    g = np.abs(z)
    return np.where(g == 0.0, 0.5, np.tanh(0.5 * g) / g)


def _w_canonical_slash(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    x = 0.5 * u
    return _split(
        x < 0.25,
        lambda x, u: np.polynomial.polynomial.polyval(x, _CSLASH_W_COEF),
        lambda x, u: 2.0 / u - 1.0 / np.expm1(x),
        x, u,
    )


def _slash_ratios(a: float, x: np.ndarray, top: int) -> list:
    """lower_gamma_ratio(a + k, x) for k = 0, ..., top at finite x >= 0.

    One series at a + top, then the downward recurrence
    L(b) = (x L(b + 1) + e^-x) / b, whose terms are all positive, so each step
    only adds rounding (Gautschi 1979, ACM TOMS 5:466).
    """
    ratios = [lower_gamma_ratio(a + top, x)]
    ex = np.exp(-x)
    for k in range(top - 1, -1, -1):
        ratios.append((x * ratios[-1] + ex) / (a + k))
    return ratios[::-1]


def _beyond_finite(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    # a slash weight or its derivative where u is not finite: 0, nan at nan
    return np.where(np.isnan(u), u, 0.0)


def _w_slash(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    a = 0.5 * (family.extra + 1.0)

    def finite(z, u):
        x = 0.5 * u
        den, num = _slash_ratios(a, x, 1)
        # far out the numerator underflows, alone or with the denominator; there
        # w = a / x = (q + 1) / z^2 (the discarded a / x divides by 0 at z = 0)
        return np.where(num < _TINY, a / x, num / den)

    return _split(np.isfinite(u), finite, _beyond_finite, z, u)


def _dw_power_exponential(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    tau = family.extra
    if tau == 2.0:
        return np.zeros_like(u)
    ptau, _ = _pe_scale(tau)
    # w'(z) = C sign(z) |z|^(tau-3), written this way so that the
    # z -> 0 and |z| -> inf ends resolve without 0 * inf forms
    coef = tau * (tau - 2.0) / (2.0 * ptau)
    return coef * np.sign(z) * np.abs(z) ** (tau - 3.0)


def _limit_where_nan(dw: np.ndarray, z: np.ndarray) -> np.ndarray:
    # inf / inf or inf * 0 at huge |z| stands for w'(z) -> -0 sign(z)
    return np.where(np.isnan(dw) & ~np.isnan(z), -np.sign(z) * 0.0, dw)


def _dw_cauchy(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    # nested division avoids overflow of (1 + u)^2 for huge u
    return _limit_where_nan(-4.0 * z / (1.0 + u) / (1.0 + u), z)


def _dw_student_t(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    tau = family.extra
    return _limit_where_nan(-2.0 * z * (tau + 1.0) / (tau + u) / (tau + u), z)


def _dw_logistic_i(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    c2 = np.cosh(0.5 * u) ** 2
    return np.where(np.isinf(c2), 0.0, 2.0 * z / c2)


def _dw_logistic_ii_series(g: np.ndarray) -> np.ndarray:
    g2 = g * g
    return -g / 12.0 + g * g2 / 60.0 - 17.0 * g * g2 * g2 / 6720.0


def _dw_logistic_ii_direct(g: np.ndarray) -> np.ndarray:
    c2 = np.cosh(0.5 * g) ** 2
    hyper = np.where(np.isinf(c2), 0.0, 0.5 * g / c2)
    return (hyper - np.tanh(0.5 * g)) / (g * g)


def _dw_logistic_ii(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    g = np.abs(z)
    return np.sign(z) * _split(g < 0.05, _dw_logistic_ii_series, _dw_logistic_ii_direct, g)


def _dw_canonical_slash(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    x = 0.5 * u
    dwdu = _split(
        x < 0.25,
        lambda x, u: 0.5 * np.polynomial.polynomial.polyval(x**2, _CSLASH_DW_COEF[::2]),
        lambda x, u: -2.0 / u**2 + 0.5 * np.exp(-x) / np.expm1(-x) ** 2,
        x, u,
    )
    return _limit_where_nan(2.0 * z * dwdu, z)


def _dw_slash(family: DensityFamily, z: np.ndarray, u: np.ndarray) -> np.ndarray:
    a = 0.5 * (family.extra + 1.0)

    def finite(z, u):
        r0, r1, r2 = _slash_ratios(a, 0.5 * u, 2)
        # the discarded -4 a / z^3 divides by 0 at z = 0
        dw = z * (r1 * r1 - r0 * r2) / (r0 * r0)
        # far out r0^2 underflows to 0/0; there w' = -2 (q + 1) / z^3
        return np.where(np.isnan(dw), -4.0 * a / z**3, dw)

    return _split(np.isfinite(u), finite, _beyond_finite, z, u)


# w and w' resolve their limits where they overflow, divide by an underflowed
# z^2 or meet inf / inf at the ends of the z range; those events are ignored,
# by ``_weight`` here and by the likelihood kernel around its own calls

def _weight_1d(family: DensityFamily, z: np.ndarray, derivative: bool) -> np.ndarray:
    """w(z), or dw/dz where derivative is set, at a 1-D float z.  Raises at
    z = 0 where w is singular there (centre e < 2) or, for dw/dz, where w is
    not differentiable there (2 < e <= 3)."""
    spec = _SPECS[family.kind]
    e = spec.centre(family)
    if (e < 2.0 or derivative and 2.0 < e <= 3.0) and (z == 0.0).any():
        defect = "singular" if e < 2.0 else "not differentiable"
        raise ValueError(f"weight function of {family.label()} is {defect} at z = 0")
    return (spec.weight_derivative if derivative else spec.weight)(family, z, z * z)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _weight(family: DensityFamily, z, derivative: bool):
    """``_weight_1d`` at z of any shape."""
    za = np.asarray(z, dtype=float)
    flat = za if za.ndim == 1 else za.reshape(-1)
    out = _weight_1d(family, flat, derivative)
    if za.ndim != 1:
        out = out.reshape(za.shape)
    return float(out) if za.ndim == 0 else out


def weight_function(family: DensityFamily, z):
    """w(z) = -2 r'(z^2) / r(z^2); raises where the family is singular at 0."""
    return _weight(family, z, False)


def weight_derivative(family: DensityFamily, z):
    """dw/dz of the weight function, defined wherever the weight is smooth."""
    return _weight(family, z, True)


def kink_slope(family: DensityFamily) -> float:
    """-d/d|z| log r(z^2) as z -> 0+: positive (inf for a cusp) where log r(z^2)
    has a kink at z = 0, so that the log-likelihood has one in mu at every
    observation; 0 where it is smooth."""
    e = _SPECS[family.kind].centre(family)
    if e > 1.0:
        return 0.0
    # at e = 1 the generator is exp(-c |z|) everywhere, c its decay coefficient
    return math.inf if e < 1.0 else generator_decay(family)[1]


def generator_decay(family: DensityFamily) -> tuple:
    """Decay of the generator as |z| -> inf: ``("power", g)`` when
    r(z^2) ~ z^-g, ``("exp", c, e)`` when log r(z^2) ~ -c |z|^e."""
    return _SPECS[family.kind].decay(family)


# ---------------------------------------------------------------------------
# The family table.

class _FamilySpec(NamedTuple):
    """Every per-family fact, keyed by kind in ``_SPECS``.

    The callables reach the special functions through this module's globals
    at call time, never as stored values, so that a name patched here (as
    perfbench's tracer does) sees every call.  Every family inverts the
    upper tail by ``tail_quantile``: the normal, double exponential, Cauchy
    and logistic II in closed form, the others by the default, Halley in
    log s started from the family's cached inverse table, which is itself
    solved from ``decay``.
    """

    generator: Callable  # (family, u) -> (r, log r), u >= 0
    upper_tail: Callable  # (family, s) -> P(S > s), s >= 0
    weight: Callable  # (family, z, z^2) -> w(z)
    weight_derivative: Callable  # (family, z, z^2) -> dw/dz
    decay: Callable  # family -> generator_decay(family)
    extra_name: str | None = None
    default_extra: float | None = None  # the extra from_name gives when none is passed
    alias: str | None = None  # short name from_name also accepts
    tail_quantile: Callable = _tail_quantile_halley  # (family, t) -> s, P(S > s) = t
    # family -> e, where log r(0) - log r(z^2) ~ c |z|^e as z -> 0: the weight
    # is singular at 0 for e < 2 and not differentiable there for 2 < e <= 3,
    # and for e <= 1 log r(z^2) has a kink at 0 (see kink_slope)
    centre: Callable = lambda family: 2.0


_SPECS = {
    FamilyKind.NORMAL: _FamilySpec(
        generator=_gen_normal,
        upper_tail=lambda family, s: std_normal_cdf(-s),
        # AS 241 is exactly odd, so this gives the bits of the quantile at p
        tail_quantile=lambda family, t: -std_normal_quantile(t),
        weight=lambda family, z, u: np.ones_like(u),
        weight_derivative=lambda family, z, u: np.zeros_like(u),
        decay=lambda family: ("exp", 0.5, 2.0),
    ),
    FamilyKind.DOUBLE_EXPONENTIAL: _FamilySpec(
        generator=_gen_double_exponential,
        upper_tail=_tail_double_exponential,
        tail_quantile=lambda family, t: -np.log(2.0 * t) / _SQRT2,
        weight=lambda family, z, u: _SQRT2 / np.abs(z),
        weight_derivative=lambda family, z, u: -_SQRT2 * np.sign(z) / u,
        centre=lambda family: 1.0,
        decay=lambda family: ("exp", _SQRT2, 1.0),
    ),
    FamilyKind.POWER_EXPONENTIAL: _FamilySpec(
        extra_name="tau",
        default_extra=2.0,
        alias="pe",
        generator=_gen_power_exponential,
        upper_tail=_tail_power_exponential,
        weight=_w_power_exponential,
        weight_derivative=_dw_power_exponential,
        centre=lambda family: family.extra,
        decay=lambda family: (
            "exp", 0.5 / _pe_scale(family.extra)[0], family.extra
        ),
    ),
    FamilyKind.CAUCHY: _FamilySpec(
        generator=_gen_cauchy,
        upper_tail=_tail_cauchy,
        tail_quantile=_tail_quantile_cauchy,
        weight=lambda family, z, u: 2.0 / (1.0 + u),
        weight_derivative=_dw_cauchy,
        decay=lambda family: ("power", 2.0),
    ),
    FamilyKind.STUDENT_T: _FamilySpec(
        extra_name="tau",
        default_extra=4.0,
        alias="t",
        generator=_gen_student_t,
        upper_tail=_tail_student_t,
        weight=lambda family, z, u: (family.extra + 1.0) / (family.extra + u),
        weight_derivative=_dw_student_t,
        decay=lambda family: ("power", family.extra + 1.0),
    ),
    FamilyKind.LOGISTIC_I: _FamilySpec(
        generator=_gen_logistic_i,
        upper_tail=_tail_logistic_i,
        weight=lambda family, z, u: 2.0 * np.tanh(0.5 * u),
        weight_derivative=_dw_logistic_i,
        decay=lambda family: ("exp", 1.0, 2.0),
    ),
    FamilyKind.LOGISTIC_II: _FamilySpec(
        generator=_gen_logistic_ii,
        upper_tail=_tail_logistic_ii,
        tail_quantile=lambda family, t: np.log1p(-t) - np.log(t),
        weight=_w_logistic_ii,
        weight_derivative=_dw_logistic_ii,
        decay=lambda family: ("exp", 1.0, 1.0),
    ),
    FamilyKind.CANONICAL_SLASH: _FamilySpec(
        alias="cslash",
        generator=_gen_canonical_slash,
        upper_tail=lambda family, s: _tail_slash_form(family, s, 1.0),
        weight=_w_canonical_slash,
        weight_derivative=_dw_canonical_slash,
        decay=lambda family: ("power", 2.0),
    ),
    FamilyKind.SLASH: _FamilySpec(
        extra_name="q",
        default_extra=2.0,
        generator=_gen_slash,
        upper_tail=lambda family, s: _tail_slash_form(family, s, family.extra),
        weight=_w_slash,
        weight_derivative=_dw_slash,
        decay=lambda family: ("power", family.extra + 1.0),
    ),
}
