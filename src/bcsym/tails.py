"""Right-tail behavior of Box-Cox symmetric laws.

Two complementary descriptions:

* ``tail_index``: the regular-variation index xi of the survival function,
  S(y) ~ y^(-1/xi) slowly varying.  xi = 0 for lighter-than-power tails and
  xi = inf for heavier-than-power tails.
* ``tail_form``: the asymptotic shape of the density, either
  exp(-c * y^e) ("power" form, light) or exp(-k2 * (log y)^k1) ("log_power"
  form; k1 == 1 is a plain power law y^(-k2)).

``classify`` folds the form into one of four categories and reports the
index; the two routes are mutually consistent and tested against each other
as well as against survival-probe slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distribution import BcsParams, quantile
from .families import FamilyKind, generator_decay

__all__ = [
    "TailCategory",
    "TailForm",
    "TailReport",
    "tail_index",
    "tail_form",
    "classify",
    "empirical_tail_slope",
]


class TailCategory(Enum):
    NON_HEAVY = "non_heavy"
    HEAVY_SUB_PARETIAN = "heavy_sub_paretian"
    PARETIAN = "paretian"
    HEAVIER_THAN_PARETIAN = "heavier_than_paretian"


@dataclass(frozen=True)
class TailForm:
    """Density tail shape: exp(-coefficient * y^exponent) when kind is
    "power", exp(-coefficient * (log y)^exponent) when kind is "log_power"."""

    kind: str
    exponent: float
    coefficient: float


@dataclass(frozen=True)
class TailReport:
    index: float
    form: TailForm
    category: TailCategory
    extrapolated: bool


def tail_index(params: BcsParams) -> float:
    """Right tail index xi; 0 means lighter than any power, inf heavier."""
    lam = params.lam
    if lam < 0.0:
        return 1.0 / abs(lam)
    decay = generator_decay(params.family)
    if decay[0] == "power" and lam > 0.0:
        # survival exponent is lam * (g - 1) with g the generator power
        return 1.0 / (lam * (decay[1] - 1.0))
    if decay[0] == "exp" and (lam > 0.0 or decay[2] > 1.0):
        return 0.0
    if decay[0] == "exp" and decay[2] == 1.0:
        # lambda == 0: the density is y^-1 exp(-c |log(y/mu) / sigma|^e)
        return params.sigma / decay[1]
    return math.inf  # log-power tails: power decay at lambda = 0, or e < 1


def tail_form(params: BcsParams) -> TailForm:
    """Asymptotic density shape of the right tail with explicit constants."""
    mu, sigma, lam = params.mu, params.sigma, params.lam

    if lam < 0.0:
        # density ~ y^(lam - 1) times a positive constant at the z-edge
        return TailForm("log_power", 1.0, 1.0 + abs(lam))

    decay = generator_decay(params.family)
    if decay[0] == "power":
        # y^(lam-1) * z^(-g), z ~ (y/mu)^lam/(sigma lam); at lambda = 0,
        # y^-1 times powers of log y: a borderline power law
        return TailForm("log_power", 1.0, lam * (decay[1] - 1.0) + 1.0)

    _, c, e = decay
    if lam > 0.0:
        # exp(-c z^e), z ~ (y/mu)^lam/(sigma lam)
        return TailForm("power", lam * e, c / (sigma * lam * mu**lam) ** e)
    # lambda == 0: y^-1 exp(-c (log y / sigma)^e)
    if e == 1.0:
        return TailForm("log_power", 1.0, 1.0 + c / sigma)
    return TailForm("log_power", e, c / sigma**e)


def _categorize(form: TailForm) -> TailCategory:
    if form.kind == "power":
        if form.exponent >= 1.0:
            return TailCategory.NON_HEAVY
        return TailCategory.HEAVY_SUB_PARETIAN
    if form.exponent > 1.0:
        return TailCategory.HEAVY_SUB_PARETIAN
    if form.exponent == 1.0:
        if form.coefficient > 1.0:
            return TailCategory.PARETIAN
        return TailCategory.HEAVIER_THAN_PARETIAN
    return TailCategory.HEAVIER_THAN_PARETIAN


def classify(params: BcsParams) -> TailReport:
    """Tail index, form, and heaviness category, with an extrapolation flag.

    The slash tail constants are established for integer q; other q values
    follow the same formulas by continuation and are flagged.
    """
    form = tail_form(params)
    xi = tail_index(params)
    extrapolated = (
        params.family.kind is FamilyKind.SLASH
        and params.family.extra != math.floor(params.family.extra)
    )
    return TailReport(xi, form, _categorize(form), extrapolated)


def empirical_tail_slope(
    params: BcsParams, lower_mass: float = 1e-4, upper_mass: float = 1e-7
) -> float:
    """Log-log slope of the survival function between two deep quantiles.

    For a Paretian tail this approaches -1/xi.  Raises if the probe
    quantiles are not finitely representable (tail too light or too deep).
    """
    if not 0.0 < upper_mass < lower_mass < 0.5:
        raise ValueError("need 0 < upper_mass < lower_mass < 0.5")
    ya = quantile(params, 1.0 - lower_mass)
    yb = quantile(params, 1.0 - upper_mass)
    if not (math.isfinite(ya) and math.isfinite(yb)) or yb <= ya:
        raise ValueError("tail probe is not resolvable in double precision")
    return (math.log(upper_mass) - math.log(lower_mass)) / (
        math.log(yb) - math.log(ya)
    )
