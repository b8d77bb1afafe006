"""Accuracy of the tail quantiles against mpmath, in ulps of s.

For each family, draws t = exp(U(log 2^-54, log 1/4)) and, near the centre,
1/2 - t = exp(U(log 1e-6, log 1/4)) from ``default_rng(seed)``, takes
s = -symmetric_quantile(family, t) from the library under ``src`` of the
given checkout, and measures the error of s to first order as
|P(S > s) - t| / r(s^2), with P and r in mpmath at 30 digits.  Per family it
prints the max, p99 and mean of that error in ulps of s over the tail draws
with t >= 1e-12, over those with t < 1e-12 and over all of them, with the
largest relative error, and the largest absolute error over the centre
draws.

    python3 scripts/quantile_accuracy.py --checkout .
    python3 scripts/quantile_accuracy.py --checkout ../parent --families t:4,slash:2 --tail 200

Run each checkout in its own process: the library is imported once.
"""

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

DEFAULT_FAMILIES = "t:4,t:1.5,pe:0.8,pe:1.5,pe:3,logistic_i,cslash,slash:1,slash:2"
# below this t the deep power tails' own bias dominates (ROADMAP item 5)
DEEP_T = 1e-12


def mp_tail_and_density(family, s: float) -> tuple:
    """P(S > s) and r(s^2) of the standard law, in mpmath at the current precision."""
    kind, extra = family.kind.value, family.extra
    sv = mp.mpf(s)
    u = sv * sv
    if kind == "student_t":
        tau = mp.mpf(extra)
        a = tau / 2
        r = mp.exp(a * mp.log(tau) - (a + mp.mpf(1) / 2) * mp.log(tau + u)) / mp.beta(mp.mpf(1) / 2, a)
        x = tau / (tau + u)
        if x > mp.mpf(1) / 2:
            tail = mp.mpf(1) / 2 - mp.betainc(mp.mpf(1) / 2, a, 0, u / (tau + u), regularized=True) / 2
        else:
            tail = mp.betainc(a, mp.mpf(1) / 2, 0, x, regularized=True) / 2
        return tail, r
    if kind == "power_exponential":
        tau = mp.mpf(extra)
        p = 2 ** (-1 / tau) * mp.sqrt(mp.gamma(1 / tau) / mp.gamma(3 / tau))
        x = sv**tau / (2 * p**tau)
        r = tau / (p * 2 ** (1 + 1 / tau) * mp.gamma(1 / tau)) * mp.exp(-x)
        return mp.gammainc(1 / tau, x, mp.inf, regularized=True) / 2, r
    if kind == "logistic_i":
        def unnorm(t):
            w = mp.exp(-t * t)
            return w / (1 + w) ** 2

        c = 1 / (2 * mp.quad(unnorm, [0, 1, 3, 9, 12, mp.inf]))
        r = c * unnorm(sv)
        if sv < 2:
            return mp.mpf(1) / 2 - c * mp.quad(unnorm, [0, sv]), r
        return c * mp.quad(unnorm, [sv, sv + 1, sv + 4, mp.inf]), r
    if kind in ("canonical_slash", "slash"):
        # P(S > s) = Phi(-s) + s r(s^2) / q
        q = mp.mpf(extra if kind == "slash" else 1)
        a = (q + 1) / 2
        r = q * 2 ** (q / 2 - 1) / mp.sqrt(mp.pi) * mp.gammainc(a, 0, u / 2) / u**a
        return mp.erfc(sv / mp.sqrt(2)) / 2 + sv * r / q, r
    raise ValueError(f"no mpmath tail for {family.label()}")


def errors(family, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """First-order error of each s, |P(S > s) - t| / r(s^2)."""
    out = np.empty_like(s)
    for i, (ti, si) in enumerate(zip(t, s)):
        tail, r = mp_tail_and_density(family, float(si))
        out[i] = float(abs(tail - mp.mpf(float(ti))) / r)
    return out


def summary(ulps: np.ndarray) -> str:
    if ulps.size == 0:
        return "n     0"
    return (f"n {ulps.size:5d}  max {ulps.max():7.2f}  p99 {np.percentile(ulps, 99):7.2f}  "
            f"mean {ulps.mean():6.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=None, help="import the library from CHECKOUT/src")
    ap.add_argument("--families", default=DEFAULT_FAMILIES,
                    help="comma-separated NAME or NAME:EXTRA (default %(default)s)")
    ap.add_argument("--tail", type=int, default=1000, help="tail draws per family")
    ap.add_argument("--centre", type=int, default=200, help="centre draws per family")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)
    if args.checkout is not None:
        sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from bcsym import DensityFamily
    from bcsym.families import symmetric_quantile

    rng = np.random.default_rng(args.seed)
    t_tail = np.exp(rng.uniform(math.log(2.0**-54), math.log(0.25), args.tail))
    t_centre = 0.5 - np.exp(rng.uniform(math.log(1e-6), math.log(0.25), args.centre))
    deep = t_tail < DEEP_T
    mp.mp.dps = 30
    for spec in args.families.split(","):
        name, _, extra = spec.partition(":")
        family = DensityFamily.from_name(name, float(extra) if extra else None)
        s = -symmetric_quantile(family, t_tail)
        err = errors(family, t_tail, s)
        ulps = err / np.spacing(s)
        centre = errors(family, t_centre, -symmetric_quantile(family, t_centre))
        print(f"{family.label()}: max rel {np.max(err / s):.3g}, "
              f"centre max abs {np.max(centre, initial=0.0):.3g}")
        print(f"  t >= {DEEP_T:g}  {summary(ulps[~deep])}")
        print(f"  t <  {DEEP_T:g}  {summary(ulps[deep])}")
        print(f"  all         {summary(ulps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
