"""Special functions backing the distribution machinery.

Only what a library path calls lives here, all of it implemented in-repo
(rational approximations, power series, continued fractions) so the accuracy
contracts can be tested in isolation against independent quadrature oracles.
Functions accept floats or numpy arrays, return a float for a scalar, and give
NaN at NaN.  The error function and the incomplete gamma and beta functions
choose their path by input size at the entry point: a short input runs each
element end to end in Python floats, and a longer one runs array code.  Both
paths give bit-identical results.  The lower gamma
ratio sums a fixed number of series terms by Horner's rule on x <= 15, one code
for floats and arrays, and keeps a convergent series or continued fraction
beyond.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "erfc",
    "std_normal_cdf",
    "std_normal_quantile",
    "reg_upper_gamma",
    "lower_gamma_ratio",
    "reg_inc_beta",
    "log_beta",
    "chi2_survival",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI
_EPS = 2.220446049250313e-16
_TINY = 1e-300
_MAX_ITER = 600
# Inputs of at most a limit of elements take the Python-float path, longer
# ones the array path; each limit is a measured crossover of the two (2-CPU
# VM, Python 3.11, numpy 2.4).  reg_upper_gamma(2/3, x) on x = 2|t4|^0.75
# crosses at about 140 elements, so the other iterating codes keep
# _SMALL_N.  reg_inc_beta(2, 1/2, x) on uniform x crosses at about 85, so it
# has _SMALL_N_BETA.  (On the t tail's near-centre y, whose fraction stops
# within a few steps, reg_inc_beta(1/2, 2, y) crosses at about 28; one
# limit serves both.)  Fixed-length codes, erfc's rational functions and the
# lower ratio's Horner series, use _SMALL_N_FIXED: their float path costs
# 2-4 us an element and their array path 55-70 us at any short length, a
# crossover at about 28 elements for erfc(t4 / sqrt 2) and 24 for
# lower_gamma_ratio(3/2, t4^2 / 2).
_SMALL_N = 128
_SMALL_N_BETA = 80
_SMALL_N_FIXED = 24


# ---------------------------------------------------------------------------
# One size rule at the entry points of erfc and the incomplete gamma and beta
# functions.
#
# An entry point whose input has at most its limit of elements runs each
# element end to end in Python floats: range check, edge values, prefactor and
# recurrence (the *_float functions).  A larger input takes the array path,
# whose recurrences loop over the elements that have not yet converged.  Both
# paths do the same operations in the same order, with the same _TINY clamps
# and stopping tests, so they give bit-identical results and follow one set
# of edge rules at any size.  The float path takes exp, floor, log and log1p
# from numpy ufuncs called on floats, which give the bits of the array loops;
# the math module's differ from them in the last place on some inputs (about
# 5% of exp arguments where numpy has AVX-512 loops).  The float path sets no
# errstate, which costs more than its loop on short recurrences: its only
# floating-point event is an exp that underflows, which follows the package's
# underflow rule (see the ``bcsym`` docstring).  NaN elements give NaN.


def _by_size(xa: np.ndarray, limit: int, element, array, *args):
    """element(*args, x) for each x of an xa of at most limit elements, else array(*args, xa)."""
    if xa.size <= limit:
        out = np.array([element(*args, v) for v in xa.ravel().tolist()]).reshape(xa.shape)
    else:
        out = array(*args, xa)
    return float(out) if out.ndim == 0 else out


# Cody-style rational approximations for erf/erfc, three regions.
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
_ERF_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERF_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
_ERF_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERF_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)


def _erf_small(y2):
    """erf(x)/x for |x| <= 0.46875, evaluated at y2 = x*x."""
    a, b = _ERF_A, _ERF_B
    xnum = a[4] * y2
    xden = y2
    for i in range(3):
        xnum = (xnum + a[i]) * y2
        xden = (xden + b[i]) * y2
    return (xnum + a[3]) / (xden + b[3])


def _erfc_mid(y):
    """erfc(y)*exp(y*y) for 0.46875 < y <= 4."""
    c, d = _ERF_C, _ERF_D
    xnum = c[8] * y
    xden = y
    for i in range(7):
        xnum = (xnum + c[i]) * y
        xden = (xden + d[i]) * y
    return (xnum + c[7]) / (xden + d[7])


def _erfc_large(y):
    """erfc(y)*exp(y*y) for y > 4."""
    p, q = _ERF_P, _ERF_Q
    y2 = 1.0 / (y * y)
    xnum = p[5] * y2
    xden = y2
    for i in range(4):
        xnum = (xnum + p[i]) * y2
        xden = (xden + q[i]) * y2
    r = y2 * (xnum + p[4]) / (xden + q[4])
    return (_INV_SQRT_PI - r) / y


def _exp_nxx(y):
    """exp(-y*y) with the split used by Cody to limit rounding error."""
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta)


def _erfc_float(x: float) -> float:
    """erfc(x) for one float, by the operations of _erfc_array."""
    y = abs(x)
    if y <= 0.46875:
        return 1.0 - x * _erf_small(y * y)
    if y <= 4.0:
        v = float(_erfc_mid(y) * _exp_nxx(y))
    elif y < 26.7:
        v = float(_erfc_large(y) * _exp_nxx(y))
    elif y >= 26.7:
        v = 0.0
    else:
        return math.nan
    return 2.0 - v if x < 0.0 else v


def _erfc_positive(y):
    """erfc(y) for array y >= 0.46875."""
    out = np.empty_like(y)
    mid = y <= 4.0
    if mid.any():
        ym = y[mid]
        out[mid] = _erfc_mid(ym) * _exp_nxx(ym)
    if not mid.all():
        yl = y[~mid]
        # NaN fails the test and comes out of the formula as NaN
        out[~mid] = np.where(yl >= 26.7, 0.0, _erfc_large(np.minimum(yl, 26.7)) * _exp_nxx(np.minimum(yl, 26.7)))
    return out


def _erfc_array(xa: np.ndarray) -> np.ndarray:
    y = np.abs(xa)
    out = np.empty_like(y)
    small = y <= 0.46875
    if small.any():
        ys = y[small]
        out[small] = 1.0 - xa[small] * _erf_small(ys * ys)
    big = ~small
    if big.any():
        v = _erfc_positive(y[big])
        neg = xa[big] < 0.0
        out[big] = np.where(neg, 2.0 - v, v)
    return out


def erfc(x):
    """Complementary error function, accurate in both tails."""
    return _by_size(np.asarray(x, dtype=float), _SMALL_N_FIXED, _erfc_float, _erfc_array)


def std_normal_cdf(x):
    """Standard normal cdf via erfc; absolute error below 1e-12 on |x| <= 8.

    The complement is computed with full relative accuracy, so
    ``std_normal_cdf(-40.0)`` is a faithful denormal-free tail value.
    """
    scalar = np.ndim(x) == 0
    xa = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-xa / _SQRT_2)
    return float(out) if scalar else out


# Wichura's algorithm AS 241 (PPND16) for the normal quantile.
_PPND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_PPND_B = (
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0,
    4.6303378461565452959e0,
    5.7694972214606914055e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.4178072517745061177e-1,
    2.27238449892691845833e-2,
    7.7454501427834140764e-4,
)
_PPND_D = (
    2.05319162663775882187e0,
    1.6763848301838038494e0,
    6.8976733498510000455e-1,
    1.4810397642748007459e-1,
    1.51986665636164571966e-2,
    5.475938084995344946e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.6579046435011037772e0,
    5.4637849111641143699e0,
    1.7848265399172913358e0,
    2.9656057182850489123e-1,
    2.6532189526576123093e-2,
    1.2426609473880784386e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    5.9983220655588793769e-1,
    1.3692988092273580531e-1,
    1.48753612908506148525e-2,
    7.868691311456132591e-4,
    1.8463183175100546818e-5,
    1.4215117583164458887e-7,
    2.04426310338993978564e-15,
)


def _ppnd_poly(num, den, r):
    p = num[7]
    for i in range(6, -1, -1):
        p = p * r + num[i]
    q = den[6]
    for i in range(5, -1, -1):
        q = q * r + den[i]
    q = q * r + 1.0
    return p / q


def std_normal_quantile(p):
    """Inverse standard normal cdf (algorithm AS 241, double precision)."""
    scalar = np.ndim(p) == 0
    pa = np.asarray(p, dtype=float)
    # negated form so NaN is rejected too
    if not ((pa > 0.0) & (pa < 1.0)).all():
        raise ValueError("probability must lie strictly inside (0, 1)")
    q = pa - 0.5
    out = np.empty_like(pa)
    central = np.abs(q) <= 0.425
    if central.any():
        r = 0.180625 - q[central] * q[central]
        out[central] = q[central] * _ppnd_poly(_PPND_A, _PPND_B, r)
    tails = ~central
    if tails.any():
        qt = q[tails]
        r = np.where(qt < 0.0, pa[tails], 1.0 - pa[tails])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if near.any():
            val[near] = _ppnd_poly(_PPND_C, _PPND_D, r[near] - 1.6)
        if not near.all():
            val[~near] = _ppnd_poly(_PPND_E, _PPND_F, r[~near] - 5.0)
        out[tails] = np.where(qt < 0.0, -val, val)
    return float(out) if scalar else out


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _gamma_entry(a: float, x, limit: int, element, array):
    if not a > 0.0:
        raise ValueError("shape parameter must be positive")
    return _by_size(np.asarray(x, dtype=float), limit, element, array, a)


def _check_nonnegative(x: np.ndarray) -> None:
    if (x < 0.0).any():
        raise ValueError("argument must be nonnegative")


# Incomplete gamma: the regularized Q(a, x) by its series for x < a+1 and its
# continued fraction beyond.  The lower ratio gamma(a, x) / x^a sums a
# fixed-length series by Horner's rule on x <= _KUMMER_X and uses the same
# series or continued fraction only above it.


def _gser_sum_float(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if not abs(term) >= abs(total) * _EPS:
            return total
    raise RuntimeError("incomplete gamma series did not converge")


def _gser_sum(a: float, x: np.ndarray) -> np.ndarray:
    """sum = (1/a)(1 + x/(a+1) + x^2/((a+1)(a+2)) + ...)."""
    out = np.empty_like(x)
    idx = np.arange(x.size)  # the elements not yet converged
    ap = a
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        ap += 1.0
        term = term * (x / ap)
        total = total + term
        keep = np.abs(term) >= np.abs(total) * _EPS
        if not keep.all():
            out[idx[~keep]] = total[~keep]
            idx, x, term, total = idx[keep], x[keep], term[keep], total[keep]
    if idx.size:
        raise RuntimeError("incomplete gamma series did not converge")
    return out


def _gamma_prefactor_float(a: float, x: float) -> float:
    """exp(-x) x^a / Gamma(a) for x > 0, as the array path forms it."""
    return float(np.exp(-x + a * float(np.log(x)) - math.lgamma(a)))


def _gcf_float(a: float, b: float, d: float) -> float:
    c = 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if not abs(delta - 1.0) >= _EPS:
            return h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def _gcf_Q_float(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction, finite x >= a+1."""
    prefactor = _gamma_prefactor_float(a, x)
    # where the prefactor underflows Q is exactly 0, and the iteration would
    # not converge once 1/(x+1-a) is subnormal
    if prefactor == 0.0:
        return 0.0
    b = x + 1.0 - a
    return _gcf_float(a, b, 1.0 / b) * prefactor


def _gcf_Q(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) by modified Lentz continued fraction, x >= a+1."""
    prefactor = np.exp(-x + a * np.log(x) - math.lgamma(a))
    b = x + 1.0 - a
    h = 1.0 / b
    # as in _gcf_Q_float, the elements whose prefactor underflows skip the
    # iteration; the others loop until they converge
    idx = np.flatnonzero(prefactor != 0.0)
    b = b[idx]
    d = h[idx]
    c = np.full_like(d, 1.0 / _TINY)
    part = d.copy()
    for i in range(1, _MAX_ITER):
        if not idx.size:
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        part = part * delta
        keep = np.abs(delta - 1.0) >= _EPS
        if not keep.all():
            h[idx[~keep]] = part[~keep]
            idx, b, c, d, part = idx[keep], b[keep], c[keep], d[keep], part[keep]
    if idx.size:
        raise RuntimeError("incomplete gamma continued fraction did not converge")
    return h * prefactor


def _upper_gamma_float(a: float, x: float) -> float:
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x < a + 1.0:
        # 1 - P(a, x), with P by the series
        if x == 0.0:
            return 1.0
        return 1.0 - _gser_sum_float(a, x) * _gamma_prefactor_float(a, x)
    if x < math.inf:
        return _gcf_Q_float(a, x)
    return 0.0 if x == math.inf else math.nan


def _upper_gamma_array(a: float, xa: np.ndarray) -> np.ndarray:
    _check_nonnegative(xa)
    out = np.full_like(xa, np.nan)
    out[xa == np.inf] = 0.0
    lo = xa < a + 1.0
    if lo.any():
        # 1 - P(a, x), with P by the series
        xlo = xa[lo]
        with np.errstate(divide="ignore"):
            p = _gser_sum(a, xlo) * np.exp(-xlo + a * np.log(xlo) - math.lgamma(a))
        out[lo] = 1.0 - np.where(xlo == 0.0, 0.0, p)
    hi = (xa >= a + 1.0) & (xa < np.inf)
    if hi.any():
        out[hi] = _gcf_Q(a, xa[hi])
    return out


def reg_upper_gamma(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) with accurate small values."""
    return _gamma_entry(a, x, _SMALL_N, _upper_gamma_float, _upper_gamma_array)


# Kummer's series gamma(a, x) / x^a = e^-x sum_k x^k / (a (a+1) ... (a+k)) has
# positive terms.  Normalised to sum 1, they fall from one to the next by the
# factor x / (a+k+1), faster than the Poisson(x) probabilities, which fall by
# x / (k+1).  So for every a > 0 the share of the sum beyond the first K terms
# is at most P(N >= K) for N ~ Poisson(x), which grows with x.  At x = 15 that
# bound is 1.6e-15 for K = 55 and 1.8e-18 for K = 60, under a hundredth of an
# ulp, so 60 terms summed by Horner's rule give the ratio to rounding on every
# x <= 15: a fixed count of multiply-adds that one code runs on floats and on
# arrays.  For x = z^2 / 2 the bound 15 means |z| <= 5.48, so in a fit few
# elements lie above it; they take the series or continued fraction, which
# converges faster the further x lies from a + 1.
_KUMMER_X = 15.0
_KUMMER_K = 60


@functools.lru_cache(maxsize=64)
def _kummer_coefficients(a: float) -> tuple:
    """1 / (a (a+1) ... (a+k)) for k = K-1 down to 0, in Horner order."""
    c = [1.0 / a]
    for k in range(1, _KUMMER_K):
        c.append(c[-1] / (a + k))
    return tuple(reversed(c))


def _kummer(a: float, x):
    """gamma(a, x) / x^a for a float or an array of x in [0, _KUMMER_X]."""
    c = _kummer_coefficients(a)
    total = c[0] * x + c[1]  # a new float or array, updated in place below
    for b in c[2:]:
        total *= x
        total += b
    return np.exp(-x) * total


def _lower_gamma_ratio_float(a: float, x: float) -> float:
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x <= _KUMMER_X:
        return _kummer(a, x)
    if x < a + 1.0:
        return float(np.exp(-x)) * _gser_sum_float(a, x)
    if x < math.inf:
        q = _gcf_Q_float(a, x)
        return float(np.exp(math.lgamma(a) + float(np.log1p(-q)) - a * float(np.log(x))))
    return 0.0 if x == math.inf else math.nan


def _lower_gamma_ratio_far(a: float, xa: np.ndarray) -> np.ndarray:
    """The ratio on an array of x above _KUMMER_X, inf or NaN."""
    out = np.full_like(xa, np.nan)
    out[xa == np.inf] = 0.0
    lo = xa < a + 1.0
    if lo.any():
        xlo = xa[lo]
        out[lo] = np.exp(-xlo) * _gser_sum(a, xlo)
    hi = (xa >= a + 1.0) & (xa < np.inf)
    if hi.any():
        xhi = xa[hi]
        q = _gcf_Q(a, xhi)
        out[hi] = np.exp(math.lgamma(a) + np.log1p(-q) - a * np.log(xhi))
    return out


def _lower_gamma_ratio_array(a: float, xa: np.ndarray) -> np.ndarray:
    _check_nonnegative(xa)
    near = xa <= _KUMMER_X
    out = np.empty_like(xa)
    out[near] = _kummer(a, xa[near])
    far = ~near
    if far.any():
        # few elements in a fit's residuals, so mostly the float path
        out[far] = _by_size(xa[far], _SMALL_N, _lower_gamma_ratio_float, _lower_gamma_ratio_far, a)
    return out


def lower_gamma_ratio(a: float, x):
    """Lower incomplete gamma(a, x) / x**a, stable for small x (positive-term series)."""
    return _gamma_entry(a, x, _SMALL_N_FIXED, _lower_gamma_ratio_float, _lower_gamma_ratio_array)


def chi2_survival(x):
    """Survival function of the chi-squared law with one degree of freedom; 1 for x <= 0."""
    return reg_upper_gamma(0.5, np.maximum(np.asarray(x, dtype=float), 0.0) / 2.0)


# ---------------------------------------------------------------------------
# Regularized incomplete beta via the standard continued fraction.


def _betacf_float(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if not abs(delta - 1.0) >= _EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    out = np.empty_like(x)
    idx = np.arange(x.size)  # the elements not yet converged
    h = d.copy()
    for m in range(1, _MAX_ITER):
        if not idx.size:
            break
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        keep = np.abs(delta - 1.0) >= _EPS
        if not keep.all():
            out[idx[~keep]] = h[~keep]
            idx, x, c, d, h = idx[keep], x[keep], c[keep], d[keep], h[keep]
    if idx.size:
        raise RuntimeError("incomplete beta continued fraction did not converge")
    return out


def _inc_beta_float(a: float, b: float, x: float) -> float:
    if not 0.0 < x < 1.0:
        if x == 0.0:
            return 0.0
        if x == 1.0:
            return 1.0
        if math.isnan(x):
            return math.nan
        raise ValueError("argument must lie in [0, 1]")
    bt = float(np.exp(-log_beta(a, b) + a * float(np.log(x)) + b * float(np.log1p(-x))))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf_float(a, b, x) / a
    return 1.0 - bt * _betacf_float(b, a, 1.0 - x) / b


def _inc_beta_array(a: float, b: float, xa: np.ndarray) -> np.ndarray:
    if ((xa < 0.0) | (xa > 1.0)).any():
        raise ValueError("argument must lie in [0, 1]")
    out = np.full_like(xa, np.nan)
    out[xa == 0.0] = 0.0
    out[xa == 1.0] = 1.0
    interior = (xa > 0.0) & (xa < 1.0)
    if interior.any():
        xi = xa[interior]
        bt = np.exp(-log_beta(a, b) + a * np.log(xi) + b * np.log1p(-xi))
        res = np.empty_like(xi)
        direct = xi < (a + 1.0) / (a + b + 2.0)
        if direct.any():
            res[direct] = bt[direct] * _betacf(a, b, xi[direct]) / a
        if not direct.all():
            res[~direct] = 1.0 - bt[~direct] * _betacf(b, a, 1.0 - xi[~direct]) / b
        out[interior] = res
    return out


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("shape parameters must be positive")
    return _by_size(np.asarray(x, dtype=float), _SMALL_N_BETA, _inc_beta_float, _inc_beta_array, a, b)
