"""Special-function checks against frozen mpmath values and dual routes.

Frozen literals come from tests/oracles/gen_special.py (mpmath, dps=40);
the extreme normal quantile was produced by mp.findroot on log(ncdf) at
dps=60.  In-test dual routes use the package's own adaptive quadrature,
which shares no code with the series/continued-fraction evaluations.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsym.special
from bcsym.quadrature import integrate
from bcsym.special import (
    _KUMMER_X,
    _SMALL_N,
    _SMALL_N_BETA,
    _SMALL_N_FIXED,
    chi2_survival,
    erfc,
    log_beta,
    lower_gamma_ratio,
    reg_inc_beta,
    reg_upper_gamma,
    std_normal_cdf,
    std_normal_quantile,
)

# checked as erfc = 1 - erf; at these x erfc is formed from erf(x)/x
ERF = {
    0.001: 0.0011283787909692364,
    0.3: 0.32862675945912742,
}

ERFC = {
    0.5: 0.47950012218695346,
    2.0: 0.0046777349810472658,
    6.0: 2.1519736712498913e-17,
    15.0: 7.2129941724512067e-100,
    26.6: 1.0885125885442265e-309,
}

NORMAL_CDF = {
    -37.0: 5.7255712225245768e-300,
    -8.0: 6.2209605742717841e-16,
    -1.2: 0.11506967022170828,
    0.4: 0.65542174161032417,
    3.0: 0.99865010196836991,
}

NORMAL_QUANTILE = {
    1e-300: -37.047096299361199,
    1e-10: -6.3613409024040562,
    0.0013: -3.011453758499784,
    0.3: -0.52440051270804078,
    0.975: 1.9599639845400542,
}

LOG_BETA = {
    (0.5, 0.5): 1.1447298858494002,
    (2.0, 3.0): -2.4849066497880003,
    (30.5, 0.2): 0.84314995983053821,
}

REG_LOWER_GAMMA = {
    (0.5, 0.3): 0.56142197391900014,
    (2.5, 2.5): 0.58411981300449208,
    (10.0, 3.0): 0.0011024881301154797,
    (3.0, 40.0): 0.99999999999999643,
    (0.4, 1e-12): 1.7862705107493763e-5,
}

LOWER_GAMMA_RATIO = {
    (1.5, 1e-08): 0.66666666266666668,
    (1.5, 0.5): 0.49818746435903076,
    (2.75, 9.0): 0.0038047494557675604,
}

LOWER_GAMMA_RATIO_GRID = {
    (0.5, 1e-300): 2.0,
    (0.5, 1e-08): 1.9999999933333334,
    (0.5, 0.01): 1.993353285806727,
    (0.5, 0.5): 1.7112487837842976,
    (0.5, 1.0): 1.4936482656248541,
    (0.5, 2.5): 1.092583943570296,
    (0.5, 4.0): 0.88208139076242168,
    (0.5, 6.5): 0.69499704513808967,
    (0.5, 9.0): 0.59080489883968082,
    (0.5, 12.0): 0.51166286105876613,
    (0.5, 14.0): 0.47370815995734134,
    (0.5, 14.999): 0.45766085225507701,
    (0.5, 15.0): 0.4576455966594747,
    (0.5, 15.001): 0.45763034258933529,
    (0.5, 16.0): 0.44311345589478447,
    (0.5, 18.0): 0.41777137828083059,
    (0.5, 20.0): 0.39633272965994731,
    (1.5, 1e-300): 0.66666666666666667,
    (1.5, 1e-08): 0.66666666266666668,
    (1.5, 0.01): 0.6626809154195449,
    (1.5, 0.5): 0.49818746435903076,
    (1.5, 1.0): 0.3789446916409847,
    (1.5, 2.5): 0.18568278926449968,
    (1.5, 4.0): 0.10568126412311916,
    (1.5, 6.5): 0.053230012827087271,
    (1.5, 9.0): 0.032808782179528192,
    (1.5, 12.0): 0.021318773859752478,
    (1.5, 14.0): 0.01691808917499654,
    (1.5, 14.999): 0.015256358418505412,
    (1.5, 15.0): 0.015254832828494457,
    (1.5, 15.001): 0.015253307492706924,
    (1.5, 16.0): 0.013847288463263595,
    (1.5, 18.0): 0.011604759661690864,
    (1.5, 20.0): 0.0099083181384410016,
    (2.5, 1e-300): 0.4,
    (2.5, 1e-08): 0.39999999714285715,
    (2.5, 0.01): 0.39715393801492957,
    (2.5, 0.5): 0.28150107365182543,
    (2.5, 1.0): 0.20053759629003473,
    (2.5, 2.5): 0.078575674109140289,
    (2.5, 4.0): 0.035051564323986142,
    (2.5, 6.5): 0.012052550776562051,
    (2.5, 9.0): 0.0054544181628006232,
    (2.5, 12.0): 0.0026643347147729491,
    (2.5, 14.0): 0.0018125930166982648,
    (2.5, 14.999): 0.0015257171424349818,
    (2.5, 15.0): 0.0015254628893614122,
    (2.5, 15.001): 0.001525208695586248,
    (2.5, 16.0): 0.0012981762599825421,
    (2.5, 18.0): 0.0009670624590309195,
    (2.5, 20.0): 0.000743123757325394,
    (3.5, 1e-300): 0.28571428571428571,
    (3.5, 1e-08): 0.2857142834920635,
    (3.5, 0.01): 0.28350112881558642,
    (3.5, 0.5): 0.1944440488338603,
    (3.5, 1.0): 0.13346454955364451,
    (3.5, 2.5): 0.045741674659580771,
    (3.5, 4.0): 0.017328317980307794,
    (3.5, 6.5): 0.0044042981151427009,
    (3.5, 9.0): 0.0015014039558794309,
    (3.5, 12.0): 0.0005545577145482537,
    (3.5, 14.0): 0.00032361792950189703,
    (3.5, 14.999): 0.00025428272869602173,
    (3.5, 15.0): 0.00025422342140553525,
    (3.5, 15.001): 0.00025416413188417696,
    (3.5, 16.0): 0.00020283300717385224,
    (3.5, 18.0): 0.00013431338431097522,
    (3.5, 20.0): 9.2890366607993128e-5,
}

CHI2_SURVIVAL = {
    0.001: 0.97477287936996039,
    3.8414588206941236: 0.050000000000000071,
    25.0: 5.7330314375838782e-7,
}

REG_INC_BETA = {
    (2.0, 3.0, 0.4): 0.52480000000000004,
    (0.5, 0.5, 0.1): 0.20483276469913346,
    (7.5, 2.5, 0.92): 0.92751343209707989,
    (2.0, 0.5, 0.3): 0.037840969485813117,
    (0.75, 400.0, 0.001): 0.46436146909274592,
}


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


def reg_lower_gamma(a, x):
    """P(a, x) from the lower gamma ratio, as gamma(a, x) / x^a * x^a / Gamma(a)."""
    return lower_gamma_ratio(a, x) * math.exp(a * math.log(x) - math.lgamma(a)) if x > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Error function and normal distribution.

def test_erfc_points():
    for x, expected in ERFC.items():
        # the 26.6 value is subnormal: ~47 significant bits remain
        tol = 1e-12 if expected < 1e-305 else 1e-14
        assert rel_err(erfc(x), expected) < tol


def test_erf_points():
    for x, expected in ERF.items():
        assert rel_err(erfc(x), 1.0 - expected) < 1e-14


def test_erfc_and_normal_cdf_give_nan_at_nan():
    x = np.array([np.nan, 1.0, -np.nan, -30.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (erfc, std_normal_cdf):
            assert math.isnan(f(math.nan))
            out = f(x)
            assert np.isnan(out[[0, 2, 4]]).all()
            assert out[1] == f(1.0) and out[3] == f(-30.0)


def test_normal_cdf_points():
    for x, expected in NORMAL_CDF.items():
        # rounding x/sqrt(2) once costs up to ~x^2 * eps/2 relative in the
        # far tail; that floor dominates the erfc error itself
        tol = 1e-14 + x * x * 1.2e-16
        assert rel_err(std_normal_cdf(x), expected) < tol


def test_normal_cdf_matches_own_quadrature():
    def density(t):
        return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    for x in (-2.1, -0.3, 0.7):
        res = integrate(density, -np.inf, x)
        assert abs(res.value - std_normal_cdf(x)) < 1e-10


def test_normal_quantile_points():
    for p, expected in NORMAL_QUANTILE.items():
        assert rel_err(std_normal_quantile(p), expected) < 1e-13
    assert std_normal_quantile(0.5) == 0.0


def test_normal_quantile_array_matches_scalar():
    p = np.array([1e-10, 0.3, 0.5, 0.975])
    out = std_normal_quantile(p)
    assert out.shape == (4,)
    for i, pi in enumerate(p):
        assert out[i] == std_normal_quantile(float(pi))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, np.nan])
def test_normal_quantile_domain(bad):
    with pytest.raises(ValueError):
        std_normal_quantile(bad)


@settings(max_examples=80)
@given(st.floats(min_value=1e-290, max_value=0.5))
def test_normal_quantile_round_trip(p):
    q = std_normal_quantile(p)
    assert rel_err(std_normal_cdf(q), p) < 1e-11


@settings(max_examples=80)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_erfc_reflection(x):
    assert abs(erfc(-x) + erfc(x) - 2.0) < 1e-15


def test_erfc_array_shape():
    out = erfc(np.array([[0.3, 1.0], [2.5, -2.5]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == erfc(0.3)
    assert out[1, 1] == 2.0 - out[1, 0]


# ---------------------------------------------------------------------------
# Gamma family.

def test_log_beta_points():
    for (a, b), expected in LOG_BETA.items():
        assert rel_err(log_beta(a, b), expected) < 1e-13
    # B(1, b) = 1/b exactly
    assert rel_err(log_beta(1.0, 4.0), -math.log(4.0)) < 1e-15


def test_reg_lower_gamma_points():
    # through the ratio: 1 - Q loses the small values (7.7e-13 at x = 1e-12)
    for (a, x), expected in REG_LOWER_GAMMA.items():
        assert rel_err(reg_lower_gamma(a, x), expected) < 1e-13


def test_reg_gamma_complement_and_bounds():
    for a in (0.5, 2.5, 10.0):
        for x in (0.0, 0.3, 5.0, 80.0):
            p = reg_lower_gamma(a, x)
            q = reg_upper_gamma(a, x)
            assert abs(p + q - 1.0) < 1e-14
            assert 0.0 <= p <= 1.0
    assert reg_upper_gamma(0.7, 0.0) == 1.0


def test_reg_lower_gamma_matches_own_quadrature():
    # independent route: defining integral with this package's quadrature
    a = 2.5
    norm = math.exp(math.lgamma(a))

    def integrand(t):
        return np.where(t > 0.0, np.exp((a - 1.0) * np.log(np.maximum(t, 1e-300)) - t), 0.0) / norm

    res = integrate(integrand, 0.0, 2.5)
    assert abs(res.value - reg_lower_gamma(a, 2.5)) < 1e-10


def test_reg_upper_gamma_array_matches_scalar():
    x = np.array([0.0, 0.3, 2.5, 40.0])
    out = reg_upper_gamma(2.5, x)
    assert out.shape == (4,)
    for i, xi in enumerate(x):
        assert out[i] == reg_upper_gamma(2.5, float(xi))


@settings(max_examples=60)
@given(
    a=st.floats(min_value=0.05, max_value=50.0),
    x1=st.floats(min_value=0.0, max_value=100.0),
    x2=st.floats(min_value=0.0, max_value=100.0),
)
def test_reg_upper_gamma_monotone(a, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert reg_upper_gamma(a, hi) <= reg_upper_gamma(a, lo) + 1e-14


def test_lower_gamma_ratio_points():
    for (a, x), expected in LOWER_GAMMA_RATIO.items():
        assert rel_err(lower_gamma_ratio(a, x), expected) < 1e-13
    # exact limit at x = 0: integral of t^(a-1) over (0, 1) scaled
    assert lower_gamma_ratio(1.5, 0.0) == 1.0 / 1.5


def test_lower_gamma_ratio_grid_across_the_horner_bound():
    # the fixed-length Horner series below x = 15 and the continued fraction
    # above it, as scalars and inside an array longer than _SMALL_N
    for a in sorted({a for a, _ in LOWER_GAMMA_RATIO_GRID}):
        xs = np.array([x for b, x in LOWER_GAMMA_RATIO_GRID if b == a])
        expected = np.array([LOWER_GAMMA_RATIO_GRID[(a, x)] for x in xs.tolist()])
        scalars = np.array([lower_gamma_ratio(a, x) for x in xs.tolist()])
        assert np.all(np.abs(scalars - expected) < 5e-15 * expected)
        long = lower_gamma_ratio(a, np.resize(xs, _SMALL_N + xs.size))
        assert np.array_equal(long[: xs.size], scalars)


# Near x = 5e307 and beyond, the continued fraction's 1/(x+1-a) is
# subnormal and its iteration cannot converge; Q's prefactor
# exp(-x + a log x - lgamma a) has long since underflowed, so Q is 0.
HUGE_X = [5.098743009510661e307, 9e307, 1.2e308]


@pytest.mark.parametrize("x", HUGE_X)
def test_upper_gamma_is_zero_at_huge_x_scalar(x):
    assert reg_upper_gamma(1.5, x) == 0.0
    assert lower_gamma_ratio(1.5, x) == 0.0


def test_upper_gamma_is_zero_at_huge_x_array():
    xs = np.array(HUGE_X + [40.0])
    q = reg_upper_gamma(1.5, xs)
    ratio = lower_gamma_ratio(1.5, xs)
    assert np.all(q[:-1] == 0.0)
    assert np.all(ratio[:-1] == 0.0)
    # an element that does iterate is unaffected by its neighbours
    assert q[-1] == reg_upper_gamma(1.5, np.array([40.0]))[0] > 0.0
    assert ratio[-1] == lower_gamma_ratio(1.5, np.array([40.0]))[0] > 0.0


def test_chi2_survival_points():
    for x, expected in CHI2_SURVIVAL.items():
        assert rel_err(chi2_survival(x), expected) < 1e-13
    assert chi2_survival(0.0) == 1.0
    assert chi2_survival(-1.0) == 1.0
    out = chi2_survival(np.array([-1.0, 0.0, 1.0]))
    assert list(out) == [1.0, 1.0, chi2_survival(1.0)]


# ---------------------------------------------------------------------------
# Incomplete beta.

def test_reg_inc_beta_points():
    for (a, b, x), expected in REG_INC_BETA.items():
        assert rel_err(reg_inc_beta(a, b, x), expected) < 1e-13


def test_reg_inc_beta_exact_rational():
    # I_x(2, 3) = x^2 (6 - 8x + 3x^2), a polynomial identity
    x = 0.4
    assert rel_err(reg_inc_beta(2.0, 3.0, x), x * x * (6 - 8 * x + 3 * x * x)) < 1e-14


def test_reg_inc_beta_boundaries():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0


def test_reg_inc_beta_array_matches_scalar():
    x = np.array([0.0, 0.1, 0.92, 1.0])
    out = reg_inc_beta(7.5, 2.5, x)
    assert out.shape == (4,)
    for i, xi in enumerate(x):
        assert out[i] == reg_inc_beta(7.5, 2.5, float(xi))


@settings(max_examples=80)
@given(
    a=st.floats(min_value=0.1, max_value=30.0),
    b=st.floats(min_value=0.1, max_value=30.0),
    x=st.floats(min_value=0.01, max_value=0.99),
)
def test_reg_inc_beta_reflection(a, b, x):
    # x away from {0, 1}: rounding 1 - x there perturbs the argument by more
    # than the identity tolerance when the density blows up at the edge
    left = reg_inc_beta(a, b, x)
    right = 1.0 - reg_inc_beta(b, a, 1.0 - x)
    assert abs(left - right) < 1e-11


def test_reg_inc_beta_power_law_edge():
    # I_x(a, 1) = x^a exactly, even for x far below machine epsilon
    for x in (3.7e-65, 1e-12, 0.2):
        assert rel_err(reg_inc_beta(0.125, 1.0, x), x**0.125) < 1e-12


@settings(max_examples=60)
@given(
    a=st.floats(min_value=0.1, max_value=30.0),
    b=st.floats(min_value=0.1, max_value=30.0),
    x1=st.floats(min_value=0.0, max_value=1.0),
    x2=st.floats(min_value=0.0, max_value=1.0),
)
def test_reg_inc_beta_monotone(a, b, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert reg_inc_beta(a, b, hi) >= reg_inc_beta(a, b, lo) - 1e-13


# ---------------------------------------------------------------------------
# One set of edge rules: a scalar runs through the same path as an array.

EDGE_A = 1.5
EDGE_FUNCTIONS = {
    "reg_upper_gamma": lambda x: reg_upper_gamma(EDGE_A, x),
    "lower_gamma_ratio": lambda x: lower_gamma_ratio(EDGE_A, x),
    "reg_inc_beta": lambda x: reg_inc_beta(2.0, 0.5, x),
}
GAMMA_EDGE_X = (0.0, 5e-324, 1e-300, 0.3, EDGE_A + 1.0, 40.0, 1e300, np.inf, np.nan)
BETA_EDGE_X = (0.0, 5e-324, 0.3, 0.5, 1.0 - 1e-16, 1.0, np.nan)
EDGE_CASES = [
    (name, x)
    for name in EDGE_FUNCTIONS
    for x in (BETA_EDGE_X if name == "reg_inc_beta" else GAMMA_EDGE_X + (-1.0, -np.inf))
] + [("reg_inc_beta", x) for x in (-1e-300, -0.5, 1.0 + 1e-15, 2.0, -np.inf, np.inf)]
# the limits at x = inf
EDGE_LIMITS = {"reg_upper_gamma": 0.0, "lower_gamma_ratio": 0.0}


@pytest.mark.parametrize("name, x", EDGE_CASES)
def test_scalar_and_array_follow_one_set_of_edge_rules(name, x):
    f = EDGE_FUNCTIONS[name]
    out_of_range = x < 0.0 or (name == "reg_inc_beta" and x > 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if out_of_range:
            with pytest.raises(ValueError):
                f(x)
            with pytest.raises(ValueError):
                f(np.array([0.3, x]))
            return
        scalar = f(x)
        array = f(np.array([x]))
    assert isinstance(scalar, float)
    assert array.shape == (1,)
    assert np.array_equal([scalar], array, equal_nan=True)
    if math.isnan(x):
        assert math.isnan(scalar)
    elif math.isinf(x):
        assert scalar == EDGE_LIMITS[name]
    else:
        assert 0.0 <= scalar <= (1.0 / EDGE_A if name == "lower_gamma_ratio" else 1.0)


def _assert_paths_give_the_same_bits(name, f, x, limit):
    # A scalar and an array of at most `limit` elements take the Python-float
    # loops, and a longer array the array loops: compare the bits of one long
    # array with scalars and with chunks just below and just above the limit.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array = f(x)
        others = {"scalars": np.array([f(v) for v in x.tolist()])}
        for size in (limit, limit + 1):
            others[f"chunks of {size}"] = np.concatenate([f(x[i : i + size]) for i in range(0, x.size, size)])
    for label, other in others.items():
        same = (array.view(np.int64) == other.view(np.int64)) | (np.isnan(array) & np.isnan(other))
        assert same.all(), (name, label, x[~same], array[~same], other[~same])


def test_long_array_and_scalars_give_the_same_bits():
    # Each branch (series and continued fraction, the lower ratio's Horner
    # series and what lies beyond it, direct and reflected beta) gets more
    # than _SMALL_N elements.
    rng = np.random.default_rng(1604)
    gamma_grid = np.concatenate(
        [
            rng.uniform(0.0, 2.0 * (EDGE_A + 1.0), 300),
            rng.uniform(0.0, 2.0 * _KUMMER_X, 300),
            10.0 ** rng.uniform(-323.0, 300.0, 300),
        ]
    )
    beta_grid = np.concatenate(
        [rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-323.5, -308.0, 100), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 200)]
    )
    for name, f in EDGE_FUNCTIONS.items():
        is_beta = name == "reg_inc_beta"
        edges = [x for n, x in EDGE_CASES if n == name and not (x < 0.0 or (is_beta and x > 1.0))]
        x = np.concatenate([edges, beta_grid if is_beta else gamma_grid])
        splits = [(2.0 + 1.0) / (2.0 + 0.5 + 2.0)] if is_beta else [EDGE_A + 1.0, _KUMMER_X]
        for split in splits:
            assert np.sum(x < split) > _SMALL_N and np.sum(x > split) > _SMALL_N
        limit = {"lower_gamma_ratio": _SMALL_N_FIXED, "reg_inc_beta": _SMALL_N_BETA}.get(name, _SMALL_N)
        _assert_paths_give_the_same_bits(name, f, x, limit)


def test_erfc_and_normal_cdf_long_array_and_scalars_give_the_same_bits():
    # more than _SMALL_N elements in each of erfc's three regions,
    # |y| <= 0.46875, 0.46875 < |y| <= 4 and beyond, on either sign
    rng = np.random.default_rng(1605)
    sign = rng.choice([-1.0, 1.0], 900)
    y = np.concatenate(
        [
            rng.uniform(-0.46875, 0.46875, 300),
            sign[:300] * rng.uniform(0.46875, 4.0, 300),
            sign[300:] * 10.0 ** rng.uniform(np.log10(4.0), 2.0, 600),
            [0.0, -0.0, 0.46875, -0.46875, 4.0, -4.0, 26.7, -26.7, 5e-324, np.inf, -np.inf, np.nan],
        ]
    )
    for bound in (0.46875, 4.0):
        assert np.sum(np.abs(y) <= bound) > _SMALL_N and np.sum(np.abs(y) > bound) > _SMALL_N
    assert np.sum(np.abs(y) > 26.7) > _SMALL_N
    _assert_paths_give_the_same_bits("erfc", erfc, y, _SMALL_N_FIXED)
    # std_normal_cdf(x) is erfc(-x / sqrt 2) / 2
    _assert_paths_give_the_same_bits("std_normal_cdf", std_normal_cdf, -math.sqrt(2.0) * y, _SMALL_N_FIXED)


# Integer and float32 inputs are read as float64: each gives the bits of the
# float64 call, both as a scalar and as an array on either side of the size limits.
DTYPE_FUNCTIONS = {
    "erfc": (erfc, (0, 1, 3)),
    "std_normal_cdf": (std_normal_cdf, (-2, 0, 1)),
    # no integer lies inside (0, 1)
    "std_normal_quantile": (std_normal_quantile, ()),
    "reg_upper_gamma": (lambda x: reg_upper_gamma(2.0, x), (0, 1, 3, 40)),
    "lower_gamma_ratio": (lambda x: lower_gamma_ratio(2.0, x), (0, 1, 3, 40)),
    "reg_inc_beta": (lambda x: reg_inc_beta(2.0, 3.0, x), (0, 1)),
}


@pytest.mark.parametrize("name", DTYPE_FUNCTIONS)
def test_integer_and_float32_inputs_are_read_as_float64(name):
    f, ints = DTYPE_FUNCTIONS[name]
    x32 = np.float32([0.1, 0.3, 0.7, 0.9]) if name in ("std_normal_quantile", "reg_inc_beta") else np.float32([0.1, 0.3, 2.5, 7.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ints:
            assert f(v) == f(float(v))
        for xs in [x32] + ([np.array(ints)] if ints else []):
            for n in (1, _SMALL_N + 1):
                xn = np.resize(xs, n * xs.size)
                out = f(xn)
                assert out.dtype == np.float64
                assert np.array_equal(out, f(xn.astype(np.float64)))


# ---------------------------------------------------------------------------
# No dead exports: every public special function has a caller in the package.

def test_every_export_is_used_by_another_function_of_the_package():
    # a name is used where it is read outside its own definition
    package = Path(bcsym.special.__file__).parent
    exports = set(bcsym.special.__all__)
    used = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = top.name if path.name == "special.py" and isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in exports and name != own:
                    used.add(name)
    assert sorted(exports - used) == []


# ---------------------------------------------------------------------------
# Underflow follows numpy's setting: no errstate guard in the package names it.

def test_no_errstate_call_names_underflow():
    package = Path(bcsym.special.__file__).parent
    guards = []
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate":
                guards.append((path.name, node.lineno, {k.arg for k in node.keywords}))
    assert guards
    assert [(name, line) for name, line, events in guards if "under" in events] == []
