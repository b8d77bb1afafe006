"""Special-function checks against frozen mpmath values and dual routes.

Frozen literals come from tests/oracles/gen_special.py (mpmath, dps=40);
the extreme normal quantile was produced by mp.findroot on log(ncdf) at
dps=60.  In-test dual routes use the package's own adaptive quadrature,
which shares no code with the series/continued-fraction evaluations.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsym.quadrature import integrate
from bcsym.special import (
    _SMALL_N,
    chi2_survival,
    erf,
    erfc,
    log_beta,
    lower_gamma_ratio,
    reg_inc_beta,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_cdf,
    std_normal_log_pdf,
    std_normal_pdf,
    std_normal_quantile,
)

ERF = {
    0.001: 0.0011283787909692364,
    0.3: 0.32862675945912742,
    1.0: 0.84270079294971487,
    2.5: 0.99959304798255504,
    5.0: 0.99999999999846254,
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


# ---------------------------------------------------------------------------
# Error function and normal distribution.

def test_erf_points():
    for x, expected in ERF.items():
        assert rel_err(erf(x), expected) < 1e-14


def test_erfc_points():
    for x, expected in ERFC.items():
        # the 26.6 value is subnormal: ~47 significant bits remain
        tol = 1e-12 if expected < 1e-305 else 1e-14
        assert rel_err(erfc(x), expected) < tol


def test_normal_cdf_points():
    for x, expected in NORMAL_CDF.items():
        # rounding x/sqrt(2) once costs up to ~x^2 * eps/2 relative in the
        # far tail; that floor dominates the erfc error itself
        tol = 1e-14 + x * x * 1.2e-16
        assert rel_err(std_normal_cdf(x), expected) < tol


def test_normal_pdf_trivia():
    assert rel_err(std_normal_pdf(0.0), 1.0 / math.sqrt(2.0 * math.pi)) < 1e-15
    assert std_normal_log_pdf(0.0) == -0.5 * math.log(2.0 * math.pi)
    x = np.array([-2.0, 0.3, 7.0])
    assert np.allclose(np.log(std_normal_pdf(x)), std_normal_log_pdf(x), rtol=1e-13)


def test_normal_cdf_matches_own_quadrature():
    for x in (-2.1, -0.3, 0.7):
        res = integrate(std_normal_pdf, -np.inf, x)
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
def test_erf_odd_and_complement(x):
    assert erf(-x) == -erf(x)
    assert abs(erf(x) + erfc(x) - 1.0) < 1e-15


def test_erf_array_shape():
    out = erf(np.array([[0.3, 1.0], [2.5, -2.5]]))
    assert out.shape == (2, 2)
    assert out[0, 0] == erf(0.3)
    assert out[1, 1] == -out[1, 0]


# ---------------------------------------------------------------------------
# Gamma family.

def test_log_beta_points():
    for (a, b), expected in LOG_BETA.items():
        assert rel_err(log_beta(a, b), expected) < 1e-13
    # B(1, b) = 1/b exactly
    assert rel_err(log_beta(1.0, 4.0), -math.log(4.0)) < 1e-15


def test_reg_lower_gamma_points():
    for (a, x), expected in REG_LOWER_GAMMA.items():
        assert rel_err(reg_lower_gamma(a, x), expected) < 1e-13


def test_reg_gamma_complement_and_bounds():
    for a in (0.5, 2.5, 10.0):
        for x in (0.0, 0.3, 5.0, 80.0):
            p = reg_lower_gamma(a, x)
            q = reg_upper_gamma(a, x)
            assert abs(p + q - 1.0) < 1e-14
            assert 0.0 <= p <= 1.0
    assert reg_lower_gamma(0.7, 0.0) == 0.0
    assert reg_upper_gamma(0.7, 0.0) == 1.0


def test_reg_lower_gamma_matches_own_quadrature():
    # independent route: defining integral with this package's quadrature
    a = 2.5
    norm = math.exp(math.lgamma(a))

    def integrand(t):
        return np.where(t > 0.0, np.exp((a - 1.0) * np.log(np.maximum(t, 1e-300)) - t), 0.0) / norm

    res = integrate(integrand, 0.0, 2.5)
    assert abs(res.value - reg_lower_gamma(a, 2.5)) < 1e-10


def test_reg_lower_gamma_array_matches_scalar():
    x = np.array([0.0, 0.3, 2.5, 40.0])
    out = reg_lower_gamma(2.5, x)
    assert out.shape == (4,)
    for i, xi in enumerate(x):
        assert out[i] == reg_lower_gamma(2.5, float(xi))


@settings(max_examples=60)
@given(
    a=st.floats(min_value=0.05, max_value=50.0),
    x1=st.floats(min_value=0.0, max_value=100.0),
    x2=st.floats(min_value=0.0, max_value=100.0),
)
def test_reg_lower_gamma_monotone(a, x1, x2):
    lo, hi = min(x1, x2), max(x1, x2)
    assert reg_lower_gamma(a, hi) >= reg_lower_gamma(a, lo) - 1e-14


def test_lower_gamma_ratio_points():
    for (a, x), expected in LOWER_GAMMA_RATIO.items():
        assert rel_err(lower_gamma_ratio(a, x), expected) < 1e-13
    # exact limit at x = 0: integral of t^(a-1) over (0, 1) scaled
    assert lower_gamma_ratio(1.5, 0.0) == 1.0 / 1.5


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
        assert rel_err(chi2_survival(x, df=1), expected) < 1e-13
    assert chi2_survival(0.0, df=1) == 1.0
    assert chi2_survival(-1.0, df=1) == 1.0
    out = chi2_survival(np.array([-1.0, 0.0, 1.0]), df=1)
    assert list(out) == [1.0, 1.0, chi2_survival(1.0, df=1)]


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
    "reg_lower_gamma": lambda x: reg_lower_gamma(EDGE_A, x),
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
EDGE_LIMITS = {"reg_lower_gamma": 1.0, "reg_upper_gamma": 0.0, "lower_gamma_ratio": 0.0}


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


def test_long_array_and_scalars_give_the_same_bits():
    # A scalar and an array of 2 to _SMALL_N elements take the Python-float
    # loops, and an array longer than _SMALL_N the array loops.  Each branch
    # (series and continued fraction, direct and reflected beta) gets more
    # than _SMALL_N elements.
    rng = np.random.default_rng(1604)
    gamma_grid = np.concatenate([rng.uniform(0.0, 2.0 * (EDGE_A + 1.0), 300), 10.0 ** rng.uniform(-323.0, 300.0, 300)])
    beta_grid = np.concatenate(
        [rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-323.5, -308.0, 100), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 200)]
    )
    for name, f in EDGE_FUNCTIONS.items():
        is_beta = name == "reg_inc_beta"
        edges = [x for n, x in EDGE_CASES if n == name and not (x < 0.0 or (is_beta and x > 1.0))]
        x = np.concatenate([edges, beta_grid if is_beta else gamma_grid])
        split = (2.0 + 1.0) / (2.0 + 0.5 + 2.0) if is_beta else EDGE_A + 1.0
        assert np.sum(x < split) > _SMALL_N and np.sum(x >= split) > _SMALL_N
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = f(x)
            scalars = np.array([f(v) for v in x.tolist()])
            chunks = np.array_split(x, -(-x.size // _SMALL_N))
            assert all(2 <= c.size <= _SMALL_N for c in chunks)
            mid = np.concatenate([f(c) for c in chunks])
        for other in (scalars, mid):
            same = (array.view(np.int64) == other.view(np.int64)) | (np.isnan(array) & np.isnan(other))
            assert same.all(), (name, x[~same], array[~same], other[~same])


# Integer and float32 inputs are read as float64: each gives the bits of the
# float64 call, both as a scalar and as an array on either side of _SMALL_N.
DTYPE_FUNCTIONS = {
    "erfc": (erfc, (0, 1, 3)),
    "erf": (erf, (0, 1, 3)),
    "std_normal_cdf": (std_normal_cdf, (-2, 0, 1)),
    "std_normal_pdf": (std_normal_pdf, (-2, 0, 1)),
    "std_normal_log_pdf": (std_normal_log_pdf, (-2, 0, 1)),
    # no integer lies inside (0, 1)
    "std_normal_quantile": (std_normal_quantile, ()),
    "reg_lower_gamma": (lambda x: reg_lower_gamma(2.0, x), (0, 1, 3, 40)),
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
