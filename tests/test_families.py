"""Generator, cdf, quantile and weight checks for the symmetric families.

Frozen expected values come from tests/oracles/gen_families.py: generators
written from their closed forms in mpmath arbitrary precision, derivatives
by mp.diff, cdf values by high-precision quadrature, deep-tail survival by
mpmath special functions or decay-matched quadrature, and quantiles by
bisection on the quadrature cdf.  None of them share a code path with the
implementation under test.
"""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsym.families import (
    _TABLE_T,
    LOGISTIC_I_NORMALIZER,
    DensityFamily,
    FamilyKind,
    GeneratorEval,
    _slash_ratios,
    eval_generator,
    generator_decay,
    logistic_i_normalizer,
    symmetric_cdf,
    symmetric_quantile,
    symmetric_survival,
    weight_derivative,
    weight_function,
)
from bcsym.quadrature import integrate
from bcsym.special import _SMALL_N, lower_gamma_ratio

FAMS = {
    "normal": DensityFamily.normal(),
    "double_exponential": DensityFamily.double_exponential(),
    "power_exponential_0.8": DensityFamily.power_exponential(0.8),
    "power_exponential_1.5": DensityFamily.power_exponential(1.5),
    "power_exponential_3": DensityFamily.power_exponential(3.0),
    "cauchy": DensityFamily.cauchy(),
    "student_t_1.5": DensityFamily.student_t(1.5),
    "student_t_4": DensityFamily.student_t(4.0),
    "logistic_i": DensityFamily.logistic_i(),
    "logistic_ii": DensityFamily.logistic_ii(),
    "canonical_slash": DensityFamily.canonical_slash(),
    "slash_1": DensityFamily.slash(1.0),
    "slash_2": DensityFamily.slash(2.0),
    "slash_4.5": DensityFamily.slash(4.5),
}

# name -> {u: (r, dr_du)}; dr_du is None where r'(0+) diverges.  The weight
# function is checked against w(sqrt(u)) = -2 dr_du / r.
GENERATOR_POINTS = {
    "normal": {
        "0": (0.39894228040143268, -0.19947114020071634),
        "0.3": (0.34337280287471512, -0.17168640143735756),
        "2.0": (0.14676266317373990, -0.073381331586869950),
        "13.0": (0.00059978546009136236, -0.00029989273004568118),
    },
    "double_exponential": {
        "0": (0.70710678118654752, None),
        "0.3": (0.32589818592088306, -0.42073274887692952),
        "2.0": (0.095696496510410924, -0.047848248255205462),
        "13.0": (0.0043152798393005311, -0.00084629600412334402),
    },
    "power_exponential_0.8": {
        "0": (0.97484656661256092, None),
        "0.3": (0.30417424291938914, -0.47235396077471372),
        "2.0": (0.081023656362128473, -0.040309899811769935),
        "13.0": (0.0050677244319936396, -0.00082009631075730289),
    },
    "power_exponential_1.5": {
        "0": (0.47596665240714863, None),
        "0.3": (0.34461405023345085, -0.27820924714034671),
        "2.0": (0.12465852096697977, -0.062630137553473713),
        "13.0": (0.0020367342043321572, -0.00064086626848961863),
    },
    "power_exponential_3": {
        "0": (0.34209532171702142, 0.0),
        "0.3": (0.32951265233508076, -0.061741881139888197),
        "2.0": (0.17947363051058367, -0.086828596476212113),
        "13.0": (7.7913340093353320e-6, -9.6101603448724823e-6),
    },
    "cauchy": {
        "0": (0.31830988618379067, -0.31830988618379067),
        "0.3": (0.24485375860291590, -0.18834904507916608),
        "2.0": (0.10610329539459689, -0.035367765131532297),
        "13.0": (0.022736420441699334, -0.0016240300315499524),
    },
    "student_t_1.5": {
        "0": (0.34073498128869364, -0.28394581774057803),
        "0.3": (0.27129398493681011, -0.18839860065056258),
        "2.0": (0.11815326866890104, -0.042197595953178944),
        "13.0": (0.019990368199000659, -0.0017233076033621258),
    },
    "student_t_4": {
        "0": (0.37500000000000000, -0.23437500000000000),
        "0.3": (0.31297533077582182, -0.18196240161384989),
        "2.0": (0.13608276348795434, -0.056701151453314308),
        "13.0": (0.010070683392512096, -0.0014809828518400141),
    },
    "logistic_i": {
        "0": (0.37107500670288955, 0.0),
        "0.3": (0.36284947859688234, -0.054022856821100223),
        "2.0": (0.15584198162946635, -0.11868834246156724),
        "13.0": (3.3549918325943926e-6, -3.3549766658552757e-6),
    },
    "logistic_ii": {
        "0": (0.25000000000000000, -0.062500000000000000),
        "0.3": (0.23214915733659035, -0.056628602658132414),
        "2.0": (0.15732256840871342, -0.033865931444948498),
        "13.0": (0.025753854765649161, -0.0033824630357632413),
    },
    "canonical_slash": {
        "0": (0.19947114020071634, -0.049867785050179085),
        "0.3": (0.18523159175572520, -0.045150634394558794),
        "2.0": (0.12608980861384639, -0.026354238513488220),
        "13.0": (0.030641730380103178, -0.0023339875115428844),
    },
    "slash_1": {
        "0": (0.19947114020071634, -0.049867785050179085),
        "0.3": (0.18523159175572520, -0.045150634394558794),
        "2.0": (0.12608980861384639, -0.026354238513488220),
        "13.0": (0.030641730380103178, -0.0023339875115428844),
    },
    "slash_2": {
        "0": (0.26596152026762179, -0.079788456080286536),
        "0.3": (0.24325892215205675, -0.071718601177900015),
        "2.0": (0.15117705942927216, -0.040001462985084171),
        "13.0": (0.021235702703035708, -0.0024041360457278615),
    },
    "slash_4.5": {
        "0": (0.32640732032844492, -0.11968268412042980),
        "0.3": (0.29254338020420511, -0.10635163031151675),
        "2.0": (0.16021208000054524, -0.055183613930292318),
        "13.0": (0.0081241501083275200, -0.0016147611932842396),
    },
}

# name -> {s: cdf}
CDF_POINTS = {
    "normal": {
        "-3.2": 0.00068713793791584846,
        "-0.7": 0.24196365222307301,
        "1.3": 0.90319951541438967,
        "2.5": 0.99379033467422386,
    },
    "double_exponential": {
        "-3.2": 0.0054147391027877080,
        "-0.7": 0.18579772923711936,
        "1.3": 0.92047030552439622,
        "2.5": 0.98542840344437877,
    },
    "power_exponential_0.8": {
        "-3.2": 0.0071600616185543615,
        "-0.7": 0.16459775610256745,
        "1.3": 0.92769845378437904,
        "2.5": 0.98381200317643307,
    },
    "power_exponential_1.5": {
        "-3.2": 0.0021932001716446462,
        "-0.7": 0.22087431252920687,
        "1.3": 0.90944782661083752,
        "2.5": 0.99004033529758375,
    },
    "power_exponential_3": {
        "-3.2": 2.5681573173344109e-5,
        "-0.7": 0.26511360698524829,
        "1.3": 0.89614175326129399,
        "2.5": 0.99803654606962703,
    },
    "cauchy": {
        "-3.2": 0.096411247979229567,
        "-0.7": 0.30559988778578521,
        "1.3": 0.79128559983984726,
        "2.5": 0.87888105840915660,
    },
    "student_t_1.5": {
        "-3.2": 0.061190596931440545,
        "-0.7": 0.28821912044134331,
        "1.3": 0.82098530439920953,
        "2.5": 0.91509674869265197,
    },
    "student_t_4": {
        "-3.2": 0.016450405300469493,
        "-0.7": 0.26125008279672511,
        "1.3": 0.86827420176438792,
        "2.5": 0.96661672759400593,
    },
    "logistic_i": {
        "-3.2": 7.9261577643621703e-6,
        "-0.7": 0.24329809341937741,
        "1.3": 0.92775228844621963,
        "2.5": 0.99946574890511698,
    },
    "logistic_ii": {
        "-3.2": 0.039165722796764359,
        "-0.7": 0.33181222783183389,
        "1.3": 0.78583498304255861,
        "2.5": 0.92414181997875645,
    },
    "canonical_slash": {
        "-3.2": 0.12461157300040580,
        "-0.7": 0.36580414798688933,
        "1.3": 0.72814283206544711,
        "2.5": 0.84122474271107821,
    },
    "slash_1": {
        "-3.2": 0.12461157300040580,
        "-0.7": 0.36580414798688933,
        "1.3": 0.72814283206544711,
        "2.5": 0.84122474271107821,
    },
    "slash_2": {
        "-3.2": 0.048703132060708491,
        "-0.7": 0.32249139593775486,
        "1.3": 0.79644191437756120,
        "2.5": 0.92179520132377546,
    },
    "slash_4.5": {
        "-3.2": 0.011157566053923878,
        "-0.7": 0.28444134234407287,
        "1.3": 0.85167125502925152,
        "2.5": 0.97067021791025968,
    },
}

# (name, s) -> survival; values span 1e-7 down to 1e-268
TAIL_POINTS = {
    ("normal", 35.0): 1.1249107064724062e-268,
    ("double_exponential", 300.0): 2.7760423864164368e-185,
    ("power_exponential_0.8", 200.0): 3.3225902964607879e-57,
    ("power_exponential_3", 8.0): 1.508020199368862e-53,
    ("logistic_i", 7.0): 5.5035157001230009e-23,
    ("logistic_ii", 600.0): 2.6503965530043108e-261,
    ("cauchy", 1e12): 3.1830988618379067e-13,
    ("student_t_1.5", 1e8): 3.7708524320162460e-13,
    ("student_t_4", 1e5): 2.9999999980000000e-20,
    ("canonical_slash", 1e6): 3.9894228040143268e-7,
    ("slash_2", 1e6): 5.0000000000000000e-13,
    ("slash_4.5", 1e3): 6.8248901533018345e-14,
}

# (name, s) -> survival near s = 0
CENTRE_TAIL_POINTS = {
    ("student_t_1.5", 1e-9): 0.49999999965926502,
    ("student_t_1.5", 1e-6): 0.49999965926501871,
    ("student_t_1.5", 2.7e-4): 0.49990800155691502,
    ("student_t_1.5", 0.01): 0.49659274483146001,
    ("student_t_1.5", 0.3): 0.40023609840179243,
    ("student_t_1.5", 0.49): 0.34310374148371771,
    ("student_t_4", 1e-9): 0.49999999962500000,
    ("student_t_4", 1e-6): 0.49999962500000000,
    ("student_t_4", 2.7e-4): 0.49989875000153773,
    ("student_t_4", 0.01): 0.49625007812294927,
    ("student_t_4", 0.3): 0.38956071413872985,
    ("student_t_4", 0.49): 0.32489704107570718,
}

# (name, p) -> quantile, for the families solved by Newton iteration
QUANTILE_POINTS = {
    ("power_exponential_1.5", 0.001): -3.5384788334602908,
    ("power_exponential_1.5", 0.3): -0.46331338528063264,
    ("power_exponential_1.5", 0.77): 0.66988345917338463,
    ("power_exponential_1.5", 0.999999): 6.0879068691305784,
    ("student_t_4", 0.001): -7.1731822197823085,
    ("student_t_4", 0.3): -0.56864906304970544,
    ("student_t_4", 0.77): 0.81659607220217393,
    ("student_t_4", 0.999999): 41.577854150450975,
    ("logistic_i", 0.001): -2.3800525476807102,
    ("logistic_i", 0.3): -0.54127943264054159,
    ("logistic_i", 0.77): 0.73828995571138559,
    ("logistic_i", 0.999999): 3.4968648565197960,
    ("canonical_slash", 0.001): -398.94228040143268,
    ("canonical_slash", 0.3): -1.1019615643274747,
    ("canonical_slash", 0.77): 1.6433695909030956,
    ("canonical_slash", 0.999999): 398942.28040143268,
    ("slash_2", 0.001): -22.360679774997897,
    ("slash_2", 0.3): -0.79984972900953033,
    ("slash_2", 0.77): 1.1472294389225874,
    ("slash_2", 0.999999): 707.10678118654752,
}

# (name, z) -> (weight, dweight_dz)
WEIGHT_POINTS = {
    ("normal", 0.35): (1.0000000000000000, 0.0),
    ("normal", 2.3): (1.0000000000000000, 0.0),
    ("double_exponential", 0.35): (4.0406101782088430, -11.544600509168123),
    ("double_exponential", 2.3): (0.61487546190134567, -0.26733715734841116),
    ("power_exponential_0.8", 0.35): (5.3157704772951602, -18.225498779297692),
    ("power_exponential_0.8", 2.3): (0.55510414575528408, -0.28961955430710474),
    ("power_exponential_1.5", 0.35): (2.0198302313535772, -2.8854717590765389),
    ("power_exponential_1.5", 2.3): (0.78792516672406802, -0.17128807972262348),
    ("power_exponential_3", 0.35): (0.23946672520191499, 0.68419064343404283),
    ("power_exponential_3", 2.3): (1.5736384798982985, 0.68419064343404283),
    ("cauchy", 0.35): (1.7817371937639198, -1.1111055996746048),
    ("cauchy", 2.3): (0.31796502384737679, -0.23253403969760465),
    ("student_t_1.5", 0.35): (1.5408320493066256, -0.66476575316772752),
    ("student_t_1.5", 2.3): (0.36818851251840943, -0.24943551658095484),
    ("student_t_4", 0.35): (1.2128562765312310, -0.20594284865296828),
    ("student_t_4", 2.3): (0.53821313240043057, -0.26649950581722073),
    ("logistic_i", 0.35): (0.12234704072832387, 0.69738046028437883),
    ("logistic_i", 2.3): (1.9799341262859038, 0.091839983903745993),
    ("logistic_ii", 0.35): (0.49495759381331462, -0.028465153623755477),
    ("logistic_ii", 2.3): (0.35554525129142945, -0.082567877091281373),
    ("canonical_slash", 0.35): (0.49489615244816687, -0.029161196452394294),
    ("canonical_slash", 2.3): (0.30163936546844548, -0.13952701836033329),
    ("slash_1", 0.35): (0.49489615244816687, -0.029161196452394294),
    ("slash_1", 2.3): (0.30163936546844548, -0.13952701836033329),
    ("slash_2", 0.35): (0.59578873886542229, -0.024127707776190072),
    ("slash_2", 2.3): (0.41349175042752228, -0.15233482587667551),
    ("slash_4.5", 0.35): (0.73079916594770484, -0.014552523914349040),
    ("slash_4.5", 2.3): (0.60351507963787627, -0.12703425257621142),
}


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


# ---------------------------------------------------------------------------
# Generator values.

@pytest.mark.parametrize("name", sorted(GENERATOR_POINTS))
def test_generator_against_mpmath(name):
    fam = FAMS[name]
    for ukey, (r_exp, dr_exp) in GENERATOR_POINTS[name].items():
        u = float(ukey)
        ev = eval_generator(fam, u)
        assert rel_err(float(ev.r), r_exp) < 5e-13
        z = math.sqrt(u)
        if dr_exp is None:
            with pytest.raises(ValueError, match="singular"):
                weight_function(fam, z)
        elif dr_exp == 0.0:
            assert weight_function(fam, z) == 0.0
        else:
            assert rel_err(weight_function(fam, z), -2.0 * dr_exp / r_exp) < 1e-12


@pytest.mark.parametrize("name", sorted(FAMS))
def test_generator_normalizes_to_one(name):
    fam = FAMS[name]

    def density(t):
        return eval_generator(fam, t * t).r

    res = integrate(density, -np.inf, np.inf)
    assert abs(res.value - 1.0) < 1e-9


@pytest.mark.parametrize("name", sorted(FAMS))
def test_log_r_matches_r(name):
    u = np.array([0.0, 1e-9, 0.07, 0.49999, 0.50001, 0.99, 1.01, 5.0, 120.0])
    ev = eval_generator(FAMS[name], u)
    assert np.allclose(np.exp(ev.log_r), ev.r, rtol=1e-13, atol=0.0)


def test_generator_reductions():
    u = np.array([0.0, 0.02, 0.5, 1.7, 9.0, 80.0])
    # the first u at which w and w' are compared: the Laplace pair is
    # singular at z = 0
    pairs = [
        (DensityFamily.power_exponential(2.0), DensityFamily.normal(), 0),
        (DensityFamily.power_exponential(1.0), DensityFamily.double_exponential(), 1),
        (DensityFamily.slash(1.0), DensityFamily.canonical_slash(), 0),
    ]
    for special, plain, first in pairs:
        a = eval_generator(special, u)
        b = eval_generator(plain, u)
        assert np.allclose(a.r, b.r, rtol=1e-12)
        assert np.allclose(a.log_r, b.log_r, rtol=1e-12, atol=1e-12)
        z = np.sqrt(u[first:])
        for f in (weight_function, weight_derivative):
            assert np.allclose(f(special, z), f(plain, z), rtol=1e-11, atol=0.0)


def test_generator_rejects_negative_argument():
    with pytest.raises(ValueError):
        eval_generator(FAMS["normal"], np.array([0.5, -1e-9]))


def test_generator_shape_contract():
    ev = eval_generator(FAMS["cauchy"], np.ones((2, 3)))
    assert ev.r.shape == (2, 3)
    scalar = eval_generator(FAMS["cauchy"], 1.0)
    assert scalar.r.shape == ()


def test_every_generator_field_is_read_outside_families():
    # a field no other module of the package reads is work no caller uses
    package = Path(eval_generator.__code__.co_filename).parent
    fields = {f.name for f in dataclasses.fields(GeneratorEval)}
    read = set()
    for path in package.glob("*.py"):
        if path.name != "families.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert sorted(fields - read) == []


def test_logistic_i_normalizer_matches_literature_value():
    derived = logistic_i_normalizer()
    assert rel_err(derived, 1.4843000268115582) < 1e-12
    assert abs(derived - LOGISTIC_I_NORMALIZER) < 3e-9


# ---------------------------------------------------------------------------
# cdf / survival.

@pytest.mark.parametrize("name", sorted(CDF_POINTS))
def test_cdf_against_quadrature_oracle(name):
    fam = FAMS[name]
    for skey, expected in CDF_POINTS[name].items():
        got = symmetric_cdf(fam, float(skey))
        assert rel_err(got, expected) < 5e-13


@pytest.mark.parametrize("name,s", sorted((n, s) for (n, s) in TAIL_POINTS))
def test_deep_tail_survival(name, s):
    expected = TAIL_POINTS[(name, s)]
    got = symmetric_survival(FAMS[name], s)
    assert rel_err(got, expected) < 1e-12


@pytest.mark.parametrize("name,s", sorted(CENTRE_TAIL_POINTS))
def test_student_t_survival_near_the_centre(name, s):
    # the tail near s = 0 must not keep only the bits of a rounded tau / (tau + s^2)
    expected = CENTRE_TAIL_POINTS[(name, s)]
    assert rel_err(symmetric_survival(FAMS[name], s), expected) < 5e-15


# power-decay families whose s^2 overflows before their tail underflows
HEAVY = ("student_t_1.5", "student_t_4", "canonical_slash", "slash_1", "slash_2", "slash_4.5")


def heavy_tail_leading_term(name, s):
    """P(S > s) to leading order in 1/s, from the closed forms."""
    fam = FAMS[name]
    if fam.kind is FamilyKind.STUDENT_T:
        # I_x(a, 1/2) / 2 with x = tau / s^2, a = tau / 2
        a = 0.5 * fam.extra
        log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
        log_lead = a * (math.log(fam.extra) - 2.0 * math.log(s)) - math.log(2.0 * a) - log_beta
    else:
        # s r(s^2) / q with r(s^2) ~ q 2^(q/2 - 1) Gamma((q + 1)/2) / (sqrt(pi) s^(q + 1))
        q = fam.extra or 1.0
        log_lead = (0.5 * q - 1.0) * math.log(2.0) + math.lgamma(0.5 * (q + 1.0)) - 0.5 * math.log(math.pi) - q * math.log(s)
    return math.exp(log_lead) if log_lead > -745.0 else 0.0


@pytest.mark.parametrize("name", HEAVY)
def test_heavy_tail_survival_where_s_squared_overflows(name):
    for s in (1e155, 1e200, 1e300):
        expected = heavy_tail_leading_term(name, s)
        got = symmetric_survival(FAMS[name], s)
        if expected < 1e-300:
            assert got <= 1e-300
        else:
            assert rel_err(got, expected) < 1e-12


@pytest.mark.parametrize("name", HEAVY)
def test_heavy_tail_quantile_round_trip_far_out(name):
    fam = FAMS[name]
    p = np.array([1e-300, 1e-200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = symmetric_quantile(fam, p)
        back = symmetric_cdf(fam, q)
    assert np.all(np.isfinite(q)) and np.all(np.abs(back - p) / p < 1e-9)


@pytest.mark.parametrize("name", sorted(FAMS))
def test_cdf_limits(name):
    fam = FAMS[name]
    assert symmetric_cdf(fam, np.inf) == 1.0
    assert symmetric_cdf(fam, -np.inf) == 0.0
    assert symmetric_survival(fam, np.inf) == 0.0
    assert symmetric_survival(fam, -np.inf) == 1.0
    assert symmetric_cdf(fam, 0.0) == 0.5


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMS)),
    s=st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)
def test_cdf_survival_symmetry(name, s):
    fam = FAMS[name]
    # negation symmetry is exact by construction
    assert symmetric_cdf(fam, -s) == symmetric_survival(fam, s)
    assert abs(symmetric_cdf(fam, s) + symmetric_survival(fam, s) - 1.0) < 1e-15


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMS)),
    a=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    b=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
def test_cdf_monotone(name, a, b):
    lo, hi = min(a, b), max(a, b)
    fam = FAMS[name]
    # the type I logistic cdf switches evaluation branch at |s| = 2, which
    # may cost one part in 1e15 of continuity
    assert symmetric_cdf(fam, hi) >= symmetric_cdf(fam, lo) - 1e-14


# ---------------------------------------------------------------------------
# Quantiles.

@pytest.mark.parametrize("name,p", sorted(QUANTILE_POINTS))
def test_quantile_against_bisection_oracle(name, p):
    expected = QUANTILE_POINTS[(name, p)]
    got = symmetric_quantile(FAMS[name], p)
    assert rel_err(got, expected) < 5e-10


@pytest.mark.parametrize("name", sorted(FAMS))
def test_quantile_round_trip(name):
    fam = FAMS[name]
    p = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.77, 1 - 1e-6, 1 - 1e-12])
    q = symmetric_quantile(fam, p)
    assert np.max(np.abs(symmetric_cdf(fam, q) - p)) < 1e-12
    # relative accuracy in the upper tail, via the survival function
    t = np.array([1e-15, 1e-10, 1e-5])
    q = symmetric_quantile(fam, 1.0 - t)
    tt = 1.0 - (1.0 - t)  # what the quantile actually saw
    assert np.max(np.abs(symmetric_survival(fam, q) - tt) / tt) < 1e-9


@pytest.mark.parametrize("name", sorted(FAMS))
def test_quantile_center_and_antisymmetry(name):
    fam = FAMS[name]
    assert symmetric_quantile(fam, 0.5) == 0.0
    # 0.25 and 0.75 are exact binary complements
    assert symmetric_quantile(fam, 0.25) == -symmetric_quantile(fam, 0.75)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMS)),
    a=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    b=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
def test_quantile_monotone(name, a, b):
    lo, hi = min(a, b), max(a, b)
    fam = FAMS[name]
    assert symmetric_quantile(fam, hi) >= symmetric_quantile(fam, lo) - 1e-12


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, np.nan])
def test_quantile_rejects_bad_probability(bad):
    with pytest.raises(ValueError):
        symmetric_quantile(FAMS["normal"], bad)


# ---------------------------------------------------------------------------
# Weight function and derivative.

@pytest.mark.parametrize("name,z", sorted(WEIGHT_POINTS))
def test_weight_against_mpmath(name, z):
    w_exp, dw_exp = WEIGHT_POINTS[(name, z)]
    fam = FAMS[name]
    assert rel_err(weight_function(fam, z), w_exp) < 1e-12
    got = weight_derivative(fam, z)
    if dw_exp == 0.0:
        assert abs(got) < 1e-15
    else:
        assert rel_err(got, dw_exp) < 1e-11


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(FAMS)),
    mag=st.floats(min_value=0.2, max_value=45.0),
    negate=st.booleans(),
)
def test_weight_matches_generator_ratio(name, mag, negate):
    # d/dz log r(z^2) = 2 z r'(z^2) / r(z^2) = -z w(z), by a central
    # difference of log r; below |z| = 0.2 the step's error grows
    z = -mag if negate else mag
    fam = FAMS[name]
    zp, zm = z + 1e-5 * mag, z - 1e-5 * mag
    log_r = eval_generator(fam, np.array([zp * zp, zm * zm])).log_r
    expected = -(log_r[0] - log_r[1]) / ((zp - zm) * z)
    assert rel_err(weight_function(fam, z), expected) < 5e-7


@pytest.mark.parametrize("name", sorted(FAMS))
def test_weight_derivative_matches_finite_difference(name):
    fam = FAMS[name]
    # grid straddles every series/direct switchover in the implementation
    z = np.array([-2.3, -0.999, -0.051, 0.049, 0.35, 0.699, 0.701, 1.001, 3.7])
    h = 1e-6 * (1.0 + np.abs(z))
    fd = (weight_function(fam, z + h) - weight_function(fam, z - h)) / (2.0 * h)
    got = weight_derivative(fam, z)
    assert np.allclose(got, fd, rtol=5e-7, atol=1e-9)


@pytest.mark.parametrize("name", sorted(FAMS))
def test_generator_decay_matches_generator(name):
    # tails derives every tail index and form from this one fact, so check
    # it against the generator itself at two points deep in the tail
    fam = FAMS[name]
    decay = generator_decay(fam)
    if decay[0] == "power":
        z1, z2 = 1e4, 1e6
        log_r = eval_generator(fam, np.array([z1, z2]) ** 2).log_r
        slope = (log_r[1] - log_r[0]) / np.log(z2 / z1)
        assert rel_err(-slope, decay[1]) < 1e-8
    else:
        assert decay[0] == "exp"
        _, c, e = decay
        z1, z2 = 20.0, 40.0
        log_r = eval_generator(fam, np.array([z1, z2]) ** 2).log_r
        rate = (log_r[1] - log_r[0]) / (z2**e - z1**e)
        assert rel_err(-rate, c) < 1e-8


def test_weight_singularities_raise():
    singular = [FAMS["double_exponential"], FAMS["power_exponential_1.5"]]
    for fam in singular:
        with pytest.raises(ValueError):
            weight_function(fam, np.array([0.3, 0.0]))
        with pytest.raises(ValueError):
            weight_derivative(fam, 0.0)


def test_weight_smooth_families_at_zero():
    assert weight_function(FAMS["normal"], 0.0) == 1.0
    assert abs(weight_function(DensityFamily.power_exponential(2.0), 0.0) - 1.0) < 1e-14
    assert weight_function(DensityFamily.power_exponential(4.0), 0.0) == 0.0
    assert weight_function(FAMS["cauchy"], 0.0) == 2.0
    assert weight_function(FAMS["student_t_4"], 0.0) == 1.25
    assert weight_function(FAMS["logistic_i"], 0.0) == 0.0
    # logistic II, canonical slash and slash(q) take their limits 1/2, 1/2
    # and (q + 1)/(q + 3), and w' its limit 0, in scalars and arrays alike
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, w0 in (("logistic_ii", 0.5), ("canonical_slash", 0.5), ("slash_2", 0.6), ("slash_4.5", 5.5 / 7.5)):
            fam = FAMS[name]
            assert rel_err(weight_function(fam, 0.0), w0) < 1e-15
            assert rel_err(weight_function(fam, np.array([0.3, 0.0]))[1], w0) < 1e-15
            assert weight_derivative(fam, 0.0) == 0.0
            assert weight_derivative(fam, np.array([0.0, -0.0, 0.3]))[:2].tolist() == [0.0, 0.0]
    # a jump in the weight derivative at zero is reported, not silently
    # evaluated
    with pytest.raises(ValueError):
        weight_derivative(DensityFamily.power_exponential(2.5), 0.0)


def test_slash_ratios_follow_the_lower_gamma_ratio():
    # one series at a + 2, then the downward recurrence: exact at x = 0, and
    # within twice the 5e-15 accuracy of the ratio of a direct evaluation on
    # both sides of its x = 15 switch
    x = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8], np.linspace(0.01, 20.0, 200)])
    for a in (0.75, 1.5, 2.75, 5.5):
        ladder = _slash_ratios(a, x, 2)
        assert [r[0] for r in ladder] == [1.0 / a, 1.0 / (a + 1.0), 1.0 / (a + 2.0)]
        for k, r in enumerate(ladder):
            direct = lower_gamma_ratio(a + k, x)
            assert np.all(np.abs(r - direct) <= 1e-14 * direct), (a, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("slash_1", "slash_2", "slash_4.5"):
            assert math.isnan(weight_function(FAMS[name], math.nan))
            assert math.isnan(weight_derivative(FAMS[name], math.nan))


def test_weight_limits_near_zero():
    # the smooth weights near zero approach their values at zero
    assert abs(weight_function(FAMS["logistic_ii"], 1e-8) - 0.5) < 1e-9
    assert abs(weight_function(FAMS["canonical_slash"], 1e-8) - 0.5) < 1e-9
    assert abs(weight_function(FAMS["slash_2"], 1e-8) - 0.6) < 1e-9


def test_weight_scalar_and_array_contract():
    fam = FAMS["student_t_4"]
    assert isinstance(weight_function(fam, 1.3), float)
    out = weight_function(fam, np.array([[1.0, 2.0]]))
    assert out.shape == (1, 2)


# ---------------------------------------------------------------------------
# Extreme arguments: limits, not NaN, and no floating-point warnings.

EXTREME_U = (1e154, 1e200, 1e308, 1.7e308, np.inf)
EXTREME_Z = tuple(sign * m for m in (1e77, 1e154, 1e200, 1e308, np.inf) for sign in (1.0, -1.0))

# |z| where the slash weight's ratios of lower incomplete gammas underflow,
# alone or to 0/0, so the asymptotic forms w = (q + 1)/z^2 and
# w' = -2 (q + 1)/z^3 take over
SLASH_FAR_W = {"slash_1": (), "slash_2": (1e70, 1e85, 1e100, 1e154), "slash_4.5": (1e77, 1e154)}
SLASH_FAR_DW = {"slash_1": (1e154,), "slash_2": (1e77, 1e154), "slash_4.5": (1e77, 1e154)}


@pytest.mark.parametrize("name", sorted(FAMS))
def test_extreme_arguments_give_limits_without_warnings(name):
    fam = FAMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev = eval_generator(fam, np.array(EXTREME_U))
        scalar_ev = [eval_generator(fam, u) for u in EXTREME_U]
        w = weight_function(fam, np.array(EXTREME_Z))
        dw = weight_derivative(fam, np.array(EXTREME_Z))
        scalar_w = [weight_function(fam, z) for z in EXTREME_Z]
        scalar_dw = [weight_derivative(fam, z) for z in EXTREME_Z]
        nan_ev = eval_generator(fam, np.nan)
    assert np.isnan(nan_ev.r) and np.isnan(nan_ev.log_r)
    for e in [ev] + scalar_ev:
        assert not np.any(np.isnan(e.r) | np.isnan(e.log_r))
    assert not np.any(np.isnan(w) | np.isnan(dw))
    assert list(w) == scalar_w
    assert list(dw) == scalar_dw


@pytest.mark.parametrize("name", sorted(SLASH_FAR_W))
def test_slash_weight_far_tail_asymptotic_forms(name):
    fam = FAMS[name]
    q = fam.extra
    for mag in SLASH_FAR_W[name]:
        for z in (mag, -mag):
            expected = (q + 1.0) / z / z
            assert abs(weight_function(fam, z) - expected) <= 1e-12 * abs(expected)
    for mag in SLASH_FAR_DW[name]:
        for z in (mag, -mag):
            expected = -2.0 * (q + 1.0) / z / z / z
            assert abs(weight_derivative(fam, z) - expected) <= 1e-12 * abs(expected)


# u where r underflows to 0 though log r is finite, after one u where r > 0;
# log r then falls like -(q + 1)/2 log u for slash(q), -log u for canonical
LOG_R_PAST_UNDERFLOW = {
    "slash_2": ((1e200, 1e250, 1e300), 1.5),
    "slash_4.5": ((1e100, 1e150, 1e200), 2.75),
    "canonical_slash": ((1e307, 1e308, 1.7e308), 1.0),
}


@pytest.mark.parametrize("name", sorted(LOG_R_PAST_UNDERFLOW))
def test_log_r_finite_where_r_underflows(name):
    u, decay = LOG_R_PAST_UNDERFLOW[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev = eval_generator(FAMS[name], np.array(u))
    assert ev.r[0] > 0.0 and np.all(ev.r[1:] == 0.0)
    assert np.all(np.isfinite(ev.log_r))
    slope = np.diff(ev.log_r) / np.diff(np.log(u))
    assert np.all(np.abs(slope + decay) <= 1e-10 * decay)


def _pe_weight_mp(tau, z):
    """w(z) = tau u^(tau/2 - 1) / (2 p^tau), u = z^2, in mpmath at 40 digits."""
    with mpmath.workdps(40):
        t, u = mpmath.mpf(tau), mpmath.mpf(z) ** 2
        # p(tau)^2 = 2^(-2/tau) Gamma(1/tau) / Gamma(3/tau)
        log_p = -mpmath.log(2) / t + (mpmath.loggamma(1 / t) - mpmath.loggamma(3 / t)) / 2
        return float(t * u ** (t / 2 - 1) / (2 * mpmath.exp(t * log_p)))


@pytest.mark.parametrize("tau", [5e-3, 1e-3])
def test_power_exponential_tiny_tau(tau):
    # the scale p(tau) underflows here while p^tau does not
    fam = DensityFamily.power_exponential(tau)
    s = np.array([0.0, 1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300, np.inf])
    z = np.array([-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail = symmetric_survival(fam, s)
        ev = eval_generator(fam, np.concatenate([[0.0], z[3:] ** 2]))
        w = weight_function(fam, z)
        w_mp = [_pe_weight_mp(tau, zi) for zi in z[3:]]
        dw = weight_derivative(fam, z)
        # the tail's slope is the density, the weight is -2 r'/r and w' is
        # the slope of w, each from its own formula
        s0, h = 1.0, 1e-6
        slope = (symmetric_survival(fam, s0 + h) - symmetric_survival(fam, s0 - h)) / (2.0 * h)
        density = float(eval_generator(fam, s0 * s0).r)
        dw_fd = (weight_function(fam, z + h * z) - weight_function(fam, z - h * z)) / (2.0 * h * z)
    assert tail[0] == 0.5 and tail[-1] == 0.0
    assert np.all((tail >= 0.0) & (tail <= 0.5)) and np.all(np.diff(tail) <= 0.0)
    assert rel_err(-slope, density) < 1e-6
    assert np.all(np.isfinite(ev.log_r)) and np.all(ev.r[1:] > 0.0)
    assert np.allclose(w[3:], w_mp, rtol=1e-12, atol=0.0)
    assert np.all(np.isfinite(w) & (w > 0.0)) and np.array_equal(w[:3], w[3:][::-1])
    assert np.allclose(dw, dw_fd, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("tau", [5e-3, 1e-3])
def test_power_exponential_tiny_tau_quantiles(tau):
    # nearly all the mass lies within 1e-200 of 0, so the quantiles do too
    fam = DensityFamily.power_exponential(tau)
    p = np.array([1e-10, 0.1, 0.4, 0.6, 0.9, 1.0 - 1e-10])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = symmetric_quantile(fam, p)
        lower = symmetric_cdf(fam, q[:3])
        upper = symmetric_survival(fam, q[3:])
    assert np.all(np.diff(q) > 0.0)
    assert np.all(np.abs(lower - p[:3]) / p[:3] < 1e-9)
    t = 1.0 - p[3:]  # what the quantile saw
    assert np.all(np.abs(upper - t) / t < 1e-9)


# ---------------------------------------------------------------------------
# DensityFamily construction.

def test_family_extra_validation():
    with pytest.raises(ValueError):
        DensityFamily(FamilyKind.NORMAL, 3.0)
    with pytest.raises(ValueError):
        DensityFamily(FamilyKind.STUDENT_T)
    with pytest.raises(ValueError):
        DensityFamily(FamilyKind.SLASH, -1.0)
    with pytest.raises(ValueError):
        DensityFamily(FamilyKind.POWER_EXPONENTIAL, np.inf)


def test_family_from_name_and_label():
    fam = DensityFamily.from_name("student-t", 4.0)
    assert fam.kind is FamilyKind.STUDENT_T
    assert fam.extra == 4.0
    assert fam.label() == "student_t(tau=4)"
    assert DensityFamily.from_name("normal").label() == "normal"
    assert DensityFamily.slash(2.0).extra_name == "q"
    with pytest.raises(ValueError):
        DensityFamily.from_name("triangular")


def test_from_name_resolves_names_aliases_and_default_extras():
    defaults = {FamilyKind.STUDENT_T: 4.0, FamilyKind.POWER_EXPONENTIAL: 2.0, FamilyKind.SLASH: 2.0}
    for kind in FamilyKind:
        value = kind.value
        for name in (value, value.replace("_", "-"), value.upper(), f"  {value.title()} "):
            fam = DensityFamily.from_name(name)
            assert fam.kind is kind
            assert fam.extra == defaults.get(kind)
    aliases = {
        "t": FamilyKind.STUDENT_T,
        "pe": FamilyKind.POWER_EXPONENTIAL,
        "cslash": FamilyKind.CANONICAL_SLASH,
    }
    for alias, kind in aliases.items():
        for name in (alias, alias.upper(), f" {alias} "):
            fam = DensityFamily.from_name(name)
            assert fam.kind is kind
            assert fam.extra == defaults.get(kind)
    assert DensityFamily.from_name("T", 5.0) == DensityFamily.student_t(5.0)
    assert DensityFamily.from_name("Pe", 1.5) == DensityFamily.power_exponential(1.5)
    with pytest.raises(ValueError, match="unknown family 'gauss'; choose from"):
        DensityFamily.from_name("gauss")
    with pytest.raises(ValueError, match="normal takes no extra parameter"):
        DensityFamily.from_name("normal", 3.0)
    with pytest.raises(ValueError, match="requires tau > 0"):
        DensityFamily.from_name("t", -1.0)
    with pytest.raises(ValueError):
        DensityFamily(FamilyKind.STUDENT_T)


def test_family_is_hashable_and_frozen():
    fam = DensityFamily.student_t(4.0)
    assert fam == DensityFamily.student_t(4.0)
    assert hash(fam) == hash(DensityFamily.student_t(4.0))
    with pytest.raises(Exception):
        fam.extra = 5.0


# ---------------------------------------------------------------------------
# One size rule: a point gives the same bits as a scalar, inside a 3-element
# array and inside an array longer than the special functions' _SMALL_N.

SIZE_POINTS = [v for x in (0.0, 5e-324, 0.3, 2.7e-4, 40.0, 1e200, np.inf) for v in (x, -x)] + [np.nan]


# a quantile's Newton start comes from a per-family table at every size;
# _TABLE_T[128] is a node of its log-t grid, 0.25 + 3/256 one of its t grid
SIZE_PROBABILITIES = [
    2.0**-54, 1e-300, 1e-4, 0.2, 0.25, 0.75, 0.4999, 0.5001, 1.0 - 2.0**-53,
    float(_TABLE_T[128]), 0.25 + 3.0 / 256.0,
]


@pytest.mark.parametrize("name", FAMS)
def test_quantiles_give_the_same_bits_at_any_size(name):
    fam = FAMS[name]
    filler = np.resize([0.3, 0.9, 0.01], _SMALL_N + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        long_out = symmetric_quantile(fam, np.concatenate([filler, SIZE_PROBABILITIES]))[filler.size:]
        for p, in_long in zip(SIZE_PROBABILITIES, long_out):
            scalar = symmetric_quantile(fam, p)
            assert isinstance(scalar, float)
            in_short = symmetric_quantile(fam, np.array([0.3, p, 0.9]))[1]
            for other in (in_short, in_long):
                assert np.float64(scalar).view(np.int64) == np.float64(other).view(np.int64), (p, scalar, other)


@pytest.mark.parametrize("fn", [symmetric_survival, symmetric_cdf])
@pytest.mark.parametrize("name", FAMS)
def test_tails_give_the_same_bits_at_any_size(name, fn):
    fam = FAMS[name]
    filler = np.resize([0.7, -1.2, 3.5], _SMALL_N + 1)
    long = np.concatenate([filler, SIZE_POINTS])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        long_out = fn(fam, long)[filler.size:]
        for s, in_long in zip(SIZE_POINTS, long_out):
            scalar = fn(fam, s)
            assert isinstance(scalar, float)
            in_short = fn(fam, np.array([0.7, s, -1.2]))[1]
            for other in (in_short, in_long):
                assert math.isnan(scalar) == math.isnan(other), (s, scalar, other)
                if not math.isnan(scalar):
                    assert np.float64(scalar).view(np.int64) == np.float64(other).view(np.int64), (s, scalar, other)
