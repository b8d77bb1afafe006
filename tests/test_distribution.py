"""Box-Cox symmetric distribution checks.

Frozen literals come from tests/oracles/gen_distribution.py: densities from
closed-form generators at 30 digits, cdf values by quadrature of those
generators on the symmetric scale, quantiles by 120-step bisection, moments
by quadrature against the exact density.  The y-space total-mass check in
that script guards the oracle itself.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcsym.distribution import (
    LAMBDA_SEAM,
    BcsParams,
    cdf,
    centile_cv,
    inverse_transform,
    log_pdf,
    log_symmetric_centile_cv,
    moment,
    pdf,
    power_transform_law,
    quantile,
    rescale,
    sample,
    survival,
    transform,
    truncation,
)
from bcsym import families
from bcsym.families import DensityFamily
from bcsym.quadrature import integrate
from bcsym.rng import RngStream
from bcsym.tails import tail_index

CASES = {
    "normal_pos": BcsParams(2.0, 0.5, 1.5, DensityFamily.normal()),
    "cauchy_zero": BcsParams(1.0, 1.0, 0.0, DensityFamily.cauchy()),
    "t4_neg": BcsParams(3.0, 0.3, -0.7, DensityFamily.student_t(4.0)),
    "slash2_pos": BcsParams(1.5, 0.8, 0.5, DensityFamily.slash(2.0)),
    "logii_pos": BcsParams(1.0, 0.4, 2.0, DensityFamily.logistic_ii()),
    "pe15_zero": BcsParams(5.0, 1.2, 0.0, DensityFamily.power_exponential(1.5)),
    "de_neg": BcsParams(2.0, 0.6, -1.2, DensityFamily.double_exponential()),
    "logi_pos": BcsParams(1.0, 0.7, 0.8, DensityFamily.logistic_i()),
    "cslash_one": BcsParams(1.0, 0.5, 1.0, DensityFamily.canonical_slash()),
}

PDF = {
    ("normal_pos", 0.5): 0.11113621225227212,
    ("normal_pos", 1.8): 0.40861911079045689,
    ("normal_pos", 3.2): 0.21868943279881382,
    ("cauchy_zero", 0.2): 0.44329267448323152,
    ("cauchy_zero", 1.0): 0.31830988618379067,
    ("cauchy_zero", 7.0): 0.009500096301921358,
    ("t4_neg", 2.0): 0.25327146181798468,
    ("t4_neg", 3.1): 0.39296218683334453,
    ("t4_neg", 9.0): 0.0057535175446160227,
    ("slash2_pos", 0.4): 0.30596946749656135,
    ("slash2_pos", 1.6): 0.23233417815920834,
    ("slash2_pos", 20.0): 0.00085001780516121569,
    ("logii_pos", 0.3): 0.17738105880109886,
    ("logii_pos", 1.1): 0.86940892259910251,
    ("logii_pos", 2.5): 0.011324212313963433,
    ("pe15_zero", 1.0): 0.11508411547450374,
    ("pe15_zero", 5.0): 0.079327775401191441,
    ("pe15_zero", 40.0): 0.0016111267510026506,
    ("de_neg", 1.0): 0.22773257689436655,
    ("de_neg", 2.2): 0.41555545825104213,
    ("de_neg", 30.0): 0.00024804768236316372,
    ("logi_pos", 0.5): 0.56911058171686963,
    ("logi_pos", 1.2): 0.51788108395350676,
    ("logi_pos", 3.0): 0.0030866711937626983,
    ("cslash_one", 0.3): 0.31599028383816753,
    ("cslash_one", 1.0): 0.49571951349226875,
    ("cslash_one", 10.0): 0.0030599969968658565,
}

CDF = {
    ("normal_pos", 0.5): 0.033518552946180602,
    ("normal_pos", 1.8): 0.3647923135102255,
    ("normal_pos", 3.2): 0.90525415614024053,
    ("cauchy_zero", 0.2): 0.17696737979873225,
    ("cauchy_zero", 1.0): 0.5,
    ("cauchy_zero", 7.0): 0.84889690869223362,
    ("t4_neg", 2.0): 0.096991848710317671,
    ("t4_neg", 3.1): 0.54283585714103841,
    ("t4_neg", 9.0): 0.97283815997635065,
    ("slash2_pos", 0.4): 0.1527207417185409,
    ("slash2_pos", 1.6): 0.48122017205418909,
    ("slash2_pos", 20.0): 0.98765538314008576,
    ("logii_pos", 0.3): 0.025832399854421787,
    ("logii_pos", 1.1): 0.44069300131369238,
    ("logii_pos", 2.5): 0.99818556702880839,
    ("pe15_zero", 1.0): 0.084698209767119963,
    ("pe15_zero", 5.0): 0.5,
    ("pe15_zero", 40.0): 0.95660082825787476,
    ("de_neg", 1.0): 0.042055753467021141,
    ("de_neg", 2.2): 0.64055528127120424,
    ("de_neg", 30.0): 0.99402914242484013,
    ("logi_pos", 0.5): 0.21102101631469886,
    ("logi_pos", 1.2): 0.59816765002094896,
    ("logi_pos", 3.0): 0.99949886993384954,
    ("cslash_one", 0.3): 0.078955626857751567,
    ("cslash_one", 1.0): 0.3787077255969777,
    ("cslash_one", 10.0): 0.97246002702820729,
}

QUANTILE = {
    ("normal_pos", 0.05): 0.63376686365855092,
    ("normal_pos", 0.5): 2.112985442565537,
    ("normal_pos", 0.95): 3.4525198831349648,
    ("cauchy_zero", 0.05): 0.0018112256382252594,
    ("cauchy_zero", 0.5): 1.0,
    ("cauchy_zero", 0.95): 552.11232598267038,
    ("t4_neg", 0.05): 1.7669693490789825,
    ("t4_neg", 0.5): 2.9946723667904028,
    ("t4_neg", 0.95): 6.7408737988080295,
    ("slash2_pos", 0.05): 0.085157421327478518,
    ("slash2_pos", 0.5): 1.6820205938369462,
    ("slash2_pos", 0.95): 8.0474884848598462,
    ("logii_pos", 0.05): 0.41197128011081061,
    ("logii_pos", 0.5): 1.1672157377463118,
    ("logii_pos", 0.95): 1.8884959011681894,
    ("pe15_zero", 0.05): 0.68808079442669986,
    ("pe15_zero", 0.5): 5.0,
    ("pe15_zero", 0.95): 36.332942588275069,
    ("de_neg", 0.05): 1.0331184751172444,
    ("de_neg", 0.5): 1.9403216895770013,
    ("de_neg", 0.95): 6.1667588576105481,
    ("logi_pos", 0.05): 0.17401739370817989,
    ("logi_pos", 0.5): 1.0137603429885899,
    ("logi_pos", 0.95): 2.0889270414079399,
    ("cslash_one", 0.05): 0.20289138966538832,
    ("cslash_one", 0.5): 1.249744934409593,
    ("cslash_one", 0.95): 5.9571951349226831,
}

MOMENT = {
    ("normal_pos", 1): 2.0883451943086379,
    ("normal_pos", 2): 5.0799637211501814,
    ("logii_pos", 1): 1.1610747726678857,
    ("pe15_zero", 1): 10.99270393090594,
    ("pe15_zero", 2): 1363.2284347489249,
    ("logi_pos", 1): 1.059154199243611,
    ("t4_neg", 0.5): 1.8752981354251652,
    ("de_neg", 1.0): 3.5352962276830382,
    ("cslash_one", 0.5): 1.2857978398778555,
}

NO_MOMENT = [
    ("cauchy_zero", 1),
    ("t4_neg", 1),
    ("t4_neg", 2),
    ("slash2_pos", 1),
    ("cslash_one", 1),
]


def rel_err(got, expected):
    return abs(got - expected) / abs(expected)


# ---------------------------------------------------------------------------
# Frozen-value checks.

@pytest.mark.parametrize("label,y", sorted(PDF))
def test_pdf_oracle(label, y):
    assert rel_err(pdf(CASES[label], y), PDF[(label, y)]) < 5e-13


@pytest.mark.parametrize("label,y", sorted(CDF))
def test_cdf_oracle(label, y):
    assert rel_err(cdf(CASES[label], y), CDF[(label, y)]) < 5e-13


@pytest.mark.parametrize("label,p", sorted(QUANTILE))
def test_quantile_oracle(label, p):
    assert rel_err(quantile(CASES[label], p), QUANTILE[(label, p)]) < 5e-13


@pytest.mark.parametrize("label,k", sorted(MOMENT))
def test_moment_oracle(label, k):
    res = moment(CASES[label], k)
    assert res.exists
    assert rel_err(res.value, MOMENT[(label, k)]) < 1e-9


@pytest.mark.parametrize("label,k", NO_MOMENT)
def test_moment_nonexistence(label, k):
    res = moment(CASES[label], k)
    assert not res.exists
    assert res.value == np.inf


def test_log_symmetric_moment_closed_forms():
    # log-normal: E[Y^k] = mu^k exp(k^2 sigma^2 / 2)
    params = BcsParams(2.0, 0.5, 0.0, DensityFamily.normal())
    for k in (1, 2, 3):
        expected = 2.0**k * np.exp(k * k * 0.25 / 2.0)
        assert rel_err(moment(params, k).value, expected) < 1e-9
    # log-double-exponential at sigma = 1: E[Y] = 2 mu
    params = BcsParams(1.0, 1.0, 0.0, DensityFamily.double_exponential())
    assert rel_err(moment(params, 1).value, 2.0) < 1e-9
    # and it stops existing at sigma >= sqrt(2)
    assert not moment(
        BcsParams(1.0, 1.5, 0.0, DensityFamily.double_exponential()), 1
    ).exists


def test_moment_validation():
    params = CASES["normal_pos"]
    with pytest.raises(ValueError):
        moment(params, 0.0)
    with pytest.raises(ValueError):
        moment(params, -1.0)
    with pytest.raises(TypeError):
        moment(params, "2")
    with pytest.raises(TypeError):
        moment(params, True)


# Moments over a grid of families, lambda and sigma: every moment the tail
# index admits comes back finite, without an exception or a warning, and
# E[Y^k]^(1/k) rises with k (Lyapunov's inequality).
GRID_FAMILIES = [
    DensityFamily.normal(),
    DensityFamily.double_exponential(),
    DensityFamily.power_exponential(1.5),
    DensityFamily.power_exponential(3.0),
    DensityFamily.cauchy(),
    DensityFamily.student_t(4.0),
    DensityFamily.student_t(1.5),
    DensityFamily.logistic_i(),
    DensityFamily.logistic_ii(),
    DensityFamily.canonical_slash(),
    DensityFamily.slash(2.0),
    DensityFamily.slash(0.5),
]
GRID_LAMBDAS = (-1.2, -0.6, -0.2, 0.0, 0.3, 0.9, 1.6)
GRID_SIGMAS = (0.2, 0.6, 1.3)
GRID_KS = (0.1, 0.5, 1.0, 2.0)


def _existing_ks(params):
    xi = tail_index(params)
    return [k for k in GRID_KS if xi == 0.0 or k * xi < 1.0]


@pytest.mark.parametrize("family", GRID_FAMILIES, ids=DensityFamily.label)
def test_every_existing_moment_on_the_grid_is_finite(family):
    for lam in GRID_LAMBDAS:
        for sigma in GRID_SIGMAS:
            params = BcsParams(1.7, sigma, lam, family)
            norms = [moment(params, k).value ** (1.0 / k) for k in _existing_ks(params)]
            assert all(np.isfinite(norms)), (lam, sigma, norms)
            assert all(b > a * (1.0 - 1e-9) for a, b in zip(norms, norms[1:])), (lam, sigma, norms)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(GRID_FAMILIES),
    lam=st.sampled_from(GRID_LAMBDAS),
    sigma=st.sampled_from(GRID_SIGMAS),
    k=st.sampled_from(GRID_KS),
    a=st.sampled_from((0.5, 2.0)),
)
def test_moment_of_a_power_is_a_moment_of_the_law(family, lam, sigma, k, a):
    # Y^a follows power_transform_law(params, a), so E[(Y^a)^(k/a)] = E[Y^k]
    params = BcsParams(1.7, sigma, lam, family)
    assume(k in _existing_ks(params))
    got = moment(power_transform_law(params, a), k / a)
    assert got.exists
    assert rel_err(got.value, moment(params, k).value) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(GRID_FAMILIES),
    lam=st.sampled_from(GRID_LAMBDAS),
    sigma=st.sampled_from(GRID_SIGMAS),
    k=st.sampled_from(GRID_KS),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_moment_of_a_rescaled_law_scales_by_c_to_the_k(family, lam, sigma, k, c):
    params = BcsParams(1.7, sigma, lam, family)
    assume(k in _existing_ks(params))
    got = moment(rescale(params, c), k)
    assert rel_err(got.value, c**k * moment(params, k).value) < 1e-13


# ---------------------------------------------------------------------------
# Transform pair.

@pytest.mark.parametrize("label", sorted(CASES))
def test_transform_round_trip(label):
    params = CASES[label]
    y = np.array([0.05, 0.4, 1.0, 2.7, 19.0]) * params.mu
    z = transform(params, y)
    back = inverse_transform(params, z)
    assert np.allclose(back, y, rtol=1e-12)


def test_transform_linear_case():
    # lambda = 1 is an affine map; the power goes through logs, so allow 1 ulp
    params = BcsParams(2.0, 0.5, 1.0, DensityFamily.normal())
    assert abs(transform(params, 3.0) - (3.0 / 2.0 - 1.0) / 0.5) < 5e-16
    # lambda = 0 is a log map
    params = BcsParams(2.0, 0.5, 0.0, DensityFamily.normal())
    assert transform(params, 2.0) == 0.0
    assert abs(transform(params, 2.0 * np.e) - 2.0) < 1e-14


def test_transform_rejects_nonpositive():
    params = CASES["normal_pos"]
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            transform(params, bad)
        with pytest.raises(ValueError):
            log_pdf(params, bad)
        with pytest.raises(ValueError):
            cdf(params, np.array([1.0, bad]))


def test_inverse_transform_rejects_outside_support():
    params = CASES["normal_pos"]  # lam = 1.5, support z > -1/(0.5*1.5)
    edge = -1.0 / (0.5 * 1.5)
    with pytest.raises(ValueError):
        inverse_transform(params, edge - 0.01)
    ok = inverse_transform(params, edge + 1e-6)
    assert ok > 0.0


def test_transform_scalar_array_contract():
    params = CASES["de_neg"]
    assert isinstance(transform(params, 2.0), float)
    out = transform(params, np.array([[1.0, 2.0]]))
    assert out.shape == (1, 2)


# ---------------------------------------------------------------------------
# cdf / survival / quantile coherence.

@pytest.mark.parametrize("label", sorted(CASES))
def test_cdf_survival_complement(label):
    params = CASES[label]
    y = np.array([0.2, 0.9, 1.7, 6.0]) * params.mu
    assert np.all(np.abs(cdf(params, y) + survival(params, y) - 1.0) < 1e-14)


@pytest.mark.parametrize("label", sorted(CASES))
def test_quantile_round_trip(label):
    params = CASES[label]
    p = np.array([1e-10, 1e-4, 0.2, 0.5, 0.8, 1.0 - 1e-4, 1.0 - 1e-10])
    y = quantile(params, p)
    # log-scale heavy tails overflow/underflow the float range at extreme p;
    # the saturated probes are dropped, the rest must round-trip
    ok = np.isfinite(y) & (y > 0.0)
    assert ok.sum() >= 3
    assert np.all(np.diff(y[ok]) > 0.0)
    assert np.max(np.abs(cdf(params, y[ok]) - p[ok])) < 1e-10


@pytest.mark.parametrize("label", sorted(CASES))
def test_upper_tail_relative_round_trip(label):
    params = CASES[label]
    if params.lam < 0.0:
        # representing 1-p caps upper-tail relative accuracy here; the
        # absolute check above still applies
        return
    t = np.array([1e-12, 1e-8, 1e-5])
    y = quantile(params, 1.0 - t)
    teff = 1.0 - (1.0 - t)
    ok = np.isfinite(y)
    # the log-Cauchy upper tail leaves the double range at these masses;
    # saturation to +inf is the honest answer there
    assert np.all(y[~ok] == np.inf)
    if ok.any():
        rel = np.abs(survival(params, y[ok]) - teff[ok]) / teff[ok]
        assert np.max(rel) < 1e-9


def test_quantile_rejects_bad_probability():
    params = CASES["normal_pos"]
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            quantile(params, bad)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(sorted(CASES)),
    a=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    b=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_quantile_monotone(label, a, b):
    lo, hi = min(a, b), max(a, b)
    params = CASES[label]
    assert quantile(params, hi) >= quantile(params, lo)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(sorted(CASES)),
    g1=st.floats(min_value=0.01, max_value=50.0),
    g2=st.floats(min_value=0.01, max_value=50.0),
)
def test_cdf_monotone(label, g1, g2):
    params = CASES[label]
    lo, hi = min(g1, g2), max(g1, g2)
    assert cdf(params, hi * params.mu) >= cdf(params, lo * params.mu) - 1e-14


# ---------------------------------------------------------------------------
# Normalization by quadrature (light-tailed cases integrate cleanly in y).

@pytest.mark.parametrize("label", ["normal_pos", "logii_pos", "de_neg", "logi_pos", "t4_neg"])
def test_density_integrates_to_one(label):
    params = CASES[label]
    # the generator seam sits at y == mu; declare it as a breakpoint
    res = integrate(lambda y: pdf(params, y), 1e-300, np.inf, breakpoints=(params.mu,))
    assert abs(res.value - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# Truncation bookkeeping.

def test_truncation_info():
    info = truncation(CASES["cauchy_zero"])
    assert info.edge == np.inf
    assert info.normalizer == 1.0
    assert info.complement == 0.0
    assert info.log_normalizer == 0.0

    params = CASES["slash2_pos"]  # sigma=0.8, lam=0.5
    info = truncation(params)
    assert abs(info.edge - 2.5) < 1e-15
    assert info.normalizer + info.complement == 1.0
    assert abs(info.log_normalizer - np.log1p(-info.complement)) < 1e-16
    assert 0.5 < info.normalizer < 1.0


def test_pdf_continuous_across_lambda_seam():
    # the lambda = 0 branch is the limit of the lambda != 0 branch
    fam = DensityFamily.cauchy()
    y = np.array([0.3, 1.0, 4.0])
    base = pdf(BcsParams(1.0, 1.0, 0.0, fam), y)
    near = pdf(BcsParams(1.0, 1.0, 1e-12, fam), y)
    assert np.allclose(near, base, rtol=1e-9)
    near = pdf(BcsParams(1.0, 1.0, -1e-12, fam), y)
    assert np.allclose(near, base, rtol=1e-9)
    assert LAMBDA_SEAM == 1e-8


# ---------------------------------------------------------------------------
# Sampling.

def test_sample_deterministic_and_sliceable():
    params = CASES["logii_pos"]
    a = sample(params, 50, RngStream(11, 4))
    b = sample(params, 50, RngStream(11, 4))
    assert np.array_equal(a, b)
    tail = sample(params, 30, RngStream(11, 4), start=20)
    assert np.array_equal(a[20:], tail)


@pytest.mark.parametrize("label", sorted(CASES))
def test_sample_matches_cdf(label):
    params = CASES[label]
    draws = sample(params, 20000, RngStream(20260816, 7))
    # deep log-Cauchy draws saturate at 0/inf outside the double range
    assert not np.any(np.isnan(draws))
    assert np.all(draws >= 0.0)
    grid = quantile(params, np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    emp = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    # DKW band at n = 20000 for a 1e-4 failure probability is ~0.016
    assert np.max(np.abs(emp - np.array([0.1, 0.3, 0.5, 0.7, 0.9]))) < 0.016


# Sampling inverts the tail from a cached inverse table, so a draw costs
# about 2.5 tail evaluations (4.5 to 6 from a cold start).  A work count, not
# a time: the elements each family's upper tail sees while 500 draws are made.
WORK_FAMILIES = [
    DensityFamily.power_exponential(1.5),
    DensityFamily.student_t(4.0),
    DensityFamily.logistic_i(),
    DensityFamily.canonical_slash(),
    DensityFamily.slash(2.0),
]


@pytest.mark.parametrize("family", WORK_FAMILIES, ids=DensityFamily.label)
def test_sampling_costs_at_most_three_tail_evaluations_a_draw(family, monkeypatch):
    params = BcsParams(1.0, 0.5, 0.5, family)
    sample(params, 5, RngStream(1, 0))  # builds the family's table
    spec = families._SPECS[family.kind]
    seen = []

    def counting(fam, s):
        seen.append(s.size)
        return spec.upper_tail(fam, s)

    monkeypatch.setitem(families._SPECS, family.kind, spec._replace(upper_tail=counting))
    for seed in (7303, 7304):
        sample(params, 500, RngStream(seed, 0))
    assert sum(seen) / 1000 <= 3.0


# ---------------------------------------------------------------------------
# Parameter laws.

def test_rescale_law():
    params = CASES["t4_neg"]
    scaled = rescale(params, 2.5)
    assert scaled.mu == 2.5 * params.mu
    y = np.array([1.0, 3.0, 8.0])
    assert np.allclose(cdf(scaled, 2.5 * y), cdf(params, y), rtol=1e-13)
    assert np.allclose(quantile(scaled, 0.7), 2.5 * quantile(params, 0.7), rtol=1e-13)
    with pytest.raises(ValueError):
        rescale(params, 0.0)


@pytest.mark.parametrize("a", [2.0, 0.5, -1.0, -0.3])
def test_power_transform_law(a):
    params = CASES["slash2_pos"]
    law = power_transform_law(params, a)
    assert law.mu == params.mu**a
    assert law.sigma == abs(a) * params.sigma
    assert law.lam == params.lam / a
    y = np.array([0.4, 1.1, 5.0])
    if a > 0:
        assert np.allclose(cdf(law, y**a), cdf(params, y), rtol=1e-12)
    else:
        # decreasing map swaps the tails
        assert np.allclose(cdf(law, y**a), survival(params, y), rtol=1e-12)
    with pytest.raises(ValueError):
        power_transform_law(params, 0.0)


def test_power_law_closes_lambda_zero():
    params = CASES["pe15_zero"]
    law = power_transform_law(params, 3.0)
    assert law.lam == 0.0
    y = 2.0
    assert abs(cdf(law, y**3) - cdf(params, y)) < 1e-14


# ---------------------------------------------------------------------------
# Centile CV.

def test_centile_cv_closed_form_at_lambda_zero():
    for label in ("cauchy_zero", "pe15_zero"):
        params = CASES[label]
        closed = log_symmetric_centile_cv(params.sigma, params.family)
        assert rel_err(centile_cv(params), closed) < 1e-12


def test_centile_cv_mu_invariant():
    params = CASES["pe15_zero"]
    a = centile_cv(params)
    b = centile_cv(rescale(params, 37.0))
    assert abs(a - b) < 1e-12 * abs(a)


def test_centile_cv_increases_with_sigma():
    fam = DensityFamily.normal()
    vals = [
        centile_cv(BcsParams(1.0, s, 0.7, fam)) for s in (0.1, 0.3, 0.6, 1.0)
    ]
    assert all(x < y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Parameter validation.

def test_params_validation():
    fam = DensityFamily.normal()
    with pytest.raises(ValueError):
        BcsParams(0.0, 1.0, 0.5, fam)
    with pytest.raises(ValueError):
        BcsParams(1.0, -1.0, 0.5, fam)
    with pytest.raises(ValueError):
        BcsParams(1.0, 1.0, np.inf, fam)
    with pytest.raises(TypeError):
        BcsParams(1.0, 1.0, 0.5, "normal")
    with pytest.raises(TypeError):
        BcsParams("1.0", 1.0, 0.5, fam)
    p = BcsParams(1, 1, 0, fam)  # ints are fine, stored as floats
    assert isinstance(p.mu, float) and isinstance(p.lam, float)


def test_numpy_real_scalars_are_accepted():
    fam = DensityFamily.normal()
    params = BcsParams(np.int64(2), np.float32(0.5), np.float64(1.5), fam)
    assert params == CASES["normal_pos"]
    assert all(type(v) is float for v in (params.mu, params.sigma, params.lam))
    assert moment(params, np.int64(1)).value == moment(params, 1).value
    assert moment(params, np.float32(2.0)).value == moment(params, 2).value
    for bad in (True, np.bool_(True), "2"):
        with pytest.raises(TypeError):
            BcsParams(bad, 0.5, 1.5, fam)
        with pytest.raises(TypeError):
            BcsParams(2.0, 0.5, bad, fam)


# ---------------------------------------------------------------------------
# Floating-point edges: the public functions resolve the limits at the ends
# of their ranges without a RuntimeWarning (the suite makes one an error),
# both one point at a time and as one array.

EDGE_Z = [s * m for m in (5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e300, np.inf) for s in (1.0, -1.0)]
EDGE_U = [0.0, 5e-324, 1.5e-323, 1e-300, 1e-10, 1.0, 1e10, 1e300, np.inf]
EDGE_P = [5e-324, 1e-300, 1e-100, 1e-10, 0.5, 1.0 - 1e-16]
EDGE_Y = [5e-324, 1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300, np.inf]


def _each_and_all(f, points):
    for x in points:
        f(x)
    f(np.array(points))


@pytest.mark.parametrize("family", GRID_FAMILIES, ids=DensityFamily.label)
def test_public_functions_at_floating_point_edges_do_not_warn(family):
    # no z = 0: some weights are singular or kinked there, and raise
    _each_and_all(lambda x: families.weight_function(family, x), EDGE_Z)
    _each_and_all(lambda x: families.weight_derivative(family, x), EDGE_Z)
    _each_and_all(lambda x: families.symmetric_survival(family, x), EDGE_Z)
    _each_and_all(lambda x: families.symmetric_cdf(family, x), EDGE_Z)
    _each_and_all(lambda x: families.eval_generator(family, x), EDGE_U)
    _each_and_all(lambda x: families.symmetric_quantile(family, x), EDGE_P)
    for lam in (-1.2, 0.0, 0.5, 1.6):
        for sigma in (0.2, 1.3):
            params = BcsParams(1.7, sigma, lam, family)
            for f in (log_pdf, pdf, cdf, survival, transform):
                _each_and_all(lambda y: f(params, y), EDGE_Y)
            _each_and_all(lambda p: quantile(params, p), EDGE_P)
            inside = [x for x in EDGE_Z if 1.0 + sigma * lam * x > 0.0]
            _each_and_all(lambda x: inverse_transform(params, x), inside)


def test_edge_values_are_the_limits():
    # the values at the edges the sweep above runs are the limits
    t4 = BcsParams(1.7, 0.2, 1.6, DensityFamily.student_t(4.0))
    assert log_pdf(t4, np.inf) == -np.inf and pdf(t4, np.inf) == 0.0
    log_cauchy = BcsParams(1.7, 0.2, 0.0, DensityFamily.cauchy())
    assert pdf(log_cauchy, 5e-324) == np.inf
    assert families.weight_derivative(DensityFamily.double_exponential(), 1e-300) == -np.inf
    assert families.symmetric_quantile(DensityFamily.cauchy(), 5e-324) == -np.inf
    cslash = DensityFamily.canonical_slash()
    r0 = families.eval_generator(cslash, 0.0).r
    for u in (5e-324, 1.5e-323):
        assert families.eval_generator(cslash, u).r == r0
