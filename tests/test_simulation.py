"""Monte Carlo harness tests: type-I error study and parameter recovery."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bcsym.simulate as simulate
from bcsym.distribution import BcsParams
from bcsym.families import DensityFamily
from bcsym.gof import FitFailedError
from bcsym.simulate import (
    SimulationPlan,
    run_recovery_study,
    run_type1_study,
)

NORMAL = DensityFamily.normal()


def _plan(**kw):
    base = dict(
        family=NORMAL,
        true_params=BcsParams(1.0, 0.3, 0.0, NORMAL),
        sample_sizes=(30,),
        replicates=18,
        nominal_level=0.05,
        seed=101,
        derivative_mode="analytic",
    )
    base.update(kw)
    return SimulationPlan(**base)


# ---------------------------------------------------------------- plan checks


def test_plan_reports_every_issue_in_one_error():
    with pytest.raises(ValueError) as err:
        _plan(sample_sizes=(5,), replicates=0, nominal_level=1.5, derivative_mode="fd")
    msg = str(err.value)
    assert "sample sizes must be at least 10" in msg
    assert "replicates must be a positive integer" in msg
    assert "nominal level must lie strictly inside (0, 1)" in msg
    assert "derivative mode must be 'analytic', 'numeric' or 'both'" in msg
    assert msg.count(";") == 3


def test_plan_rejects_empty_sizes():
    with pytest.raises(ValueError, match="nonempty"):
        _plan(sample_sizes=())


def test_plan_rejects_noninteger_sizes():
    with pytest.raises(ValueError, match="sample sizes must be integers"):
        _plan(sample_sizes=("thirty",))


def test_plan_rejects_noninteger_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        _plan(seed=1.5)


def test_plan_coerces_float_sizes_to_ints():
    plan = _plan(sample_sizes=(30.0, 45.0))
    assert plan.sample_sizes == (30, 45)
    assert all(isinstance(n, int) for n in plan.sample_sizes)


def test_plan_modes_property():
    assert _plan(derivative_mode="analytic").modes == ("analytic",)
    assert _plan(derivative_mode="numeric").modes == ("numeric",)
    assert _plan(derivative_mode="both").modes == ("analytic", "numeric")


def test_type1_requires_lambda_zero_truth():
    plan = _plan(true_params=BcsParams(1.0, 0.3, 0.5, NORMAL))
    with pytest.raises(ValueError, match="lambda = 0 in the generating truth"):
        run_type1_study(plan)


# ------------------------------------------------------------- type-I study


def test_type1_shapes_and_aggregation():
    plan = _plan(sample_sizes=(20, 35), replicates=18, seed=7)
    res = run_type1_study(plan)
    assert set(res.cells) == {(20, "analytic"), (35, "analytic")}
    assert set(res.decisions) == set(res.cells)
    for key, cell in res.cells.items():
        outs = res.decisions[key]
        assert len(outs) == plan.replicates
        assert all(d in (True, False, None) for d in outs)
        converged = sum(1 for d in outs if d is not None)
        rejects = sum(1 for d in outs if d)
        assert cell.converged == converged
        assert cell.failed_fits == plan.replicates - converged
        assert cell.rejection_rate == rejects / converged
        assert cell.mc_std_error == math.sqrt(
            cell.rejection_rate * (1.0 - cell.rejection_rate) / converged
        )
        assert cell.n == key[0]
        assert cell.mode == key[1]


def test_type1_is_reproducible():
    plan = _plan(replicates=14, seed=29)
    first = run_type1_study(plan)
    second = run_type1_study(plan)
    assert first.cells == second.cells
    assert first.decisions == second.decisions


def test_type1_parallel_matches_sequential():
    plan = _plan(sample_sizes=(20,), replicates=12, seed=3)
    seq = run_type1_study(plan, workers=1)
    par = run_type1_study(plan, workers=3)
    assert seq.cells == par.cells
    assert seq.decisions == par.decisions


def test_importing_the_package_leaves_the_process_pool_out():
    # the pool (and multiprocessing under it) is imported only for workers > 1
    probe = "import sys, bcsym; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(simulate.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "False\n"


def test_type1_both_modes_agree_per_replicate():
    plan = _plan(sample_sizes=(25,), replicates=12, seed=13, derivative_mode="both")
    res = run_type1_study(plan)
    assert set(res.cells) == {(25, "analytic"), (25, "numeric")}
    assert res.decisions[(25, "analytic")] == res.decisions[(25, "numeric")]


def test_type1_rate_is_near_nominal_under_null():
    plan = _plan(sample_sizes=(40,), replicates=60, seed=11)
    res = run_type1_study(plan)
    cell = res.cells[(40, "analytic")]
    assert cell.failed_fits <= 2
    # a 5% test on null data should reject rarely; 60 replicates keeps this loose
    assert 0.0 <= cell.rejection_rate <= 0.2


def test_type1_counts_failed_fits_without_aborting(monkeypatch):
    def flaky(y, family, mode="analytic", fit_extra=False):
        i = int(round(float(np.sum(y)) * 1e6)) % 2  # arbitrary but deterministic
        if i == 0:
            raise FitFailedError("full", SimpleNamespace(message="stub"))
        return SimpleNamespace(p_value=0.01)

    monkeypatch.setattr(simulate, "lr_test_lambda_zero", flaky)
    plan = _plan(sample_sizes=(12,), replicates=10, seed=19)
    res = run_type1_study(plan)
    cell = res.cells[(12, "analytic")]
    outs = res.decisions[(12, "analytic")]
    assert cell.failed_fits == sum(1 for d in outs if d is None)
    assert 0 < cell.failed_fits < 10
    assert all(d is True for d in outs if d is not None)
    assert cell.rejection_rate == 1.0


def test_studies_count_out_of_range_draws_as_failed_replicates():
    # log-Cauchy at sigma = 1: replicate 6 of seed 0 draws a 0.0 or an inf
    cauchy = DensityFamily.cauchy()
    truth = BcsParams(1.0, 1.0, 0.0, cauchy)
    plan = _plan(family=cauchy, true_params=truth, sample_sizes=(100,), replicates=10, seed=0)
    res = run_type1_study(plan)
    assert res.cells[(100, "analytic")].failed_fits == 1
    assert res.decisions[(100, "analytic")][6] is None
    assert run_recovery_study(cauchy, truth, 100, 10, 0).failed_fits == 1


def test_type1_single_replicate_runs():
    plan = _plan(sample_sizes=(25,), replicates=1, seed=2)
    res = run_type1_study(plan)
    cell = res.cells[(25, "analytic")]
    assert cell.converged + cell.failed_fits == 1
    if cell.converged:
        assert cell.mc_std_error == 0.0 or cell.rejection_rate in (0.0, 1.0)
    else:
        assert math.isnan(cell.rejection_rate)


# ----------------------------------------------------------------- recovery


def test_recovery_validates_arguments():
    truth = BcsParams(2.0, 0.25, 0.5, NORMAL)
    with pytest.raises(ValueError, match="at least 10"):
        run_recovery_study(NORMAL, truth, n=5, replicates=10, seed=1)
    with pytest.raises(ValueError, match="positive integer"):
        run_recovery_study(NORMAL, truth, n=60, replicates=0, seed=1)


def test_recovery_normal_family():
    truth = BcsParams(2.0, 0.25, 0.5, NORMAL)
    res = run_recovery_study(NORMAL, truth, n=60, replicates=60, seed=5)
    assert res.n == 60
    assert res.replicates == 60
    assert set(res.parameters) == {"mu", "sigma", "lambda"}
    kept = res.replicates - res.failed_fits
    assert kept >= 50

    lam = res.parameters["lambda"]
    assert lam.truth == 0.5
    # mean estimate within 4 monte-carlo standard errors of the truth
    assert abs(lam.mean_estimate - 0.5) <= 4.0 * lam.empirical_sd / math.sqrt(kept)
    assert 0.80 <= lam.coverage95 <= 1.0
    assert lam.empirical_sd > 0.0
    # reported standard errors track the sampling spread to within a factor 2
    assert 0.5 <= lam.mean_std_error / lam.empirical_sd <= 2.0

    mu = res.parameters["mu"]
    assert abs(mu.mean_estimate - 2.0) <= 4.0 * mu.empirical_sd / math.sqrt(kept)
    assert 0.80 <= mu.coverage95 <= 1.0


def test_recovery_spread_shrinks_with_sample_size():
    truth = BcsParams(2.0, 0.25, 0.5, NORMAL)
    small = run_recovery_study(NORMAL, truth, n=60, replicates=50, seed=5)
    large = run_recovery_study(NORMAL, truth, n=240, replicates=50, seed=5)
    for name in ("mu", "sigma", "lambda"):
        assert large.parameters[name].empirical_sd < small.parameters[name].empirical_sd


def test_recovery_is_reproducible_and_parallel_safe():
    truth = BcsParams(2.0, 0.25, 0.5, NORMAL)
    a = run_recovery_study(NORMAL, truth, n=40, replicates=12, seed=23)
    b = run_recovery_study(NORMAL, truth, n=40, replicates=12, seed=23, workers=3)
    assert a == b


def test_recovery_with_a_free_extra_summarises_it_and_is_parallel_safe():
    fam = DensityFamily.student_t(4.0)
    truth = BcsParams(1.0, 0.3, 0.5, fam)
    a = run_recovery_study(fam, truth, n=200, replicates=4, seed=3, estimate_extra=True)
    b = run_recovery_study(fam, truth, n=200, replicates=4, seed=3, estimate_extra=True, workers=2)
    assert a == b
    assert a.failed_fits == 0
    assert list(a.parameters) == ["mu", "sigma", "lambda", "tau"]
    tau = a.parameters["tau"]
    assert tau.truth == 4.0
    assert all(math.isfinite(v) for v in (tau.mean_estimate, tau.empirical_sd, tau.mean_std_error))
    assert 0.0 <= tau.coverage95 <= 1.0


def test_recovery_t4_coverage_bands():
    # n=500, 500 replicates, extra held at the truth; interval coverage for
    # every parameter should sit near the nominal 95% (measured
    # 0.947 / 0.941 / 0.956 for this seed)
    fam = DensityFamily.student_t(4.0)
    truth = BcsParams(1.0, 1.0, 0.0, fam)
    res = run_recovery_study(fam, truth, n=500, replicates=500, seed=1)
    assert res.failed_fits <= 15
    for name in ("mu", "sigma", "lambda"):
        assert 0.92 <= res.parameters[name].coverage95 <= 0.98


def test_recovery_t4_lambda_mean_near_truth():
    # mean of the lambda estimates stays within 3 monte-carlo standard
    # errors of the generating value (measured ratio 2.68 for this seed;
    # the sampling distribution of the estimate is right-skewed)
    fam = DensityFamily.student_t(4.0)
    truth = BcsParams(1.0, 0.5, 0.5, fam)
    res = run_recovery_study(fam, truth, n=500, replicates=200, seed=2)
    kept = res.replicates - res.failed_fits
    lam = res.parameters["lambda"]
    assert abs(lam.mean_estimate - 0.5) <= 3.0 * lam.empirical_sd / math.sqrt(kept)
