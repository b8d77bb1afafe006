"""End-to-end tests for the command-line interface."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcsym
from bcsym.cli import dumps_document, load_dataset, main
from bcsym.distribution import BcsParams, cdf, sample, transform, truncation
from bcsym.estimation import LikelihoodContext, _initial_sigma, fit
from bcsym.families import DensityFamily, FamilyKind
from bcsym.rng import RngStream


def _write_csv(path, values, column="value"):
    lines = [column] + [format(v, ".17g") for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _bct_csv(tmp_path, n=400, seed=7):
    params = BcsParams(2.0, 0.5, 0.5, DensityFamily.student_t(4.0))
    y = sample(params, n, RngStream(seed, 0))
    return _write_csv(tmp_path / "bct.csv", y), y


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _error_doc(err_text):
    doc = json.loads(err_text)
    assert doc["kind"] == "error"
    assert doc["schema_version"] == 1
    return doc["error"]


# ---------------------------------------------------------------- ingestion


def test_load_dataset_reads_named_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1.5,9\n2.5,9\n")
    ds = load_dataset(str(p), "a")
    assert np.array_equal(ds.values, [1.5, 2.5])
    assert ds.column == "a"
    assert ds.name == "d"
    assert ds.rejected_rows == 0


def test_load_dataset_rejects_nonpositive_without_flag(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\n1.0\n-3.0\n2.0\n")
    from bcsym.cli import CliError

    with pytest.raises(CliError) as err:
        load_dataset(str(p), "x")
    assert err.value.exit_code == 3
    assert "-3.0" in str(err.value)


def test_load_dataset_drop_nonpositive_counts(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x\n1.0\n-3.0\nabc\n\n0\n2.0\n")
    ds = load_dataset(str(p), "x", drop_nonpositive=True)
    assert np.array_equal(ds.values, [1.0, 2.0])
    assert ds.rejected_rows == 3  # the blank line is skipped, not counted


def test_load_dataset_skips_comment_lines(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# provenance\nvalue\n1.0\n2.0\n")
    ds = load_dataset(str(p), "value")
    assert ds.values.size == 2


def test_fit_empty_csv_is_ingestion_error(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("")
    code, out, err = _run(capsys, ["fit", str(p), "--column", "x", "--family", "normal"])
    assert code == 3
    assert _error_doc(err)["category"] == "ingestion"


def test_fit_missing_column_is_ingestion_error(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("a\n1.0\n")
    code, out, err = _run(capsys, ["fit", str(p), "--column", "x", "--family", "normal"])
    assert code == 3
    assert "not found" in _error_doc(err)["detail"]


def test_fit_unreadable_file_is_ingestion_error(tmp_path, capsys):
    code, out, err = _run(
        capsys, ["fit", str(tmp_path / "nope.csv"), "--column", "x", "--family", "normal"]
    )
    assert code == 3


# ---------------------------------------------------------------------- fit


def test_fit_bct_end_to_end(tmp_path, capsys):
    path, y = _bct_csv(tmp_path)
    code, out, err = _run(capsys, ["fit", path, "--column", "value", "--family", "t"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["kind"] == "fit-report"
    assert doc["family"] == "student_t(tau=4)"
    assert doc["fit"]["converged"] is True
    assert doc["fit"]["free_parameters"] == ["mu", "sigma", "lambda", "tau"]

    # the document must reproduce a direct library fit bit for bit
    direct = fit(LikelihoodContext(y, DensityFamily.student_t(4.0), fit_extra=True))
    assert doc["fit"]["estimates"] == direct.estimates
    assert doc["fit"]["std_errors"] == direct.std_errors
    assert doc["fit"]["loglik"] == direct.loglik
    assert all(math.isfinite(v) for v in doc["fit"]["std_errors"].values())

    stats = doc["descriptive"]
    assert stats["min"] == float(np.min(y))
    assert stats["max"] == float(np.max(y))
    assert stats["mean"] == float(np.mean(y))
    assert stats["sd"] == float(np.std(y, ddof=1))
    assert stats["q25"] == float(np.quantile(y, 0.25))
    assert list(stats) == ["min", "q25", "median", "mean", "sd", "q75", "max"]

    gof = doc["gof"]
    assert len(gof["quantile_residuals"]) == y.size
    assert gof["aic"] == doc["fit"]["aic"]


def test_fit_fix_lambda_zero_counts_three_free_parameters(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=200)
    code, out, err = _run(
        capsys,
        ["fit", path, "--column", "value", "--family", "t", "--fix-lambda", "0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"]["free_parameters"] == ["mu", "sigma", "tau"]
    assert doc["fit"]["aic"] == 2.0 * 3 - 2.0 * doc["fit"]["loglik"]
    assert "lambda" not in doc["fit"]["estimates"]


def test_fit_pe_tau_two_is_flagged_as_normal_equivalent(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=60)
    code, out, err = _run(
        capsys,
        ["fit", path, "--column", "value", "--family", "pe", "--tau", "2", "--no-extra"],
    )
    assert code == 0
    doc = json.loads(out)
    assert any("normal" in note for note in doc["notes"])
    assert doc["family"] == "power_exponential(tau=2)"


def test_fit_nonconvergence_still_emits_report(tmp_path, capsys):
    y = 1.0 + 1e-12 * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    path = _write_csv(tmp_path / "flat.csv", y)
    code, out, err = _run(capsys, ["fit", path, "--column", "value", "--family", "normal"])
    assert code == 4
    doc = json.loads(out)
    assert doc["fit"]["converged"] is False
    assert _error_doc(err)["category"] == "numeric"


def test_fit_too_few_rows_is_numeric_error(tmp_path, capsys):
    path = _write_csv(tmp_path / "tiny.csv", [1.0, 2.0, 3.0])
    code, out, err = _run(capsys, ["fit", path, "--column", "value", "--family", "normal"])
    assert code == 4
    assert "observations" in _error_doc(err)["detail"]


def test_fit_qq_out_writes_sorted_pairs(tmp_path, capsys):
    path, y = _bct_csv(tmp_path, n=80)
    qq_path = tmp_path / "qq.csv"
    code, out, err = _run(
        capsys,
        ["fit", path, "--column", "value", "--family", "t", "--qq-out", str(qq_path)],
    )
    assert code == 0
    lines = qq_path.read_text().strip().split("\n")
    assert lines[0] == "theoretical,empirical"
    pairs = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert pairs.shape == (80, 2)
    assert np.all(np.diff(pairs[:, 0]) > 0)
    assert np.all(np.diff(pairs[:, 1]) >= 0)


def test_fit_out_file_round_trips(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=60)
    out_path = tmp_path / "report.json"
    code, out, err = _run(
        capsys,
        ["fit", path, "--column", "value", "--family", "normal", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    # serialization is lossless: re-rendering the parsed document is identical
    assert dumps_document(doc) == out_path.read_text()


def test_fit_usage_errors(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=30)
    code, out, err = _run(capsys, ["fit", path, "--column", "value", "--family", "gauss"])
    assert code == 2
    assert "unknown family" in _error_doc(err)["detail"]
    code, out, err = _run(
        capsys, ["fit", path, "--column", "value", "--family", "normal", "--tau", "3"]
    )
    assert code == 2
    code, out, err = _run(
        capsys, ["fit", path, "--column", "value", "--family", "t", "--tau", "3", "--q", "2"]
    )
    assert code == 2


# ------------------------------------------------------------------ compare


def test_compare_bct_data_prefers_bct(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path)
    code, out, err = _run(
        capsys,
        ["compare", path, "--column", "value",
         "--families", "normal,t:4,cauchy,logistic_i"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["best"]["aic"] == "student_t(tau=4)"
    labels = [r["family"] for r in doc["rows"]]
    assert labels == ["normal", "student_t(tau=4)", "cauchy", "logistic_i"]
    t_row = next(r for r in doc["rows"] if r["family"] == "student_t(tau=4)")
    assert t_row["extra_estimate"] is not None
    # the human table marks the winner and goes to stderr
    assert "*" in err
    assert "student_t(tau=4)" in err


def test_compare_single_family_is_usage_error(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=30)
    code, out, err = _run(capsys, ["compare", path, "--column", "value", "--families", "normal"])
    assert code == 2
    assert "at least two" in _error_doc(err)["detail"]


def test_compare_all_failures_gives_blank_table_and_warning_exit(tmp_path, capsys):
    y = 1.0 + 1e-12 * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
    path = _write_csv(tmp_path / "flat.csv", y)
    code, out, err = _run(
        capsys, ["compare", path, "--column", "value", "--families", "normal,t:4"]
    )
    assert code == 4
    doc = json.loads(out.split("\n{")[0] if out.startswith("{") else out)
    assert all(not r["converged"] for r in doc["rows"])
    assert all(r["aic"] is None for r in doc["rows"])
    assert all(v is None for v in doc["best"].values())


def test_compare_constant_data_fails_every_family_cleanly(tmp_path, capsys):
    path = _write_csv(tmp_path / "constant.csv", np.full(20, 3.0))
    code, out, err = _run(
        capsys, ["compare", path, "--column", "value", "--families", "normal,t:4"]
    )
    assert code == 4
    assert "no requested family produced a converged fit" in err
    assert "Traceback" not in err
    assert all(not r["converged"] for r in json.loads(out)["rows"])


def _slash_walk_csv(tmp_path):
    # a free-q slash fit on this BCS-t4 sample walks toward the normal limit
    # until its score overflows
    y = sample(BcsParams(1.0, 0.3, 0.5, DensityFamily.student_t(4.0)), 100, RngStream(304, 0))
    return _write_csv(tmp_path / "walk.csv", y)


def _outlier_sample():
    # the seventh of nine adversarial samples drawn in this order from one
    # default_rng(12345): lognormal(0, 0.2), n = 49, plus one value of 1e6
    rng = np.random.default_rng(12345)
    rng.lognormal(0.0, 1.0, 50)
    rng.lognormal(0.0, 3.0, 50)
    rng.lognormal(0.0, 1.0, 5)
    rng.lognormal(2.0, 0.3, 60)
    rng.uniform(0.0, 1.0, 40)
    return np.append(rng.lognormal(0.0, 0.2, 49), 1e6)


def test_outlier_sample_fits_and_compare_end_without_raising(tmp_path, capsys):
    # from the default start these four fits walk mu toward 0 until mu^2
    # underflows in the observed information; the walk must end unconverged,
    # not raise ZeroDivisionError, and fit then restarts from the lambda = 0
    # optimum, whose maximum is higher
    y = _outlier_sample()
    path = _write_csv(tmp_path / "outlier.csv", y)
    families = "normal,double_exponential,pe,cauchy,t,logistic_i,logistic_ii,cslash,slash"
    fits = []
    for name in ("normal", "pe", "logistic_i", "logistic_ii"):
        family = DensityFamily.from_name(name)
        ctx = LikelihoodContext(y, family)
        default_start = BcsParams(float(np.median(y)), _initial_sigma(y, family), 1.0, family)
        fits.append((fit(ctx, init=default_start), fit(ctx)))
    code, out, err = _run(capsys, ["compare", path, "--column", "value", "--families", families])
    for walk, result in fits:
        assert not walk.converged and walk.message
        assert all(math.isnan(se) for se in walk.std_errors.values())
        assert result.converged and result.loglik > walk.loglik
    assert code in (0, 4)
    assert "Traceback" not in err
    assert len(json.loads(out)["rows"]) == 9


def test_compare_reports_overflowing_free_q_slash_as_unconverged(tmp_path, capsys):
    path = _slash_walk_csv(tmp_path)
    code, out, err = _run(
        capsys, ["compare", path, "--column", "value", "--families", "normal,slash:2"]
    )
    assert code == 0
    rows = {r["family"]: r for r in json.loads(out)["rows"]}
    assert rows["normal"]["converged"] is True
    assert rows["slash(q=2)"]["converged"] is False
    assert "Traceback" not in err


def test_fit_overflowing_free_q_slash_is_numeric_error(tmp_path, capsys):
    path = _slash_walk_csv(tmp_path)
    code, out, err = _run(capsys, ["fit", path, "--column", "value", "--family", "slash"])
    assert code == 4
    assert json.loads(out)["fit"]["converged"] is False
    error = _error_doc(err)
    assert error["category"] == "numeric"
    assert "score is not finite" in error["detail"]


def test_extra_defaults_cover_exactly_the_kinds_with_an_extra_parameter():
    defaulted = {k for k in FamilyKind if DensityFamily.from_name(k.value).extra is not None}
    assert defaulted == {k for k in FamilyKind if k.extra_name is not None}


def test_documents_keep_their_key_order(tmp_path, capsys):
    path, _ = _bct_csv(tmp_path, n=60)
    dataset_keys = ["name", "source_path", "column", "n", "rejected_rows"]
    code, out, _ = _run(capsys, ["fit", path, "--column", "value", "--family", "normal"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "schema_version", "kind", "dataset", "family", "notes", "fit", "gof", "descriptive",
    ]
    assert list(doc["dataset"]) == dataset_keys
    assert list(doc["fit"]) == [
        "converged", "mode", "free_parameters", "estimates", "std_errors",
        "loglik", "aic", "iterations", "gradient_norm", "message",
    ]
    assert list(doc["gof"]) == ["aic", "ad", "adr", "ad2r", "clamped", "quantile_residuals"]

    code, out, _ = _run(
        capsys, ["compare", path, "--column", "value", "--families", "normal,t:4"]
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "kind", "dataset", "rows", "best"]
    assert list(doc["dataset"]) == dataset_keys
    for row in doc["rows"]:
        assert list(row) == ["family", "converged", "extra_estimate", "aic", "ad", "adr", "ad2r"]
    assert list(doc["best"]) == ["aic", "ad", "adr", "ad2r"]


# ------------------------------------------------------------------- sample


def test_sample_is_deterministic(tmp_path, capsys):
    argv = ["sample", "--family", "t", "--tau", "4", "--mu", "2", "--sigma", "0.5",
            "--lambda", "0.5", "--n", "10", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0].startswith("# family=student_t(tau=4) mu=2 sigma=0.5 lambda=0.5")
    assert lines[1] == "value"
    assert len(lines) == 12


def test_sample_negative_lambda_draws_stay_inside_support(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["sample", "--family", "t", "--tau", "4", "--mu", "2", "--sigma", "0.4",
         "--lambda", "-0.5", "--n", "2000", "--seed", "11"],
    )
    assert code == 0
    y = np.array([float(v) for v in out.strip().split("\n")[2:]])
    params = BcsParams(2.0, 0.4, -0.5, DensityFamily.student_t(4.0))
    z = transform(params, y)
    assert np.all(z < truncation(params).edge)
    assert np.all(np.isfinite(y)) and np.all(y > 0)


def test_sample_ks_against_cdf_at_one_percent(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["sample", "--family", "t", "--tau", "4", "--mu", "1", "--sigma", "0.5",
         "--lambda", "0.5", "--n", "100000", "--seed", "42"],
    )
    assert code == 0
    y = np.array([float(v) for v in out.strip().split("\n")[2:]])
    params = BcsParams(1.0, 0.5, 0.5, DensityFamily.student_t(4.0))
    u = np.sort(cdf(params, y))
    i = np.arange(1, u.size + 1)
    d = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
    assert d < 1.62762 / math.sqrt(u.size)


def test_sample_round_trips_into_fit(tmp_path, capsys):
    out_path = tmp_path / "draws.csv"
    code, _, _ = _run(
        capsys,
        ["sample", "--family", "normal", "--mu", "2", "--sigma", "0.3", "--lambda", "1",
         "--n", "200", "--seed", "3", "--out", str(out_path)],
    )
    assert code == 0
    code, out, err = _run(
        capsys, ["fit", str(out_path), "--column", "value", "--family", "normal"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dataset"]["n"] == 200


def test_sample_invalid_parameters_are_usage_errors(capsys):
    code, out, err = _run(
        capsys,
        ["sample", "--family", "normal", "--mu", "1", "--sigma", "-1", "--lambda", "0",
         "--n", "5", "--seed", "1"],
    )
    assert code == 2
    assert _error_doc(err)["category"] == "usage"
    code, out, err = _run(
        capsys,
        ["sample", "--family", "normal", "--mu", "1", "--sigma", "1", "--lambda", "0",
         "--n", "0", "--seed", "1"],
    )
    assert code == 2


def test_sample_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BCSYM_SEED", "99")
    argv = ["sample", "--family", "normal", "--mu", "1", "--sigma", "0.5",
            "--lambda", "0", "--n", "6"]
    code, env_out, _ = _run(capsys, argv)
    assert code == 0
    assert "seed=99" in env_out.split("\n")[0]
    code, explicit_out, _ = _run(capsys, argv + ["--seed", "99"])
    assert env_out == explicit_out
    monkeypatch.setenv("BCSYM_SEED", "not-a-number")
    code, out, err = _run(capsys, argv)
    assert code == 2


# --------------------------------------------------------------------- tail


def test_tail_bct_paretian(capsys):
    code, out, _ = _run(
        capsys,
        ["tail", "--family", "t", "--tau", "4", "--mu", "1", "--sigma", "0.5",
         "--lambda", "0.5"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 0.5  # 1/(lambda*tau)
    assert doc["category"] == "paretian"
    assert doc["verify"] is None


def test_tail_normal_negative_lambda(capsys):
    code, out, _ = _run(
        capsys,
        ["tail", "--family", "normal", "--mu", "1", "--sigma", "0.3", "--lambda", "-2"],
    )
    doc = json.loads(out)
    assert doc["index"] == 0.5  # 1/|lambda|


def test_tail_verify_confirms_light_tail(capsys):
    code, out, _ = _run(
        capsys,
        ["tail", "--family", "normal", "--mu", "1", "--sigma", "0.3", "--lambda", "0.5",
         "--verify"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["category"] == "non_heavy"
    assert doc["verify"]["survival_slope"] < -10.0
    assert doc["verify"]["implied_index"] < 0.1


def test_tail_verify_reports_unprobeable_tail(capsys):
    code, out, _ = _run(
        capsys,
        ["tail", "--family", "cauchy", "--mu", "1", "--sigma", "1", "--lambda", "0",
         "--verify"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["category"] == "heavier_than_paretian"
    assert "error" in doc["verify"]


# ----------------------------------------------------------------- simulate


def test_simulate_lists_every_plan_issue(capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--family", "normal", "--sizes", "5", "--replicates", "0",
         "--level", "1.5", "--mode", "fd"],
    )
    assert code == 2
    detail = _error_doc(err)["detail"]
    assert "sample sizes must be at least 10" in detail
    assert "replicates must be a positive integer" in detail
    assert "nominal level must lie strictly inside (0, 1)" in detail
    assert "derivative mode" in detail


def test_simulate_rejects_nonzero_lambda_truth(capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--family", "normal", "--sizes", "20", "--replicates", "5",
         "--lambda", "0.4"],
    )
    assert code == 2
    assert "lambda = 0" in _error_doc(err)["detail"]


def test_simulate_workers_do_not_change_output(capsys):
    argv = ["simulate", "--family", "normal", "--sizes", "20", "--replicates", "6",
            "--seed", "4", "--mode", "both"]
    code1, out1, _ = _run(capsys, argv + ["--workers", "1"])
    code2, out2, _ = _run(capsys, argv + ["--workers", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [c["mode"] for c in doc["cells"]] == ["analytic", "numeric"]
    assert all(len(c["decisions"]) == 6 for c in doc["cells"])


def test_simulate_plan_file_with_inline_override(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "family": "normal", "mu": 1.0, "sigma": 0.5, "lambda": 0.0,
        "sizes": [20], "replicates": 4, "level": 0.05, "seed": 8, "mode": "analytic",
    }))
    code, out, _ = _run(capsys, ["simulate", "--plan", str(plan_path)])
    assert code == 0
    base = json.loads(out)
    assert base["plan"]["replicates"] == 4
    assert base["plan"]["seed"] == 8
    code, out, _ = _run(capsys, ["simulate", "--plan", str(plan_path), "--replicates", "6"])
    assert code == 0
    assert json.loads(out)["plan"]["replicates"] == 6


def test_simulate_checks_the_extra_parameter(tmp_path, capsys):
    code, out, err = _run(
        capsys,
        ["simulate", "--family", "t", "--q", "3", "--sizes", "20", "--replicates", "2"],
    )
    assert code == 2
    assert "student_t does not take --q" in _error_doc(err)["detail"]
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"family": "slash", "tau": 4, "sizes": [20], "replicates": 2}
    ))
    code, out, err = _run(capsys, ["simulate", "--plan", str(plan_path)])
    assert code == 2
    assert "slash does not take --tau" in _error_doc(err)["detail"]


def test_simulate_inline_extra_replaces_the_plan_extra(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(
        {"family": "t", "tau": 4, "sizes": [20], "replicates": 2, "seed": 3}
    ))
    code, out, _ = _run(capsys, ["simulate", "--plan", str(plan_path)])
    assert code == 0
    assert json.loads(out)["plan"]["family"] == "student_t(tau=4)"
    code, out, _ = _run(
        capsys, ["simulate", "--plan", str(plan_path), "--family", "slash", "--q", "3"]
    )
    assert code == 0
    assert json.loads(out)["plan"]["family"] == "slash(q=3)"


def test_simulate_rejects_unknown_plan_keys(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"family": "normal", "sizes": [20], "reps": 3}))
    code, out, err = _run(capsys, ["simulate", "--plan", str(plan_path)])
    assert code == 2
    assert "reps" in _error_doc(err)["detail"]


def test_simulate_malformed_plan_file(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("{not json")
    code, out, err = _run(capsys, ["simulate", "--plan", str(plan_path)])
    assert code == 3


def test_simulate_requires_family(capsys):
    code, out, err = _run(capsys, ["simulate", "--sizes", "20", "--replicates", "3"])
    assert code == 2
    assert "family" in _error_doc(err)["detail"]


# ----------------------------------------------------------- serialization


def test_json_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 1e-300, 6.02e23, -7.125, math.pi]
    text = dumps_document({"v": values})
    parsed = json.loads(text)
    assert parsed["v"] == values


def test_json_nonfinite_tokens():
    text = dumps_document({"a": math.nan, "b": math.inf, "c": -math.inf})
    parsed = json.loads(text)
    assert math.isnan(parsed["a"])
    assert parsed["b"] == math.inf
    assert parsed["c"] == -math.inf


def test_json_numpy_values_become_plain_values():
    doc = {
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "flag": np.bool_(True),
        "grid": np.arange(6.0).reshape(2, 3) / 3.0,
    }
    parsed = json.loads(dumps_document(doc))
    assert parsed == {
        "f32": float(np.float32(0.1)),
        "i64": -7,
        "flag": True,
        "grid": (np.arange(6.0).reshape(2, 3) / 3.0).tolist(),
    }
    assert type(parsed["flag"]) is bool and type(parsed["i64"]) is int
    with pytest.raises(TypeError):
        dumps_document({"x": object()})


# ----------------------------------------------------------- console script


def _declared_bcsym_script():
    """The ``module:attr`` entry for ``bcsym`` in the repo's ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["bcsym"]


def _run_bcsym_tail(env):
    proc = subprocess.run(
        ["bcsym", "tail", "--family", "normal", "--mu", "1", "--sigma", "1",
         "--lambda", "1"],
        capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "tail-report"


def test_console_entry_point_installed(tmp_path):
    # The declared command is checked without an install: the launcher below
    # is the one an installer generates for a console script, and it runs
    # against the bcsym package this test process imported.
    module, _, attr = _declared_bcsym_script().partition(":")
    launcher = tmp_path / "bcsym"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    _run_bcsym_tail({
        **os.environ,
        "PATH": os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]),
        "PYTHONPATH": str(Path(bcsym.__file__).resolve().parents[1]),
    })


@pytest.mark.skipif(shutil.which("bcsym") is None, reason="no bcsym script on PATH")
def test_console_entry_point_on_path():
    _run_bcsym_tail(os.environ)
