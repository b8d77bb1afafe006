"""The benchmark's workloads: seeded inputs, one operation each, and output checks.

Every workload builds its inputs from the ``--seed`` it is given and hands the
library only those inputs.  ``op(k)`` runs the k-th operation; ops with the
same ``input_key`` see the same input and must give byte-identical outputs.
``check`` judges one op's output and counts the fits it attempted and lost.
Every library function an op calls is looked up on its module at call time,
so the tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bcsym import cli, estimation, families, gof, simulate
from bcsym.distribution import BcsParams
from bcsym.families import DensityFamily

T4 = DensityFamily.student_t(4.0)

# ops of one study workload use seeds seed * SEED_STRIDE + k, so the seed
# ranges of different --seed values never overlap
SEED_STRIDE = 1_000_000

# a converged fit's gradient in the optimizer's coordinates (log mu, log
# sigma, lambda) is below the ceiling fit() itself accepts on a flat plateau
GRAD_TOL = 1e-3


@dataclass
class Verdict:
    """Outcome of checking one op: fits attempted, fits lost, and defects found."""

    fits: int
    failed_fits: int
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def captured(module, name: str):
    """Record what ``module.name`` returns or raises while the block runs.

    The study functions and the CLI return only aggregates or JSON; the checks
    need the fits, LR test and sample behind them.  One extra Python call per call is the cost.
    """
    original = getattr(module, name)
    seen = []

    @functools.wraps(original)
    def recording(*args, **kwargs):
        try:
            result = original(*args, **kwargs)
        except Exception as err:
            seen.append(err)
            raise
        seen.append(result)
        return result

    setattr(module, name, recording)
    try:
        yield seen
    finally:
        setattr(module, name, original)


def stationarity_problem(data, fit) -> str | None:
    """Why a fit reported as converged is not at a stationary point, if it is not."""
    if not fit.converged:
        return None
    free_lambda = "lambda" in fit.free_names
    ctx = estimation.LikelihoodContext(
        data, fit.params.family, fixed_lambda=None if free_lambda else fit.params.lam
    )
    try:
        s = estimation.score(ctx, fit.params)
    except ValueError:  # an observation sits on the weight's kink; no score there
        return None
    grad = [float(s[0] * fit.params.mu), float(s[1] * fit.params.sigma)]
    if free_lambda:
        grad.append(float(s[2]))
    if max(abs(g) for g in grad) > GRAD_TOL:
        return f"{fit.params.family.label()}: converged with gradient {grad}"
    return None


def _warm(family_list) -> None:
    # fills lazily built tables (the type I logistic cdf table, for one) and
    # numpy's first-call paths, as any user's first fit would
    grid = np.linspace(0.0, 4.0, 9)
    for fam in family_list:
        families.eval_generator(fam, grid * grid)
        families.symmetric_cdf(fam, grid)


def bcs_t_sample(rng: np.random.Generator, n: int, mu: float, sigma: float, lam: float):
    """n draws of BCS-t(tau = 4) by rejection on the truncated support (lam > 0)."""
    edge = -1.0 / (sigma * lam)
    z = np.empty(0)
    while z.size < n:
        draw = rng.standard_t(4.0, size=n)
        z = np.concatenate([z, draw[draw > edge]])
    return mu * (1.0 + sigma * lam * z[:n]) ** (1.0 / lam)


class CompareN1000:
    """``bcsym compare`` over nine families on n = 1000, extras held at their specs.

    One compare's cost depends on its sample.  With the extras free it swung
    from 0.7 s to 3.4 s; with them held (``--no-extra``) about one sample in
    20 still sends the slash fit on a 2.5 s walk, and runs over 50 samples
    drawn from the seed differed by 23% between quartiles in ops/s.  So the
    samples are a fixed corpus, sample j drawn from ``default_rng(j)``; a run
    measures whole passes over it, and the seed sets the order of a pass.
    """

    name = "compare_n1000"
    trace_ops_per_s = 0.6
    fits_per_op = 9
    CORPUS = pass_size = 32
    FAMILIES = "normal,double_exponential,pe:1.5,cauchy,t:4,logistic_i,logistic_ii,cslash,slash:2"
    ROWS = 9

    def __init__(self, seed: int, workdir: Path):
        self.samples, self.paths = [], []
        for j in range(self.CORPUS):
            y = bcs_t_sample(np.random.default_rng(j), 1000, 1.0, 0.3, 0.5)
            path = workdir / f"compare_{j:02d}.csv"
            path.write_text("y\n" + "\n".join(format(v, ".17g") for v in y) + "\n")
            self.samples.append(y)
            self.paths.append(path)
        self.out = workdir / "compare_out.json"
        self.order = [int(j) for j in np.random.default_rng(seed).permutation(self.CORPUS)]

    def warm(self) -> None:
        _warm([
            DensityFamily.normal(), DensityFamily.double_exponential(),
            DensityFamily.power_exponential(1.5), DensityFamily.cauchy(), T4,
            DensityFamily.logistic_i(), DensityFamily.logistic_ii(),
            DensityFamily.canonical_slash(), DensityFamily.slash(2.0),
        ])

    def input_key(self, k: int) -> int:
        return self.order[k % self.CORPUS]

    def op(self, k: int):
        argv = ["compare", str(self.paths[self.input_key(k)]), "--column", "y",
                "--families", self.FAMILIES, "--no-extra", "--out", str(self.out)]
        with contextlib.redirect_stderr(io.StringIO()), captured(cli, "fit") as fits:
            code = cli.main(argv)
        return code, self.out.read_bytes(), fits

    def fingerprint(self, output) -> str:
        code, raw, _ = output
        return f"{code}:{raw.decode()}"

    def check(self, k: int, output) -> Verdict:
        code, raw, fits = output
        # exit 4 is the documented "no family converged" outcome, not a crash
        if code not in (0, 4):
            return Verdict(self.ROWS, self.ROWS, [f"compare exited with code {code}"])
        rows = json.loads(raw)["rows"]
        verdict = Verdict(self.ROWS, 0)
        if len(rows) != self.ROWS:
            verdict.problems.append(f"{len(rows)} rows, expected {self.ROWS}")
        by_family = {f.params.family.label(): f for f in fits if not isinstance(f, Exception)}
        y = self.samples[self.input_key(k)]
        for row in rows:
            if not row["converged"]:
                verdict.failed_fits += 1
                continue
            stats = [row[col] for col in ("aic", "ad", "adr", "ad2r")]
            fit = by_family.get(row["family"])
            problem = None
            if not all(v is not None and math.isfinite(v) for v in stats):
                problem = f"{row['family']}: converged with non-finite {stats}"
            elif fit is None or fit.aic != row["aic"]:
                problem = f"{row['family']}: reported AIC {row['aic']} does not match its fit"
            else:
                problem = stationarity_problem(y, fit)
            if problem:
                verdict.failed_fits += 1
                verdict.problems.append(problem)
        return verdict


class Type1T4N50:
    """One replicate of the LR type-I study: t(tau = 4) held fixed, n = 50."""

    name = "type1_t4_n50"
    trace_ops_per_s = 8.0
    pass_size = 1
    fits_per_op = 2
    N = 50
    TRUTH = BcsParams(1.0, 0.5, 0.0, T4)

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_STRIDE

    def warm(self) -> None:
        _warm([T4])

    def input_key(self, k: int) -> int:
        return k

    def op(self, k: int):
        plan = simulate.SimulationPlan(
            family=T4, true_params=self.TRUTH, sample_sizes=(self.N,), replicates=1,
            seed=self.base + k, derivative_mode="analytic",
        )
        with captured(simulate, "sample") as drawn, captured(gof, "fit") as fits, captured(
            simulate, "lr_test_lambda_zero"
        ) as tests:
            result = simulate.run_type1_study(plan, workers=1)
        return result, drawn, fits, tests

    def fingerprint(self, output) -> str:
        result, _, fits, tests = output
        return repr(result) + repr(fits) + repr(tests)

    def check(self, k: int, output) -> Verdict:
        result, drawn, fits, tests = output
        plan = result.plan
        decision = result.decisions[(self.N, "analytic")][0]
        if len(tests) != 1:
            return Verdict(2, 2, [f"{len(tests)} LR tests ran, expected 1"])
        lr = tests[0]
        if isinstance(lr, gof.FitFailedError):
            # the null fit failing means the full fit was never attempted
            verdict = Verdict(1 if lr.which.startswith("null") else 2, 1)
            if decision is not None:
                verdict.problems.append("failed LR test reported a decision")
            return verdict
        verdict = Verdict(2, 0)
        for fit in fits:
            problem = stationarity_problem(drawn[0], fit)
            if problem:
                verdict.failed_fits += 1
                verdict.problems.append(problem)
        if not lr.statistic >= 0.0:
            verdict.problems.append(f"LR statistic {lr.statistic} < 0")
        if not lr.loglik_full >= lr.loglik_null:
            verdict.failed_fits = max(verdict.failed_fits, 1)
            verdict.problems.append(f"full loglik {lr.loglik_full} < null {lr.loglik_null}")
        if decision != bool(lr.p_value < plan.nominal_level):
            verdict.problems.append(f"decision {decision} disagrees with p = {lr.p_value}")
        return verdict


class RecoveryT4N500:
    """One replicate of the recovery study: sample, then fit t(tau = 4) on n = 500."""

    name = "recovery_t4_n500"
    trace_ops_per_s = 7.0
    pass_size = 1
    fits_per_op = 1
    N = 500
    TRUTH = BcsParams(1.0, 0.5, 0.5, T4)

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_STRIDE

    def warm(self) -> None:
        _warm([T4])

    def input_key(self, k: int) -> int:
        return k

    def op(self, k: int):
        with captured(simulate, "sample") as drawn, captured(simulate, "fit") as fitted:
            result = simulate.run_recovery_study(T4, self.TRUTH, self.N, 1, self.base + k)
        return result, drawn, fitted

    def fingerprint(self, output) -> str:
        result, _, fitted = output
        return repr(result) + repr(fitted)

    def check(self, k: int, output) -> Verdict:
        result, drawn, fitted = output
        if len(drawn) != 1 or len(fitted) != 1:
            return Verdict(1, 1, [f"{len(drawn)} samples and {len(fitted)} fits, expected 1 each"])
        if result.failed_fits:
            return Verdict(1, 1)
        verdict = Verdict(1, 0)
        fit = fitted[0]
        for name in ("mu", "sigma", "lambda"):
            summary = result.parameters[name]
            if summary.mean_estimate != fit.estimates[name]:
                verdict.problems.append(
                    f"{name}: study reports {summary.mean_estimate}, fit gave {fit.estimates[name]}"
                )
            if not math.isfinite(summary.mean_std_error):
                verdict.problems.append(f"{name}: non-finite standard error")
        ll_truth = estimation.loglik(estimation.LikelihoodContext(drawn[0], T4), self.TRUTH)
        if not fit.loglik >= ll_truth:
            verdict.problems.append(
                f"loglik at the estimate {fit.loglik} < at the truth {ll_truth}"
            )
        problem = stationarity_problem(drawn[0], fit)
        if problem:
            verdict.problems.append(problem)
        if verdict.problems:
            verdict.failed_fits = 1
        return verdict


WORKLOADS = {w.name: w for w in (CompareN1000, Type1T4N50, RecoveryT4N500)}
