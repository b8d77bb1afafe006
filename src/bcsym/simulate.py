"""Monte Carlo studies: LR-test type-I error and estimator recovery.

Replicate i always draws from the stream keyed by (seed, i), and aggregation
walks replicates in index order, so results are bit-identical for any worker
count and for repeated runs of the same plan.  Failed replicates are counted
and excluded; a single failure never aborts a study.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distribution import BcsParams, sample
from .estimation import LikelihoodContext, fit
from .families import DensityFamily
from .gof import FitFailedError, lr_test_lambda_zero
from .rng import RngStream

_MODES = ("analytic", "numeric")


@dataclass(frozen=True)
class SimulationPlan:
    """Specification of a replicated sampling experiment.

    ``family`` is the model that gets fitted; ``true_params`` (usually of the
    same family) generates the data.  ``derivative_mode`` selects how fit
    gradients are assembled: "analytic", "numeric", or "both" to run the two
    side by side on identical replicates.
    """

    family: DensityFamily
    true_params: BcsParams
    sample_sizes: tuple[int, ...]
    replicates: int = 2000
    nominal_level: float = 0.05
    seed: int = 0
    derivative_mode: str = "analytic"

    def __post_init__(self):
        issues = []
        try:
            sizes = tuple(int(n) for n in self.sample_sizes)
        except (TypeError, ValueError):
            issues.append("sample sizes must be integers")
            sizes = ()
        object.__setattr__(self, "sample_sizes", sizes)
        if not sizes:
            issues.append("sample_sizes must be nonempty")
        elif any(n < 10 for n in sizes):
            issues.append("sample sizes must be at least 10")
        if not isinstance(self.replicates, (int, np.integer)) or self.replicates < 1:
            issues.append("replicates must be a positive integer")
        if not (0.0 < float(self.nominal_level) < 1.0):
            issues.append("nominal level must lie strictly inside (0, 1)")
        if not isinstance(self.seed, (int, np.integer)):
            issues.append("seed must be an integer")
        if self.derivative_mode not in ("analytic", "numeric", "both"):
            issues.append("derivative mode must be 'analytic', 'numeric' or 'both'")
        if issues:
            raise ValueError("; ".join(issues))

    @property
    def modes(self) -> tuple[str, ...]:
        return _MODES if self.derivative_mode == "both" else (self.derivative_mode,)


@dataclass(frozen=True)
class CellResult:
    n: int
    mode: str
    rejection_rate: float
    failed_fits: int
    mc_std_error: float
    converged: int


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates per (sample size, derivative mode) cell.

    ``decisions`` keeps the raw per-replicate outcomes (True = reject,
    False = accept, None = fits failed) in replicate order.
    """

    plan: SimulationPlan
    cells: dict
    decisions: dict


def _map_tasks(runner, tasks, workers: int):
    if workers <= 1:
        return [runner(t) for t in tasks]
    chunk = max(1, len(tasks) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(runner, tasks, chunksize=chunk))


def _in_range(y: np.ndarray) -> bool:
    # a heavy log-symmetric tail can draw 0 or inf, which no fit accepts
    return bool(np.all(np.isfinite(y) & (y > 0.0)))


def _type1_replicate(plan: SimulationPlan, estimate_extra: bool, task):
    n, i = task
    y = sample(plan.true_params, n, RngStream(plan.seed, i))
    if not _in_range(y):
        return dict.fromkeys(plan.modes)
    out = {}
    for mode in plan.modes:
        try:
            res = lr_test_lambda_zero(y, plan.family, mode=mode, fit_extra=estimate_extra)
        except FitFailedError:
            out[mode] = None
        else:
            out[mode] = bool(res.p_value < plan.nominal_level)
    return out


def run_type1_study(
    plan: SimulationPlan, estimate_extra: bool = False, workers: int = 1
) -> SimulationResult:
    """Rejection rate of the lambda = 0 LR test on data generated under it.

    The extra parameter (when the family has one) is held fixed at the value
    carried by ``plan.family`` unless ``estimate_extra`` frees it.
    """
    if plan.true_params.lam != 0.0:
        raise ValueError("type-I study requires lambda = 0 in the generating truth")
    tasks = [(n, i) for n in plan.sample_sizes for i in range(plan.replicates)]
    outcomes = _map_tasks(partial(_type1_replicate, plan, estimate_extra), tasks, workers)
    decisions = {
        (n, mode): [None] * plan.replicates for n in plan.sample_sizes for mode in plan.modes
    }
    for (n, i), per_mode in zip(tasks, outcomes):
        for mode, decision in per_mode.items():
            decisions[(n, mode)][i] = decision
    cells = {}
    for key, outs in decisions.items():
        converged = sum(1 for d in outs if d is not None)
        rejects = sum(1 for d in outs if d)
        rate = rejects / converged if converged else math.nan
        se = math.sqrt(rate * (1.0 - rate) / converged) if converged else math.nan
        cells[key] = CellResult(
            n=key[0],
            mode=key[1],
            rejection_rate=rate,
            failed_fits=plan.replicates - converged,
            mc_std_error=se,
            converged=converged,
        )
    return SimulationResult(
        plan=plan, cells=cells, decisions={k: tuple(v) for k, v in decisions.items()}
    )


@dataclass(frozen=True)
class ParameterSummary:
    truth: float
    mean_estimate: float
    empirical_sd: float
    mean_std_error: float
    coverage95: float


@dataclass(frozen=True)
class RecoveryResult:
    n: int
    replicates: int
    failed_fits: int
    parameters: dict


def _recovery_replicate(
    family: DensityFamily,
    true_params: BcsParams,
    estimate_extra: bool,
    seed: int,
    n: int,
    i: int,
):
    y = sample(true_params, n, RngStream(seed, i))
    if not _in_range(y):
        return None
    r = fit(LikelihoodContext(y, family, fit_extra=estimate_extra))
    if not r.converged or any(not math.isfinite(v) for v in r.std_errors.values()):
        return None
    return r.estimates, r.std_errors


def run_recovery_study(
    family: DensityFamily,
    true_params: BcsParams,
    n: int,
    replicates: int,
    seed: int,
    estimate_extra: bool = False,
    workers: int = 1,
) -> RecoveryResult:
    """Bias, spread, reported-SE quality, and 95% CI coverage per parameter.

    A replicate counts as failed when its sample holds a draw of 0 or inf, or
    when its fit does not converge or reports a non-finite standard error
    (coverage is undefined there).
    """
    if n < 10:
        raise ValueError("sample size must be at least 10")
    if replicates < 1:
        raise ValueError("replicates must be a positive integer")
    runner = partial(_recovery_replicate, family, true_params, estimate_extra, seed, n)
    outcomes = _map_tasks(runner, list(range(replicates)), workers)
    kept = [o for o in outcomes if o is not None]
    names = ["mu", "sigma", "lambda"]
    truth = {"mu": true_params.mu, "sigma": true_params.sigma, "lambda": true_params.lam}
    if estimate_extra:
        names.append(family.extra_name)
        truth[family.extra_name] = true_params.family.extra
    parameters = {}
    for name in names:
        t = truth[name]
        ests = np.array([est[name] for est, _ in kept])
        ses = np.array([se[name] for _, se in kept])
        covered = np.abs(ests - t) <= 1.96 * ses
        parameters[name] = ParameterSummary(
            truth=t,
            mean_estimate=float(np.mean(ests)) if kept else math.nan,
            empirical_sd=float(np.std(ests, ddof=1)) if len(kept) > 1 else math.nan,
            mean_std_error=float(np.mean(ses)) if kept else math.nan,
            coverage95=float(np.mean(covered)) if kept else math.nan,
        )
    return RecoveryResult(
        n=n,
        replicates=replicates,
        failed_fits=replicates - len(kept),
        parameters=parameters,
    )
