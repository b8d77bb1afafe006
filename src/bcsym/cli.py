"""Command-line front end: fit, compare, sample, tail, simulate.

Channel conventions: every command writes one JSON document to stdout (or
``--out FILE``); ``compare`` additionally renders an aligned two-decimal
table on stderr; ``sample`` and ``--qq-out`` write CSV.  Errors are reported
as a JSON object on stderr with exit code 2 (usage), 3 (ingestion) or
4 (numeric failure).  Floats serialize in their shortest round-trip form, so
every value reads back exactly; non-finite values use the NaN/Infinity tokens
``json.loads`` accepts.  The ``BCSYM_SEED`` environment variable supplies the
default seed where one is needed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .distribution import BcsParams, sample
from .estimation import LikelihoodContext, fit
from .families import DensityFamily, FamilyKind
from .gof import _gof, gof_report, qq_data
from .rng import RngStream
from .simulate import SimulationPlan, run_type1_study
from .tails import classify, empirical_tail_slope

SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_NUMERIC = 4


# an error document's category follows from its exit code
_CATEGORIES = {EXIT_USAGE: "usage", EXIT_INGESTION: "ingestion", EXIT_NUMERIC: "numeric"}


class CliError(Exception):
    def __init__(self, exit_code: int, detail: str):
        super().__init__(detail)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# JSON documents.


def _plain(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, default=_plain) + "\n"


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise CliError(EXIT_INGESTION, f"cannot write {out_path}: {err}")


def _write_error(exit_code: int, detail: str) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "error",
        "error": {"category": _CATEGORIES[exit_code], "exit_code": exit_code, "detail": detail},
    }
    sys.stderr.write(dumps_document(doc))


# ---------------------------------------------------------------------------
# Ingestion.


@dataclass(frozen=True, eq=False)
class Dataset:
    name: str
    values: np.ndarray
    source_path: str
    column: str
    rejected_rows: int


def load_dataset(path: str, column: str, drop_nonpositive: bool = False) -> Dataset:
    """Read one numeric column from a headed CSV file.

    Rows whose target cell is missing, non-numeric, or not strictly positive
    are dropped and counted under ``drop_nonpositive``; otherwise the first
    such row is an ingestion error.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not (r and r[0].lstrip().startswith("#"))]
    except OSError as err:
        raise CliError(EXIT_INGESTION, f"cannot read {path}: {err}")
    if not rows:
        raise CliError(EXIT_INGESTION, f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if column not in header:
        raise CliError(EXIT_INGESTION, f"column {column!r} not found in {path}; header has {header}")
    idx = header.index(column)
    values = []
    rejected = 0
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        cell = row[idx].strip() if idx < len(row) else ""
        try:
            v = float(cell)
            ok = math.isfinite(v) and v > 0.0
        except ValueError:
            ok = False
        if ok:
            values.append(v)
        elif drop_nonpositive:
            rejected += 1
        else:
            raise CliError(
                EXIT_INGESTION,
                f"{path} line {line_no}: {cell!r} is not a positive number "
                "(pass --drop-nonpositive to drop such rows)",
            )
    if not values:
        raise CliError(EXIT_INGESTION, f"{path} has no usable observations")
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(
        name=name,
        values=np.array(values, dtype=float),
        source_path=path,
        column=column,
        rejected_rows=rejected,
    )


def _descriptive_stats(values: np.ndarray) -> dict:
    q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return {
        "min": float(np.min(values)),
        "q25": float(q25),
        "median": float(q50),
        "mean": float(np.mean(values)),
        "sd": float(np.std(values, ddof=1)) if values.size > 1 else math.nan,
        "q75": float(q75),
        "max": float(np.max(values)),
    }


def _dataset_json(ds: Dataset) -> dict:
    return {
        "name": ds.name,
        "source_path": ds.source_path,
        "column": ds.column,
        "n": int(ds.values.size),
        "rejected_rows": ds.rejected_rows,
    }


# ---------------------------------------------------------------------------
# Family and parameter flags.


def _from_name(name: str, extra: float | None) -> DensityFamily:
    try:
        return DensityFamily.from_name(name, extra)
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))


def _family(name: str, tau: float | None, q: float | None) -> DensityFamily:
    """The family called ``name`` with extra ``tau`` or ``q``, else its default extra."""
    try:
        return DensityFamily.from_flags(name, tau, q)
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))


def _family_from_spec(token: str) -> DensityFamily:
    """Parse a compare token: ``name`` or ``name:extra``."""
    name, _, raw = token.strip().partition(":")
    extra = None
    if raw:
        try:
            extra = float(raw)
        except ValueError:
            raise CliError(EXIT_USAGE, f"bad family spec {token!r}: {raw!r} is not a number")
    return _from_name(name, extra)


def _params_from_flags(args, family: DensityFamily) -> BcsParams:
    try:
        return BcsParams(args.mu, args.sigma, args.lam, family)
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))


def _default_seed() -> int:
    raw = os.environ.get("BCSYM_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"BCSYM_SEED must be an integer, got {raw!r}")


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


# ---------------------------------------------------------------------------
# fit.


def cmd_fit(args) -> int:
    ds = load_dataset(args.data, args.column, args.drop_nonpositive)
    family = _family(args.family, args.tau, args.q)
    notes = []
    if family.kind is FamilyKind.POWER_EXPONENTIAL and family.extra == 2.0:
        notes.append("power_exponential with tau = 2 coincides with the normal family")
    fit_extra = family.extra_name is not None and not args.no_extra
    try:
        ctx = LikelihoodContext(ds.values, family, fixed_lambda=args.fix_lambda, fit_extra=fit_extra)
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))
    try:
        result = fit(ctx, mode=args.mode)
    except ValueError as err:
        raise CliError(EXIT_NUMERIC, str(err))
    gof = None
    gof_error = ""
    try:
        gof = gof_report(ds.values, result)
    except ValueError as err:
        gof_error = str(err)
        notes.append(f"goodness-of-fit evaluation failed: {gof_error}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit-report",
        "dataset": _dataset_json(ds),
        "family": family.label(),
        "notes": notes,
        "fit": {
            "converged": result.converged,
            "mode": result.mode,
            "free_parameters": result.free_names,
            "estimates": result.estimates,
            "std_errors": result.std_errors,
            "loglik": result.loglik,
            "aic": result.aic,
            "iterations": result.iterations,
            "gradient_norm": result.gradient_norm,
            "message": result.message,
        },
        "gof": None if gof is None else {
            "aic": gof.aic,
            "ad": gof.ad,
            "adr": gof.adr,
            "ad2r": gof.ad2r,
            "clamped": gof.clamped,
            "quantile_residuals": gof.quantile_residuals,
        },
        "descriptive": _descriptive_stats(ds.values),
    }
    _write_text(dumps_document(doc), args.out)
    if args.qq_out and gof is not None:
        pairs = qq_data(gof.quantile_residuals)
        lines = ["theoretical,empirical"]
        lines += [f"{format(a, '.17g')},{format(b, '.17g')}" for a, b in pairs]
        _write_text("\n".join(lines) + "\n", args.qq_out)
    if not result.converged:
        _write_error(EXIT_NUMERIC, "fit did not converge: " + result.message)
        return EXIT_NUMERIC
    if gof is None:
        _write_error(EXIT_NUMERIC, "goodness-of-fit evaluation failed: " + gof_error)
        return EXIT_NUMERIC
    return 0


# ---------------------------------------------------------------------------
# compare.

_GOF_COLUMNS = ("aic", "ad", "adr", "ad2r")


def _comparison_table(rows: list[dict], best: dict) -> str:
    width = max(len("family"), max(len(r["family"]) for r in rows))
    header = "family".ljust(width) + "".join(c.rjust(12) for c in _GOF_COLUMNS)
    lines = [header]
    for row in rows:
        cells = [row["family"].ljust(width)]
        for col in _GOF_COLUMNS:
            v = row[col]
            if v is None:
                cells.append(" " * 12)
            else:
                mark = "*" if best.get(col) == row["family"] else " "
                cells.append(f"{v:11.2f}{mark}")
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    ds = load_dataset(args.data, args.column, args.drop_nonpositive)
    tokens = [t for t in args.families.split(",") if t.strip()]
    if len(tokens) < 2:
        raise CliError(EXIT_USAGE, "compare needs at least two families")
    rows = []
    for token in tokens:
        family = _family_from_spec(token)
        row = {"family": family.label(), "converged": False, "extra_estimate": None}
        row.update({c: None for c in _GOF_COLUMNS})
        fit_extra = family.extra_name is not None and not args.no_extra
        try:
            result = fit(LikelihoodContext(ds.values, family, fit_extra=fit_extra), mode=args.mode)
            if result.converged:
                # the statistics alone: compare prints no quantile residuals
                _, _, (ad, adr, ad2r) = _gof(ds.values, result.params)
                row.update(converged=True, aic=result.aic, ad=ad, adr=adr, ad2r=ad2r)
                if fit_extra:
                    row["extra_estimate"] = result.estimates[family.extra_name]
        except ValueError:
            pass  # a family that cannot be fitted keeps its blank row
        rows.append(row)
    best = {}
    for col in _GOF_COLUMNS:
        scored = [(row[col], row["family"]) for row in rows if row[col] is not None]
        best[col] = min(scored)[1] if scored else None
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "comparison",
        "dataset": _dataset_json(ds),
        "rows": rows,
        "best": best,
    }
    _write_text(dumps_document(doc), args.out)
    sys.stderr.write(_comparison_table(rows, best))
    if not any(row["converged"] for row in rows):
        _write_error(EXIT_NUMERIC, "no requested family produced a converged fit")
        return EXIT_NUMERIC
    return 0


# ---------------------------------------------------------------------------
# sample.


def cmd_sample(args) -> int:
    family = _family(args.family, args.tau, args.q)
    params = _params_from_flags(args, family)
    if args.n < 1:
        raise CliError(EXIT_USAGE, "--n must be a positive integer")
    seed = _resolve_seed(args)
    draws = sample(params, args.n, RngStream(seed, 0))
    head = (
        f"# family={family.label()} mu={format(params.mu, '.17g')} "
        f"sigma={format(params.sigma, '.17g')} lambda={format(params.lam, '.17g')} "
        f"n={args.n} seed={seed}"
    )
    lines = [head, "value"] + [format(v, ".17g") for v in draws]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# tail.


def cmd_tail(args) -> int:
    family = _family(args.family, args.tau, args.q)
    params = _params_from_flags(args, family)
    report = classify(params)
    verify = None
    if args.verify:
        try:
            slope = empirical_tail_slope(params)
            verify = {"survival_slope": slope, "implied_index": -1.0 / slope}
        except (ValueError, OverflowError) as err:
            verify = {"error": str(err)}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tail-report",
        "family": family.label(),
        "parameters": {"mu": params.mu, "sigma": params.sigma, "lambda": params.lam},
        "index": report.index,
        "category": report.category.value,
        "form": {
            "kind": report.form.kind,
            "exponent": report.form.exponent,
            "coefficient": report.form.coefficient,
        },
        "extrapolated": report.extrapolated,
        "verify": verify,
    }
    _write_text(dumps_document(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate.

_PLAN_KEYS = {
    "family", "tau", "q", "mu", "sigma", "lambda", "sizes",
    "replicates", "level", "seed", "mode", "estimate_extra",
}


def _load_plan_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            plan = json.load(fh)
    except OSError as err:
        raise CliError(EXIT_INGESTION, f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise CliError(EXIT_INGESTION, f"{path} is not valid JSON: {err}")
    if not isinstance(plan, dict):
        raise CliError(EXIT_INGESTION, f"{path} must hold a JSON object")
    unknown = sorted(set(plan) - _PLAN_KEYS)
    if unknown:
        raise CliError(EXIT_USAGE, f"unknown plan keys: {unknown}")
    return plan


def cmd_simulate(args) -> int:
    spec = _load_plan_file(args.plan) if args.plan else {}
    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        return spec.get(key, fallback)

    family_name = pick(args.family, "family", None)
    if family_name is None:
        raise CliError(EXIT_USAGE, "a family is required (--family or plan file)")
    # an inline --tau or --q replaces the plan's extra as a whole
    if args.tau is None and args.q is None:
        family = _family(str(family_name), spec.get("tau"), spec.get("q"))
    else:
        family = _family(str(family_name), args.tau, args.q)
    try:
        truth = BcsParams(
            pick(args.mu, "mu", 1.0),
            pick(args.sigma, "sigma", 1.0),
            pick(args.lam, "lambda", 0.0),
            family,
        )
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))
    sizes = pick(args.sizes, "sizes", ())
    if isinstance(sizes, str):
        sizes = tuple(tok.strip() for tok in sizes.split(",") if tok.strip())
    elif isinstance(sizes, (int, float)):
        sizes = (sizes,)
    estimate_extra = bool(pick(args.estimate_extra or None, "estimate_extra", False))
    seed = pick(args.seed, "seed", None)
    if seed is None:
        seed = _default_seed()
    try:
        plan = SimulationPlan(
            family=family,
            true_params=truth,
            sample_sizes=tuple(sizes),
            replicates=pick(args.replicates, "replicates", 2000),
            nominal_level=pick(args.level, "level", 0.05),
            seed=seed,
            derivative_mode=pick(args.mode, "mode", "analytic"),
        )
        result = run_type1_study(plan, estimate_extra=estimate_extra, workers=args.workers)
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))
    cells = []
    for n in plan.sample_sizes:
        for mode in plan.modes:
            cell = result.cells[(n, mode)]
            cells.append({
                "n": cell.n,
                "mode": cell.mode,
                "rejection_rate": cell.rejection_rate,
                "mc_std_error": cell.mc_std_error,
                "failed_fits": cell.failed_fits,
                "converged_replicates": cell.converged,
                "decisions": list(result.decisions[(n, mode)]),
            })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation",
        "plan": {
            "family": family.label(),
            "mu": truth.mu,
            "sigma": truth.sigma,
            "lambda": truth.lam,
            "sample_sizes": list(plan.sample_sizes),
            "replicates": plan.replicates,
            "nominal_level": plan.nominal_level,
            "seed": plan.seed,
            "derivative_mode": plan.derivative_mode,
            "estimate_extra": estimate_extra,
        },
        "cells": cells,
    }
    _write_text(dumps_document(doc), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bcsym",
        description="Box-Cox symmetric distributions: fitting, comparison, sampling, "
        "tail classification, and simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("data", help="CSV file with a header row")
    data_flags.add_argument("--column", required=True, help="name of the data column")
    data_flags.add_argument(
        "--drop-nonpositive",
        action="store_true",
        help="drop and count rows whose value is missing, non-numeric, or <= 0",
    )

    family_flags = argparse.ArgumentParser(add_help=False)
    family_flags.add_argument("--family", required=True, help="generator family name")
    family_flags.add_argument("--tau", type=float, help="extra parameter for t and pe")
    family_flags.add_argument("--q", type=float, help="extra parameter for slash")

    point_flags = argparse.ArgumentParser(add_help=False)
    point_flags.add_argument("--mu", type=float, required=True)
    point_flags.add_argument("--sigma", type=float, required=True)
    point_flags.add_argument("--lambda", dest="lam", type=float, required=True)

    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out", help="write the JSON document here instead of stdout")

    p = sub.add_parser("fit", parents=[data_flags, family_flags, out_flags],
                       help="maximum-likelihood fit with goodness-of-fit report")
    p.add_argument("--fix-lambda", type=float, help="pin lambda (0 gives the log-symmetric submodel)")
    p.add_argument("--no-extra", action="store_true",
                   help="hold the extra parameter at --tau/--q instead of estimating it")
    p.add_argument("--mode", default="analytic", choices=("analytic", "numeric"))
    p.add_argument("--qq-out", help="write theoretical,empirical quantile-residual pairs as CSV")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("compare", parents=[data_flags, out_flags],
                       help="fit several families and tabulate AIC and AD statistics")
    p.add_argument("--families", required=True,
                   help="comma-separated family specs, e.g. normal,t:4,pe:1.5")
    p.add_argument("--no-extra", action="store_true",
                   help="hold extra parameters at their spec values instead of estimating them")
    p.add_argument("--mode", default="analytic", choices=("analytic", "numeric"))
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("sample", parents=[family_flags, point_flags, out_flags],
                       help="draw deterministic samples as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, help="default from BCSYM_SEED, else 0")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("tail", parents=[family_flags, point_flags, out_flags],
                       help="right-tail classification report")
    p.add_argument("--verify", action="store_true",
                   help="probe the survival function for an empirical slope")
    p.set_defaults(handler=cmd_tail)

    p = sub.add_parser("simulate", parents=[out_flags],
                       help="type-I error study for the lambda = 0 likelihood-ratio test")
    p.add_argument("--plan", help="JSON plan file; inline flags override its entries")
    p.add_argument("--family")
    p.add_argument("--tau", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--sizes", help="comma-separated sample sizes, e.g. 100,500")
    p.add_argument("--replicates", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", help="analytic, numeric, or both")
    p.add_argument("--estimate-extra", action="store_true",
                   help="estimate the extra parameter instead of holding it at the truth")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        _write_error(err.exit_code, str(err))
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
