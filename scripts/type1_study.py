"""Type-I error of the LR test for lambda = 0, cell by cell.

Generates data under the log-symmetric null with the chosen generator,
runs the likelihood-ratio test at the nominal level for every (sample size,
derivative mode) cell, and prints one table row per cell.

    python3 scripts/type1_study.py --family t --tau 4 --sizes 100,500 \
        --replicates 2000 --mode both --seed 1
"""

import argparse
import sys
import time

from bcsym import BcsParams, DensityFamily, SimulationPlan, run_type1_study


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--family", default="student_t")
    ap.add_argument("--tau", type=float, default=None)
    ap.add_argument("--q", type=float, default=None)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--sizes", default="100,500")
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--level", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mode", default="analytic", help="analytic, numeric, or both")
    ap.add_argument("--estimate-extra", action="store_true")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    try:
        family = DensityFamily.from_flags(args.family, args.tau, args.q)
    except ValueError as err:
        ap.error(str(err))
    plan = SimulationPlan(
        family=family,
        true_params=BcsParams(args.mu, args.sigma, 0.0, family),
        sample_sizes=tuple(s.strip() for s in args.sizes.split(",")),
        replicates=args.replicates,
        nominal_level=args.level,
        seed=args.seed,
        derivative_mode=args.mode,
    )
    t0 = time.perf_counter()
    result = run_type1_study(plan, estimate_extra=args.estimate_extra, workers=args.workers)
    elapsed = time.perf_counter() - t0

    print(f"family {family.label()}  truth mu={args.mu} sigma={args.sigma} lambda=0")
    print(f"{plan.replicates} replicates, nominal level {plan.nominal_level}, seed {plan.seed}")
    print(f"{'n':>6} {'mode':>9} {'rate':>8} {'mc se':>8} {'failed':>7}")
    for n in plan.sample_sizes:
        for mode in plan.modes:
            cell = result.cells[(n, mode)]
            print(
                f"{n:6d} {mode:>9} {cell.rejection_rate:8.4f} "
                f"{cell.mc_std_error:8.4f} {cell.failed_fits:7d}"
            )
    print(f"[{elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
