"""Parameter recovery: bias, spread, reported-SE quality, and CI coverage.

Repeatedly samples from a chosen truth, refits by maximum likelihood, and
prints one row per parameter.

    python3 scripts/recovery_study.py --family t --tau 4 --lambda 0.5 \
        --n 500 --replicates 200 --seed 2
"""

import argparse
import sys
import time

from bcsym import BcsParams, DensityFamily, run_recovery_study


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--family", default="student_t")
    ap.add_argument("--tau", type=float, default=None)
    ap.add_argument("--q", type=float, default=None)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--replicates", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--estimate-extra", action="store_true")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    try:
        family = DensityFamily.from_flags(args.family, args.tau, args.q)
    except ValueError as err:
        ap.error(str(err))
    truth = BcsParams(args.mu, args.sigma, args.lam, family)
    t0 = time.perf_counter()
    res = run_recovery_study(
        family,
        truth,
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
        estimate_extra=args.estimate_extra,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - t0

    print(f"family {family.label()}  n={res.n}  replicates={res.replicates} "
          f"(failed {res.failed_fits})  seed={args.seed}")
    print(f"{'param':>8} {'truth':>9} {'mean est':>10} {'emp sd':>9} "
          f"{'mean se':>9} {'cover95':>8}")
    for name, s in res.parameters.items():
        print(
            f"{name:>8} {s.truth:9.4f} {s.mean_estimate:10.4f} "
            f"{s.empirical_sd:9.4f} {s.mean_std_error:9.4f} {s.coverage95:8.3f}"
        )
    print(f"[{elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
