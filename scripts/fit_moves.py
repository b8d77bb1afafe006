"""How far each fit of the benchmark's workloads moved between two checkouts.

Runs the first ops of each ``perfbench`` workload at one seed in each
checkout, each checkout in its own subprocess, and pairs the fits the
workloads capture in order.  Per workload it prints the number of fits, how
many are bit-identical (the same point, log-likelihood, convergence flag and
message; the iteration count may differ) and how many flipped convergence,
and, where some changed, how many fits changed their iteration count;
the largest |dl| (l the log-likelihood), relative mu or sigma move and
|dlambda|, for interior fits (sigma |lambda| < 1e3 on both sides) and
boundary walks, converged and not, apart; and every fit whose l moved by
more than 1e-10, that flipped convergence, or that is a boundary walk and
moved at all.  For a workload whose ops run LR tests (the type-I study) it
also prints how many accept/reject decisions changed, with the rejections on
each side, and lists each changed op with both LR statistics.

    python3 scripts/fit_moves.py --parent ../parent --change . --seed 7302
    python3 scripts/fit_moves.py --parent ../parent --change . --seed 7302 --ops compare_n1000=4
"""

import argparse
import json
import math
import subprocess
import sys

from output_digest import op_counts, ops_flag, workload_outputs

DEFAULT_OPS = {"compare_n1000": 32, "type1_t4_n50": 300, "recovery_t4_n500": 200}
# every workload's op output holds the fits it captured at this position
FITS_AT = 2
# and a study op's output also holds its LR test results at this position
TESTS_AT = 3
BOUNDARY = 1e3
LISTED_DL = 1e-10


def collect(root: str, seed: int, counts: dict) -> None:
    """Print one JSON line per captured fit of the checkout at ``root``."""
    for name, _, _, outputs in workload_outputs(root, seed, counts):
        for k, output in enumerate(outputs):
            for i, fit in enumerate(output[FITS_AT]):
                rec = {"workload": name, "op": k, "i": i}
                if isinstance(fit, Exception):
                    rec["error"] = repr(fit)
                else:
                    p = fit.params
                    rec.update(
                        family=p.family.label(), loglik=fit.loglik, mu=p.mu, sigma=p.sigma,
                        lam=p.lam, converged=fit.converged, message=fit.message,
                        iterations=fit.iterations,
                    )
                print(json.dumps(rec), flush=True)
            if len(output) > TESTS_AT:
                decisions = [d for ds in output[0].decisions.values() for d in ds]
                for i, (test, decision) in enumerate(zip(output[TESTS_AT], decisions)):
                    lr = getattr(test, "statistic", None)  # None where a fit failed
                    rec = {"workload": name, "op": k, "test": i, "lr": lr, "reject": decision}
                    print(json.dumps(rec), flush=True)


def run(root: str, seed: int, counts: dict) -> list:
    cmd = [sys.executable, __file__, "--collect", root, "--seed", str(seed)]
    for name, n in counts.items():
        cmd += ["--ops", f"{name}={n}"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def point(r: dict) -> dict:
    """A fit record without its iteration count."""
    return {k: v for k, v in r.items() if k != "iterations"}


def moves(a: dict, b: dict) -> tuple:
    """(|dl|, relative mu/sigma move, |dlambda|) from fit a to fit b."""
    rel = max(0.0 if a[k] == b[k] else abs(b[k] - a[k]) / a[k] if a[k] else math.inf
              for k in ("mu", "sigma"))
    return abs(b["loglik"] - a["loglik"]), rel, abs(b["lam"] - a["lam"])


def decision_report(parent: list, change: list) -> list:
    """The lines on a workload's paired LR decisions; none if it ran no tests."""
    if not parent:
        return []
    rejects = [sum(r["reject"] is True for r in side) for side in (parent, change)]
    changed = [(a, b) for a, b in zip(parent, change) if a["reject"] != b["reject"]]
    lines = [
        f"  LR decisions: {len(changed)} of {len(parent)} changed accept/reject"
        f" ({rejects[0]} -> {rejects[1]} rejections)"
    ]
    for a, b in changed:
        lines.append(
            f"  op {a['op']} test {a['test']}: LR {a['lr']!r} -> {b['lr']!r},"
            f" reject {a['reject']} -> {b['reject']}"
        )
    return lines


def report(name: str, parent: list, change: list) -> list:
    """The summary and listing lines of one workload's paired fits."""
    if [(r["op"], r["i"]) for r in parent] != [(r["op"], r["i"]) for r in change]:
        return [f"{name}: {len(parent)} parent fits and {len(change)} change fits do not pair"]
    same = sum(point(a) == point(b) for a, b in zip(parent, change))
    pairs = [(a, b) for a, b in zip(parent, change) if "loglik" in a and "loglik" in b]
    flips = sum(a["converged"] != b["converged"] for a, b in pairs)
    lines = [f"{name}: {len(parent)} fits, {same} bit-identical, {flips} convergence flips"]
    steps = [(a["iterations"], b["iterations"]) for a, b in pairs]
    steps = [(m, n) for m, n in steps if m != n]
    if steps:
        lines.append(
            f"  iterations: {len(steps)} of {len(pairs)} fits changed their count"
            f" ({sum(a for a, _ in steps)} -> {sum(b for _, b in steps)} over those fits)"
        )
    groups = {}
    for a, b in pairs:
        walk = max(a["sigma"] * abs(a["lam"]), b["sigma"] * abs(b["lam"])) >= BOUNDARY
        key = ("boundary" if walk else "interior", "converged" if a["converged"] else "unconverged")
        groups.setdefault(key, []).append((a, b, walk))
    for key, members in sorted(groups.items()):
        worst = [max(m) for m in zip(*(moves(a, b) for a, b, _ in members))]
        rise = max(b["loglik"] - a["loglik"] for a, b, _ in members)
        lines.append(
            f"  {' '.join(key)} {len(members)}: max |dl| {worst[0]:.3g} (largest rise {rise:.3g}),"
            f" max rel mu/sigma {worst[1]:.3g}, max |dlambda| {worst[2]:.3g}"
        )
    for a, b, walk in (m for members in groups.values() for m in members):
        dl = b["loglik"] - a["loglik"]
        moved = walk and point(a) != point(b)
        if abs(dl) > LISTED_DL or a["converged"] != b["converged"] or moved:
            lines.append(
                f"  op {a['op']} fit {a['i']} {a['family']}: l {a['loglik']!r} -> {b['loglik']!r}"
                f" (dl {dl:.3g}), sigma|lambda| {a['sigma'] * abs(a['lam']):.3g} ->"
                f" {b['sigma'] * abs(b['lam']):.3g}, converged {a['converged']} -> {b['converged']}"
                f" ({a['message'] or 'ok'!r} -> {b['message'] or 'ok'!r})"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="root of the checkout to compare against")
    ap.add_argument("--change", help="root of the changed checkout")
    ap.add_argument("--collect", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, required=True)
    ops_flag(ap, DEFAULT_OPS)
    args = ap.parse_args(argv)
    counts = op_counts(ap, args.ops, DEFAULT_OPS)
    if args.collect:
        collect(args.collect, args.seed, counts)
        return 0
    if not (args.parent and args.change):
        ap.error("give --parent and --change")
    parent, change = run(args.parent, args.seed, counts), run(args.change, args.seed, counts)
    for name in counts:
        side = [[r for r in recs if r["workload"] == name and "test" not in r] for recs in (parent, change)]
        tests = [[r for r in recs if r["workload"] == name and "test" in r] for recs in (parent, change)]
        print("\n".join(report(name, *side) + decision_report(*tests)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
