"""Op times of one benchmark workload in two checkouts, in alternating batches in one process.

Loads ``src/bcsym`` and ``perfbench/workloads.py`` of each checkout into this
process in turn, clearing ``bcsym*`` and ``workloads`` from ``sys.modules``
in between, so that each side keeps its own copy of the library.  Then it
runs batches of the workload's ops, one side after the other, the side that
goes first alternating from batch to batch; both sides run the same ops.
Each op's output goes through the workload's own check, and the two sides'
outputs are compared by their fingerprints.  It prints the median ops/s of
each side, the median and quartiles of the per-batch ratio of op times
(change / parent) and in how many batches the change was faster.

Separate runs drift with the speed of a shared machine: 8-s ``perfbench``
runs of one checkout read the recovery workload anywhere from 187 to 227
ops/s.  Batches that alternate within one process see the same drift on
both sides.

    python3 scripts/interleave.py --parent ../parent --change . --workload compare_n1000
    python3 scripts/interleave.py --parent ../parent --change . --workload type1_t4_n50 --batches 30

Both checkouts are imported by path; a library function that imports a
module of its package at call time would find neither copy, and no workload
op calls one.
"""

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

# ops per batch: about a second of work per side
DEFAULT_OPS = {"compare_n1000": 16, "type1_t4_n50": 200, "recovery_t4_n500": 80}
TMP_TOKEN = "TMP"


def load(checkout: str, workload_name: str, seed: int, workdir: str):
    """The workload of the checkout, built on its own copy of the library and warmed."""
    root = Path(checkout).resolve()
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    try:
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[workload_name](seed, Path(workdir))
        workload.warm()
        workload.op(0)  # untimed, as perfbench's warm-up op: fills the lazy tables
    finally:
        del sys.path[: len(paths)]
        for name in [m for m in sys.modules if m.partition(".")[0] in ("bcsym", "workloads")]:
            del sys.modules[name]
    return workload


class Side:
    """One checkout's workload, its batch times and its check results."""

    def __init__(self, label: str, workload, workdir: str):
        self.label, self.workload, self.workdir = label, workload, workdir
        self.seconds = []  # per batch
        self.failed_fits = 0
        self.problems = []

    def run(self, keys) -> list[str]:
        """Time the ops of ``keys`` as one batch, then check them; their fingerprints."""
        start = time.perf_counter()
        outputs = [self.workload.op(k) for k in keys]
        self.seconds.append(time.perf_counter() - start)
        prints = []
        for k, output in zip(keys, outputs):
            verdict = self.workload.check(k, output)
            self.failed_fits += verdict.failed_fits
            self.problems += [f"{self.label} op {k}: {p}" for p in verdict.problems]
            prints.append(self.workload.fingerprint(output).replace(self.workdir, TMP_TOKEN))
        return prints


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the changed checkout")
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_OPS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batches", type=int, default=16)
    ap.add_argument("--ops", type=int, default=None, help="ops per batch and side")
    args = ap.parse_args(argv)
    ops = DEFAULT_OPS[args.workload] if args.ops is None else args.ops
    if args.batches < 1 or ops < 1:
        ap.error("--batches and --ops must be positive")

    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        sides = []
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            workdir = str(Path(tmp) / label)
            Path(workdir).mkdir()
            sides.append(Side(label, load(checkout, args.workload, args.seed, workdir), workdir))
        parent, change = sides
        same = 0
        for b in range(args.batches):
            keys = range(b * ops, (b + 1) * ops)
            order = sides if b % 2 == 0 else sides[::-1]
            prints = {side.label: side.run(keys) for side in order}
            same += sum(p == c for p, c in zip(prints["parent"], prints["change"]))

    print(f"{args.workload}, seed {args.seed}: {args.batches} batches of {ops} ops per side, "
          "parent first in the 1st, 3rd, ... batch")
    for side in sides:
        rates = [ops / s for s in side.seconds]
        q1, q2, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        print(f"{side.label:<7} {q2:10.4g} ops/s median (quartiles {q1:.4g}, {q3:.4g}); "
              f"{len(side.problems)} check problems, {side.failed_fits} failed fits")
    ratios = [c / p for c, p in zip(change.seconds, parent.seconds)]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1.0 for r in ratios)
    print(f"op time change/parent: median {q2:.4f} (quartiles {q1:.4f}, {q3:.4f}); "
          f"change faster in {wins} of {len(ratios)} batches")
    print(f"outputs: {same} of {args.batches * ops} ops identical on both sides")
    for problem in (parent.problems + change.problems)[:20]:
        print(f"  {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
