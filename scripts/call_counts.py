"""Python-level calls per op of each benchmark workload, under cProfile.

Imports ``perfbench/workloads.py`` and the library under ``src`` of the given
checkout, as ``output_digest.py`` does, runs op 0 of each workload once
unprofiled (it fills the lazily built tables), then profiles the next ops.
Per workload it prints the calls per profiled op and the ten most-called
functions with their calls per op.  The counts repeat exactly from run to
run, so they show per-call overhead that wall-time drift hides; they say
nothing of the time inside native code.

    python3 scripts/call_counts.py --checkout . --seed 7302
    python3 scripts/call_counts.py --checkout ../parent --seed 7302 --ops compare_n1000=4

Run each checkout in its own process: the library is imported once.
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

from output_digest import op_counts, ops_flag, workload_outputs

DEFAULT_OPS = {"type1_t4_n50": 60, "recovery_t4_n500": 20, "compare_n1000": 32}
TOP = 10


def _label(func) -> str:
    """file:line(name) for Python code, the profiler's own name for a builtin."""
    path, line, name = func
    return name if path == "~" else f"{Path(path).name}:{line}({name})"


def call_counts(workload, ops: int):
    """(calls per op, [(calls per op, function label)] most-called first) over
    ops 1..ops of ``workload``, op 0 run first unprofiled."""
    workload.op(0)
    prof = cProfile.Profile()
    prof.enable()
    for k in range(1, ops + 1):
        workload.op(k)
    prof.disable()
    stats = pstats.Stats(prof).stats  # func -> (primitive calls, calls, ...)
    per_func = sorted(((v[1] / ops, _label(f)) for f, v in stats.items()), key=lambda c: -c[0])
    return sum(c for c, _ in per_func), per_func[:TOP]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=".", help="root of the checkout to run")
    ap.add_argument("--seed", type=int, required=True)
    ops_flag(ap, DEFAULT_OPS)
    args = ap.parse_args(argv)
    counts = op_counts(ap, args.ops, DEFAULT_OPS)
    for name, workload, _, _ in workload_outputs(args.checkout, args.seed, counts):
        total, top = call_counts(workload, counts[name])
        print(f"{name} {counts[name]} ops {total:.1f} calls/op", flush=True)
        for calls, label in top:
            print(f"  {calls:10.1f}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
