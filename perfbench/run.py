"""Benchmark of bcsym: seeded workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload compare_n1000 --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src``.  Load
is a closed loop with one caller: the next op starts when the previous one
returns, and study ops run with ``workers=1``.  With ``--trace 0`` the ops run
for ``--seconds`` and the end-to-end metrics are printed; with ``--trace 1`` a
fixed number of ops (sized from ``--seconds``) runs once plain and once under
the span tracer, and the per-layer metrics are printed.  Human-readable lines
come first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("compare_n1000", "type1_t4_n50", "recovery_t4_n500")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The speed of a shared CPU drifts: on a shared 2-CPU virtual machine the
# same fit took 22-42 ms within one minute, in CPU time as much as in wall
# time.  Op times are therefore reported scaled to a nominal machine speed,
# measured by a fixed reference kernel timed every REF_INTERVAL_S between ops:
# scaled = wall * REF_NOMINAL_MS / (median reference time within REF_WINDOW_S).
# The unscaled figures are printed alongside.
REF_INTERVAL_S = 0.25
REF_WINDOW_S = 2.0
REF_NOMINAL_MS = 2.0


def load_workloads():
    """Import the library from the checkout and, with it, the workload module."""
    if not (SRC / "bcsym" / "__init__.py").is_file():
        raise SystemExit(f"bcsym sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def reference_kernel() -> float:
    """Fixed work in the library's mix: numpy on 500-element arrays, scalar loops."""
    import numpy as np  # here, so that set-up probes time numpy's import with the library's

    x = np.linspace(0.05, 8.0, 500)
    acc = 0.0
    for i in range(120):
        v = np.log1p(x * (1.0 + 0.01 * i)) / (1.0 + x * x)
        acc += float(np.sum(np.where(v > 0.1, v, 0.0)))
        h = 1.0
        for m in range(1, 40):
            h = 1.0 + m / (h + 1.0)
        acc += math.log(h)
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


@dataclass
class OpRecord:
    k: int
    start: float
    seconds: float
    output: object
    error: str | None
    runtime_warnings: int
    scaled: float = math.nan


def scale_to_nominal(records, refs) -> None:
    """Set each record's ``scaled`` time from the reference timings around it."""
    times = [t for t, _ in refs]
    for rec in records:
        lo = bisect.bisect_left(times, rec.start - REF_WINDOW_S)
        hi = bisect.bisect_right(times, rec.start + REF_WINDOW_S)
        if lo == hi:  # no reference inside the window: take the nearest
            i = min(bisect.bisect_left(times, rec.start), len(times) - 1)
            lo, hi = i, i + 1
        local = statistics.median(d for _, d in refs[lo:hi])
        rec.scaled = rec.seconds * (REF_NOMINAL_MS / 1e3) / local


def time_ops(workload, keys, ev=None, tracer=None) -> list[OpRecord]:
    """Run op k for each k in ``keys``, one at a time, timing each call.

    ``keys`` may be endless; iteration stops when the caller's generator
    does.  RuntimeWarnings are counted per op; an op that raises is recorded
    as failed and the loop goes on.  The reference kernel runs between ops.
    With ``ev``, each output is checked as soon as its op is timed and then
    dropped, so memory does not grow with the op count.
    """
    records, refs = [], []
    for k in keys:
        if not refs or time.perf_counter() - refs[-1][0] >= REF_INTERVAL_S:
            refs.append((time.perf_counter(), time_reference()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            start = time.perf_counter()
            try:
                output, error = workload.op(k), None
            except Exception as err:  # a failed op is reported, not fatal
                output, error = None, f"{type(err).__name__}: {err}"
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.fold()
        n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        rec = OpRecord(k, start, seconds, output, error, n_warn)
        if ev is not None:
            ev.add(rec)
        records.append(rec)
    refs.append((time.perf_counter(), time_reference()))
    scale_to_nominal(records, refs)
    return records


def for_seconds(seconds: float, pass_size: int):
    """Op indices 0, 1, ... until ``seconds`` have passed at the end of a pass."""
    end = time.perf_counter() + seconds
    k = 0
    while True:
        yield k
        k += 1
        if k % pass_size == 0 and time.perf_counter() >= end:
            return


class Evaluation:
    """Output checks and fit counts over ops; ops on one input must match.

    ``reference`` maps input keys to a digest of the first output seen for
    them.  Evaluations that share it compare across passes: the warm-up op
    with op 0, and traced ops with plain ones.
    """

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.fits = self.failed_fits = self.failed_ops = 0
        self.problems = []

    def add(self, rec: OpRecord) -> None:
        workload = self.workload
        if rec.error is not None:
            # every fit of a crashed op is lost
            self.fits += workload.fits_per_op
            self.failed_fits += workload.fits_per_op
            self.failed_ops += 1
            print(f"op {rec.k} failed: {rec.error}", file=sys.stderr)
            return
        verdict = workload.check(rec.k, rec.output)
        self.fits += verdict.fits
        self.failed_fits += verdict.failed_fits
        problems = [f"op {rec.k}: {p}" for p in verdict.problems]
        digest = hashlib.sha256(workload.fingerprint(rec.output).encode()).hexdigest()
        if self.reference.setdefault(workload.input_key(rec.k), digest) != digest:
            problems.append(f"op {rec.k}: output differs from an earlier op on the same input")
        if problems:
            self.failed_ops += 1
            self.problems += problems
        rec.output = None


def probe_setup(workload_name: str, seed: int) -> float:
    """Median set-up time of fresh interpreters: import, inputs, lazy caches.

    Each probe is scaled like an op, by reference timings taken just before
    and after it.
    """
    times = []
    for _ in range(SETUP_PROBES):
        before = time_reference()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        local = (before + time_reference()) / 2.0
        times.append(float(proc.stdout.split()[-1]) * (REF_NOMINAL_MS / 1e3) / local)
    return statistics.median(times)


def end_to_end(workload, records, ev: Evaluation, setup_s: float) -> dict:
    # percentiles run over inputs: an input met more than once (compare repeats
    # its corpus every pass) counts once, at the median of its times, so the
    # number of passes does not shift them
    by_input = {}
    for r in records:
        by_input.setdefault(workload.input_key(r.k), []).append(r.scaled)
    times = [statistics.median(v) for v in by_input.values()]
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    completed = len(records) - ev.failed_ops
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / sum(r.scaled for r in records), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_p90": (1e3 * p90, "ms"),
        "fit_ok_share": (1.0 - ev.failed_fits / ev.fits if ev.fits else 0.0, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report(name: str, metrics: dict, ev: Evaluation, attempted: int, notes: list[str]) -> None:
    for metric, (value, unit) in metrics.items():
        print(f"{name:<18} {metric:<32} {value:>16.6g} {unit}")
    for note in notes:
        print(f"{name:<18} {note}")
    correct = not ev.problems
    print(f"{name:<18} output checks: {'pass' if correct else 'FAIL'}")
    for problem in ev.problems[:20]:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": ev.failed_ops,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    start = time.perf_counter()
    workloads = load_workloads()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.warm()
        if args.setup_probe:
            print(time.perf_counter() - start)
            return 0
        # the warm-up op is untimed; a later op on the same input must match it
        reference = {}
        warmup = Evaluation(workload, reference)
        time_ops(workload, [0], warmup)
        ev = Evaluation(workload, reference)
        ev.problems += warmup.problems
        if args.trace == 0:
            setup_s = probe_setup(args.workload, args.seed)
            records = time_ops(workload, for_seconds(args.seconds, workload.pass_size), ev)
            metrics = end_to_end(workload, records, ev, setup_s)
            wall = [r.seconds for r in records]
            notes = [
                f"{len(records)} ops timed; "
                f"{sum(r.runtime_warnings for r in records)} RuntimeWarnings",
                f"unscaled wall: {(len(records) - ev.failed_ops) / sum(wall):.4g} ops/s, "
                f"p50 {1e3 * statistics.median(wall):.4g} ms",
            ]
            report(args.workload, metrics, ev, len(records), notes)
            return 0

        from tracing import Tracer

        passes = max(1, round(args.seconds * workload.trace_ops_per_s / workload.pass_size))
        ops = passes * workload.pass_size
        plain = time_ops(workload, range(ops), ev)
        tracer = Tracer()
        tracer.install()
        try:
            traced = time_ops(workload, range(ops), tracer=tracer)
        finally:
            tracer.uninstall()
        # checked only now, so that the checks' own library calls are not traced
        for rec in traced:
            ev.add(rec)
        plain_s, traced_s = sum(r.scaled for r in plain), sum(r.scaled for r in traced)
        metrics = tracer.metrics(ops, traced_s / sum(r.seconds for r in traced))
        metrics["runtime_warnings"] = (sum(r.runtime_warnings for r in plain) / ops, "count/op")
        metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
        notes = [f"{ops} ops plain and {ops} traced; outputs compared op by op"]
        report(args.workload, metrics, ev, 2 * ops, notes)
        return 0


if __name__ == "__main__":
    sys.exit(main())
