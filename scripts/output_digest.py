"""One sha256 per benchmark workload over the outputs of its first ops.

Imports ``perfbench/workloads.py`` and the library under ``src`` of the given
checkout, runs the first ops of each workload at one seed, and hashes their
``fingerprint`` strings in order, with the temporary directory that holds the
inputs replaced by a fixed token.  Two checkouts that print the same digests
gave byte-identical outputs on those ops.

    python3 scripts/output_digest.py --checkout . --seed 7302
    python3 scripts/output_digest.py --checkout ../parent --seed 7302 --ops type1_t4_n50=150

Run each checkout in its own process: the library is imported once.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

DEFAULT_OPS = {"type1_t4_n50": 60, "recovery_t4_n500": 20, "compare_n1000": 32}
TMP_TOKEN = "TMP"


def ops_flag(ap: argparse.ArgumentParser, defaults: dict) -> None:
    ap.add_argument(
        "--ops", action="append", default=[], metavar="WORKLOAD=N",
        help="ops to run for one workload (repeatable); defaults "
        + ", ".join(f"{w}={n}" for w, n in defaults.items()),
    )


def op_counts(ap: argparse.ArgumentParser, items: list, defaults: dict) -> dict:
    """The ops to run per workload: ``defaults``, with each WORKLOAD=N item applied."""
    counts = dict(defaults)
    for item in items:
        name, _, n = item.partition("=")
        if name not in counts or not n.isdigit():
            ap.error(f"bad --ops {item!r}")
        counts[name] = int(n)
    return counts


def workload_outputs(checkout: str, seed: int, counts: dict):
    """Yield (name, workload, workdir, outputs of its first ops) per workload.

    Imports the library and ``perfbench/workloads.py`` of the checkout, so
    call it once per process.  The outputs are produced as they are read.
    """
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, ops in counts.items():
        with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
            workload = workloads.WORKLOADS[name](seed, Path(tmp))
            workload.warm()
            yield name, workload, tmp, (workload.op(k) for k in range(ops))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=".", help="root of the checkout to run")
    ap.add_argument("--seed", type=int, required=True)
    ops_flag(ap, DEFAULT_OPS)
    args = ap.parse_args(argv)
    counts = op_counts(ap, args.ops, DEFAULT_OPS)
    for name, workload, tmp, outputs in workload_outputs(args.checkout, args.seed, counts):
        h = hashlib.sha256()
        for output in outputs:
            h.update(workload.fingerprint(output).replace(tmp, TMP_TOKEN).encode())
        print(f"{name} {counts[name]} ops {h.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
