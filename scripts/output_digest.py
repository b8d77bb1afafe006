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


def digest(workload, ops: int, workdir: str) -> str:
    h = hashlib.sha256()
    for k in range(ops):
        text = workload.fingerprint(workload.op(k)).replace(workdir, TMP_TOKEN)
        h.update(text.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", default=".", help="root of the checkout to run")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--ops", action="append", default=[], metavar="WORKLOAD=N",
        help="ops to hash for one workload (repeatable); defaults "
        + ", ".join(f"{w}={n}" for w, n in DEFAULT_OPS.items()),
    )
    args = ap.parse_args(argv)
    counts = dict(DEFAULT_OPS)
    for item in args.ops:
        name, _, n = item.partition("=")
        if name not in counts or not n.isdigit():
            ap.error(f"bad --ops {item!r}")
        counts[name] = int(n)

    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, ops in counts.items():
        with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
            workload = workloads.WORKLOADS[name](args.seed, Path(tmp))
            workload.warm()
            print(f"{name} {ops} ops {digest(workload, ops, tmp)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
