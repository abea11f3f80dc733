#!/usr/bin/env python3
"""sha256 of the JSON artifact of every golden case.

    python scripts/artifact_digests.py [--baseline CHECKOUT]

Each case of `CASES` in `tests/test_golden.py` runs as
`diraclab <case> --format json --out FILE` in a child interpreter with one
BLAS thread (a lattice solve's bits follow the thread count) and this
checkout's `src` on the path; one line per case gives the digest of the
artifact's bytes.  With `--baseline`, a second source checkout (say the
parent commit, unpacked by `git archive`) runs the same cases, and each
line also gives the baseline's digest and "same" or "DIFFERS"; the exit
status is then 1 if any artifact differs.  The standard library only;
with a baseline the 26 runs took 15 s on a 2-vCPU machine.
"""

import argparse
import ast
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN = "import sys; from diraclab.cli import main; sys.exit(main(sys.argv[1:]))"


def golden_cases() -> dict:
    """The CASES literal of tests/test_golden.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_golden.py defines no CASES")


def digest(checkout: Path, args: list, scratch: Path) -> str:
    """sha256 of the artifact of one CLI run in `checkout`."""
    out = scratch / "artifact.json"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *args, "--format", "json", "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="a second source checkout")
    opts = parser.parse_args()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in golden_cases().items():
            here = digest(ROOT, args, Path(tmp))
            if opts.baseline is None:
                print(f"{here}  {name}")
                continue
            there = digest(opts.baseline.resolve(), args, Path(tmp))
            differ += here != there
            print(f"{here}  {there}  {'same' if here == there else 'DIFFERS'}  {name}")
    if opts.baseline is not None:
        print(f"{differ} of {len(golden_cases())} artifacts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
