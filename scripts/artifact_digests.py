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
status is then 1 if any artifact differs.  Under each artifact that
differs, a second line gives the largest relative change among the
baseline's numbers above the goldens' FLOOR, the largest absolute change
among those at or below it, and whether every check status and the
`metadata` match.  The standard library only; with a baseline the 26
runs took 15 s on a 2-vCPU machine.
"""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN = "import sys; from diraclab.cli import main; sys.exit(main(sys.argv[1:]))"


def golden_literal(name: str):
    """The literal `name` of tests/test_golden.py, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"tests/test_golden.py defines no {name}")


def number_pairs(here, there):
    """(this, baseline) for each number at the same place in both artifacts."""
    if isinstance(here, dict) and isinstance(there, dict):
        for key in here.keys() & there.keys():
            yield from number_pairs(here[key], there[key])
    elif isinstance(here, list) and isinstance(there, list):
        for a, b in zip(here, there):
            yield from number_pairs(a, b)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (here, there)):
        yield float(here), float(there)


def moves(here: bytes, there: bytes, floor: float) -> str:
    """How far two artifacts of one case are apart, in the goldens' terms."""
    here, there = json.loads(here), json.loads(there)
    pairs = list(number_pairs(here, there))
    rel = max((abs(a - b) / abs(b) for a, b in pairs if abs(b) > floor), default=0.0)
    gap = max((abs(a - b) for a, b in pairs if abs(b) <= floor), default=0.0)

    def statuses(art):
        return [c.get("status") for c in art.get("checks", [])]

    same = {"check statuses": statuses(here) == statuses(there),
            "metadata": here.get("metadata") == there.get("metadata")}
    return (f"    largest change: {rel:.1e} relative above {floor:g}, {gap:.1e} absolute "
            f"at or below; " + ", ".join(f"{k} {'same' if v else 'DIFFER'}"
                                         for k, v in same.items()))


def artifact(checkout: Path, args: list, scratch: Path) -> bytes:
    """The artifact bytes of one CLI run in `checkout`."""
    out = scratch / "artifact.json"
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *args, "--format", "json", "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return out.read_bytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="a second source checkout")
    opts = parser.parse_args()
    cases, floor, differ = golden_literal("CASES"), golden_literal("FLOOR"), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in cases.items():
            here = artifact(ROOT, args, Path(tmp))
            if opts.baseline is None:
                print(f"{hashlib.sha256(here).hexdigest()}  {name}")
                continue
            there = artifact(opts.baseline.resolve(), args, Path(tmp))
            differ += here != there
            print(f"{hashlib.sha256(here).hexdigest()}  {hashlib.sha256(there).hexdigest()}  "
                  f"{'same' if here == there else 'DIFFERS'}  {name}")
            if here != there:
                print(moves(here, there, floor))
    if opts.baseline is not None:
        print(f"{differ} of {len(cases)} artifacts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
