#!/usr/bin/env python3
"""Snapshot of the benchmark: end-to-end medians, per-layer metrics and
the machine, written to one JSON file.

    python scripts/bench_snapshot.py BENCH_<n>.json [--baseline CHECKOUT] [--runs 10]

Runs `diracbench/run.py` as child processes, each a fresh interpreter
with one BLAS thread: `--runs` untraced runs of every workload in
`BENCHMARK.json` (seeds 1, 2, ...; `run_seconds` each) for the median of
each end-to-end metric, then one traced run for the per-layer metrics.
With `--baseline`, a second source checkout (say the parent commit,
unpacked by `git archive`) gets the same runs, alternating with this
checkout's: the baseline runs first in odd pairs, this checkout in even
ones.  The file then holds both sides, and per workload and metric the
ratio of the medians, the baseline's quartiles and the number of pairs
this checkout won.  It also records nproc, the Python and numpy versions,
the BLAS library and thread count, `wc -l` of `src/diraclab/*.py` and,
per side, the tier-1 suite's passed and failed counts and wall time from
one child `pytest` run after the benchmark runs, and two timing grids,
each from one child interpreter: for `geometric_product` the median
milliseconds per call at dims 3-6, batches of 1, 64, 1,000 and 8,192
rows, for a dense times a dense batch, a vector times a dense batch and
one row times a dense batch; for the weak pairing the median milliseconds
of `normalized_weak_residual` of `p_dirac_solution` against the first
default bump on the workload's ball, at dims 2-4 and orders 6 and 12, and
of one pass over the workload's 13-bump dim-3 order-12 family, each rule
built before the clock starts, with the nodes each case streamed (counted
at `weakform.weak_pairing`) in `pairing_grid_nodes`.  A third child per side gives
`cli_runs_ms`: the median of 3 timings of `main` inside that interpreter
for each of `covariance --theorem 1 --n 4 --order 8` and `sphere-check
--n 4`, the heavy Moebius and sphere runs outside the benchmark, and a
fourth gives `sphere_ops_ms`: the median milliseconds of 25 calls each of
`spherical_p_harmonic_check` (p = 2.5, five points), `lr_identity_check`
(p = 2.5, one point) and `yamabe_op` (of |x - y|^0.5, five points) at
ambient 3 and 4, the nested spherical operators.  numpy and the standard
library only; a snapshot with a baseline at the default
10 runs took 16 minutes on a 2-vCPU machine, one tier-1 run (about a
minute) per side included.

Before the first run, each checkout's `src` and `diracbench` are compiled
to bytecode, and the children run without PYTHONDONTWRITEBYTECODE, so
both sides import from current caches: otherwise a fresh `git archive`
baseline compiles every module on every import while a working tree loads
its old `__pycache__`, and `setup_s` compares bytecode caches, not code.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """This environment with one BLAS thread and bytecode writes allowed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, **{v: str(BLAS_THREADS) for v in BLAS_VARS})


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON result line of one diracbench run in `checkout`."""
    env = child_env()
    cmd = [sys.executable, "diracbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(checkout: Path) -> dict:
    """Passed and failed counts and wall time of one tier-1 run in `checkout`."""
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = re.findall(r"(\d+) (passed|failed|errors?)", tail)
    return {"passed": sum(int(k) for k, word in counts if word == "passed"),
            "failed": sum(int(k) for k, word in counts if word != "passed"),
            "wall_s": wall, "summary": tail}


GRID = """
import json, statistics, time
import numpy as np
from diraclab.algebra import Multivector, geometric_product
rng, out = np.random.default_rng(0), {}
for dim in (3, 4, 5, 6):
    for rows in (1, 64, 1000, 8192):
        dense = lambda: Multivector(dim, rng.standard_normal((rows, 1 << dim)))
        kinds = {"dense.dense": (dense(), dense()), "row.batch": (dense().coeffs[0], dense()),
                 "vector.dense": (Multivector.from_vector(dim, rng.standard_normal((rows, dim))),
                                  dense())}
        for kind, (a, b) in kinds.items():
            a, times = a if isinstance(a, Multivector) else Multivector(dim, a), []
            for _ in range(5 if rows << dim > 1 << 16 else 25):
                start = time.perf_counter()
                geometric_product(a, b)
                times.append(time.perf_counter() - start)
            out[f"d{dim}.r{rows}.{kind}"] = statistics.median(times) * 1e3
print(json.dumps(out))
"""


PAIRING = """
import json, statistics, time
from diraclab import weakform
from diraclab.fields import Domain, p_dirac_solution
from diraclab.weakform import QuadratureRule, default_test_functions, normalized_weak_residual
streamed, pairing = [], weakform.weak_pairing

def counted(*args):
    out = pairing(*args)
    streamed.append(out[2])
    return out

weakform.weak_pairing = counted
ms, nodes = {}, {}

def clock(key, call, repeats):
    times = []
    for _ in range(repeats):
        streamed.clear()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    ms[key], nodes[key] = statistics.median(times) * 1e3, sum(streamed)

for dim, p in ((2, 1.5), (3, 2.5), (4, 3.0)):
    ball = Domain.ball([3.0] + [0.0] * (dim - 1), 1.0)
    f, eta = p_dirac_solution(dim, p), default_test_functions(ball, seed=1, random_count=1)[0]
    for order in (6, 12):
        rule = QuadratureRule.build(ball, order=order, cells=2)
        clock(f"d{dim}.o{order}", lambda: normalized_weak_residual(f, p, eta, rule),
              3 if (dim, order) == (4, 12) else 9)
ball = Domain.ball([3.0, 0.0, 0.0], 1.0)
f, rule = p_dirac_solution(3, 2.5), QuadratureRule.build(ball, order=12, cells=2)
family = default_test_functions(ball, seed=1, random_count=5)
clock("family.d3o12", lambda: [normalized_weak_residual(f, 2.5, eta, rule) for eta in family], 5)
print(json.dumps({"ms": ms, "nodes": nodes}))
"""


CLI_RUNS = """
import contextlib, io, json, statistics, time
from diraclab.cli import main
out = {}
for args in ("covariance --theorem 1 --n 4 --order 8", "sphere-check --n 4"):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            main(args.split())
        times.append(time.perf_counter() - start)
    out[args] = statistics.median(times) * 1e3
print(json.dumps(out))
"""


SPHERE_OPS = """
import json, statistics, time
import numpy as np
from diraclab import sphere
out = {}
for ambient in (3, 4):
    pole = sphere.sphere_point([0.3, -0.5, 0.7, 0.4][:ambient])
    pts = sphere.random_sphere_points(np.random.default_rng(0), ambient, 5, avoid=(pole,))
    f = sphere.radial_distance_power(pole, 0.5)
    ops = {"spherical_p_harmonic_check": lambda: sphere.spherical_p_harmonic_check(pole, 2.5, pts),
           "lr_identity_check": lambda: sphere.lr_identity_check(pts[0], pole, 2.5),
           "yamabe_op": lambda: sphere.yamabe_op(f, pts)}
    for name, op in ops.items():
        times = []
        for _ in range(25):
            start = time.perf_counter()
            op()
            times.append(time.perf_counter() - start)
        out[f"a{ambient}.{name}"] = statistics.median(times) * 1e3
print(json.dumps(out))
"""


def timing_grid(checkout: Path, script: str) -> dict:
    """The JSON that `script` (`GRID`, `PAIRING`, `CLI_RUNS` or `SPHERE_OPS`) prints when
    run in a child interpreter on `checkout`'s source."""
    env = dict(child_env(), PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def line_counts(checkout: Path) -> dict:
    files = sorted((checkout / "src" / "diraclab").glob("*.py"))
    counts = {f.name: len(f.read_text().splitlines()) for f in files}
    return dict(counts, total=sum(counts.values()))


def summary(results: list) -> dict:
    """Per end-to-end metric, its unit, runs and median, plus the runs'
    correctness and operation counts."""
    out = {"correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results)}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        runs = [r["metrics"][name]["value"] for r in results]
        out[name] = {"unit": metric["unit"], "median": statistics.median(runs), "runs": runs}
    return out


def comparison(mine: list, base: list) -> dict:
    """Per end-to-end metric: the ratio of the medians (this / baseline),
    the baseline's quartiles and the pairs this checkout won (ties count
    for neither side)."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in mine]
        b = [r["metrics"][name]["value"] for r in base]
        q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else (b[0],) * 3
        out[name] = {
            "ratio_of_medians": statistics.median(a) / statistics.median(b),
            "baseline_quartiles": [q1, q3],
            "pairs_won": sum((x < y) if lower else (x > y) for x, y in zip(a, b)),
            "pairs": len(a),
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="the JSON file to write")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="a second source checkout to run alternately with this one")
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload and side")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = {"this": ROOT}
    if args.baseline is not None:
        if not (args.baseline / "diracbench" / "run.py").is_file():
            ap.error(f"--baseline {args.baseline} holds no diracbench/run.py")
        sides["baseline"] = args.baseline.resolve()

    for path in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "diracbench"],
                       cwd=path, env=child_env(), check=True)
    runs = {side: {} for side in sides}
    for w in SPEC["workloads"]:
        for i in range(args.runs):
            order = list(sides) if i % 2 else list(sides)[::-1]
            for side in order:
                res = run_bench(sides[side], w["name"], i + 1, 0)
                runs[side].setdefault(w["name"], []).append(res)
                value = res["metrics"]["wall_s"]["value"]
                print(f"{w['name']} seed {i + 1} {side}: wall_s {value:.3f}", file=sys.stderr)

    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    snapshot = {
        "environment": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{build.get('name')} {build.get('version')}",
            "blas_threads": BLAS_THREADS,
        },
        "run_seconds": SPEC["run_seconds"],
        "runs_per_workload": args.runs,
    }
    first = SPEC["workloads"][0]["name"]
    for side, path in sides.items():
        snapshot[side] = {
            "src_lines": line_counts(path),
            "end_to_end": {w: summary(r) for w, r in runs[side].items()},
            "per_layer": run_bench(path, first, 1, 1)["metrics"],
            "product_grid_ms": timing_grid(path, GRID),
            **dict(zip(("pairing_grid_ms", "pairing_grid_nodes"),
                       timing_grid(path, PAIRING).values())),
            "cli_runs_ms": timing_grid(path, CLI_RUNS),
            "sphere_ops_ms": timing_grid(path, SPHERE_OPS),
            "tier1": tier1(path),
        }
    if "baseline" in sides:
        snapshot["this_vs_baseline"] = {
            w: comparison(runs["this"][w], runs["baseline"][w]) for w in runs["this"]}
    args.out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
