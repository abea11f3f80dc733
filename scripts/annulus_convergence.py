#!/usr/bin/env python3
"""Mesh-refinement study for the lattice Dirichlet minimizer.

Solves the ring problem with boundary data 1/|x| (the exact minimizer of
the p = 3/2 energy in the plane) on a ladder of spacings and prints the
interior error table with the fitted convergence order and each level's
Newton steps, Hessian products and gradient evaluations.  Three levels
reach h = 1/64 and take about 0.6 s on a shared 2-vCPU machine with one
BLAS thread; a fourth (h = 1/128) adds about 2.3 s.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a source checkout: its src holds the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diraclab.solver import LatticeDomain, SolverConfig, solve_dirichlet


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--inner", type=float, default=1.0)
    ap.add_argument("--outer", type=float, default=2.0)
    ap.add_argument("--levels", type=int, default=3,
                    help="number of meshes, starting at h = 1/16")
    ap.add_argument("--epsilon", type=float, default=1e-6)
    args = ap.parse_args(argv)

    if args.p == 2.0:
        exact = lambda r: np.log(r)
    else:
        expo = (args.p - 2.0) / (args.p - 1.0)
        exact = lambda r: r**expo

    rows = []
    for level in range(args.levels):
        h = 1.0 / (16 * 2**level)
        dom = LatticeDomain.annulus(args.inner, args.outer, h)
        t0 = time.perf_counter()
        cfg = SolverConfig(p=args.p, epsilon=args.epsilon)
        u, diag = solve_dirichlet(
            dom, lambda pts: exact(np.linalg.norm(pts, axis=-1)), cfg)
        dt = time.perf_counter() - t0
        r = np.linalg.norm(dom.coordinates(), axis=-1)
        r[~dom.node_mask] = args.inner
        rel = np.abs(u.values - exact(r)) / np.maximum(np.abs(exact(r)), 1e-3)
        err = float(np.max(rel[dom.interior_mask]))
        rows.append((h, err, diag.iterations, dt))
        print(f"h = 1/{round(1 / h):<4d} max rel error = {err:.6e}   "
              f"newton steps = {diag.iterations:<4d} "
              f"hessian products = {diag.hessian_products:<4d} "
              f"grad evals = {diag.gradient_evaluations:<4d} wall = {dt:6.1f} s   "
              f"converged = {diag.converged}")

    if len(rows) >= 2:
        hs = np.array([r[0] for r in rows])
        es = np.array([r[1] for r in rows])
        q = np.polyfit(np.log(hs), np.log(es), 1)[0]
        print(f"fitted order: {q:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
