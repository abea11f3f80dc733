#!/usr/bin/env python3
"""Cost matrix of the lattice solver across exponents and problems.

Runs solve_dirichlet at p = 1.1, 1.2, 1.5, 1.8, 2.5 and 3 (epsilon = 1e-6
below p = 2, none above) on ten problems: the ring 1 <= |x| <= 2 with its
exact radial data at h = 1/16, 1/32 and 1/64; the square [-1,1]^2 with
x^2 - y^2 and with sin 3x cos 2y at h = 1/32; unit boxes with affine
scalar and affine Clifford data in 2-D (h = 1/16) and 3-D (h = 1/12); and
the cube [-1,1]^3 with x^2 - y^2 at h = 1/12.  Each row prints whether
the solve converged, its stop reason, Newton steps, Hessian products,
wall time and a digest of the solution and diagnostics, so two versions
of the solver can be compared row by row.  Digests agree only between
runs with the same BLAS thread count, which sets the summation order of
the coarsest multigrid level.  The whole matrix takes about 2 minutes on
a shared 2-vCPU machine with one BLAS thread, 80 s of it in the slowest
row, p = 1.1 with sin 3x cos 2y.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

# run from a source checkout: its src holds the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diraclab.algebra import Multivector
from diraclab.solver import LatticeDomain, SolverConfig, solve_dirichlet

EXPONENTS = (1.1, 1.2, 1.5, 1.8, 2.5, 3.0)


def radial(p):
    if p == 2.0:
        return lambda pts: np.log(np.linalg.norm(pts, axis=-1))
    expo = (p - 2.0) / (p - 1.0)
    return lambda pts: np.linalg.norm(pts, axis=-1) ** expo


def saddle(pts):
    return pts[:, 0] ** 2 - pts[:, 1] ** 2


def wave(pts):
    return np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])


def affine_scalar(dim):
    slope = np.array([0.8, -0.45, 0.3])[:dim]
    return lambda pts: pts @ slope + 0.2


def affine_clifford(dim):
    rng = np.random.default_rng(dim)
    slope = rng.normal(size=(dim, 1 << dim))
    offset = rng.normal(size=1 << dim)
    return lambda pts: Multivector(dim, pts @ slope + offset)


def constant(fn):
    return lambda p: fn


def cases():
    """(name, domain, boundary data for a given p) of every problem."""
    square = LatticeDomain.box([-1.0, -1.0], [1.0, 1.0], 1 / 32)
    out = [(f"annulus-h{k}", LatticeDomain.annulus(1.0, 2.0, 1 / k), radial)
           for k in (16, 32, 64)]
    out += [("square-saddle", square, constant(saddle)),
            ("square-sincos", square, constant(wave))]
    for dim, h in ((2, 1 / 16), (3, 1 / 12)):
        box = LatticeDomain.box([0.0] * dim, [1.0] * dim, h)
        out += [(f"affine-d{dim}", box, constant(affine_scalar(dim))),
                (f"clifford-d{dim}", box, constant(affine_clifford(dim)))]
    out.append(("cube-saddle", LatticeDomain.box([-1.0] * 3, [1.0] * 3, 1 / 12),
                constant(saddle)))
    return out


# the diagnostics a digest covers, by name, so that a field added to
# SolveDiagnostics leaves every digest as it was
DIGEST_FIELDS = ("converged", "iterations", "final_energy", "final_gradient_norm",
                 "energies", "stages", "message", "gradient_evaluations",
                 "energy_evaluations", "hessian_products")


def digest(u, diag):
    h = hashlib.sha256(u.values.tobytes())
    h.update(repr(tuple(getattr(diag, name) for name in DIGEST_FIELDS)).encode())
    return h.hexdigest()[:12]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-iter", type=int, default=5000,
                    help="Newton steps allowed per continuation stage")
    args = ap.parse_args(argv)

    print(f"{'case':<16}{'p':>5}  {'conv':<6}{'reason':<11}{'newton':>7}"
          f"{'hessian':>9}{'wall s':>9}  digest")
    for name, dom, data in cases():
        for p in EXPONENTS:
            cfg = SolverConfig(p=p, epsilon=1e-6 if p < 2 else 0.0,
                               max_iter=args.max_iter)
            t0 = time.perf_counter()
            u, diag = solve_dirichlet(dom, data(p), cfg)
            dt = time.perf_counter() - t0
            print(f"{name:<16}{p:>5g}  {str(diag.converged):<6}{diag.stages[-1][3]:<11}"
                  f"{diag.iterations:>7d}{diag.hessian_products:>9d}{dt:>9.2f}  "
                  f"{digest(u, diag)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
