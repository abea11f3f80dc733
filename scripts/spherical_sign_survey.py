#!/usr/bin/env python3
"""Sign survey for the radial identities of the spherical Dirac operator.

Evaluates both sides of the first-order radial identity and the nested
second-order equation with each sign of the zero-order coupling
(+/- (p/2) x), at random points on spheres of several dimensions.  The
componentwise left/right ratios identify which convention actually
holds: with the minus sign the ratio is the same for every component,
equal to -2 / rho^2 for chordal distance rho, while the displayed plus
sign produces ratios that drift across components.  The second-order
residual with the minus sign collapses to zero at p = 2 and p = n and
stays O(1) elsewhere.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# run from a source checkout: its src holds the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diraclab.sphere import (
    lr_identity_check,
    random_sphere_points,
    sphere_point,
    spherical_p_harmonic_check,
)

_POLE_SEED = (0.3, -0.7, 0.8, 0.4, 0.25)


def survey(ambient, ps, count, seed):
    n = ambient - 1
    pole = sphere_point(_POLE_SEED[:ambient])
    rng = np.random.default_rng(seed)
    pts = random_sphere_points(rng, ambient, count, avoid=(pole, -pole))
    print(f"\n== sphere S^{n} (ambient {ambient}), pole {np.round(pole, 3)} ==")
    for p in ps:
        print(f"p = {p:g}")
        for x in pts:
            rep = lr_identity_check(x, pole, p)
            rho = float(np.linalg.norm(x - pole))
            line = (f"  rho = {rho:5.3f}  |L+ - R| = {rep.discrepancy:9.3e}  "
                    f"|L- - R| = {rep.discrepancy_flipped:9.3e}")
            if rep.ratios_flipped:
                flipped = np.array(rep.ratios_flipped)
                drift = float(np.ptp(np.array(rep.ratios)))
                gap = float(np.max(np.abs(flipped - (-2.0 / rho**2))))
                line += (f"  ratio- = {flipped[0]:+9.4f} "
                         f"(vs -2/rho^2: gap {gap:.1e}; ratio+ spread {drift:.2g})")
            else:
                line += "  (right side vanishes at p = n: no ratios)"
            print(line)
        hrep = spherical_p_harmonic_check(pole, p, pts)
        disp = max(r["residual"] for r in hrep.rows)
        flip = hrep.max_flipped
        print(f"  second order: max residual displayed {disp:.3e}, "
              f"flipped {flip:.3e}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ambient", type=int, action="append",
                    help="ambient dimension (repeatable; default 3 and 4)")
    ap.add_argument("--p", type=float, action="append",
                    help="exponent (repeatable; default 1.5, 2, 2.5, and n)")
    ap.add_argument("--count", type=int, default=4)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    for ambient in args.ambient or [3, 4]:
        n = ambient - 1
        ps = args.p or [1.5, 2.0, 2.5, float(n)]
        survey(ambient, sorted(set(ps)), args.count, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
