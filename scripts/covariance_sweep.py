#!/usr/bin/env python3
"""Weight-exponent survey for conformal covariance of the nonlinear systems.

For each exponent p and each Moebius map, pulls radial solutions back
through the map and integrates the weak residual of the weighted
equation over a scan of weight exponents.  Over the scanned exponents
the conformal weight 2(p - n) should stand out as the minimizer by many
orders of magnitude; the first-order (Dirac) pullback is checked
alongside with its own weight built in.
"""

import argparse
import sys
from pathlib import Path

# run from a source checkout: its src holds the package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diraclab.fields import Domain, p_dirac_solution, p_harmonic_radial
from diraclab.mobius import parse_mobius_expr
from diraclab.weakform import (
    dirac_covariance_experiment,
    harmonic_covariance_experiment,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--p", type=float, action="append",
                    help="exponent to survey (repeatable; default 2.5 and n)")
    ap.add_argument("--mobius", action="append",
                    help="map expression (repeatable; default inversion and "
                         "dilate:2*translate:0.4,-0.1,0.2)")
    ap.add_argument("--order", type=int, default=6)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    n = args.n
    ps = args.p or [2.5, float(n)]
    shift = (["0.4", "-0.1", "0.2"] + ["0.0"] * n)[:n]
    exprs = args.mobius or [
        "inversion",
        "dilate:2*translate:" + ",".join(shift),
    ]
    source = Domain.ball([3.0] + [0.0] * (n - 1), 1.0)
    off_axis = [0.0, 0.5] + [0.0] * (n - 2)
    far = [-5.0] + [0.0] * (n - 1)
    kw = dict(order=args.order, seed=args.seed, random_bumps=2)

    for expr in exprs:
        m = parse_mobius_expr(expr, n)
        print(f"\n== map {expr}  (n = {n}) ==")
        for p in ps:
            first = dirac_covariance_experiment(
                p_dirac_solution(n, p, center=off_axis), p, m, source, **kw)
            rep = harmonic_covariance_experiment(
                p_harmonic_radial(n, p, center=far), p, m, source, **kw)
            table = rep.normalized_by_exponent()
            conformal = round(2.0 * (p - n), 12)
            print(f"p = {p:<4}  first-order residual {first.max_normalized:.3e}")
            for s in sorted(table):
                tag = "  <- conformal weight" if s == conformal else ""
                star = " *" if s == rep.best_exponent else "  "
                print(f"  s = {s:+7.2f}{star} normalized {table[s]:.3e}{tag}")
            # maps with constant scale (no inversion factor) tie every
            # exponent at rounding level, so only a real gap is an error
            if table[conformal] > max(1e-10, 10.0 * table[rep.best_exponent]):
                print("  WARNING: conformal weight does not minimize the scan")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
