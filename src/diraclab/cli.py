"""Experiment runner binding the library together.

Each subcommand runs a fixed acceptance set (identity self-tests,
residual sweeps, covariance experiments, the lattice solver, spherical
and two-dimensional checks) and emits its result table as CSV or JSON.
Runs are deterministic: identical configuration and seed produce
byte-identical artifacts (no timestamps; floats are written with 17
significant digits so they round-trip losslessly).

Exit status: 0 when every check in the subcommand's acceptance set
passes, 1 on a failed check (the per-check report goes to stderr),
2 on a usage error, which includes a configuration that breaks a library
contract.

A plain-text configuration file of ``key = value`` lines may supply any
flag value (``--config run.cfg``); values given on the command line win
over the file.
"""

import argparse
import csv
import io
import json
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .algebra import (
    AlgebraError,
    Multivector,
    geometric_product,
    pin_action,
    product_signs,
    reflect,
)
from .cr2d import (
    p_cr_residual,
    p_cr_solution,
    polynomial_map,
    theorem5_experiment,
    transfer_identity_check,
    wirtinger_polynomial,
)
from .fields import (
    Domain,
    FieldError,
    convergence_order,
    log_radial,
    p_dirac_residual,
    p_dirac_solution,
    p_harmonic_radial,
)
from .mobius import MobiusError, parse_mobius_expr
from .solver import LatticeDomain, SolverConfig, SolverError, solve_dirichlet
from .sphere import (
    SphericalCap,
    cayley_ratio_constancy,
    default_cap_bumps,
    lr_identity_check,
    normalized_weak_spherical_residual,
    random_sphere_points,
    sphere_point,
    spherical_kernel,
    spherical_p_dirac_residual,
    spherical_p_harmonic_check,
)
from .weakform import (
    WeakFormError,
    dirac_covariance_experiment,
    fitted_node_count,
    harmonic_covariance_experiment,
)


class UsageError(ValueError):
    """Bad flag or configuration value (exit status 2)."""


# a configuration that parses but breaks a library contract is a usage
# error too, never a failed check
_CONTRACT_ERRORS = (
    UsageError, AlgebraError, FieldError, MobiusError, SolverError, WeakFormError,
)


# --------------------------------------------------------------- formatting


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def render_csv(rows) -> str:
    out = io.StringIO()
    if rows:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for r in rows:
            writer.writerow([_fmt_cell(v) for v in r.values()])
    return out.getvalue()


def render_json(subcommand, params, metadata, rows, checks, passed) -> str:
    doc = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": params.get("seed"),
        "parameters": params,
        "metadata": metadata,
        "rows": rows,
        "checks": checks,
        "passed": passed,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(checks):
    for c in checks:
        status = c["status"].upper()
        parts = [f"{status:6s} {c['check']}"]
        if c["value"] is not None:
            parts.append(f"value={_fmt_cell(c['value'])}")
        if c["tolerance"] is not None:
            parts.append(f"tolerance={_fmt_cell(c['tolerance'])}")
        sys.stderr.write("  ".join(parts) + "\n")
    failed = sum(1 for c in checks if c["status"] == "fail")
    graded = sum(1 for c in checks if c["status"] != "report")
    sys.stderr.write(
        f"{'FAILED' if failed else 'OK'} "
        f"{graded - failed}/{graded} checks passed\n"
    )


def _check(checks, name, value=None, tolerance=None, ok=None):
    """Append one check row: graded against `tolerance` when one is given,
    else passed or failed by `ok`, else only reported."""
    if tolerance is not None:
        ok = value <= tolerance
    checks.append({
        "check": name,
        "value": None if value is None else float(value),
        "tolerance": None if tolerance is None else float(tolerance),
        "status": "report" if ok is None else "pass" if ok else "fail",
    })


# ------------------------------------------------------------ configuration


def read_config_file(path):
    table = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        table[key.strip().replace("-", "_")] = value.strip()
    return table


# A flag's converter turns its text, from the command line or a config file
# alike, into its value, or raises ValueError saying what the flag accepts.


def _integer(low, high=None):
    """Converter to an int in low..high, unbounded above when high is None."""
    def convert(s):
        v = int(s)
        if v < low or high is not None and v > high:
            raise ValueError(f"must lie in {low}..{high}" if high is not None
                             else f"must be >= {low}")
        return v
    return convert


def _finite(s):
    v = float(s)
    if not np.isfinite(v):
        raise ValueError("must be finite")
    return v


def _exponent(s):
    v = _finite(s)
    if v <= 1.0:
        raise ValueError("must exceed 1")
    return v


def _choice(*allowed):
    """Converter accepting only the listed values."""
    def convert(s):
        v = type(allowed[0])(s)
        if v not in allowed:
            raise ValueError(f"must be one of {', '.join(map(str, allowed))}")
        return v
    return convert


# ---------------------------------------------------------------- subcommands


def _blade_product_oracle(ia, ib):
    """Sign and index tuple of a blade product: the parity of the swaps that
    sort the concatenated index list, then a -1 for each cancelled pair of
    equal neighbours (e_i^2 = -1)."""
    seq = list(ia) + list(ib)
    swaps = sum(x > y for k, x in enumerate(seq) for y in seq[k + 1:])
    sign, out = -1 if swaps % 2 else 1, []
    for idx in sorted(seq):
        if out and out[-1] == idx:
            out.pop()
            sign = -sign
        else:
            out.append(idx)
    return sign, tuple(out)


def _mask_indices(mask):
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _rel_gap(a: Multivector, b: Multivector):
    gap = (a - b).norm()
    scale = np.maximum(np.maximum(a.norm(), b.norm()), 1.0)
    return float(np.max(gap / scale))


# the self-test's memory budget, priced before any work; at its peak a
# dimension holds 10-15 float arrays of (checks, 2**n) alive (measured at
# dims 2-6), counted as _SELFTEST_LIVE
_SELFTEST_BUDGET = 1 << 30
_SELFTEST_LIVE = 16


def run_algebra_selftest(params):
    dims = [params["n"]] if params["n"] is not None else [2, 3, 4, 5, 6]
    count = params["checks"]
    price = 8 * count * (1 << max(dims)) * _SELFTEST_LIVE
    if price > _SELFTEST_BUDGET:
        raise UsageError(
            f"{count:,} checks at n = {max(dims)} would hold about {price / 2**30:.3g} GiB "
            f"({_SELFTEST_LIVE} live batches of checks x 2**n floats), over the "
            f"1 GiB budget; lower --checks")
    rng = np.random.default_rng(params["seed"])
    rows, checks = [], []
    for n in dims:
        batch = lambda: Multivector(n, rng.standard_normal((count, 1 << n)))

        a, b, c = batch(), batch(), batch()
        worst = _rel_gap(geometric_product(geometric_product(a, b), c),
                         geometric_product(a, geometric_product(b, c)))
        properties = [("associativity", worst, 1e-12)]

        a, b = batch(), batch()
        ab = geometric_product(a, b)  # one product for both anti-automorphisms
        worst = _rel_gap(ab.reversion(), geometric_product(b.reversion(), a.reversion()))
        properties.append(("reversion-antiautomorphism", worst, 1e-12))

        worst = _rel_gap(ab.conjugation(), geometric_product(b.conjugation(), a.conjugation()))
        properties.append(("conjugation-antiautomorphism", worst, 1e-12))

        # norm multiplicativity for group elements assembled from <= 4
        # vector factors, each drawn one component axis at a time
        worst, m = 0.0, count // 4 + 1
        vectors = lambda: Multivector.from_vector(n, rng.standard_normal((n, m)).T)
        for factors in (1, 2, 3, 4):
            g = vectors()
            for _ in range(factors - 1):
                g = geometric_product(g, vectors())
            A = Multivector(n, rng.standard_normal((m, 1 << n)))
            lhs, rhs = geometric_product(g, A).norm(), g.norm() * A.norm()
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1.0))))
        properties.append(("norm-multiplicativity", worst, 1e-12))

        # unit-vector reflection against the componentwise mirror formula
        vecs = rng.standard_normal((count, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        xs = rng.standard_normal((count, n))
        sel = [1 << j for j in range(n)]
        unit = Multivector.from_vector(n, vecs)
        want = xs - 2.0 * np.vecdot(xs, vecs)[:, None] * vecs
        got = reflect(unit, Multivector.from_vector(n, xs)).coeffs[:, sel]
        properties.append(("unit-reflection", float(np.max(np.abs(got - want))), 1e-12))

        # pin actions preserve pairwise dot products; per sample the stream
        # holds two unit factors after vecs[k], then x and y
        draws = rng.standard_normal((count, 4, n))
        g = unit
        for w in (draws[:, 0], draws[:, 1]):
            w /= np.sqrt(np.vecdot(w, w))[:, None]
            g = geometric_product(g, Multivector.from_vector(n, w))
        x, y = draws[:, 2], draws[:, 3]
        gx = pin_action(g, Multivector.from_vector(n, x)).coeffs[:, sel]
        gy = pin_action(g, Multivector.from_vector(n, y)).coeffs[:, sel]
        xy = np.vecdot(x, y)
        worst = np.abs(np.vecdot(gx, gy) - xy) / np.maximum(np.abs(xy), 1.0)
        properties.append(("pin-dot-preservation", float(np.max(worst)), 1e-12))

        # sampled blade pairs against the inversion-count oracle (exact)
        signs, mism = product_signs(n), 0
        for _ in range(count):
            ma, mb = int(rng.integers(1 << n)), int(rng.integers(1 << n))
            s, idx = _blade_product_oracle(_mask_indices(ma), _mask_indices(mb))
            mism += sum(1 << (i - 1) for i in idx) != ma ^ mb or signs[ma, mb] != s
        properties.append(("blade-product-oracle", float(mism), 0.0))

        for prop, worst, tol in properties:
            status = "pass" if worst <= tol else "fail"
            rows.append({
                "n": n, "property": prop, "checks": count,
                "worst": worst, "tolerance": tol, "status": status,
            })
            _check(checks, f"n={n} {prop}", worst, tol)
    return rows, {}, checks


# the weak-form budget, priced before any work as passes over the fitted rule
# x its nodes at the full Gauss level (an upper bound) x 2**ambient blades x
# the pairing's weight; the costliest default run, sphere-check --n 4, 1.0e8
_QUADRATURE_BUDGET = 1 << 27
# the twisted-harmonic scan's cost per node-blade: at n = 4, order 8 (3
# passes each, one BLAS thread, 2 runs inside main) covariance --theorem 3
# took 4.62 s, --theorem 1 3.90-4.41 s and sphere-check --n 4 (1.0e8)
# 3.33-3.46 s: 1.05-1.18 flat and 5.3-5.5 cap pairings (14.07-14.29 s, 3.3
# flat and 18 cap pairings, before its frame was kept to grade-1 columns).  It
# stays 4, between the two.  Cap and disc pairings keep 1: cr-check --order
# 186 (1.3e8) took 6.3-7.4 s, 1.4-1.9x a cap's (sphere-check 2.9-3.4 s).
_TWISTED_WEIGHT = 4


def _check_quadrature_budget(passes, dim, order, ambient, weight=1):
    """Refuse a run of `passes` pairings on the order-`order` fitted rule
    over a dim-dimensional support priced above the budget, each node-blade
    costing `weight` flat pairings."""
    nodes = fitted_node_count(dim, order)
    cost = weight * passes * nodes * (1 << ambient)
    if cost > _QUADRATURE_BUDGET:
        times = f" at {weight}x a flat pairing" if weight != 1 else ""
        raise UsageError(
            f"{passes} passes over {nodes:,} quadrature nodes of {1 << ambient} blades"
            f"{times} price at {cost:.2g}, over the budget of 2**27; lower --order or --n")


def run_kernel_residual(params):
    n, p, seed = params["n"], params["p"], params["seed"]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((20, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(1.0, 3.0, 20)[:, None]
    f = p_dirac_solution(n, p)

    ladder = (4e-3, 2e-3, 1e-3)
    samples = []
    for h in ladder:
        res = float(np.max(
            p_dirac_residual(f, p, pts, h=h, richardson=False).norm()))
        samples.append((h, res))
    order = convergence_order(samples)
    rich = float(np.max(p_dirac_residual(f, p, pts, h=1e-3).norm()))

    rows = [
        {"n": n, "p": p, "h": h, "residual": r, "fitted_order": order}
        for h, r in samples
    ]
    checks = []
    _check(checks, "extrapolated strong residual", rich, 1e-8)
    _check(checks, "fitted order gap from 2", abs(order - 2.0), 0.3)
    meta = {"richardson_residual": rich, "fitted_order": order}
    return rows, meta, checks


_MODE_SUMMARY = {
    1: "weighted covariance of the first-order system",
    2: "unweighted covariance of the second-order system at p = n",
    3: "weighted covariance of the second-order system",
    4: "weight-exponent scan for the second-order system",
}


def run_covariance(params):
    n, seed = params["n"], params["seed"]
    mode = params["theorem"]
    p = params["p"]
    if p is None:
        p = float(n) if mode == 2 else 2.5
    if mode == 2 and p != float(n):
        raise UsageError("mode 2 is the p = n case; drop --p or set it to n")
    m = parse_mobius_expr(params["mobius"], n)
    kw = dict(order=params["order"], seed=seed, random_bumps=2)
    # one pass per random bump and one for the 2**n blade bumps; mode 4
    # runs its experiment twice, and modes 2-4 pair the twisted derivative
    _check_quadrature_budget((kw["random_bumps"] + 1) * (2 if mode == 4 else 1),
                             n, kw["order"], n, 1 if mode == 1 else _TWISTED_WEIGHT)

    source = Domain.ball([3.0] + [0.0] * (n - 1), 1.0)
    off_axis = [0.0, 0.5] + [0.0] * (n - 2)
    far = [-5.0] + [0.0] * (n - 1)

    checks = []
    if mode == 1:
        rep = dirac_covariance_experiment(
            p_dirac_solution(n, p, center=off_axis), p, m, source, **kw)
        _check(checks, "max normalized pullback residual",
               rep.max_normalized, 1e-5)
    elif mode == 2:
        rep = harmonic_covariance_experiment(
            log_radial(n, center=far), p, m, source, **kw)
        table = rep.normalized_by_exponent()
        _check(checks, "unweighted pullback residual", table[0.0], 1e-5)
    elif mode == 3:
        rep = harmonic_covariance_experiment(
            p_harmonic_radial(n, p, center=far), p, m, source, **kw)
        table = rep.normalized_by_exponent()
        conformal = 2.0 * (p - n)
        key = min(table, key=lambda s: abs(s - conformal))
        if abs(key - conformal) > 1e-9:
            raise UsageError(
                f"scan table lacks the conformal weight {conformal}")
        _check(checks, "conformal-weight pullback residual",
               table[key], 1e-5)
    else:
        rep = harmonic_covariance_experiment(
            p_harmonic_radial(n, p, center=far), p, m, source, **kw)
        again = harmonic_covariance_experiment(
            p_harmonic_radial(n, p, center=far), p, m, source, **kw)
        table = rep.normalized_by_exponent()
        complete = (len(table) >= 3
                    and all(np.isfinite(v) for v in table.values())
                    and rep.to_rows() == again.to_rows())
        _check(checks, "scan table complete and deterministic", len(table), ok=complete)
        _check(checks, "scan minimizer exponent", rep.best_exponent)

    meta = {
        "mode": mode,
        "mode_summary": _MODE_SUMMARY[mode],
        "mobius": params["mobius"],
        "best_exponent": rep.best_exponent,
        "order": rep.order,
        "notes": list(rep.notes),
    }
    return rep.to_rows(), meta, checks


_LINEAR_SLOPE = (0.8, -0.45, 0.3, 0.15, -0.2, 0.1)
_BC_BLOCK = 1 << 13  # nodes per evaluation of the radial field, whose values are (N, 2**n)


# most nodes a solve lattice may hold; --n 5 at h = 1/16 holds 17**5 = 1,419,857
_NODE_BUDGET = 2_000_000


def _check_node_budget(side, n, h):
    """Refuse, before allocating it, a lattice of (side/h + 1)**n nodes over budget."""
    if h > 0 and side / h + 1 > _NODE_BUDGET ** (1 / n):
        raise UsageError(f"a {n}-dimensional lattice of {side / h + 1:.6g} nodes per "
                         f"side exceeds the budget of {_NODE_BUDGET:,}; raise --h or lower --n")


def _parse_region(text, n, h):
    head, _, args = text.partition(":")
    if head == "box":
        try:
            lo, hi = (0.0, 1.0) if not args else map(float, args.split(","))
        except ValueError as exc:
            raise UsageError("box needs lo,hi bounds") from exc
        _check_node_budget(hi - lo, n, h)
        return LatticeDomain.box([lo] * n, [hi] * n, h), f"box:{lo},{hi}"
    if head == "annulus":
        if n != 2:
            raise UsageError("annulus regions are two-dimensional; use --n 2")
        try:
            inner, outer = map(float, args.split(","))
        except ValueError as exc:
            raise UsageError("annulus needs inner,outer radii") from exc
        _check_node_budget(2 * outer, n, h)
        return LatticeDomain.annulus(inner, outer, h), f"annulus:{inner},{outer}"
    raise UsageError(f"unknown region {text!r}")


def _make_bc(text, domain, p):
    n = domain.dim
    if text == "linear":
        slope = np.array(_LINEAR_SLOPE[:n])
        fn = lambda pts: pts @ slope
        return fn, fn, 1e-6, "linear"
    if text == "radial":
        r_all = np.linalg.norm(
            domain.coordinates()[domain.node_mask], axis=-1)
        if float(np.min(r_all)) < 0.5 * domain.h:
            raise UsageError(
                "radial boundary data is singular at the origin; "
                "choose a region that avoids it")
        radial = p_harmonic_radial(n, p)

        def fn(pts):
            out = np.empty(len(pts))
            for k in range(0, len(pts), _BC_BLOCK):
                out[k : k + _BC_BLOCK] = radial(pts[k : k + _BC_BLOCK]).scalar_part()
            return out

        band = 0.05 if domain.region.startswith("annulus") else None
        return fn, fn, band, "radial"
    if text.startswith("file:"):
        path = text[len("file:"):]
        try:
            grid = np.loadtxt(path)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read boundary file {path!r}: {exc}") from exc
        grid = np.asarray(grid, dtype=float).reshape(-1)
        want = int(np.prod(domain.shape))
        if grid.size != want:
            raise UsageError(
                f"boundary file holds {grid.size} values; the lattice "
                f"needs {want}")
        grid = grid.reshape(domain.shape)

        def fn(pts):
            idx = np.rint((pts - np.asarray(domain.lo)) / domain.h).astype(int)
            return grid[tuple(idx.T)]

        return fn, None, None, "file"
    raise UsageError(f"unknown boundary data {text!r}")


def _parse_schedule(text, p):
    if text == "auto":
        return None, (1e-6 if p < 2 else 0.0)
    try:
        stages = [float(s) for s in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad schedule {text!r}: {exc}") from exc
    return stages, stages[-1]


def run_solve(params):
    n, p, h = params["n"], params["p"], params["h"]
    domain, region_label = _parse_region(params["region"], n, h)
    bc, exact, band, bc_label = _make_bc(params["bc"], domain, p)
    schedule, epsilon = _parse_schedule(params["eps_schedule"], p)
    config = SolverConfig(p=p, epsilon=epsilon, max_iter=params["max_iter"])
    field, diag = solve_dirichlet(domain, bc, config, schedule=schedule)

    coords = domain.coordinates()
    mask = domain.node_mask
    pts = coords[mask]
    vals = field.values[mask]
    rows = []
    err_vals = None
    if exact is not None:
        want = exact(pts)
        scale = np.maximum(np.abs(want), 1.0)
        err_vals = np.abs(vals - want) / scale
    for k in range(len(pts)):
        row = {f"x{j + 1}": float(pts[k, j]) for j in range(n)}
        row["value"] = float(vals[k])
        if err_vals is not None:
            row["exact"] = float(want[k])
            row["rel_error"] = float(err_vals[k])
        rows.append(row)

    monotone = all(b <= a for a, b in
                   zip(diag.energies, diag.energies[1:]))
    checks = []
    _check(checks, "gradient tolerance reached", diag.final_gradient_norm,
           ok=diag.converged)
    _check(checks, "monotone energy descent", ok=monotone)
    max_rel = None
    if err_vals is not None:
        max_rel = float(np.max(err_vals[domain.interior_mask[mask]]))
        if band is not None:
            _check(checks, "interior recovery error", max_rel, band)
        else:
            _check(checks, "interior recovery error", max_rel)

    meta = {
        "region": region_label,
        "bc": bc_label,
        "h": h,
        "epsilon": epsilon,
        "converged": diag.converged,
        "iterations": diag.iterations,
        "final_energy": diag.final_energy,
        "final_gradient_norm": diag.final_gradient_norm,
        "stages": [list(s) for s in diag.stages],
        "gradient_evaluations": diag.gradient_evaluations,
        "energy_evaluations": diag.energy_evaluations,
        "hessian_products": diag.hessian_products,
        "monotone": monotone,
        "max_relative_error": max_rel,
        "message": diag.message,
    }
    return rows, meta, checks


_DEFAULT_POLE = (0.3, -0.7, 0.8, 0.4, 0.25, 0.5, -0.2)


def run_sphere_check(params):
    n = params["n"]
    ambient = n + 1
    theta = params["theta"]
    if params["y"] is not None:
        try:
            comps = [float(s) for s in params["y"].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad pole {params['y']!r}: {exc}") from exc
        if len(comps) != ambient:
            raise UsageError(f"--y needs {ambient} components for n = {n}")
        pole = sphere_point(comps)
    else:
        pole = sphere_point(_DEFAULT_POLE[:ambient])
    plist = [params["p"]] if params["p"] is not None else sorted({2.0, float(n)})
    # per exponent, one pass per random cap bump and one for the 3 blade bumps
    _check_quadrature_budget(3 * len(plist), n, params["order"], ambient)
    rng = np.random.default_rng(params["seed"])
    pts = random_sphere_points(rng, ambient, 20, avoid=(pole,), clearance=0.3)

    rows, checks = [], []

    def row(check, p, label, value, nodes=None):
        rows.append({"check": check, "p": p, "label": label, "nodes": nodes,
                     "value": value})

    for p in plist:
        f = spherical_kernel(pole, p)
        strong = float(np.max(
            spherical_p_dirac_residual(f, p, pts, theta=theta).norm()))
        row("kernel-strong-residual", p, "max-over-20-points", strong)
        _check(checks, f"kernel strong residual (p={p:g})", strong, 1e-6)

        cap = SphericalCap(tuple(sphere_point(-np.asarray(pole))), 1.0)
        bumps = default_cap_bumps(cap, seed=params["seed"], random_count=2)[:5]
        worst = 0.0
        pairs = normalized_weak_spherical_residual(f, p, bumps, order=params["order"])
        for b, (v, nodes) in zip(bumps, pairs):
            row("kernel-weak-residual", p, b.label, v, nodes)
            worst = max(worst, v)
        _check(checks, f"kernel weak residual (p={p:g})", worst, 1e-5)

        # first-order radial identity, both couplings, with componentwise
        # ratio diagnostics (report-only; the displayed sign is measured,
        # never presumed)
        for i in range(3):
            rep = lr_identity_check(pts[i], pole, p, theta=theta)
            row("radial-identity", p, f"point-{i}-displayed", rep.discrepancy)
            row("radial-identity", p, f"point-{i}-flipped",
                rep.discrepancy_flipped)
            for tag, ratios in (("displayed", rep.ratios),
                                ("flipped", rep.ratios_flipped)):
                if ratios:
                    row("radial-identity-ratio", p, f"point-{i}-{tag}-min",
                        min(ratios))
                    row("radial-identity-ratio", p, f"point-{i}-{tag}-max",
                        max(ratios))
        _check(checks, f"radial identity reported (p={p:g})")

        hrep = spherical_p_harmonic_check(pole, p, pts[:5], theta=theta)
        for i, r in enumerate(hrep.rows):
            row("second-order-radial", p, f"point-{i}-displayed",
                r["residual"])
            row("second-order-radial", p, f"point-{i}-flipped",
                r["residual_flipped"])
        _check(checks, f"second-order radial identity reported (p={p:g})")

    for flat_dim in (2, 3):
        dev = cayley_ratio_constancy(
            flat_dim, seed=params["seed"])["max_deviation"]
        row("cayley-ratio-constancy", 2.0, f"flat-dim-{flat_dim}", dev)
        _check(checks, f"Cayley ratio constancy (flat dim {flat_dim})",
               dev, 1e-6)

    meta = {"pole": [float(c) for c in np.asarray(pole)], "theta": theta}
    return rows, meta, checks


def run_cr_check(params):
    seed, order = params["seed"], params["order"]
    plist = [params["p"]] if params["p"] is not None else [1.5, 2.0, 3.0]
    # theorem5_experiment pairs each of its 5 disc bumps alone
    _check_quadrature_budget(5 * len(plist), 2, order, 2)
    rng = np.random.default_rng(seed)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20)) * rng.uniform(
        0.5, 2.0, 20)

    rows, checks = [], []

    def row(check, p, label, value):
        rows.append({"check": check, "p": p, "label": label, "value": value})

    for p in plist:
        g = p_cr_solution(p)
        strong = float(np.max(np.abs(p_cr_residual(g, p, z))))
        row("strong-residual", p, "max-over-20-points", strong)
        _check(checks, f"strong residual (p={p:g})", strong, 1e-8)

    eta = wirtinger_polynomial({(2, 1): 1.0 + 0.5j, (1, 0): -2.0,
                                (0, 2): 0.75j})
    transfer = transfer_identity_check(
        polynomial_map([0, 0, 1]), eta, 1.0 + 1.0j)
    row("derivative-transfer", None, "square-map-at-1+1j", transfer)
    _check(checks, "derivative transfer identity", transfer, 1e-6)

    ring = Domain.annulus([0.0, 0.0], 0.5, 1.5)
    square_plus = polynomial_map([3.0, 0.0, 1.0], name="square-plus-3")
    for p in plist:
        table = theorem5_experiment(
            p_cr_solution(p), square_plus, p, ring, seed=seed, order=order)
        worst = 0.0
        for r in table:
            row("composition-covariance", p, r["eta"], r["normalized"])
            worst = max(worst, r["normalized"])
        _check(checks, f"composition covariance (p={p:g})", worst, 1e-6)

    return rows, {"map": "square-plus-3"}, checks


# -------------------------------------------------------- subcommand table


# each flag is key -> (converter, default, help); a default is never converted
Subcommand = namedtuple("Subcommand", "summary run flags")
REQUIRED = object()  # the default of a flag that every run must set

_COMMON = {
    "seed": (_integer(0), 42, "RNG seed for sampled points and bump placement"),
    "out": (str, None, "write the result table to this path (default stdout)"),
    "format": (_choice("csv", "json"), "csv", "table format: csv or json"),
}

SUBCOMMANDS = {
    "algebra-selftest": Subcommand(
        "random product/involution/norm property suite", run_algebra_selftest, {
            "n": (_integer(2, 6), None, "single algebra dimension (default: sweep 2..6)"),
            "checks": (_integer(1), 1000, "random samples per property"),
            **_COMMON,
            "format": (_choice("csv", "json"), "json", "table format: csv or json"),
        }),
    "kernel-residual": Subcommand(
        "strong-residual sweep of the first-order kernel solution with a fitted "
        "convergence order", run_kernel_residual, {
            "n": (_integer(2, 6), 3, "ambient dimension"),
            "p": (_exponent, 2.0, "nonlinearity exponent"),
            **_COMMON,
        }),
    "covariance": Subcommand(
        "conformal covariance experiments (numbered modes)", run_covariance, {
            "theorem": (_choice(1, 2, 3, 4), REQUIRED,
                        "numbered covariance mode 1-4 (required)"),
            "n": (_integer(2, 6), 3, "ambient dimension"),
            "p": (_exponent, None, "nonlinearity exponent (mode-dependent default)"),
            "mobius": (str, "inversion",
                       "generator word, e.g. inversion*translation:1,0,0"),
            "order": (_integer(1), 6, "bump-fitted quadrature order"),
            **_COMMON,
        }),
    "solve": Subcommand(
        "lattice Dirichlet energy minimizer", run_solve, {
            "n": (_integer(1, 6), 2, "lattice dimension"),
            "p": (_exponent, 2.0, "energy exponent (> 1)"),
            "region": (str, "box:0,1", "box:lo,hi or annulus:inner,outer"),
            "h": (_finite, 1 / 16, "lattice spacing"),
            "bc": (str, "linear",
                   "boundary data: linear, radial, or file:<path> of grid values"),
            "eps_schedule": (str, "auto",
                             "regularization stages: auto or comma list ending at "
                             "the final value"),
            "max_iter": (_integer(1), 5000, "iteration cap per stage"),
            **_COMMON,
        }),
    "sphere-check": Subcommand(
        "spherical operator checks and identity reports", run_sphere_check, {
            "n": (_integer(2, 6), 2, "sphere dimension (points live in R^(n+1))"),
            "p": (_exponent, None, "single exponent (default: both 2 and n)"),
            "y": (str, None, "kernel pole, n+1 comma-separated components"),
            "theta": (_finite, 1e-3, "rotational finite-difference step"),
            "order": (_integer(1), 8, "cap quadrature order"),
            **_COMMON,
        }),
    "cr-check": Subcommand(
        "two-dimensional Wirtinger-form checks", run_cr_check, {
            "p": (_exponent, None, "single exponent (default: 1.5, 2 and 3)"),
            "order": (_integer(1), 12, "disc quadrature order"),
            **_COMMON,
        }),
}


def build_parser():
    top = argparse.ArgumentParser(
        prog="diraclab",
        description=__doc__.splitlines()[0],
    )
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, sub in SUBCOMMANDS.items():
        parser = subs.add_parser(name, help=sub.summary)
        # every flag parses to its text, or None when absent, so that
        # resolve_config converts it and config-file values slot in underneath
        for key, (_convert, _default, help_text) in sub.flags.items():
            parser.add_argument("--" + key.replace("_", "-"), help=help_text)
        parser.add_argument("--config", help="key = value file supplying flag defaults")
    return top


def resolve_config(subcommand, given, file_table):
    """Parameters of one run: each flag's command-line text from `given`,
    else its config-file text, passed through the flag's converter; else
    its default (flags win over the file)."""
    # a key of another subcommand stays valid, so one file serves several
    known = set().union(*(sub.flags for sub in SUBCOMMANDS.values()))
    unknown = sorted(set(file_table) - known)
    if unknown:
        raise UsageError(f"keys a config file cannot set: {', '.join(unknown)}")
    params = {}
    for key, (convert, default, _help) in SUBCOMMANDS[subcommand].flags.items():
        flag = "--" + key.replace("_", "-")
        if given.get(key) is not None:
            text, source = given[key], f"{flag} {given[key]!r}"
        elif key in file_table:
            text, source = file_table[key], f"config value {key} = {file_table[key]!r}"
        elif default is REQUIRED:
            raise UsageError(f"{flag} is required for {subcommand}")
        else:
            params[key] = default
            continue
        try:
            params[key] = convert(text)
        except ValueError as exc:
            raise UsageError(f"{source}: {exc}") from exc
    return params


def run(params, subcommand):
    rows, meta, checks = SUBCOMMANDS[subcommand].run(params)
    passed = all(c["status"] != "fail" for c in checks)
    if params["format"] == "json":
        # the artifact excludes its own destination path so the same
        # configuration is byte-identical wherever it is written
        rendered = {k: v for k, v in params.items() if k != "out"}
        text = render_json(subcommand, rendered, meta, rows, checks, passed)
    else:
        text = render_csv(rows)
    _emit(text, params["out"])
    _report(checks)
    return 0 if passed else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        file_table = {} if args.config is None else read_config_file(args.config)
        params = resolve_config(args.subcommand, vars(args), file_table)
        return run(params, args.subcommand)
    except _CONTRACT_ERRORS as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
