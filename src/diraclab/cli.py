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

import numpy as np

from . import __version__
from .algebra import (
    AlgebraError,
    Multivector,
    geometric_product,
    norm,
    pin_action,
    product_signs,
    reflect,
    reversion,
    conjugation,
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


def _report(checks, stream=None):
    stream = stream if stream is not None else sys.stderr
    for c in checks:
        status = c["status"].upper()
        parts = [f"{status:6s} {c['check']}"]
        if c["value"] is not None:
            parts.append(f"value={_fmt_cell(c['value'])}")
        if c["tolerance"] is not None:
            parts.append(f"tolerance={_fmt_cell(c['tolerance'])}")
        stream.write("  ".join(parts) + "\n")
    failed = sum(1 for c in checks if c["status"] == "fail")
    graded = sum(1 for c in checks if c["status"] != "report")
    stream.write(
        f"{'FAILED' if failed else 'OK'} "
        f"{graded - failed}/{graded} checks passed\n"
    )


def _check(checks, name, value, tolerance):
    checks.append({
        "check": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "status": "pass" if value <= tolerance else "fail",
    })


def _note(checks, name, value=None):
    checks.append({
        "check": name,
        "value": None if value is None else float(value),
        "tolerance": None,
        "status": "report",
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


def _positive_int(s):
    v = int(s)
    if v <= 0:
        raise ValueError("must be positive")
    return v


# name -> (converter, default, help); every flag defaults to None at parse
# time so config-file values can slot in underneath explicit flags
_COMMON = {
    "seed": (int, 42, "RNG seed for sampled points and bump placement"),
    "out": (str, None, "write the result table to this path (default stdout)"),
    "format": (str, "csv", "table format: csv or json"),
    "config": (str, None, "key = value file supplying flag defaults"),
}

_SPECS = {
    "algebra-selftest": {
        "n": (int, None, "single algebra dimension (default: sweep 2..6)"),
        "checks": (_positive_int, 1000, "random samples per property"),
        **_COMMON,
        "format": (str, "json", "table format: csv or json"),
    },
    "kernel-residual": {
        "n": (int, 3, "ambient dimension"),
        "p": (float, 2.0, "nonlinearity exponent"),
        **_COMMON,
    },
    "covariance": {
        "theorem": (int, None, "numbered covariance mode 1-4 (required)"),
        "n": (int, 3, "ambient dimension"),
        "p": (float, None, "nonlinearity exponent (mode-dependent default)"),
        "mobius": (str, "inversion",
                   "generator word, e.g. inversion*translation:1,0,0"),
        "order": (_positive_int, 6, "quadrature order per cell"),
        "cells": (_positive_int, 2, "quadrature cells per axis"),
        **_COMMON,
    },
    "solve": {
        "n": (int, 2, "lattice dimension"),
        "p": (float, 2.0, "energy exponent (> 1)"),
        "region": (str, "box:0,1", "box:lo,hi or annulus:inner,outer"),
        "h": (float, 1 / 16, "lattice spacing"),
        "bc": (str, "linear",
               "boundary data: linear, radial, or file:<path> of grid values"),
        "eps_schedule": (str, "auto",
                         "regularization stages: auto or comma list ending at "
                         "the final value"),
        "max_iter": (_positive_int, 5000, "iteration cap per stage"),
        **_COMMON,
    },
    "sphere-check": {
        "n": (int, 2, "sphere dimension (points live in R^(n+1))"),
        "p": (float, None, "single exponent (default: both 2 and n)"),
        "y": (str, None, "kernel pole, n+1 comma-separated components"),
        "theta": (float, 1e-3, "rotational finite-difference step"),
        "order": (_positive_int, 8, "cap quadrature order"),
        **_COMMON,
    },
    "cr-check": {
        "p": (float, None, "single exponent (default: 1.5, 2 and 3)"),
        "order": (_positive_int, 12, "disc quadrature order"),
        **_COMMON,
    },
}

_REQUIRED = {"covariance": ("theorem",)}


def build_parser():
    top = argparse.ArgumentParser(
        prog="diraclab",
        description=__doc__.splitlines()[0],
    )
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, spec in _SPECS.items():
        sub = subs.add_parser(name, help=spec_summary(name))
        for key, (conv, _default, help_text) in spec.items():
            flag = "--" + key.replace("_", "-")
            if key == "format":
                sub.add_argument(flag, default=None, choices=("csv", "json"),
                                 help=help_text)
            elif key == "theorem":
                sub.add_argument(flag, default=None, type=int,
                                 choices=(1, 2, 3, 4), help=help_text)
            else:
                sub.add_argument(flag, default=None, type=conv, help=help_text)
    return top


def spec_summary(name):
    return {
        "algebra-selftest": "random product/involution/norm property suite",
        "kernel-residual": "strong-residual sweep of the first-order kernel "
                           "solution with a fitted convergence order",
        "covariance": "conformal covariance experiments (numbered modes)",
        "solve": "lattice Dirichlet energy minimizer",
        "sphere-check": "spherical operator checks and identity reports",
        "cr-check": "two-dimensional Wirtinger-form checks",
    }[name]


def resolve_config(args):
    """Fold defaults, config file, and explicit flags (flags win)."""
    spec = _SPECS[args.subcommand]
    file_table = {}
    if args.config is not None:
        file_table = read_config_file(args.config)
    params = {}
    for key, (conv, default, _help) in spec.items():
        value = getattr(args, key)
        if value is None and key in file_table:
            try:
                value = conv(file_table[key])
            except ValueError as exc:
                raise UsageError(
                    f"config value {key} = {file_table[key]!r}: {exc}"
                ) from exc
        if value is None:
            value = default
        params[key] = value
    params.pop("config", None)
    if params.get("format") not in (None, "csv", "json"):
        raise UsageError(f"unknown format {params['format']!r}")
    for key in _REQUIRED.get(args.subcommand, ()):
        if params[key] is None:
            raise UsageError(f"--{key} is required for {args.subcommand}")
    if params.get("p") is not None and params["p"] <= 1.0:
        raise UsageError("the exponent p must exceed 1")
    if args.subcommand != "solve" and params.get("n") is not None:
        if not 2 <= params["n"] <= 6:
            raise UsageError("n must lie in 2..6")
    return params


# ---------------------------------------------------------------- subcommands


def _blade_product_oracle(ia, ib):
    """Sign and index tuple of a blade product by swap-sorting the
    concatenated index list and cancelling equal neighbours (e_i^2 = -1)."""
    sign, seq = 1, list(ia) + list(ib)
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                changed = True
    out = []
    for idx in seq:
        if out and out[-1] == idx:
            out.pop()
            sign = -sign
        else:
            out.append(idx)
    return sign, tuple(out)


def _mask_indices(mask):
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def _batch_vectors(rng, dim, count):
    coeffs = np.zeros((count, 1 << dim))
    for j in range(dim):
        coeffs[:, 1 << j] = rng.standard_normal(count)
    return Multivector(dim, coeffs)


def _rel_gap(a: Multivector, b: Multivector):
    gap = norm(a - b)
    scale = np.maximum(np.maximum(norm(a), norm(b)), 1.0)
    return float(np.max(gap / scale))


def run_algebra_selftest(params):
    rng = np.random.default_rng(params["seed"])
    dims = [params["n"]] if params["n"] is not None else [2, 3, 4, 5, 6]
    count = params["checks"]
    rows, checks = [], []
    for n in dims:
        batch = lambda: Multivector(n, rng.standard_normal((count, 1 << n)))

        a, b, c = batch(), batch(), batch()
        worst = _rel_gap(geometric_product(geometric_product(a, b), c),
                         geometric_product(a, geometric_product(b, c)))
        properties = [("associativity", worst, 1e-12)]

        a, b = batch(), batch()
        worst = _rel_gap(reversion(geometric_product(a, b)),
                         geometric_product(reversion(b), reversion(a)))
        properties.append(("reversion-antiautomorphism", worst, 1e-12))

        worst = _rel_gap(conjugation(geometric_product(a, b)),
                         geometric_product(conjugation(b), conjugation(a)))
        properties.append(("conjugation-antiautomorphism", worst, 1e-12))

        # norm multiplicativity for group elements assembled from <= 4
        # vector factors
        worst = 0.0
        for factors in (1, 2, 3, 4):
            g = _batch_vectors(rng, n, count // 4 + 1)
            for _ in range(factors - 1):
                g = geometric_product(
                    g, _batch_vectors(rng, n, count // 4 + 1))
            A = Multivector(
                n, rng.standard_normal((count // 4 + 1, 1 << n)))
            lhs = norm(geometric_product(g, A))
            rhs = norm(g) * norm(A)
            worst = max(
                worst,
                float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1.0))),
            )
        properties.append(("norm-multiplicativity", worst, 1e-12))

        # unit-vector reflection against the componentwise mirror formula
        vecs = rng.standard_normal((count, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        xs = rng.standard_normal((count, n))
        worst = 0.0
        for k in range(count):
            y = Multivector.from_vector(n, vecs[k])
            x = Multivector.from_vector(n, xs[k])
            want = xs[k] - 2.0 * float(xs[k] @ vecs[k]) * vecs[k]
            got = reflect(y, x).coeffs[[1 << j for j in range(n)]]
            worst = max(worst, float(np.max(np.abs(got - want))))
        properties.append(("unit-reflection", worst, 1e-12))

        # pin actions preserve pairwise dot products
        worst = 0.0
        for k in range(count):
            g = Multivector.from_vector(
                n, vecs[k % count])
            for j in range(1, 3):
                w = rng.standard_normal(n)
                w /= np.linalg.norm(w)
                g = geometric_product(g, Multivector.from_vector(n, w))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            gx = pin_action(g, Multivector.from_vector(n, x))
            gy = pin_action(g, Multivector.from_vector(n, y))
            sel = [1 << j for j in range(n)]
            got = float(gx.coeffs[sel] @ gy.coeffs[sel])
            worst = max(worst, abs(got - float(x @ y)) / max(abs(x @ y), 1.0))
        properties.append(("pin-dot-preservation", worst, 1e-12))

        # sampled blade pairs against the swap-sort oracle (exact)
        signs = product_signs(n)
        size = 1 << n
        mism = 0
        for _ in range(count):
            ma = int(rng.integers(size))
            mb = int(rng.integers(size))
            s, idx = _blade_product_oracle(_mask_indices(ma),
                                           _mask_indices(mb))
            mask = 0
            for i in idx:
                mask |= 1 << (i - 1)
            if mask != ma ^ mb or signs[ma, mb] != s:
                mism += 1
        properties.append(("blade-product-oracle", float(mism), 0.0))

        for prop, worst, tol in properties:
            status = "pass" if worst <= tol else "fail"
            rows.append({
                "n": n, "property": prop, "checks": count,
                "worst": worst, "tolerance": tol, "status": status,
            })
            _check(checks, f"n={n} {prop}", worst, tol)
    return rows, {}, checks


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

    source = Domain.ball([3.0] + [0.0] * (n - 1), 1.0)
    kw = dict(order=params["order"], cells=params["cells"], seed=seed,
              random_bumps=2)
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
        checks.append({
            "check": "scan table complete and deterministic",
            "value": float(len(table)), "tolerance": None,
            "status": "pass" if complete else "fail",
        })
        _note(checks, "scan minimizer exponent", rep.best_exponent)

    meta = {
        "mode": mode,
        "mode_summary": _MODE_SUMMARY[mode],
        "mobius": params["mobius"],
        "best_exponent": rep.best_exponent,
        "order": rep.order,
        "cells": rep.cells,
        "notes": list(rep.notes),
    }
    return rep.to_rows(), meta, checks


_LINEAR_SLOPE = (0.8, -0.45, 0.3, 0.15, -0.2, 0.1)


def _parse_region(text, n, h):
    head, _, args = text.partition(":")
    if head == "box":
        try:
            lo, hi = (0.0, 1.0) if not args else map(float, args.split(","))
        except ValueError as exc:
            raise UsageError("box needs lo,hi bounds") from exc
        return LatticeDomain.box([lo] * n, [hi] * n, h), f"box:{lo},{hi}"
    if head == "annulus":
        if n != 2:
            raise UsageError("annulus regions are two-dimensional; use --n 2")
        try:
            inner, outer = map(float, args.split(","))
        except ValueError as exc:
            raise UsageError("annulus needs inner,outer radii") from exc
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
        if p == float(n):
            fn = lambda pts: np.log(np.linalg.norm(pts, axis=-1))
        else:
            expo = (p - n) / (p - 1.0)
            fn = lambda pts: np.linalg.norm(pts, axis=-1) ** expo
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
    if not stages:
        raise UsageError("empty regularization schedule")
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
    checks.append({
        "check": "gradient tolerance reached", "value": diag.final_gradient_norm,
        "tolerance": None, "status": "pass" if diag.converged else "fail",
    })
    checks.append({
        "check": "monotone energy descent", "value": None,
        "tolerance": None, "status": "pass" if monotone else "fail",
    })
    max_rel = None
    if err_vals is not None:
        max_rel = float(np.max(err_vals[domain.interior_mask[mask]]))
        if band is not None:
            _check(checks, "interior recovery error", max_rel, band)
        else:
            _note(checks, "interior recovery error", max_rel)

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
    rng = np.random.default_rng(params["seed"])
    pts = random_sphere_points(rng, ambient, 20, avoid=(pole,), clearance=0.3)

    rows, checks = [], []

    def row(check, p, label, value):
        rows.append({"check": check, "p": p, "label": label, "value": value})

    for p in plist:
        f = spherical_kernel(pole, p)
        strong = float(np.max(
            spherical_p_dirac_residual(f, p, pts, theta=theta).norm()))
        row("kernel-strong-residual", p, "max-over-20-points", strong)
        _check(checks, f"kernel strong residual (p={p:g})", strong, 1e-6)

        cap = SphericalCap(tuple(sphere_point(-np.asarray(pole))), 1.0)
        bumps = default_cap_bumps(cap, seed=params["seed"], random_count=2)[:5]
        worst = 0.0
        for b in bumps:
            v = normalized_weak_spherical_residual(
                f, p, b, order=params["order"])
            row("kernel-weak-residual", p, b.label, v)
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
        _note(checks, f"radial identity reported (p={p:g})")

        hrep = spherical_p_harmonic_check(pole, p, pts[:5], theta=theta)
        for i, r in enumerate(hrep.rows):
            row("second-order-radial", p, f"point-{i}-displayed",
                r["residual"])
            row("second-order-radial", p, f"point-{i}-flipped",
                r["residual_flipped"])
        _note(checks, f"second-order radial identity reported (p={p:g})")

    for flat_dim in (2, 3):
        dev = cayley_ratio_constancy(
            flat_dim, count=20, seed=params["seed"])["max_deviation"]
        row("cayley-ratio-constancy", 2.0, f"flat-dim-{flat_dim}", dev)
        _check(checks, f"Cayley ratio constancy (flat dim {flat_dim})",
               dev, 1e-6)

    meta = {"pole": [float(c) for c in np.asarray(pole)], "theta": theta}
    return rows, meta, checks


def run_cr_check(params):
    seed, order = params["seed"], params["order"]
    plist = [params["p"]] if params["p"] is not None else [1.5, 2.0, 3.0]
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


_RUNNERS = {
    "algebra-selftest": run_algebra_selftest,
    "kernel-residual": run_kernel_residual,
    "covariance": run_covariance,
    "solve": run_solve,
    "sphere-check": run_sphere_check,
    "cr-check": run_cr_check,
}


def run(params, subcommand):
    rows, meta, checks = _RUNNERS[subcommand](params)
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
        params = resolve_config(args)
        return run(params, args.subcommand)
    except _CONTRACT_ERRORS as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
