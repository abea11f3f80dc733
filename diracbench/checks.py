"""Correctness checks that rest on no diraclab code.

Every function here takes a result the program produced (an array, a
number or the rows of a CLI artifact) and returns True when the result has
the property the mathematics demands.  The references are computed here
with plain numpy and the standard library: a composite Gauss-Legendre rule
for the bump integral, a least-squares fit for orders and affine data, a
swap-sort for blade signs.  `test_checks.py` feeds each check a wrong
result and confirms that it fails.
"""

from __future__ import annotations

import math

import numpy as np

# ------------------------------------------------------------ bump integral


def bump_radial_moment(dim: int, panels: int = 64, points: int = 20) -> float:
    """Integral over r in (0, 1) of exp(-1/(1 - r^2)) r^(dim-1).

    Composite Gauss-Legendre on equal panels; the profile is smooth and
    flat to all orders at r = 1, so the rule converges to roundoff.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    r = (mid[:, None] + half[:, None] * x).ravel()
    wr = (half[:, None] * w).ravel()
    return float(np.sum(wr * np.exp(-1.0 / (1.0 - r * r)) * r ** (dim - 1)))


def bump_integral(dim: int, radius: float) -> float:
    """Integral of the bump profile phi over its support ball in R^dim."""
    sphere_area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return sphere_area * radius**dim * bump_radial_moment(dim)


def identity_pairing(dim: int, radius: float, blade) -> np.ndarray:
    """Coefficients of  integral conj(x) * D eta  for eta = phi * blade.

    Integration by parts with conj(x) = -sum x_k e_k and e_j e_j = -1
    gives  -dim * (integral of phi) * blade.
    """
    return -dim * bump_integral(dim, radius) * np.asarray(blade, dtype=float)


def relative_gap(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def identity_pairing_ok(got, dim, radius, blade, rtol) -> bool:
    return relative_gap(got, identity_pairing(dim, radius, blade)) <= rtol


# ------------------------------------------------------------- thresholds


def at_most(value, tol) -> bool:
    """value <= tol, with NaN failing."""
    return bool(np.isfinite(value) and value <= tol)


def at_least(value, floor) -> bool:
    return bool(np.isfinite(value) and value >= floor)


def order_doubling_ok(r_q: float, r_2q: float) -> bool:
    """Criterion 6: doubling the order cuts the residual tenfold, unless
    it is already at roundoff."""
    return bool(r_2q <= r_q / 10.0 or r_2q <= 1e-12)


# ---------------------------------------------------------------- lattice


def lattice_coordinates(lo, h, shape) -> np.ndarray:
    """Node coordinates lo + index * h, shape + (dim,)."""
    axes = [l + h * np.arange(s) for l, s in zip(lo, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def annulus_error(values, coords, interior) -> float:
    """max over interior nodes of |u - 1/r| * r, the relative error
    against the exact radial minimizer 1/r."""
    r = np.linalg.norm(coords, axis=-1)
    return float(np.max((np.abs(values - 1.0 / np.where(r > 0, r, 1.0)) * r)[interior]))


def refinement_gain_ok(err_coarse: float, err_fine: float, gain: float = 2.5) -> bool:
    return bool(err_fine > 0 and err_coarse / err_fine >= gain)


def monotone(history) -> bool:
    return all(b <= a for a, b in zip(history, history[1:]))


def five_point_residual(values, h, interior) -> float:
    """max over interior nodes of |(sum of neighbours - 2n u)/h^2|."""
    acc = -2.0 * values.ndim * values
    for axis in range(values.ndim):
        acc = acc + np.roll(values, 1, axis) + np.roll(values, -1, axis)
    return float(np.max(np.abs(acc[interior]))) / h**2


def max_interior_gap(values, want, interior) -> float:
    return float(np.max(np.abs(values - want)[interior]))


# ---------------------------------------------------------- CLI artifacts


def loglog_order(hs, residuals) -> float:
    """Slope of the least-squares line through (log h, log residual)."""
    slope, _ = np.polyfit(np.log(hs), np.log(residuals), 1)
    return float(slope)


def kernel_order_ok(rows, want=2.0, tol=0.3) -> bool:
    order = loglog_order([r["h"] for r in rows], [r["residual"] for r in rows])
    return abs(order - want) <= tol


def affine_interior_gap(rows, dim: int) -> float:
    """Fit value = a . x + b to the rows on the box faces and return the
    largest gap between the fit and the value at an interior row."""
    x = np.array([[r[f"x{j + 1}"] for j in range(dim)] for r in rows])
    v = np.array([r["value"] for r in rows])
    lo, hi = x.min(axis=0), x.max(axis=0)
    face = np.any(np.isclose(x, lo) | np.isclose(x, hi), axis=1)
    design = np.hstack([x, np.ones((len(x), 1))])
    coef, *_ = np.linalg.lstsq(design[face], v[face], rcond=None)
    return float(np.max(np.abs(design[~face] @ coef - v[~face])))


def normalized_by_exponent(rows) -> dict:
    """Largest residual/normalizer per weight exponent, from the raw
    residual and normalizer columns."""
    table = {}
    for r in rows:
        value = r["residual"] / max(r["normalizer"], 1e-300)
        table[r["exponent"]] = max(table.get(r["exponent"], 0.0), value)
    return table


def scan_minimum_ok(rows, p: float, n: int) -> bool:
    """The weight-exponent scan is smallest at the conformal weight 2(p - n)."""
    table = normalized_by_exponent(rows)
    best = min(table, key=table.get)
    return abs(best - 2.0 * (p - n)) <= 1e-9


def rows_below(rows, check: str, tol: float) -> bool:
    """Every row of the named check has a value at most tol (and one exists)."""
    values = [r["value"] for r in rows if r["check"] == check]
    return bool(values) and all(at_most(v, tol) for v in values)


# ------------------------------------------------------------ blade signs


def blade_sign(a_mask: int, b_mask: int) -> tuple:
    """(sign, mask) of e_A e_B in Cl(0, n) by swap-sorting the joined
    generator list and cancelling equal neighbours (e_j e_j = -1)."""
    seq = [j for j in range(a_mask.bit_length()) if a_mask >> j & 1]
    seq += [j for j in range(b_mask.bit_length()) if b_mask >> j & 1]
    sign = 1
    for end in range(len(seq) - 1, 0, -1):
        for k in range(end):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
    mask = 0
    k = 0
    while k < len(seq):
        if k + 1 < len(seq) and seq[k] == seq[k + 1]:
            sign = -sign
            k += 2
        else:
            mask |= 1 << seq[k]
            k += 1
    return sign, mask


def sign_table(dim: int) -> np.ndarray:
    size = 1 << dim
    table = np.empty((size, size))
    for a in range(size):
        for b in range(size):
            sign, mask = blade_sign(a, b)
            if mask != a ^ b:
                raise ValueError(f"swap-sort lost a generator at {a}, {b}")
            table[a, b] = sign
    return table


def product_signs_ok(signs, dim: int) -> bool:
    return bool(np.array_equal(np.asarray(signs), sign_table(dim)))
