"""The planar reduction: nonlinear Cauchy-Riemann calculus.

In the plane the Dirac operator factors as e_1 (d/dx + e_2 e_1 d/dy) and
(e_2 e_1)^2 = -1, so even-subalgebra fields are complex functions and the
Dirac equation on them is the Cauchy-Riemann equation.  This module works
directly in the complex encoding: Wirtinger derivatives by central
differences, the nonlinear first-order equation dbar(|g|^(p-2) g) = 0 with
its closed-form radial solutions, the derivative-transfer identity for
holomorphic reparametrizations, and the weak form of the
holomorphic-composition covariance statement.

Weak pairing convention: a weak solution pairs conj(|g|^(p-2) g) against
the z-derivative of the test function.  This is the complex reduction of
the Clifford pairing conj(...) D eta against test functions in the odd
part of Cl_2; the even part gives the equivalent unconjugated pairing
against the zbar-derivative.  Pairing the conjugated flux against the
zbar-derivative instead mixes the two reductions and is not solved by
holomorphic fluxes, so it is not used.

`weakform.weak_pairing` computes it as that Clifford pairing.  With the
encoding enc(u + iv) = u - v e_12 (e_2 e_1 <-> i), Clifford conjugation of
enc(w) is enc(conj(w)), and xi = c phi is the planar bump phi B with odd
blade B = -e_1 enc(c), for which D(phi B) = grad(phi) B = enc(2 d xi / d z);
the pairing of enc(flux) is thus twice the complex one, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, geometric_product
from .fields import (
    NORM_CUTOFF,
    AnalyticField,
    Domain,
    FieldError,
    power_scale,
    richardson_step,
    validate_clearance,
)
from .weakform import BumpTestFunction, normalized_ratio, random_bump, weak_pairing


class CRError(FieldError):
    """Hypothesis violation in the planar Cauchy-Riemann layer."""


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued field on the plane with optional Wirtinger derivatives.

    eval_fn maps a complex array to a complex array; dz_fn and dzbar_fn,
    when given, are the analytic d/dz and d/dzbar at the same points.
    """

    eval_fn: object
    dz_fn: object = None
    dzbar_fn: object = None
    singular_points: tuple = ()
    name: str = "field"

    def __call__(self, z) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(z, dtype=complex)))

    def dz(self, z) -> np.ndarray:
        if self.dz_fn is None:
            raise FieldError(f"field {self.name!r} carries no analytic d/dz")
        return np.asarray(self.dz_fn(np.asarray(z, dtype=complex)))

    def dzbar(self, z) -> np.ndarray:
        if self.dzbar_fn is None:
            raise FieldError(f"field {self.name!r} carries no analytic d/dzbar")
        return np.asarray(self.dzbar_fn(np.asarray(z, dtype=complex)))

    @property
    def has_dz(self) -> bool:
        return self.dz_fn is not None

    @property
    def has_dzbar(self) -> bool:
        return self.dzbar_fn is not None


@dataclass(frozen=True, kw_only=True)
class PolynomialMap(ComplexField):
    """A holomorphic polynomial map with its coefficients, low to high."""

    coeffs: tuple

    def preimages(self, s) -> tuple:
        """The points the map sends to s: the roots of f - s."""
        return tuple(np.roots(np.polysub(self.coeffs[::-1], [s])))


def polynomial_map(coeffs, name: str = "polynomial") -> PolynomialMap:
    """The holomorphic polynomial sum c_k z^k (coeffs low to high)."""
    coeffs = [complex(c) for c in coeffs]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]

    def ev(z):
        return np.polyval(list(reversed(coeffs)), z)

    def dz(z):
        if not deriv:
            return np.zeros_like(z)
        return np.polyval(list(reversed(deriv)), z)

    return PolynomialMap(ev, dz, lambda z: np.zeros_like(z), (), name=name, coeffs=tuple(coeffs))


def wirtinger_polynomial(terms: dict, name: str = "zzbar-polynomial") -> ComplexField:
    """The mixed polynomial sum c_{jk} z^j zbar^k over terms {(j, k): c}."""
    terms = {(int(j), int(k)): complex(c) for (j, k), c in terms.items()}

    def derivative(dj, dk):
        """z -> d^dj/dz^dj d^dk/dzbar^dk of the sum, for dj, dk in {0, 1}."""

        def ev(z):
            zb = np.conj(z)
            out = np.zeros_like(z)
            for (j, k), c in terms.items():
                if j >= dj and k >= dk:
                    out = out + c * (j**dj * k**dk) * z ** (j - dj) * zb ** (k - dk)
            return out

        return ev

    return ComplexField(derivative(0, 0), derivative(1, 0), derivative(0, 1), (), name=name)


def p_cr_solution(p: float, center: complex = 0j) -> ComplexField:
    """The radial solution of dbar(|g|^(p-2) g) = 0 singular at `center`.

    The z-derivative of the radial p-harmonic potential |z|^(a) with
    a = (p-2)/(p-1) gives g(z) = (a/2) zbar |z|^(a-2), whose flux
    |g|^(p-2) g collapses to a constant multiple of 1/z - holomorphic off
    the center.  At p = 2 the potential degenerates to a constant and the
    logarithmic potential takes over: g(z) = 1/(2z).
    """
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    c = complex(center)
    if abs(p - 2.0) < 1e-12:

        def ev(z):
            return 0.5 / (z - c)

        def dz(z):
            return -0.5 / (z - c) ** 2

        return ComplexField(
            ev, dz, lambda z: np.zeros_like(z), (c,), name="cr-solution-p2"
        )
    a = (p - 2.0) / (p - 1.0)

    def ev(z):
        w = z - c
        return 0.5 * a * np.conj(w) * np.abs(w) ** (a - 2.0)

    def dz(z):
        w = z - c
        return 0.25 * a * (a - 2.0) * np.conj(w) ** 2 * np.abs(w) ** (a - 4.0)

    def dzbar(z):
        w = z - c
        return 0.25 * a**2 * np.abs(w) ** (a - 2.0)

    return ComplexField(ev, dz, dzbar, (c,), name=f"cr-solution-p{p:g}")


def _encode(vals, batch=()) -> Multivector:
    """u + iv as the Cl_2 even element u - v e_12 (e_2 e_1 = -e_12 <-> i),
    broadcast over batch."""
    vals = np.asarray(vals)
    rows = np.zeros((4,) + np.broadcast_shapes(vals.shape, batch))
    rows[0] = vals.real
    rows[3] = -vals.imag
    return Multivector(2, np.moveaxis(rows, 0, -1), copy=False)


def even_encoding(g: ComplexField) -> AnalyticField:
    """The Cl_2 even-subalgebra field matching g under `_encode`."""

    def ev(pts):
        z = pts[..., 0] + 1j * pts[..., 1]
        return _encode(g(z), pts.shape[:-1])

    gr = None
    if g.has_dz and g.has_dzbar:

        def gr(pts):
            z = pts[..., 0] + 1j * pts[..., 1]
            gz, gzb = g.dz(z), g.dzbar(z)
            batch = pts.shape[:-1]
            return [_encode(gz + gzb, batch), _encode(1j * (gz - gzb), batch)]

    return AnalyticField(
        2, ev, gr, tuple((s.real, s.imag) for s in g.singular_points), name=g.name
    )


# ------------------------------------------------- Wirtinger derivatives


def _wirtinger_fd(g, z, h, sign, richardson=True):
    z = np.asarray(z, dtype=complex)

    def central(hh):
        dx = (g(z + hh) - g(z - hh)) / (2.0 * hh)
        dy = (g(z + 1j * hh) - g(z - 1j * hh)) / (2.0 * hh)
        return 0.5 * (dx + sign * 1j * dy)

    return richardson_step(central, h, g.name, z, g.singular_points, richardson)


def dbar_fd(
    g: ComplexField, z, h: float = 1e-3, richardson: bool = True
) -> np.ndarray:
    """Central-difference d g / d zbar = (d/dx + i d/dy) g / 2."""
    return _wirtinger_fd(g, z, h, +1.0, richardson)


def dz_fd(g: ComplexField, z, h: float = 1e-3) -> np.ndarray:
    """Central-difference d g / d z = (d/dx - i d/dy) g / 2."""
    return _wirtinger_fd(g, z, h, -1.0)


def _flux(g: ComplexField, p: float):
    """z -> |g(z)|^(p-2) g(z) with the small-p vanishing-norm guard."""

    def ev(z):
        vals = g(z)
        # non-finite inputs flow through as nan/inf; callers check and raise
        with np.errstate(invalid="ignore"):
            return power_scale(np.abs(vals), p, g.name) * vals

    return ComplexField(ev, None, None, g.singular_points, name=f"|{g.name}|^(p-2) flux")


def p_cr_residual(g: ComplexField, p: float, z, h: float = 1e-3) -> np.ndarray:
    """dbar of the flux |g|^(p-2) g - zero exactly on solutions."""
    return dbar_fd(_flux(g, p), z, h=h)


def _composed_poles(g: ComplexField, f: ComplexField) -> tuple:
    """The singular points of g after f: the points f sends to those of g."""
    if g.singular_points and not isinstance(f, PolynomialMap):
        raise CRError(f"cannot locate where {f.name!r} meets the poles of {g.name!r}")
    return tuple(z for s in g.singular_points for z in f.preimages(s))


def transfer_identity_check(
    f: ComplexField, eta: ComplexField, zeta
) -> float:
    """Largest discrepancy of the holomorphic derivative-transfer identity.

    Both sides of  (d eta / d wbar)(f(zeta)) =
    conj(f'(zeta))^(-1) d/d zetabar [eta(f(zeta))]  are evaluated by
    central differences; f' must not vanish at zeta.
    """
    zeta = np.asarray(zeta, dtype=complex)
    fp = f.dz(zeta) if f.has_dz else dz_fd(f, zeta)
    if zeta.size and float(np.min(np.abs(fp))) < NORM_CUTOFF:
        raise CRError("the reparametrization has a critical point at zeta")
    lhs = dbar_fd(eta, f(zeta))
    composed = ComplexField(lambda q: eta(f(q)), singular_points=_composed_poles(eta, f),
                            name=f"{eta.name} after {f.name}")
    rhs = dbar_fd(composed, zeta) / np.conj(fp)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


# -------------------------------------------------------------- weak form


def complex_bump(center, radius: float, coefficient=1.0, label: str = "bump"):
    """The complex test function xi = coefficient * phi(|z - center|^2 /
    radius^2) as the planar bump phi B with odd blade B = -e_1 enc(coefficient)."""
    c = complex(center)
    blade = geometric_product(Multivector.basis_vector(2, 1), _encode(-complex(coefficient)))
    return BumpTestFunction(2, (c.real, c.imag), radius, blade, label=label)


def default_complex_bumps(domain: Domain, seed: int = 42, count: int = 5):
    """Random test bumps on a planar domain with random unit coefficients."""
    if domain.dim != 2:
        raise CRError("complex test functions live on a planar domain")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        twin = random_bump(domain, rng, blade=Multivector.scalar(2, 1.0))
        w = rng.normal() + 1j * rng.normal()
        out.append(complex_bump(complex(*twin.center), twin.radius, w / abs(w), f"rand-{i}"))
    return out


def _cr_pairing(flux: ComplexField, xi: BumpTestFunction, order: int):
    """(R, N): the quadratures of conj(flux) * d xi / d z and of
    |flux| |d xi / d z| over the support of xi, halved from the Clifford
    pairing of enc(flux), which sums enc(2 R) and 2 N."""

    def block(x, w):
        vals = flux(x[:, 0] + 1j * x[:, 1])
        if not np.all(np.isfinite(vals)):
            raise CRError(f"{flux.name!r} is singular on the support of {xi.label!r}")
        return _encode(vals, w.shape), np.abs(vals), xi.dirac_vector(x), w

    raw, total, _ = weak_pairing(xi.blocks(order), block, xi.blade)
    return complex(0.5 * raw[0], -0.5 * raw[3]), 0.5 * float(total)


def weak_cr_residual(
    g: ComplexField, p: float, xi: BumpTestFunction
) -> complex:
    """Quadrature of conj(|g|^(p-2) g) * d xi / d z over the support (order 12)."""
    return _cr_pairing(_flux(g, p), xi, 12)[0]


def normalized_weak_cr_residual(
    g: ComplexField, p: float, xi: BumpTestFunction, order: int = 12
) -> float:
    """|weak residual| scaled by the quadrature of |flux| |d xi / d z|."""
    raw, normalizer = _cr_pairing(_flux(g, p), xi, order)
    return normalized_ratio(abs(raw), normalizer)


def composed_flux(g: ComplexField, f: ComplexField, p: float) -> ComplexField:
    """W(zeta) = f'(zeta) |g(f(zeta))|^(p-2) g(f(zeta)) - the transformed
    flux of the holomorphic-composition covariance statement."""
    flux = _flux(g, p)

    def ev(zeta):
        fp = f.dz(zeta) if f.has_dz else dz_fd(f, zeta)
        if zeta.size and float(np.min(np.abs(fp))) < NORM_CUTOFF:
            raise CRError(f"{f.name!r} has a critical point on the domain")
        return fp * flux(f(zeta))

    return ComplexField(ev, None, None, _composed_poles(g, f), name=f"{g.name} through {f.name}")


def theorem5_experiment(g: ComplexField, f: ComplexField, p: float, domain: Domain,
                        seed: int = 42, order: int = 12, count: int = 5) -> list:
    """Residual table of the composition covariance over a bump family, on a pole-free domain."""
    W, rows = composed_flux(g, f, p), []
    validate_clearance(domain, [(float(s.real), float(s.imag)) for s in W.singular_points])
    for xi in default_complex_bumps(domain, seed=seed, count=count):
        raw, normalizer = _cr_pairing(W, xi.require_support_inside(domain), order)
        rows.append({"eta": xi.label, "p": float(p), "map": f.name, "residual": abs(raw),
                     "normalizer": normalizer,
                     "normalized": normalized_ratio(abs(raw), normalizer)})
    return rows
