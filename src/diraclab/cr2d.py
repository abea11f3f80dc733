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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector
from .fields import (
    NORM_CUTOFF,
    AnalyticField,
    Domain,
    FieldError,
    StencilError,
    power_scale,
    richardson_step,
)
from .weakform import BumpTestFunction, mollifier, random_bump, support_quadrature


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


def polynomial_map(coeffs, name: str = "polynomial") -> ComplexField:
    """The holomorphic polynomial sum c_k z^k (coeffs low to high)."""
    coeffs = [complex(c) for c in coeffs]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]

    def ev(z):
        return np.polyval(list(reversed(coeffs)), z)

    def dz(z):
        if not deriv:
            return np.zeros_like(z)
        return np.polyval(list(reversed(deriv)), z)

    return ComplexField(ev, dz, lambda z: np.zeros_like(z), (), name=name)


def wirtinger_polynomial(terms: dict, name: str = "zzbar-polynomial") -> ComplexField:
    """The mixed polynomial sum c_{jk} z^j zbar^k over terms {(j, k): c}."""
    terms = {(int(j), int(k)): complex(c) for (j, k), c in terms.items()}

    def ev(z):
        zb = np.conj(z)
        out = np.zeros_like(z)
        for (j, k), c in terms.items():
            out = out + c * z**j * zb**k
        return out

    def dz(z):
        zb = np.conj(z)
        out = np.zeros_like(z)
        for (j, k), c in terms.items():
            if j:
                out = out + c * j * z ** (j - 1) * zb**k
        return out

    def dzbar(z):
        zb = np.conj(z)
        out = np.zeros_like(z)
        for (j, k), c in terms.items():
            if k:
                out = out + c * k * z**j * zb ** (k - 1)
        return out

    return ComplexField(ev, dz, dzbar, (), name=name)


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


def even_encoding(g: ComplexField) -> AnalyticField:
    """The Cl_2 even-subalgebra field matching g under e_2 e_1 <-> i.

    e_2 e_1 = -e_12, so u + iv encodes with scalar coefficient u and
    e_12 coefficient -v.
    """

    def pack(vals, batch):
        coeffs = np.zeros(batch + (4,))
        coeffs[..., 0] = vals.real
        coeffs[..., 3] = -vals.imag
        return Multivector(2, coeffs)

    def ev(pts):
        z = pts[..., 0] + 1j * pts[..., 1]
        return pack(g(z), pts.shape[:-1])

    gr = None
    if g.has_dz and g.has_dzbar:

        def gr(pts):
            z = pts[..., 0] + 1j * pts[..., 1]
            gz, gzb = g.dz(z), g.dzbar(z)
            batch = pts.shape[:-1]
            return [pack(gz + gzb, batch), pack(1j * (gz - gzb), batch)]

    return AnalyticField(
        2, ev, gr, tuple((s.real, s.imag) for s in g.singular_points), name=g.name
    )


# ------------------------------------------------- Wirtinger derivatives


def _check_clearance(g: ComplexField, z: np.ndarray, h: float):
    for s in g.singular_points:
        if z.size and float(np.min(np.abs(z - s))) <= 2.0 * h:
            raise StencilError(
                f"stencil for {g.name!r} reaches the singular point {s}"
            )


def _wirtinger_fd(g, z, h, sign, richardson=True):
    def central(hh):
        dx = (g(z + hh) - g(z - hh)) / (2.0 * hh)
        dy = (g(z + 1j * hh) - g(z - 1j * hh)) / (2.0 * hh)
        return 0.5 * (dx + sign * 1j * dy)

    result = richardson_step(central, h, richardson)
    if not np.all(np.isfinite(result)):
        raise StencilError("stencil touched a singular point")
    return result


def dbar_fd(
    g: ComplexField, z, h: float = 1e-3, richardson: bool = True
) -> np.ndarray:
    """Central-difference d g / d zbar = (d/dx + i d/dy) g / 2."""
    z = np.asarray(z, dtype=complex)
    _check_clearance(g, z, h)
    return _wirtinger_fd(g, z, h, +1.0, richardson)


def dz_fd(g: ComplexField, z, h: float = 1e-3) -> np.ndarray:
    """Central-difference d g / d z = (d/dx - i d/dy) g / 2."""
    z = np.asarray(z, dtype=complex)
    _check_clearance(g, z, h)
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


def transfer_identity_check(
    f: ComplexField, eta: ComplexField, zeta, h: float = 1e-3
) -> float:
    """Largest discrepancy of the holomorphic derivative-transfer identity.

    Both sides of  (d eta / d wbar)(f(zeta)) =
    conj(f'(zeta))^(-1) d/d zetabar [eta(f(zeta))]  are evaluated by
    central differences; f' must not vanish at zeta.
    """
    zeta = np.asarray(zeta, dtype=complex)
    fp = f.dz(zeta) if f.has_dz else dz_fd(f, zeta, h=h)
    if zeta.size and float(np.min(np.abs(fp))) < NORM_CUTOFF:
        raise CRError("the reparametrization has a critical point at zeta")
    lhs = dbar_fd(eta, f(zeta), h=h)
    composed = ComplexField(lambda q: eta(f(q)), name=f"{eta.name} after {f.name}")
    rhs = dbar_fd(composed, zeta, h=h) / np.conj(fp)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


# -------------------------------------------------------------- weak form


@dataclass(frozen=True)
class ComplexBump:
    """Smooth compactly supported complex test function on the plane.

    xi(z) = coefficient * exp(-1/(1 - |z - center|^2/radius^2)) inside the
    support disc and 0 outside; the Wirtinger derivatives are closed-form.
    """

    center: complex
    radius: float
    coefficient: complex = 1.0 + 0j
    label: str = "bump"

    def __post_init__(self):
        if not self.radius > 0:
            raise CRError("bump radius must be positive")

    def _twin(self) -> BumpTestFunction:
        c = complex(self.center)
        return BumpTestFunction(
            2, (c.real, c.imag), self.radius, Multivector.scalar(2, 1.0),
            label=self.label,
        )

    def _factor(self, z):
        """The profile and d profile / d |z - center|^2 at z."""
        prof, dprof = mollifier(np.abs(z - self.center) ** 2 / self.radius**2)
        return prof, dprof / self.radius**2

    def __call__(self, z) -> np.ndarray:
        prof, _ = self._factor(np.asarray(z, dtype=complex))
        return self.coefficient * prof

    def dz(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        _, fac = self._factor(z)
        return self.coefficient * fac * np.conj(z - self.center)

    def dzbar(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        _, fac = self._factor(z)
        return self.coefficient * fac * (z - self.center)

    def as_field(self) -> ComplexField:
        return ComplexField(self.__call__, self.dz, self.dzbar, (), name=self.label)

    def require_support_inside(self, domain: Domain) -> "ComplexBump":
        self._twin().require_support_inside(domain)
        return self

    def quadrature(self, order: int = 12):
        """Support-fitted nodes (complex) and weights over the bump disc."""
        nodes, w = support_quadrature(self._twin(), order)
        return nodes[:, 0] + 1j * nodes[:, 1], w


def default_complex_bumps(domain: Domain, seed: int = 42, count: int = 5):
    """Random test bumps on a planar domain with random unit coefficients."""
    if domain.dim != 2:
        raise CRError("complex test functions live on a planar domain")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        twin = random_bump(domain, rng, blade=Multivector.scalar(2, 1.0))
        w = rng.normal() + 1j * rng.normal()
        out.append(
            ComplexBump(
                complex(*twin.center), twin.radius, w / abs(w), label=f"rand-{i}"
            )
        )
    return out


def _cr_pairing(flux: ComplexField, xi: ComplexBump, order: int):
    """(raw, normalizer): the quadratures of conj(flux) * d xi / d z and of
    |flux| |d xi / d z| over the support of xi."""
    z, w = xi.quadrature(order)
    vals = flux(z)
    if not np.all(np.isfinite(vals)):
        raise CRError(f"{flux.name!r} is singular on the support of {xi.label!r}")
    dxi = xi.dz(z)
    raw = complex(np.sum(w * np.conj(vals) * dxi))
    return raw, float(np.sum(w * np.abs(vals) * np.abs(dxi)))


def weak_cr_residual(
    g: ComplexField, p: float, xi: ComplexBump, order: int = 12
) -> complex:
    """Quadrature of conj(|g|^(p-2) g) * d xi / d z over the support."""
    return _cr_pairing(_flux(g, p), xi, order)[0]


def normalized_weak_cr_residual(
    g: ComplexField, p: float, xi: ComplexBump, order: int = 12
) -> float:
    """|weak residual| scaled by the quadrature of |flux| |d xi / d z|."""
    raw, normalizer = _cr_pairing(_flux(g, p), xi, order)
    return abs(raw) / max(normalizer, 1e-300)


def composed_flux(g: ComplexField, f: ComplexField, p: float) -> ComplexField:
    """W(zeta) = f'(zeta) |g(f(zeta))|^(p-2) g(f(zeta)) - the transformed
    flux of the holomorphic-composition covariance statement."""
    flux = _flux(g, p)

    def ev(zeta):
        fp = f.dz(zeta) if f.has_dz else dz_fd(f, zeta)
        if zeta.size and float(np.min(np.abs(fp))) < NORM_CUTOFF:
            raise CRError(f"{f.name!r} has a critical point on the domain")
        return fp * flux(f(zeta))

    return ComplexField(ev, None, None, (), name=f"{g.name} through {f.name}")


def theorem5_experiment(
    g: ComplexField,
    f: ComplexField,
    p: float,
    domain: Domain,
    seed: int = 42,
    order: int = 12,
    count: int = 5,
) -> list:
    """Residual table of the composition covariance over a bump family."""
    rows = []
    W = composed_flux(g, f, p)
    for xi in default_complex_bumps(domain, seed=seed, count=count):
        xi.require_support_inside(domain)
        raw, normalizer = _cr_pairing(W, xi, order)
        rows.append(
            {
                "eta": xi.label,
                "p": float(p),
                "map": f.name,
                "residual": abs(raw),
                "normalizer": normalizer,
                "normalized": abs(raw) / max(normalizer, 1e-300),
            }
        )
    return rows
