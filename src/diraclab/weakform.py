"""Weak formulations of the nonlinear Dirac and Laplace systems.

The weak residual of a field f against a compactly supported test function
eta is the full Clifford-valued quadrature

    integral over U of  conjugation(A(x) |f(x)|^(p-2) f(x)) * D eta(x) dx,

which vanishes for every eta exactly when f solves the (weighted) p-Dirac
equation in the distributional sense; replacing f by the derivative D h
gives the p-harmonic version.  This module supplies the quadrature engine
(tensor Gauss-Legendre over a cell decomposition of the domain's bounding
box, with inside-domain masking), the mollifier-bump test functions, the
conformal weight |c x + d|^s, and the covariance experiments: pulling a
solution back through a Moebius map and measuring the weak residual of the
transformed field on the preimage domain, in both the plain-derivative and
the twisted-derivative (frame-conjugated) forms.

`weak_pairing` is the one place a Clifford-valued pairing is summed: the
flat residuals, the covariance experiments, the divergence oracle and the
spherical residuals all call it.  Its summation order is fixed: the
weighted integrand is reduced over the node axis by numpy's sum in node
order, never through a matrix product (whose BLAS blocking may vary), so
every reported number is deterministic for a fixed seed, order and cell
decomposition, and reruns are byte-identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, blade_label, geometric_product
from .fields import (
    AnalyticField,
    Domain,
    DomainError,
    FieldError,
    compose_with_mobius,
    conformal_dirac_transform,
    dirac_fd,
    power_scale,
    validate_clearance,
)
from .mobius import (
    VahlenMatrix,
    denominator,
    frame_at,
    jacobian_determinant,
    map_points,
    vahlen_inverse,
)


class WeakFormError(ValueError):
    """Contract violation in the weak-form engine."""


class SupportError(WeakFormError):
    """A test function's support escapes the working domain."""


class AccuracyWarning(UserWarning):
    """A reported nonzero residual moved by more than 10% under order doubling."""


# --------------------------------------------------------- test functions


def mollifier(t):
    """The flat-edge profile phi(t) = exp(-1/(1 - t)) for t < 1, 0 beyond,
    and its derivative phi'(t) = -phi(t)/(1 - t)^2; every bump of the lab
    is phi of a squared scaled distance t."""
    # the clamp keeps 1/(1-t) finite and gap**2 a normal float; exp(-1/gap)
    # has already underflowed to the true limit 0 there, so phi' is exactly 0
    gap = np.maximum(1.0 - t, 1e-150)
    inside = t < 1.0
    phi = np.where(inside, np.exp(-1.0 / gap), 0.0)
    return phi, np.where(inside, -phi / gap**2, 0.0)


@dataclass(frozen=True)
class BumpTestFunction:
    """Smooth compactly supported test function  eta(x) = phi(x) * blade.

    The profile is phi = exp(-1/(1 - r^2)) for r = |x - center|/radius < 1
    and 0 outside, which is infinitely differentiable with all derivatives
    vanishing on the support boundary; `blade` is a constant Clifford
    coefficient multiplying the profile.
    """

    dim: int
    center: tuple
    radius: float
    blade: Multivector
    label: str = "bump"

    def __post_init__(self):
        if not self.radius > 0:
            raise WeakFormError("bump radius must be positive")
        if self.blade.dim != self.dim:
            raise WeakFormError("blade dimension does not match the bump")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def _sq(self, pts: np.ndarray) -> np.ndarray:
        d = np.asarray(pts, dtype=float) - np.array(self.center)
        return np.sum(d * d, axis=-1) / self.radius**2

    def support_mask(self, pts) -> np.ndarray:
        return self._sq(pts) < 1.0

    def profile(self, pts) -> np.ndarray:
        return mollifier(self._sq(pts))[0]

    def _radial_factor(self, pts) -> np.ndarray:
        """d phi / d x_j = _radial_factor * (x_j - center_j)."""
        return 2.0 * mollifier(self._sq(pts))[1] / self.radius**2

    def __call__(self, pts) -> Multivector:
        return Multivector(self.dim, self.profile(pts)[..., None] * self.blade.coeffs)

    def partials(self, pts) -> list:
        pts = np.asarray(pts, dtype=float)
        fac = self._radial_factor(pts)
        d = pts - np.array(self.center)
        return [
            Multivector(self.dim, (fac * d[..., j])[..., None] * self.blade.coeffs)
            for j in range(self.dim)
        ]

    def dirac(self, pts) -> Multivector:
        """Analytic D eta = (radial factor) (x - center) * blade."""
        pts = np.asarray(pts, dtype=float)
        fac = self._radial_factor(pts)
        vec = Multivector.from_vector(
            self.dim, fac[..., None] * (pts - np.array(self.center))
        )
        return geometric_product(vec, self.blade)

    def as_field(self) -> AnalyticField:
        return AnalyticField(
            self.dim, self.__call__, lambda q: self.partials(q), name=self.label
        )

    def require_support_inside(self, domain: Domain, margin: float = 1e-9):
        c = np.array(self.center)
        r = self.radius
        if domain.kind == "box":
            lo, hi = np.array(domain.lo), np.array(domain.hi)
            pad = margin * (hi - lo)
            if np.any(c - r < lo + pad) or np.any(c + r > hi - pad):
                raise SupportError(f"{self.label}: support escapes the box")
        elif domain.kind in ("ball", "shifted-ball"):
            off = float(np.linalg.norm(c - np.array(domain.center)))
            if off + r > domain.outer * (1.0 - margin):
                raise SupportError(f"{self.label}: support escapes the ball")
        elif domain.kind == "annulus":
            off = float(np.linalg.norm(c - np.array(domain.center)))
            if off - r < domain.inner * (1.0 + margin) or off + r > domain.outer * (
                1.0 - margin
            ):
                raise SupportError(f"{self.label}: support escapes the annulus")
        else:  # pragma: no cover - Domain constructors forbid other kinds
            raise SupportError(f"unknown domain kind {domain.kind!r}")
        return self


def centered_bump(
    domain: Domain, blade: Multivector, label: str = "bump", scale: float = 0.6
) -> BumpTestFunction:
    """A deterministic bump at the natural center of the domain."""
    if domain.kind == "box":
        lo, hi = np.array(domain.lo), np.array(domain.hi)
        center = (lo + hi) / 2.0
        radius = scale * float(np.min(hi - lo) / 2.0)
    elif domain.kind in ("ball", "shifted-ball"):
        center = np.array(domain.center)
        radius = scale * domain.outer
    else:  # annulus: sit on the mid ring along the first axis
        center = np.array(domain.center, dtype=float)
        center[0] += (domain.inner + domain.outer) / 2.0
        radius = scale * (domain.outer - domain.inner) / 2.0
    bump = BumpTestFunction(domain.dim, tuple(center), radius, blade, label=label)
    return bump.require_support_inside(domain)


def random_bump(
    domain: Domain, rng, blade: Multivector = None, label: str = "bump"
) -> BumpTestFunction:
    """A bump with randomized center/radius, kept well resolved and inside."""
    dim = domain.dim
    if blade is None:
        coeffs = rng.normal(size=1 << dim)
        blade = Multivector(dim, coeffs / np.linalg.norm(coeffs))
    if domain.kind == "box":
        lo, hi = np.array(domain.lo), np.array(domain.hi)
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        off = rng.uniform(-0.35, 0.35, size=dim) * half
        center = mid + off
        rmax = 0.92 * float(np.min(half - np.abs(off)))
    elif domain.kind in ("ball", "shifted-ball"):
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        rho = rng.uniform(0.0, 0.35) * domain.outer
        center = np.array(domain.center) + rho * direction
        rmax = 0.92 * domain.outer - rho
    else:  # annulus
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        ring = (domain.inner + domain.outer) / 2.0
        center = np.array(domain.center) + ring * direction
        rmax = 0.92 * (domain.outer - domain.inner) / 2.0
    radius = rng.uniform(0.6, 0.95) * rmax
    bump = BumpTestFunction(dim, tuple(center), float(radius), blade, label=label)
    return bump.require_support_inside(domain)


def default_test_functions(domain: Domain, seed: int = 42, random_count: int = 5):
    """The experiment family: `random_count` random bumps with random unit
    Clifford coefficients, plus one centered bump per basis blade."""
    rng = np.random.default_rng(seed)
    etas = [
        random_bump(domain, rng, label=f"rand-{i}") for i in range(random_count)
    ]
    for mask in range(1 << domain.dim):
        etas.append(
            centered_bump(
                domain, Multivector.blade(domain.dim, mask),
                label=f"blade-{blade_label(mask)}",
            )
        )
    return etas


# ------------------------------------------------------------- quadrature


@dataclass
class QuadratureRule:
    """Tensor Gauss-Legendre nodes over a cell split of the bounding box.

    `inside` masks nodes to the domain; integrands supported inside the
    domain (every bump is) see no masking error.  Weights are the positive
    per-axis Gauss weight products scaled to the cells.
    """

    domain: Domain
    order: int
    cells_per_axis: int
    nodes: np.ndarray
    weights: np.ndarray
    inside: np.ndarray

    @classmethod
    def build(cls, domain: Domain, order: int = None, cells: int = None):
        dim = domain.dim
        if dim > 4:
            raise WeakFormError("tensor quadrature is limited to dim <= 4")
        if order is None:
            order = 12 if dim <= 3 else 8
        if cells is None:
            cells = 8 if dim <= 3 else 6
        if order < 1 or cells < 1:
            raise WeakFormError("quadrature order and cell count must be >= 1")
        x, w = np.polynomial.legendre.leggauss(order)
        lo, hi = domain.bounding_box()
        axis_nodes, axis_weights = [], []
        for i in range(dim):
            edges = np.linspace(lo[i], hi[i], cells + 1)
            mids = (edges[:-1] + edges[1:]) / 2.0
            half = (edges[1:] - edges[:-1]) / 2.0
            axis_nodes.append((mids[:, None] + half[:, None] * x[None, :]).ravel())
            axis_weights.append((half[:, None] * w[None, :]).ravel())
        grids = np.meshgrid(*axis_nodes, indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        weights = axis_weights[0]
        for i in range(1, dim):
            weights = np.multiply.outer(weights, axis_weights[i])
        weights = weights.ravel()
        return cls(domain, order, cells, nodes, weights, domain.contains(nodes))

    @property
    def node_count(self) -> int:
        return len(self.weights)

    def doubled(self) -> "QuadratureRule":
        return QuadratureRule.build(self.domain, 2 * self.order, self.cells_per_axis)

    def integrate_scalar(self, values: np.ndarray) -> float:
        """Masked integral of per-node scalar samples."""
        return float(np.sum(self.weights * np.where(self.inside, values, 0.0)))


def _support_nodes(rule: QuadratureRule, eta: BumpTestFunction):
    keep = rule.inside & eta.support_mask(rule.nodes)
    idx = np.flatnonzero(keep)
    return rule.nodes[idx], rule.weights[idx]


# Bump-supported integrands defeat box-tensor quadrature: the profile is
# flat to all orders on the support sphere, and cells cut by that sphere
# limit the tensor rule to ~1e-5 relative accuracy at any affordable node
# count.  Integrating in bump-centred spherical coordinates removes the
# problem: a double-exponential radial rule absorbs the flat edge and the
# angular factors are analytic, so the product rule reaches roundoff.


def _radial_rule(count: int, tail: float = 3.2):
    """Double-exponential nodes/weights for integral over r in (0, 1)."""
    t = np.linspace(-tail, tail, count)
    step = t[1] - t[0]
    s = (np.pi / 2.0) * np.sinh(t)
    r = 0.5 * (1.0 + np.tanh(s))
    dr = (np.pi / 4.0) * np.cosh(t) / np.cosh(s) ** 2
    return r, step * dr


def _unit_sphere_rule(dim: int, order: int):
    """Product rule on the unit sphere S^(dim-1), spectral for smooth data."""
    if dim == 2:
        count = max(32, 8 * order)
        phi = 2.0 * np.pi * np.arange(count) / count
        omega = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return omega, np.full(count, 2.0 * np.pi / count)
    if dim == 3:
        nu, kphi = max(12, 2 * order), max(24, 4 * order)
        u, wu = np.polynomial.legendre.leggauss(nu)
        phi = 2.0 * np.pi * np.arange(kphi) / kphi
        sin = np.sqrt(1.0 - u**2)
        omega = np.stack(
            [
                np.outer(sin, np.cos(phi)).ravel(),
                np.outer(sin, np.sin(phi)).ravel(),
                np.repeat(u, kphi),
            ],
            axis=-1,
        )
        return omega, np.repeat(wu, kphi) * (2.0 * np.pi / kphi)
    if dim == 4:
        npsi, nu, kphi = max(12, 2 * order), max(12, 2 * order), max(24, 4 * order)
        xg, wg = np.polynomial.legendre.leggauss(npsi)
        psi = (xg + 1.0) * (np.pi / 2.0)
        wpsi = wg * (np.pi / 2.0) * np.sin(psi) ** 2
        u, wu = np.polynomial.legendre.leggauss(nu)
        phi = 2.0 * np.pi * np.arange(kphi) / kphi
        sin_u = np.sqrt(1.0 - u**2)
        grid_psi, grid_u, grid_phi = np.meshgrid(psi, u, phi, indexing="ij")
        sin_psi = np.sin(grid_psi)
        omega = np.stack(
            [
                np.cos(grid_psi).ravel(),
                (sin_psi * grid_u).ravel(),
                (sin_psi * np.sqrt(1.0 - grid_u**2) * np.cos(grid_phi)).ravel(),
                (sin_psi * np.sqrt(1.0 - grid_u**2) * np.sin(grid_phi)).ravel(),
            ],
            axis=-1,
        )
        weights = (
            np.multiply.outer(np.multiply.outer(wpsi, wu), np.full(kphi, 1.0)).ravel()
            * (2.0 * np.pi / kphi)
        )
        return omega, weights
    raise WeakFormError("sphere product rule supports dim 2..4")


def support_quadrature(eta: BumpTestFunction, order: int):
    """Bump-fitted nodes/weights: integral over supp(eta) in spherical
    coordinates x = center + radius * r * omega."""
    dim = eta.dim
    r, wr = _radial_rule(max(48, 8 * order))
    omega, wo = _unit_sphere_rule(dim, order)
    nodes = np.array(eta.center) + eta.radius * (
        r[:, None, None] * omega[None, :, :]
    ).reshape(-1, dim)
    weights = (
        eta.radius**dim * np.multiply.outer(wr * r ** (dim - 1), wo).ravel()
    )
    return nodes, weights


def _integration_nodes(rule: QuadratureRule, eta: BumpTestFunction, scheme: str):
    eta.require_support_inside(rule.domain)
    if scheme == "tensor":
        return _support_nodes(rule, eta)
    if scheme == "fitted":
        return support_quadrature(eta, rule.order)
    raise WeakFormError(f"unknown quadrature scheme {scheme!r}")


# --------------------------------------------------------------- weights


@dataclass(frozen=True)
class ConformalWeight:
    """The positive scalar weight  A(x) = |c x + d|^exponent  of a map."""

    mobius: VahlenMatrix
    exponent: float

    def __call__(self, pts) -> np.ndarray:
        x = Multivector.from_vector(
            self.mobius.dim, np.asarray(pts, dtype=float)
        )
        return denominator(self.mobius, x).norm() ** self.exponent

    @property
    def description(self) -> str:
        return f"|c x + d|^{self.exponent:g}"


# -------------------------------------------------------- weak residuals


def weak_pairing(vals: Multivector, deta: Multivector, w: np.ndarray):
    """The weak pairing of node values against D eta: returns

        raw        = sum over nodes of w conj(vals) * deta   (coefficients)
        normalizer = sum over nodes of w |vals| |deta|

    `vals` and `deta` are batched over the N nodes (`vals` may also be a
    single constant); callers fold any A |f|^(p-2) factor into `w`.  A
    (K, N) `w` gives K rows of (raw, normalizer) from one Clifford product.
    """
    integrand = geometric_product(vals.conjugation(), deta).coeffs
    raw = np.sum(w[..., None] * integrand, axis=-2)
    normalizer = np.sum(w * vals.norm() * deta.norm(), axis=-1)
    return raw, normalizer


def _pair(f: AnalyticField, p: float, eta: BumpTestFunction,
          rule: QuadratureRule, weight, of_derivative: bool, scheme: str):
    """Raw pairing and normalizer of conj(A |v|^(p-2) v) * D eta for v = f,
    or v = D f when of_derivative; None when no node falls on the support."""
    if of_derivative and not f.has_grad:
        raise FieldError(f"weak form needs the analytic derivative of {f.name!r}")
    nodes, w = _integration_nodes(rule, eta, scheme)
    if len(nodes) == 0:
        return None
    vals = f.dirac(nodes) if of_derivative else f(nodes)
    scale = power_scale(vals.norm(), p, f.name)
    if weight is not None:
        scale = scale * weight(nodes)
    raw, normalizer = weak_pairing(vals, eta.dirac(nodes), w * scale)
    return Multivector(vals.dim, raw, copy=False), float(normalizer)


def weak_p_dirac_residual(
    f: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule,
    weight=None, scheme: str = "fitted",
) -> Multivector:
    """Clifford-valued quadrature of conj(A |f|^(p-2) f) * D eta over U."""
    pair = _pair(f, p, eta, rule, weight, False, scheme)
    return pair[0] if pair else Multivector.zero(rule.domain.dim)


def weak_p_harmonic_residual(
    h: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule,
    weight=None, scheme: str = "fitted",
) -> Multivector:
    """Quadrature of conj(A |Dh|^(p-2) Dh) * D eta; needs analytic Dh."""
    pair = _pair(h, p, eta, rule, weight, True, scheme)
    return pair[0] if pair else Multivector.zero(rule.domain.dim)


def normalized_weak_residual(
    f: AnalyticField, p: float, eta: BumpTestFunction, rule: QuadratureRule,
    weight=None, of_derivative: bool = False, scheme: str = "fitted",
) -> float:
    """|weak residual| / normalizer, the normalizer being the quadrature
    of A |f|^(p-1) |D eta|; computed in one pass."""
    pair = _pair(f, p, eta, rule, weight, of_derivative, scheme)
    if pair is None:
        return 0.0
    raw, normalizer = pair
    return float(raw.norm()) / max(normalizer, 1e-300)


def dirac_integral_check(
    eta: BumpTestFunction, rule: QuadratureRule, scheme: str = "fitted"
) -> float:
    """|integral of D eta| / integral of |D eta| - the divergence-theorem
    oracle; compact support makes the exact value 0 in every component."""
    nodes, w = _integration_nodes(rule, eta, scheme)
    if len(nodes) == 0:
        return 0.0
    raw, total = weak_pairing(Multivector.scalar(eta.dim, 1.0), eta.dirac(nodes), w)
    return float(Multivector(eta.dim, raw).norm()) / max(float(total), 1e-300)


# ------------------------------------------------------- domain pullback


def pullback_domain(m: VahlenMatrix, dom: Domain) -> Domain:
    """The preimage of `dom` under the Moebius map of `m`.

    Affine conformal maps (c = 0) pull balls and annuli back exactly by
    mapping the center and scaling radii; boxes survive only scalar a, d
    (no rotation).  Maps with poles are handled for balls by mapping a
    boundary sample through the inverse and fitting the image sphere,
    which is exact for Moebius maps up to roundoff - the fit residual and
    an interior-orientation probe are both validated.
    """
    dim = dom.dim
    inv = vahlen_inverse(m)
    if float(m.c.norm()) < 1e-13:
        origin = Multivector.from_vector(dim, np.zeros(dim))
        rho = float(jacobian_determinant(inv, origin)) ** (1.0 / dim)
        if dom.kind in ("ball", "shifted-ball"):
            return Domain.ball(map_points(inv, np.array(dom.center)), dom.outer * rho)
        if dom.kind == "annulus":
            return Domain.annulus(
                map_points(inv, np.array(dom.center)),
                dom.inner * rho,
                dom.outer * rho,
            )
        if dom.kind == "box" and m.a.is_grade(0) and m.d.is_grade(0):
            lo2 = map_points(inv, np.array(dom.lo))
            hi2 = map_points(inv, np.array(dom.hi))
            return Domain.box(np.minimum(lo2, hi2), np.maximum(lo2, hi2))
        raise DomainError(
            "pullback of a box under a rotating map is not a box; use a ball"
        )
    if dom.kind not in ("ball", "shifted-ball"):
        raise DomainError(
            "pullback under a map with a pole is implemented for balls only"
        )
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(max(80, 24 * dim), dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    boundary = np.array(dom.center) + dom.outer * dirs
    img = map_points(inv, boundary)
    design = np.hstack([2.0 * img, -np.ones((len(img), 1))])
    rhs = np.sum(img * img, axis=-1)
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    center2, shift = sol[:dim], sol[dim]
    r2 = float(center2 @ center2 - shift)
    fit_err = float(np.max(np.abs(design @ sol - rhs)))
    if r2 <= 0 or fit_err > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise DomainError("image of the ball boundary does not fit a sphere")
    radius = float(np.sqrt(r2))
    probes = np.vstack(
        [np.array(dom.center)[None, :], np.array(dom.center) + 0.5 * dom.outer * dirs[:8]]
    )
    if float(np.max(np.linalg.norm(map_points(inv, probes) - center2, axis=-1))) >= radius:
        raise DomainError("the map turns the ball inside out (pole inside the region)")
    return Domain.ball(center2, radius)


# ------------------------------------------------------------ experiments


@dataclass(frozen=True)
class CovarianceRow:
    eta_label: str
    exponent: float
    residual_norm: float
    normalizer: float

    @property
    def normalized(self) -> float:
        return self.residual_norm / max(self.normalizer, 1e-300)


@dataclass
class CovarianceReport:
    """Per-test-function residual table of a covariance experiment."""

    experiment: str
    dim: int
    p: float
    mobius_tokens: tuple
    source_domain: Domain
    domain: Domain
    rows: list
    order: int
    cells: int
    notes: tuple = ()

    @property
    def max_normalized(self) -> float:
        return max(r.normalized for r in self.rows)

    def normalized_by_exponent(self) -> dict:
        out = {}
        for r in self.rows:
            out[r.exponent] = max(out.get(r.exponent, 0.0), r.normalized)
        return out

    @property
    def best_exponent(self) -> float:
        table = self.normalized_by_exponent()
        return min(table, key=lambda s: table[s])

    def to_rows(self) -> list:
        return [
            {
                "experiment": self.experiment,
                "n": self.dim,
                "p": self.p,
                "exponent": r.exponent,
                "eta": r.eta_label,
                "residual": r.residual_norm,
                "normalizer": r.normalizer,
                "normalized": r.normalized,
            }
            for r in self.rows
        ]


def _pullback_and_validate(f, m, source_domain, margin):
    volume = pullback_domain(m, source_domain)
    inv = vahlen_inverse(m)
    preimages = [map_points(inv, np.asarray(s, dtype=float)) for s in f.singular_points]
    validate_clearance(volume, singular_points=preimages, mobius=m, margin=margin)
    return volume


def _warn_if_moving(report, recompute, floor=1e-10):
    stable = recompute()
    a, b = report.max_normalized, stable.max_normalized
    if max(a, b) > floor and abs(a - b) > 0.1 * max(a, b):
        warnings.warn(
            f"{report.experiment}: residual moved {a:.3e} -> {b:.3e} "
            "under order doubling; quadrature has not converged",
            AccuracyWarning,
            stacklevel=3,
        )
    return stable


def dirac_covariance_experiment(
    f: AnalyticField,
    p: float,
    m: VahlenMatrix,
    source_domain: Domain,
    *,
    seed: int = 42,
    order: int = None,
    cells: int = None,
    margin: float = 1e-3,
    random_bumps: int = 5,
    rule: QuadratureRule = None,
    scheme: str = "fitted",
    verify_quadrature: bool = False,
) -> CovarianceReport:
    """Covariance of the p-Dirac equation under a Moebius map.

    Given a weak p-Dirac solution f on the source domain U, the pullback
    g(x) = (c x + d)^{-1} f(M(x)) is measured as a weak solution of the
    weighted equation on M^{-1}(U) with weight |c x + d|^(p - n); at p = n
    the weight is identically 1 and the statement is the conformal
    covariance of the n-Dirac equation.
    """
    dim = source_domain.dim
    volume = _pullback_and_validate(f, m, source_domain, margin)
    g = conformal_dirac_transform(f, m)
    rule = rule if rule is not None else QuadratureRule.build(volume, order, cells)
    exponent = float(p - dim)
    weight = ConformalWeight(m, exponent)
    rows = []
    for eta in default_test_functions(volume, seed=seed, random_count=random_bumps):
        pair = _pair(g, p, eta, rule, weight, False, scheme)
        raw, normalizer = pair if pair else (Multivector.zero(dim), 0.0)
        rows.append(
            CovarianceRow(eta.label, exponent, float(raw.norm()), normalizer)
        )
    report = CovarianceReport(
        "dirac-pullback",
        dim,
        float(p),
        m.provenance,
        source_domain,
        volume,
        rows,
        rule.order,
        rule.cells_per_axis,
    )
    if verify_quadrature:
        _warn_if_moving(
            report,
            lambda: dirac_covariance_experiment(
                f, p, m, source_domain, seed=seed, margin=margin,
                random_bumps=random_bumps, rule=rule.doubled(), scheme=scheme,
            ),
        )
    return report


def harmonic_covariance_experiment(
    h: AnalyticField,
    p: float,
    m: VahlenMatrix,
    source_domain: Domain,
    *,
    exponents=None,
    seed: int = 42,
    order: int = None,
    cells: int = None,
    margin: float = 1e-3,
    random_bumps: int = 5,
    rule: QuadratureRule = None,
    scheme: str = "fitted",
    verify_quadrature: bool = False,
) -> CovarianceReport:
    """Covariance of the p-harmonic equation in the twisted-derivative form.

    The composed field h(M(x)) is measured against the weighted equation
    whose derivative operator is the frame-twisted Dirac operator
    D_M = sum_j u e_j rev(u) d/dx_j with u = (c x + d)/|c x + d|: for each
    weight exponent s in the scan the residual is the quadrature of

        |c x + d|^s |G|^(p-2) conj(G) * D_M eta,   G := D_M [h o M],

    over the preimage domain.  A change of variables makes the exponent
    s = 2(p - n) exact (at p = n: s = 0, the unweighted twisted form); the
    scan reports every requested exponent and never asserts one.
    """
    dim = source_domain.dim
    if not h.has_grad:
        raise FieldError(f"experiment needs the analytic derivative of {h.name!r}")
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    volume = _pullback_and_validate(h, m, source_domain, margin)
    gh = compose_with_mobius(h, m)
    rule = rule if rule is not None else QuadratureRule.build(volume, order, cells)
    if exponents is None:
        exponents = [2.0 * (p + 2.0 - dim), 2.0 * (p - dim), float(p - dim), 0.0]
    exponents = tuple(dict.fromkeys(round(float(s), 12) for s in exponents))
    notes = ()
    if p == dim:
        notes = (
            "exponent 0 realizes the unweighted twisted-derivative form",
        )
    rows = []
    for eta in default_test_functions(volume, seed=seed, random_count=random_bumps):
        nodes, w = _integration_nodes(rule, eta, scheme)
        if len(nodes) == 0:
            rows.extend(CovarianceRow(eta.label, s, 0.0, 0.0) for s in exponents)
            continue
        fp = frame_at(m, Multivector.from_vector(dim, nodes))
        twisted = fp.twisted_dirac(gh.grad(nodes))
        power = power_scale(twisted.norm(), p, gh.name)
        scan = w * fp.scale ** np.array(exponents)[:, None] * power
        raw, normalizer = weak_pairing(
            twisted, fp.twisted_dirac(eta.partials(nodes)), scan
        )
        norms = Multivector(dim, raw, copy=False).norm()
        rows.extend(
            CovarianceRow(eta.label, s, float(r), float(nz))
            for s, r, nz in zip(exponents, norms, normalizer)
        )
    report = CovarianceReport(
        "twisted-harmonic",
        dim,
        float(p),
        m.provenance,
        source_domain,
        volume,
        rows,
        rule.order,
        rule.cells_per_axis,
        notes,
    )
    if verify_quadrature:
        _warn_if_moving(
            report,
            lambda: harmonic_covariance_experiment(
                h, p, m, source_domain, exponents=exponents, seed=seed,
                margin=margin, random_bumps=random_bumps, rule=rule.doubled(),
                scheme=scheme,
            ),
        )
    return report


# ------------------------------------------------- pointwise invariances


def _derivative_at(f: AnalyticField, pts: np.ndarray, h: float) -> Multivector:
    if f.has_grad:
        return f.dirac(pts)
    return dirac_fd(f, pts, h=h)


def sc_invariance_check(
    f: AnalyticField,
    p: float,
    m: VahlenMatrix,
    eta: BumpTestFunction,
    points,
    h: float = 1e-3,
) -> float:
    """Scalar parts of the twisted and plain pairings agree pointwise.

    Compares Sc(|Df(y)|^(p-2) conj(u Df(y) rev(u)) u Deta(y) rev(u)) with
    Sc(|Df(y)|^(p-2) conj(Df(y)) Deta(y)) at y = M(x), u the unit frame of
    the map at x; returns the largest absolute discrepancy.
    """
    pts = np.asarray(points, dtype=float)
    y = map_points(m, pts)
    df = _derivative_at(f, y, h)
    deta = eta.dirac(y)
    fp = frame_at(m, Multivector.from_vector(m.dim, pts))
    factor = df.norm() ** (p - 2.0)
    twisted = geometric_product(
        fp.map(df).conjugation(), fp.map(deta)
    ).scalar_part()
    plain = geometric_product(df.conjugation(), deta).scalar_part()
    return float(np.max(np.abs(factor * (twisted - plain)), initial=0.0))


def norm_frame_identity_check(
    m: VahlenMatrix, f: AnalyticField, points, h: float = 1e-3
) -> float:
    """| |u Df(M(x)) rev(u)| - |Df(M(x))| | - the frame is an isometry."""
    pts = np.asarray(points, dtype=float)
    y = map_points(m, pts)
    df = _derivative_at(f, y, h)
    fp = frame_at(m, Multivector.from_vector(m.dim, pts))
    return float(np.max(np.abs(fp.map(df).norm() - df.norm()), initial=0.0))
