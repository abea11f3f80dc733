"""Differential operators on the unit sphere and their kernel checks.

Fields live on S^n inside R^(n+1) and take values in the full Clifford
algebra of the ambient space.  The angular operator is the bivector sum
Gamma = sum over pairs i < j of e_i e_j (x_i d/dx_j - x_j d/dx_i), realized
by central differences along plane rotations (which never leave the
sphere), and the first-order operator of interest is x (Gamma + n/2) -
the conformal image of the flat Dirac operator under stereographic
projection.  A spherical field is the `fields.AnalyticField` of the
ambient space read on points projected onto the sphere (degree-0
homogeneous extension), so rotational derivatives equal tangential
derivatives and no charts are needed; `fields.nonlinear_power_field` forms
its p-flux |f|^(p-2) f, as for a flat field.  A point is projected once,
where it enters the layer: a caller's points, a rotated stencil's points
or a cap bump's nodes; the nested operators read unit points as given.

Two published claims do not survive evaluation under the calibrated
conventions and are therefore reported, never asserted: the first-order
radial identity holds with the opposite sign of the zero-order coupling
(matching the factorization of the conformal Laplacian) and with an extra
factor -2/|x - y|^2 relative to the displayed right-hand side; the
report records discrepancies and componentwise ratios for both signs so
the convention is diagnosed from data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Multivector, geometric_product, square_sum
from .fields import (NORM_CUTOFF, AnalyticField, FieldError, dirac_sum, nonlinear_power_field,
                     radial_field, richardson_step)
from .weakform import (SUPPORT_MARGIN, BumpTestFunction, SupportError, _pair, bump_family,
                       mollifier, normalized_ratio, pair_each, polar_blocks, random_unit_blade)


class SphereError(FieldError):
    """Contract violation in the sphere layer."""


def sphere_point(v) -> np.ndarray:
    """Normalize an ambient vector onto the sphere; rejects near-zero or nan/inf input."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise SphereError("cannot normalize a non-finite vector onto the sphere")
    norm = float(np.linalg.norm(v))
    if norm < 1e-13:
        raise SphereError("cannot normalize a near-zero vector onto the sphere")
    return v / norm


def random_sphere_points(rng, ambient: int, count: int, avoid=(), clearance=0.3):
    """Uniform unit vectors, redrawn until clear of the avoid set."""
    out = []
    while len(out) < count:
        v = rng.normal(size=ambient)
        if np.linalg.norm(v) < 1e-3:
            continue
        x = v / np.linalg.norm(v)
        if all(np.linalg.norm(x - np.asarray(s)) > clearance for s in avoid):
            out.append(x)
    return np.array(out)


def _renormalize(points, dim: int) -> np.ndarray:
    """The one projection onto S^n, made where a point enters the layer."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (dim,):
        raise SphereError(f"points must have last axis {dim}, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise SphereError("cannot normalize a non-finite vector onto the sphere")
    norms = np.sqrt(square_sum(pts))[..., None]
    if np.any(norms < 1e-13):
        raise SphereError("a field point collapsed to the origin")
    return pts / norms


@dataclass(frozen=True)
class SphericalField(AnalyticField):
    """Clifford-valued field on S^n, evaluated by degree-0 extension: the
    analytic field of the ambient space R^(n+1), whose eval_fn receives
    points already renormalized onto the sphere.  `dim` is the ambient
    dimension n + 1."""

    def __call__(self, points) -> Multivector:
        return self.eval_fn(_renormalize(points, self.dim))


def coordinate_field(ambient: int, k: int) -> SphericalField:
    """The k-th ambient coordinate (1-based) restricted to the sphere."""
    if not 1 <= k <= ambient:
        raise SphereError(f"coordinate index must lie in [1,{ambient}]")

    def ev(pts):
        return Multivector.scalar(ambient, pts[..., k - 1])

    return SphericalField(ambient, ev, name=f"x_{k}")


def spherical_kernel(y, p: float) -> SphericalField:
    """(x - y)/|x - y|^((n + p - 2)/(p - 1)) - the first-order kernel family.

    Its nonlinearity |f|^(p-2) f collapses exactly to the p = 2 member
    (exponent n), so one closed form certifies the whole family.
    """
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    y = sphere_point(y)
    ambient = len(y)
    n = ambient - 1
    alpha = (n + p - 2.0) / (p - 1.0)

    def value(diff, dist):
        if dist.size and float(np.min(dist)) < NORM_CUTOFF:
            raise SphereError("kernel evaluated at its pole")
        return Multivector.from_vector(ambient, diff / dist[..., None] ** alpha)

    return radial_field(SphericalField, ambient, y, f"sphere-kernel-p{p:g}", value, None)


def radial_distance_power(y, exponent: float) -> SphericalField:
    """The scalar field |x - y|^exponent on the sphere."""
    y = sphere_point(y)

    def value(diff, dist):
        if exponent < 0 and dist.size and float(np.min(dist)) < NORM_CUTOFF:
            raise SphereError("distance power evaluated at its pole")
        return Multivector.scalar(len(y), dist**exponent)

    return radial_field(SphericalField, len(y), y, f"|x-y|^{exponent:g}", value, None)


# --------------------------------------------------- rotational derivatives


def _plane_rotate(pts, u, v, t):
    xu = pts @ u
    xv = pts @ v
    return (
        pts
        + (np.cos(t) - 1.0) * (xu[..., None] * u + xv[..., None] * v)
        + np.sin(t) * (xu[..., None] * v - xv[..., None] * u)
    )


def gamma_op(
    f: SphericalField,
    points,
    theta: float = 1e-3,
    frame=None,
) -> Multivector:
    """The bivector angular operator by central differences along rotations.

    Gamma f = sum over pairs i < j of u_i u_j (d/dt f(R_ij(t) x) at t = 0),
    where R_ij rotates the plane spanned by frame columns u_i, u_j.  The
    default frame is the ambient coordinate basis; any orthogonal frame
    gives the same operator (basis independence of the bivector sum).
    Each Richardson step evaluates f once, on every plane's rotations.
    """
    frame = np.eye(f.dim) if frame is None else np.asarray(frame, dtype=float)
    if frame.shape != (f.dim, f.dim) or not np.allclose(frame.T @ frame, np.eye(f.dim), atol=1e-10):
        raise SphereError("the rotation frame must be an orthogonal matrix")
    return _gamma(f, _renormalize(points, f.dim), theta, frame)


def _gamma(f: SphericalField, pts, theta: float, frame) -> Multivector:
    """Gamma f at unit points, read as given, along an orthogonal frame's planes."""
    ambient = f.dim
    planes = [(frame[:, i], frame[:, j]) for i in range(ambient) for j in range(i + 1, ambient)]

    def central(tt):
        # every plane's +tt rotations, then every plane's -tt ones: one evaluation
        rotated = np.stack([_plane_rotate(pts, u, v, s) for s in (tt, -tt) for u, v in planes])
        plus, minus = np.split(f.eval_fn(_renormalize(rotated, ambient)).coeffs, 2)
        return Multivector(ambient, (plus - minus) / (2.0 * tt), copy=False)

    d = richardson_step(central, theta, f.name, pts, f.singular_points)
    return dirac_sum((geometric_product(Multivector.from_vector(ambient, u),
                                        Multivector.from_vector(ambient, v)),
                      Multivector(ambient, dk, copy=False)) for (u, v), dk in zip(planes, d.coeffs))


def spherical_dirac(f: SphericalField, points, theta: float = 1e-3) -> Multivector:
    """x (Gamma + n/2) f - the first-order conformal operator on S^n."""
    return _coupled_terms(f, _renormalize(points, f.dim), theta)[0]


def spherical_p_dirac_residual(
    f: SphericalField, p: float, points, theta: float = 1e-3
) -> Multivector:
    """x (Gamma + n/2) applied to |f|^(p-2) f - zero exactly on solutions."""
    return spherical_dirac(nonlinear_power_field(f, p), points, theta=theta)


def _coupled_terms(f: SphericalField, pts, theta: float):
    """D_S f and x f at unit points, read as given, f evaluated at them once
    (after the stencil's guard): (D_S + k x) f is D_S f + k (x f)."""
    gamma, fx = _gamma(f, pts, theta, np.eye(f.dim)), f.eval_fn(pts)
    x = Multivector.from_vector(f.dim, pts)
    return geometric_product(x, gamma + ((f.dim - 1) / 2.0) * fx), geometric_product(x, fx)


def coupled_dirac(f: SphericalField, k: float, theta: float) -> SphericalField:
    """The field (D_S + k x) f: the first-order operator with the
    zero-order coupling k x, formed as D_S f + k (x f)."""

    def ev(pts):
        ds, xf = _coupled_terms(f, pts, theta)
        return ds + k * xf

    return SphericalField(f.dim, ev, singular_points=f.singular_points,
                          name=f"(D_S{k:+g}x)[{f.name}]")


def yamabe_op(f: SphericalField, points) -> Multivector:
    """The conformal Laplacian as the nested first-order product:
    applies the first-order operator to (D_S - x) f."""
    return spherical_dirac(coupled_dirac(f, -1.0, 1e-3), points)


# ------------------------------------------------------- identity reports


@dataclass(frozen=True)
class RadialIdentityReport:
    """Both-sign evaluation of the first-order radial identity.

    The published display applies (D_S + (p/2) x) to |x - y|^(p-n) and
    equates it with ((p-n)/2) (x - y)/|x - y|^(n-p).  `discrepancy` is the
    difference norm exactly as displayed; `discrepancy_flipped` uses the
    zero-order coupling -(p/2) x (the sign of the conformal-Laplacian
    factorization).  The componentwise ratios left/right let a convention
    mismatch be read off rather than presumed.
    """

    sphere_dim: int
    p: float
    discrepancy: float
    discrepancy_flipped: float
    ratios: tuple
    ratios_flipped: tuple
    left_norm: float
    right_norm: float


def lr_identity_check(
    x, y, p: float, theta: float = 1e-3
) -> RadialIdentityReport:
    """Evaluate both sides of the radial identity at one point; report only."""
    x, y = sphere_point(x), sphere_point(y)
    if x.shape != y.shape:
        raise SphereError(f"points must have last axis {len(y)}, got {x.shape}")
    n = len(x) - 1
    s = radial_distance_power(y, float(p - n))
    ds, xv = _coupled_terms(s, x[None, :], theta)  # once for both couplings
    left_plus, left_minus = (ds + k * xv for k in (p / 2.0, -p / 2.0))
    rho = float(np.linalg.norm(x - y))
    right = Multivector.from_vector(n + 1, ((p - n) / 2.0) * rho ** (p - n) * (x - y)[None, :])

    def vector_ratios(left):
        lv = left.vector_part()[0]
        rv = right.vector_part()[0]
        keep = np.abs(rv) > 1e-12 * max(1.0, float(np.max(np.abs(rv))))
        return tuple(float(a / b) for a, b in zip(lv[keep], rv[keep]))

    return RadialIdentityReport(
        n,
        float(p),
        float((left_plus - right).norm()[0]),
        float((left_minus - right).norm()[0]),
        vector_ratios(left_plus),
        vector_ratios(left_minus),
        float(left_plus.norm()[0]),
        float(right.norm()[0]),
    )


@dataclass(frozen=True)
class SphericalHarmonicReport:
    """Per-point residuals of the nested second-order equation on the
    claimed radial solution, for both signs of the zero-order coupling."""

    sphere_dim: int
    p: float
    rows: tuple
    notes: tuple

    @property
    def max_flipped(self) -> float:
        return max(r["residual_flipped"] for r in self.rows)


def spherical_p_harmonic_check(
    y, p: float, points, theta: float = 1e-3
) -> SphericalHarmonicReport:
    """Evaluate D_S |(D_S +- (p/2) x) f|^(p-2) (D_S +- (p/2) x) f for the
    radial candidate f = |x - y|^((p-n)/(p-1)); reports, never asserts."""
    y = sphere_point(y)
    n = len(y) - 1
    pts = np.atleast_2d(_renormalize(points, n + 1))
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    f = radial_distance_power(y, (p - n) / (p - 1.0))
    # every point in one batch per flux
    norms = {key: _coupled_terms(nonlinear_power_field(coupled_dirac(f, k, theta), p), pts,
                                 theta)[0].norm()
             for k, key in ((p / 2.0, "residual"), (-p / 2.0, "residual_flipped"))}
    rows = [{"point": tuple(x), **{key: float(v[i]) for key, v in norms.items()}}
            for i, x in enumerate(pts)]
    notes = (
        "residual uses the zero-order coupling +(p/2) x as displayed",
        "residual_flipped uses -(p/2) x, the conformal-Laplacian factor sign",
    )
    return SphericalHarmonicReport(n, float(p), tuple(rows), notes)


# ------------------------------------------------------- caps and bumps


@dataclass(frozen=True)
class SphericalCap:
    """The cap of chordal radius `radius` around a unit `center`."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = sphere_point(self.center)
        object.__setattr__(self, "center", tuple(c))
        if not 0 < self.radius < 2.0:
            raise SphereError("cap chordal radius must lie in (0, 2)")

    @property
    def ambient(self) -> int:
        return len(self.center)

    @property
    def geodesic_radius(self) -> float:
        return 2.0 * np.arcsin(self.radius / 2.0)


@dataclass(frozen=True)
class CapBump(BumpTestFunction):
    """The flat bump of the ambient space R^(n+1), read on the unit sphere:
    its points are renormalized onto S^n, its radius is chordal, and its
    centre lies on the sphere.  Because x (x wedge c) = (x.c) x - c there,
    its derivative is a vector times the constant blade:

        D_S eta = v(x) blade,
        v = -(2/radius^2) profile'(t) ((x.c) x - c) + (n/2) profile(t) x,

    with t = |x - center|^2 / radius^2."""

    dim: int = field(init=False)
    label: str = "cap-bump"
    geodesic_radius = SphericalCap.geodesic_radius  # one chordal-to-geodesic conversion

    def __post_init__(self):
        # the cap's checks refuse a centre that cannot be normalized and a
        # radius outside (0, 2) as SphereError, before the flat bump's own
        cap = SphericalCap(self.center, self.radius)
        if self.blade.dim != len(cap.center):
            raise SphereError("blade dimension does not match the ambient space")
        object.__setattr__(self, "center", cap.center)
        object.__setattr__(self, "dim", len(cap.center))
        super().__post_init__()

    def _offset(self, pts):
        return super()._offset(_renormalize(pts, self.dim))

    def dirac_vector(self, points) -> np.ndarray:
        """(..., ambient) components of v, with D_S eta = v * blade.  The
        points are read row-major, as `pts @ c` rounds by its operand's layout."""
        pts = _renormalize(np.ascontiguousarray(points, dtype=float), self.dim)
        c = np.array(self.center)
        phi, dphi = mollifier(super()._offset(pts)[1])  # unit already: no second renormalization
        fac = (-2.0 / self.radius**2) * dphi
        n = self.dim - 1
        radial = (pts @ c)[..., None] * pts - c
        return fac[..., None] * radial + ((n / 2.0) * phi)[..., None] * pts

    def blocks(self, order: int, singular=()):
        """The fitted rule of the given order over the support, as
        `polar_blocks` in geodesic polar coordinates: x = cos(theta) c +
        sin(theta) omega with omega a unit vector orthogonal to c, and
        surface measure sin(theta)^(n-1) dtheta dS^(n-1)(omega)."""
        n, c, theta_max = self.dim - 1, np.array(self.center), self.geodesic_radius

        def geometry(r, wr, omega, wo):
            theta = theta_max * r
            cos, sin = np.cos(theta), np.sin(theta)
            rw = theta_max * wr * sin ** (n - 1)
            dirs = (_orthonormal_complement(c) @ omega)[:, None]
            return lambda i, j: (cos[i, None] * c[:, None, None] + sin[i, None] * dirs[..., j],
                                 rw[i, None] * wo[j])

        return polar_blocks(n, order, geometry, self.clearance(singular))

    def require_support_inside(self, cap: SphericalCap):
        offset = float(
            np.arccos(np.clip(np.dot(self.center, cap.center), -1.0, 1.0))
        )
        if offset + self.geodesic_radius > cap.geodesic_radius * (1.0 - SUPPORT_MARGIN):
            raise SupportError(f"{self.label}: support escapes the cap")
        return self


def _orthonormal_complement(c: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to c."""
    _, _, vt = np.linalg.svd(c[None, :])
    return vt[1:].T


def random_cap_bump(cap: SphericalCap, rng, label="cap-bump") -> CapBump:
    blade = random_unit_blade(cap.ambient, rng)
    center = np.array(cap.center)
    tangent = rng.normal(size=cap.ambient)
    tangent -= (tangent @ center) * center
    tangent /= np.linalg.norm(tangent)
    offset = rng.uniform(0.0, 0.35) * cap.geodesic_radius
    bump_center = np.cos(offset) * center + np.sin(offset) * tangent
    max_geodesic = 0.92 * cap.geodesic_radius - offset
    geodesic = rng.uniform(0.6, 0.95) * max_geodesic
    chordal = 2.0 * np.sin(geodesic / 2.0)
    return CapBump(tuple(bump_center), float(chordal), blade, label=label).require_support_inside(cap)


def default_cap_bumps(cap: SphericalCap, seed: int = 42, random_count: int = 3):
    """`random_count` random bumps plus one centered bump per basis blade."""
    return bump_family(
        cap.ambient, seed, random_count,
        lambda rng, label: random_cap_bump(cap, rng, label),
        lambda blade, label: CapBump(cap.center, 0.6 * cap.radius, blade,
                                     label=label).require_support_inside(cap),
    )


def _flux_values(f: SphericalField, p: float):
    """The node values `weakform._pair` reads for the p-flux |f|^(p-2) f,
    formed before its norm as the sphere's residuals define it; paired at
    p = 2, where the power scale is exactly 1.0, the flux weighs alone."""
    flux = nonlinear_power_field(f, p)
    return lambda x: (flux(x), None)


def weak_spherical_residual(
    f: SphericalField, p: float, eta: CapBump, order: int = 12, cap: SphericalCap = None
) -> Multivector:
    """Quadrature of conj(|f|^(p-2) f) D_S eta over the bump's support,
    with the closed-form D_S eta."""
    if cap is not None:
        eta.require_support_inside(cap)
    return Multivector(f.dim, _pair(_flux_values(f, p), f.name, 2.0, [eta], order,
                                    f.singular_points)[0][0])


def normalized_weak_spherical_residual(f: SphericalField, p: float, eta, order: int = 12):
    """|weak residual| / normalizer of one cap bump.  Given a list of cap
    bumps instead, one (normalized residual, node count) pair per bump, in
    order; the nodes stream once per run of consecutive bumps that share a
    support."""
    if isinstance(eta, CapBump):
        return normalized_weak_spherical_residual(f, p, [eta], order)[0][0]
    pairs = pair_each(_flux_values(f, p), f.name, 2.0, eta, order, f.singular_points)
    return [(normalized_ratio(r, nz), count) for _, r, nz, count in pairs]


# -------------------------------------------------- stereographic bridge


def cayley_lift(u) -> np.ndarray:
    """Inverse stereographic projection R^n -> S^n (pole e_(n+1) omitted):
    u -> (2u, |u|^2 - 1)/(|u|^2 + 1)."""
    u = np.asarray(u, dtype=float)
    sq = np.sum(u * u, axis=-1, keepdims=True)
    return np.concatenate([2.0 * u, sq - 1.0], axis=-1) / (sq + 1.0)


def conformal_scale(u) -> np.ndarray:
    """The conformal factor 2/(1 + |u|^2) of the lift."""
    u = np.asarray(u, dtype=float)
    return 2.0 / (1.0 + np.sum(u * u, axis=-1))


def cayley_ratio_constancy(dim: int, seed: int = 42) -> dict:
    """Push the flat first-order kernel through the stereographic lift and
    compare with the spherical kernel at p = 2, pole v = 0.3 e1, at 20
    sampled points u less those within 0.2 of v.

    |K_sphere(lift u, lift v)| * (scale(u) scale(v))^((n-1)/2) against
    |K_flat(u, v)| - the chordal-distance identity makes the ratio exactly
    1, so its constancy ties the two kernels and the lift together.
    """
    rng = np.random.default_rng(seed)
    v = np.zeros(dim)
    v[0] = 0.3
    u = rng.normal(size=(20, dim))
    u = u[np.linalg.norm(u - v, axis=-1) > 0.2]
    x = cayley_lift(u)
    y = cayley_lift(v)
    kernel = spherical_kernel(y, 2.0)
    sphere_norm = kernel(x).norm()
    flat_diff = u - v
    flat_norm = np.linalg.norm(flat_diff, axis=-1) ** (1 - dim)
    weight = (conformal_scale(u) * conformal_scale(v)) ** ((dim - 1) / 2.0)
    ratios = sphere_norm * weight / flat_norm
    return {
        "n": dim,
        "count": int(len(ratios)),
        "ratios": ratios,
        "max_deviation": float(np.max(np.abs(ratios - 1.0))),
    }
