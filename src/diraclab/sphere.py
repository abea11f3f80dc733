"""Differential operators on the unit sphere and their kernel checks.

Fields live on S^n inside R^(n+1) and take values in the full Clifford
algebra of the ambient space.  The angular operator is the bivector sum
Gamma = sum over pairs i < j of e_i e_j (x_i d/dx_j - x_j d/dx_i), realized
by central differences along plane rotations (which never leave the
sphere), and the first-order operator of interest is x (Gamma + n/2) -
the conformal image of the flat Dirac operator under stereographic
projection.  Every field evaluates through degree-0 homogeneous extension
(inputs are renormalized to the sphere first), so rotational derivatives
equal tangential derivatives and no charts are needed.

Two published claims do not survive evaluation under the calibrated
conventions and are therefore reported, never asserted: the first-order
radial identity holds with the opposite sign of the zero-order coupling
(matching the factorization of the conformal Laplacian) and with an extra
factor -2/|x - y|^2 relative to the displayed right-hand side; the
report records discrepancies and componentwise ratios for both signs so
the convention is diagnosed from data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, blade_label, geometric_product
from .fields import NORM_CUTOFF, FieldError, StencilError, power_scale, richardson_step
from .weakform import SupportError, _radial_rule, _unit_sphere_rule, mollifier, weak_pairing


class SphereError(FieldError):
    """Contract violation in the sphere layer."""


def sphere_point(v) -> np.ndarray:
    """Normalize an ambient vector onto the sphere; rejects near-zero input."""
    v = np.asarray(v, dtype=float)
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


def _renormalize(pts: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(pts, axis=-1, keepdims=True)
    if np.any(norms < 1e-13):
        raise SphereError("a field point collapsed to the origin")
    return pts / norms


@dataclass(frozen=True)
class SphericalField:
    """Clifford-valued field on S^n, evaluated by degree-0 extension.

    eval_fn receives points already renormalized onto the sphere (shape
    (..., ambient)) and returns a batched Multivector over Cl_ambient.
    """

    ambient: int
    eval_fn: object
    singular_points: tuple = ()
    name: str = "spherical-field"

    def __call__(self, points) -> Multivector:
        pts = _renormalize(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.ambient:
            raise SphereError(
                f"points must have last axis {self.ambient}, got {pts.shape}"
            )
        return self.eval_fn(pts)

    @property
    def sphere_dim(self) -> int:
        return self.ambient - 1


def constant_spherical(ambient: int, value: Multivector) -> SphericalField:
    def ev(pts):
        shape = pts.shape[:-1] + (1 << ambient,)
        return Multivector(ambient, np.broadcast_to(value.coeffs, shape).copy())

    return SphericalField(ambient, ev, (), name="constant")


def coordinate_field(ambient: int, k: int) -> SphericalField:
    """The k-th ambient coordinate (1-based) restricted to the sphere."""
    if not 1 <= k <= ambient:
        raise SphereError(f"coordinate index must lie in [1,{ambient}]")

    def ev(pts):
        return Multivector.scalar(ambient, pts[..., k - 1])

    return SphericalField(ambient, ev, (), name=f"x_{k}")


def identity_spherical(ambient: int) -> SphericalField:
    def ev(pts):
        return Multivector.from_vector(ambient, pts)

    return SphericalField(ambient, ev, (), name="position")


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

    def ev(pts):
        diff = pts - y
        dist = np.linalg.norm(diff, axis=-1)
        if dist.size and float(np.min(dist)) < NORM_CUTOFF:
            raise SphereError("kernel evaluated at its pole")
        return Multivector.from_vector(ambient, diff / dist[..., None] ** alpha)

    return SphericalField(
        ambient, ev, (tuple(y),), name=f"sphere-kernel-p{p:g}"
    )


def radial_distance_power(y, exponent: float) -> SphericalField:
    """The scalar field |x - y|^exponent on the sphere."""
    y = sphere_point(y)
    ambient = len(y)

    def ev(pts):
        dist = np.linalg.norm(pts - y, axis=-1)
        if exponent < 0 and dist.size and float(np.min(dist)) < NORM_CUTOFF:
            raise SphereError("distance power evaluated at its pole")
        return Multivector.scalar(ambient, dist**exponent)

    return SphericalField(
        ambient, ev, (tuple(y),), name=f"|x-y|^{exponent:g}"
    )


def p_spherical_flux(f: SphericalField, p: float) -> SphericalField:
    """|f|^(p-2) f with the small-p vanishing-norm guard."""

    def ev(pts):
        vals = f.eval_fn(pts)
        scale = power_scale(vals.norm(), p, f.name)
        return Multivector(f.ambient, scale[..., None] * vals.coeffs)

    return SphericalField(
        f.ambient, ev, f.singular_points, name=f"|{f.name}|^(p-2) flux"
    )


# --------------------------------------------------- rotational derivatives


def _plane_rotate(pts, u, v, t):
    xu = pts @ u
    xv = pts @ v
    return (
        pts
        + (np.cos(t) - 1.0) * (xu[..., None] * u + xv[..., None] * v)
        + np.sin(t) * (xu[..., None] * v - xv[..., None] * u)
    )


def _check_rotation_clearance(f: SphericalField, pts: np.ndarray, theta: float):
    for s in f.singular_points:
        d = np.linalg.norm(pts - np.asarray(s), axis=-1)
        if d.size and float(np.min(d)) <= 2.0 * theta:
            raise StencilError(
                f"rotation stencil for {f.name!r} reaches the singular point"
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
    """
    pts = _renormalize(np.asarray(points, dtype=float))
    ambient = f.ambient
    if frame is None:
        frame = np.eye(ambient)
    else:
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (ambient, ambient) or not np.allclose(
            frame.T @ frame, np.eye(ambient), atol=1e-10
        ):
            raise SphereError("the rotation frame must be an orthogonal matrix")
    _check_rotation_clearance(f, pts, theta)

    def angular(u, v, tt):
        plus = f.eval_fn(_renormalize(_plane_rotate(pts, u, v, tt)))
        minus = f.eval_fn(_renormalize(_plane_rotate(pts, u, v, -tt)))
        return (plus - minus) / (2.0 * tt)

    out = None
    for i in range(ambient):
        for j in range(i + 1, ambient):
            u, v = frame[:, i], frame[:, j]
            d = richardson_step(lambda tt: angular(u, v, tt), theta)
            biv = geometric_product(
                Multivector.from_vector(ambient, u),
                Multivector.from_vector(ambient, v),
            )
            term = geometric_product(biv, d)
            out = term if out is None else out + term
    if not np.all(np.isfinite(out.coeffs)):
        raise StencilError(f"rotation stencil for {f.name!r} left the regular set")
    return out


def spherical_dirac(f: SphericalField, points, theta: float = 1e-3) -> Multivector:
    """x (Gamma + n/2) f - the first-order conformal operator on S^n."""
    pts = _renormalize(np.asarray(points, dtype=float))
    n = f.sphere_dim
    inner = gamma_op(f, pts, theta=theta) + (n / 2.0) * f.eval_fn(pts)
    return geometric_product(Multivector.from_vector(f.ambient, pts), inner)


def spherical_p_dirac_residual(
    f: SphericalField, p: float, points, theta: float = 1e-3
) -> Multivector:
    """x (Gamma + n/2) applied to |f|^(p-2) f - zero exactly on solutions."""
    return spherical_dirac(p_spherical_flux(f, p), points, theta=theta)


def yamabe_op(f: SphericalField, points, theta: float = 1e-3) -> Multivector:
    """The conformal Laplacian as the nested first-order product:
    applies the first-order operator to (D_S f - x f)."""
    ambient = f.ambient

    def inner_ev(pts):
        df = spherical_dirac(f, pts, theta=theta)
        xf = geometric_product(
            Multivector.from_vector(ambient, pts), f.eval_fn(pts)
        )
        return df - xf

    inner = SphericalField(
        ambient, inner_ev, f.singular_points, name=f"first-factor({f.name})"
    )
    return spherical_dirac(inner, points, theta=theta)


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
    point: tuple
    pole: tuple
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
    x = sphere_point(x)
    y = sphere_point(y)
    ambient = len(x)
    n = ambient - 1
    s = radial_distance_power(y, float(p - n))
    xs = np.asarray(x, dtype=float)[None, :]
    ds = spherical_dirac(s, xs, theta=theta)
    x_mv = Multivector.from_vector(ambient, xs)
    coupling = (p / 2.0) * geometric_product(x_mv, s.eval_fn(xs))
    left_plus = ds + coupling
    left_minus = ds - coupling
    rho = float(np.linalg.norm(x - y))
    right = Multivector.from_vector(
        ambient, ((p - n) / 2.0) * rho ** (p - n) * (x - y)[None, :]
    )

    def vector_ratios(left):
        lv = left.vector_part()[0]
        rv = right.vector_part()[0]
        keep = np.abs(rv) > 1e-12 * max(1.0, float(np.max(np.abs(rv))))
        return tuple(float(a / b) for a, b in zip(lv[keep], rv[keep]))

    return RadialIdentityReport(
        n,
        float(p),
        tuple(x),
        tuple(y),
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
    pole: tuple
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
    ambient = len(y)
    n = ambient - 1
    pts = _renormalize(np.asarray(points, dtype=float))
    if not p > 1:
        raise FieldError("the exponent p must exceed 1")
    f = radial_distance_power(y, (p - n) / (p - 1.0))

    def inner_field(sign):
        def ev(q):
            ds = spherical_dirac(f, q, theta=theta)
            coupling = (p / 2.0) * geometric_product(
                Multivector.from_vector(ambient, q), f.eval_fn(q)
            )
            return ds + sign * coupling

        return SphericalField(
            ambient, ev, f.singular_points, name=f"inner({f.name},{sign:+g})"
        )

    rows = []
    for x in np.atleast_2d(pts):
        row = {"point": tuple(x)}
        for sign, key in ((+1.0, "residual"), ((-1.0), "residual_flipped")):
            res = spherical_dirac(
                p_spherical_flux(inner_field(sign), p), x[None, :], theta=theta
            )
            row[key] = float(res.norm()[0])
        rows.append(row)
    notes = (
        "residual uses the zero-order coupling +(p/2) x as displayed",
        "residual_flipped uses -(p/2) x, the conformal-Laplacian factor sign",
    )
    return SphericalHarmonicReport(n, float(p), tuple(y), tuple(rows), notes)


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

    def contains(self, pts) -> np.ndarray:
        pts = _renormalize(np.asarray(pts, dtype=float))
        return np.linalg.norm(pts - np.array(self.center), axis=-1) < self.radius


@dataclass(frozen=True)
class CapBump:
    """Smooth test function supported on a cap: profile(t) * blade with
    t = |x - center|^2 / radius^2 (chordal) and the flat-edge mollifier
    profile exp(-1/(1 - t)).  The angular derivative is closed-form:
    Gamma eta = -(2/radius^2) profile'(t) (x wedge center) blade."""

    center: tuple
    radius: float
    blade: Multivector
    label: str = "cap-bump"

    def __post_init__(self):
        c = sphere_point(self.center)
        object.__setattr__(self, "center", tuple(c))
        if not 0 < self.radius < 2.0:
            raise SphereError("bump chordal radius must lie in (0, 2)")
        if self.blade.dim != len(self.center):
            raise SphereError("blade dimension does not match the ambient space")

    @property
    def ambient(self) -> int:
        return len(self.center)

    def _t(self, pts) -> np.ndarray:
        d = pts - np.array(self.center)
        return np.sum(d * d, axis=-1) / self.radius**2

    def profile(self, pts) -> np.ndarray:
        return mollifier(self._t(pts))[0]

    def __call__(self, points) -> Multivector:
        pts = _renormalize(np.asarray(points, dtype=float))
        return Multivector(
            self.ambient, self.profile(pts)[..., None] * self.blade.coeffs
        )

    def gamma(self, points) -> Multivector:
        """Closed-form Gamma eta = -(2/R^2) profile'(t) (x c + x.c) blade."""
        pts = _renormalize(np.asarray(points, dtype=float))
        c = np.array(self.center)
        x_mv = Multivector.from_vector(self.ambient, pts)
        c_mv = Multivector.from_vector(self.ambient, np.broadcast_to(c, pts.shape))
        wedge = geometric_product(x_mv, c_mv) + Multivector.scalar(
            self.ambient, pts @ c
        )
        fac = (-2.0 / self.radius**2) * mollifier(self._t(pts))[1]
        return geometric_product(
            Multivector(self.ambient, fac[..., None] * wedge.coeffs), self.blade
        )

    def dirac(self, points) -> Multivector:
        """Closed-form x (Gamma + n/2) eta."""
        pts = _renormalize(np.asarray(points, dtype=float))
        n = self.ambient - 1
        inner = self.gamma(pts) + (n / 2.0) * self.__call__(pts)
        return geometric_product(Multivector.from_vector(self.ambient, pts), inner)

    def as_field(self) -> SphericalField:
        return SphericalField(self.ambient, lambda q: Multivector(
            self.ambient, self.profile(q)[..., None] * self.blade.coeffs
        ), (), name=self.label)

    def require_support_inside(self, cap: SphericalCap, margin: float = 1e-9):
        offset = float(
            np.arccos(np.clip(np.dot(self.center, cap.center), -1.0, 1.0))
        )
        own = 2.0 * np.arcsin(self.radius / 2.0)
        if offset + own > cap.geodesic_radius * (1.0 - margin):
            raise SupportError(f"{self.label}: support escapes the cap")
        return self


def _orthonormal_complement(c: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to c."""
    _, _, vt = np.linalg.svd(c[None, :])
    return vt[1:].T


def cap_quadrature(bump: CapBump, order: int = 12):
    """Geodesic-polar product rule fitted to the bump's support.

    x = cos(theta) c + sin(theta) omega with omega a unit vector orthogonal
    to c; the surface measure is sin(theta)^(n-1) dtheta dS^(n-1)(omega).
    The double-exponential radial rule absorbs the flat support edge.
    """
    ambient = bump.ambient
    n = ambient - 1
    theta_max = 2.0 * np.arcsin(bump.radius / 2.0)
    r, wr = _radial_rule(max(48, 8 * order))
    theta = theta_max * r
    omega, wo = _unit_sphere_rule(n, order)
    basis = _orthonormal_complement(np.array(bump.center))
    directions = omega @ basis.T
    nodes = (
        np.cos(theta)[:, None, None] * np.array(bump.center)
        + np.sin(theta)[:, None, None] * directions[None, :, :]
    ).reshape(-1, ambient)
    weights = np.multiply.outer(
        theta_max * wr * np.sin(theta) ** (n - 1), wo
    ).ravel()
    return nodes, weights


def random_cap_bump(cap: SphericalCap, rng, blade=None, label="cap-bump") -> CapBump:
    ambient = cap.ambient
    if blade is None:
        coeffs = rng.normal(size=1 << ambient)
        blade = Multivector(ambient, coeffs / np.linalg.norm(coeffs))
    center = np.array(cap.center)
    tangent = rng.normal(size=ambient)
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
    rng = np.random.default_rng(seed)
    ambient = cap.ambient
    out = [
        random_cap_bump(cap, rng, label=f"rand-{i}") for i in range(random_count)
    ]
    for mask in range(1 << ambient):
        out.append(
            CapBump(
                cap.center,
                0.6 * cap.radius,
                Multivector.blade(ambient, mask),
                label=f"blade-{blade_label(mask)}",
            ).require_support_inside(cap)
        )
    return out


def _cap_pairing(f: SphericalField, p: float, eta: CapBump, order: int,
                 cap: SphericalCap):
    """weak_pairing of the p-flux of f against the closed-form D_S eta."""
    if cap is not None:
        eta.require_support_inside(cap)
    nodes, w = cap_quadrature(eta, order)
    return weak_pairing(p_spherical_flux(f, p)(nodes), eta.dirac(nodes), w)


def weak_spherical_residual(
    f: SphericalField, p: float, eta: CapBump, order: int = 12, cap: SphericalCap = None
) -> Multivector:
    """Quadrature of conj(|f|^(p-2) f) D_S eta over the bump's support,
    with the closed-form D_S eta."""
    raw, _ = _cap_pairing(f, p, eta, order, cap)
    return Multivector(f.ambient, raw, copy=False)


def normalized_weak_spherical_residual(
    f: SphericalField, p: float, eta: CapBump, order: int = 12, cap: SphericalCap = None
) -> float:
    raw, normalizer = _cap_pairing(f, p, eta, order, cap)
    return float(Multivector(f.ambient, raw, copy=False).norm()) / max(
        float(normalizer), 1e-300
    )


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


def cayley_ratio_constancy(
    dim: int, count: int = 20, seed: int = 42, v=None
) -> dict:
    """Push the flat first-order kernel through the stereographic lift and
    compare with the spherical kernel at p = 2.

    |K_sphere(lift u, lift v)| * (scale(u) scale(v))^((n-1)/2) against
    |K_flat(u, v)| - the chordal-distance identity makes the ratio exactly
    1, so its constancy ties the two kernels and the lift together.
    """
    rng = np.random.default_rng(seed)
    if v is None:
        v = np.zeros(dim)
        v[0] = 0.3
    v = np.asarray(v, dtype=float)
    u = rng.normal(size=(count, dim))
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
