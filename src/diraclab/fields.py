"""Closed-form Clifford fields, the finite-difference Dirac operator, and
strong-form residuals for the nonlinear Dirac equations.

The euclidean Dirac operator is D = sum_j e_j d/dx_j acting from the left;
D of a scalar function is its gradient vector and D^2 = -Laplacian.  The
fields built here are the radial families

    x / |x|^alpha           (vector-valued; alpha = n gives the monogenic
                             Cauchy kernel, alpha = (n+p-2)/(p-1) solves
                             the p-Dirac equation D(|f|^{p-2} f) = 0)
    |x|^beta,  ln |x|       (scalar; beta = (p-n)/(p-1) and, at p = n,
                             ln|x| solve D(|Dh|^{p-2} Dh) = 0)

together with enough plumbing (domains, composition with conformal maps,
convergence-order fits) to verify those identities numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, geometric_product, lipschitz_element_inverse
from .mobius import VahlenMatrix, denominator, frame_at, jacobian_factors, map_points


class FieldError(ValueError):
    """Parameter or usage contract violation in the field layer."""


class StencilError(FieldError):
    """A finite-difference stencil touched a singular point."""


class VanishingNormError(FieldError):
    """|f| fell below the cutoff where |f|^{p-2} blows up (p < 2)."""


class EstimationError(FieldError):
    """Too few usable samples to fit a convergence order."""


class DomainError(FieldError):
    """Domain closure too close to a singular point or a map pole."""


NORM_CUTOFF = 1e-10


# ------------------------------------------------------------------ fields


@dataclass
class AnalyticField:
    """Clifford-valued field on R^dim with optional analytic derivatives.

    eval_fn maps an (..., dim) coordinate array to a batched Multivector;
    grad_fn, when given, returns the list of the dim partial-derivative
    fields [d/dx_1, ..., d/dx_dim] at the same points.
    """

    dim: int
    eval_fn: object
    grad_fn: object = None
    singular_points: tuple = ()
    name: str = "field"

    def __call__(self, points) -> Multivector:
        return self.eval_fn(np.asarray(points, dtype=float))

    def grad(self, points):
        if self.grad_fn is None:
            raise FieldError(f"field {self.name!r} carries no analytic gradient")
        return self.grad_fn(np.asarray(points, dtype=float))

    @property
    def has_grad(self) -> bool:
        return self.grad_fn is not None

    def dirac(self, points) -> Multivector:
        """Analytic D f = sum_j e_j (df/dx_j); requires grad_fn."""
        partials = self.grad(points)
        out = geometric_product(Multivector.basis_vector(self.dim, 1), partials[0])
        for j in range(2, self.dim + 1):
            out = out + geometric_product(
                Multivector.basis_vector(self.dim, j), partials[j - 1]
            )
        return out


def constant_field(dim: int, value: Multivector) -> AnalyticField:
    def ev(pts):
        shape = pts.shape[:-1] + (1 << dim,)
        return Multivector(dim, np.broadcast_to(value.coeffs, shape).copy())

    def gr(pts):
        return [Multivector.zero(dim, pts.shape[:-1]) for _ in range(dim)]

    return AnalyticField(dim, ev, gr, (), name="constant")


def identity_field(dim: int) -> AnalyticField:
    def ev(pts):
        return Multivector.from_vector(dim, pts)

    def gr(pts):
        batch = pts.shape[:-1]
        out = []
        for j in range(1, dim + 1):
            ej = Multivector.basis_vector(dim, j)
            out.append(Multivector(dim, np.broadcast_to(ej.coeffs, batch + (1 << dim,)).copy()))
        return out

    return AnalyticField(dim, ev, gr, (), name="identity")


def linear_scalar_field(dim: int, a) -> AnalyticField:
    a = np.asarray(a, dtype=float)

    def ev(pts):
        return Multivector.scalar(dim, pts @ a)

    def gr(pts):
        batch = pts.shape[:-1]
        return [Multivector.scalar(dim, np.full(batch, a[j])) for j in range(dim)]

    return AnalyticField(dim, ev, gr, (), name="linear-scalar")


def radial_vector_power(dim: int, alpha: float, center=None, name=None) -> AnalyticField:
    """(x - c) / |x - c|^alpha with its analytic gradient."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def ev(pts):
        y = pts - c
        r = np.linalg.norm(y, axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            return Multivector.from_vector(dim, y * r**-alpha)

    def gr(pts):
        y = pts - c
        r = np.linalg.norm(y, axis=-1, keepdims=True)
        out = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(dim):
                comps = -alpha * y[..., j : j + 1] * y * r ** (-alpha - 2)
                comps[..., j] += np.squeeze(r**-alpha, axis=-1)
                out.append(Multivector.from_vector(dim, comps))
        return out

    return AnalyticField(
        dim, ev, gr, (tuple(c),), name=name or f"radial-vector[{alpha:g}]"
    )


def cauchy_kernel(dim: int, center=None) -> AnalyticField:
    """The monogenic kernel x/|x|^dim (D annihilates it away from 0)."""
    if dim < 2:
        raise FieldError("the kernel needs dim >= 2")
    return radial_vector_power(dim, float(dim), center=center, name="cauchy-kernel")


def p_dirac_solution(dim: int, p: float, center=None) -> AnalyticField:
    """x/|x|^{(dim+p-2)/(p-1)}; |f|^{p-2} f reproduces the Cauchy kernel."""
    if not p > 1:
        raise FieldError(f"p must exceed 1, got {p}")
    alpha = (dim + p - 2.0) / (p - 1.0)
    return radial_vector_power(dim, alpha, center=center, name=f"p-dirac[{p:g}]")


def scalar_radial_power(dim: int, beta: float, center=None, name=None) -> AnalyticField:
    """|x - c|^beta as a scalar field with analytic gradient."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def ev(pts):
        y = pts - c
        r = np.linalg.norm(y, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return Multivector.scalar(dim, r**beta)

    def gr(pts):
        y = pts - c
        r = np.linalg.norm(y, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [
                Multivector.scalar(dim, beta * r ** (beta - 2.0) * y[..., j])
                for j in range(dim)
            ]

    return AnalyticField(
        dim, ev, gr, (tuple(c),), name=name or f"scalar-radial[{beta:g}]"
    )


def log_radial(dim: int, center=None) -> AnalyticField:
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def ev(pts):
        y = pts - c
        r = np.linalg.norm(y, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return Multivector.scalar(dim, np.log(r))

    def gr(pts):
        y = pts - c
        r2 = np.sum(y**2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [
                Multivector.scalar(dim, y[..., j] / r2) for j in range(dim)
            ]

    return AnalyticField(dim, ev, gr, (tuple(c),), name="log-radial")


def p_harmonic_radial(dim: int, p: float, center=None) -> AnalyticField:
    """|x|^{(p-dim)/(p-1)} for p != dim, ln|x| at p = dim."""
    if not p > 1:
        raise FieldError(f"p must exceed 1, got {p}")
    if p == dim:
        return log_radial(dim, center=center)
    beta = (p - dim) / (p - 1.0)
    return scalar_radial_power(dim, beta, center=center, name=f"p-harmonic[{p:g}]")


def power_scale(norms: np.ndarray, p: float, name: str) -> np.ndarray:
    """|f|^{p-2} from the norms |f| of a field named `name`.

    Rejects p <= 1 and, when p < 2, any norm below NORM_CUTOFF, where the
    power blows up.  Every |f|^{p-2} f flux of the lab scales by this.
    """
    if not p > 1:
        raise FieldError(f"the exponent p must exceed 1, got {p}")
    if p < 2 and norms.size and float(np.min(norms)) < NORM_CUTOFF:
        raise VanishingNormError(
            f"|{name}| < {NORM_CUTOFF:g} inside a p={p:g} nonlinearity"
        )
    return norms ** (p - 2.0)


def nonlinear_power_field(f: AnalyticField, p: float) -> AnalyticField:
    """The field |f|^{p-2} f, guarding the blow-up locus when p < 2."""

    def ev(pts):
        val = f(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            return val * power_scale(val.norm(), p, f.name)

    return AnalyticField(
        f.dim, ev, None, f.singular_points, name=f"|{f.name}|^{p - 2:g}*{f.name}"
    )


def compose_with_mobius(f: AnalyticField, m: VahlenMatrix) -> AnalyticField:
    """The pullback f(M(x)), with chain-rule gradient when f has one."""
    if f.dim != m.dim:
        raise FieldError("field and matrix dimensions disagree")
    dim = f.dim

    def ev(pts):
        return f(map_points(m, pts))

    gr = None
    if f.has_grad:

        def gr(pts):
            x = Multivector.from_vector(dim, pts)
            fp = frame_at(m, x)
            scale2 = fp.scale**2
            target_partials = f.grad(map_points(m, pts))
            out = []
            for j in range(1, dim + 1):
                # column j of dM: u e_j u~ / |cx+d|^2, expanded in components
                col = fp.frame_vector(j).vector_part() / scale2[..., None]
                acc = target_partials[0] * col[..., 0]
                for k in range(1, dim):
                    acc = acc + target_partials[k] * col[..., k]
                out.append(acc)
            return out

    return AnalyticField(
        dim, ev, gr, f.singular_points, name=f"{f.name}∘M"
    )


def conformal_dirac_transform(f: AnalyticField, m: VahlenMatrix) -> AnalyticField:
    """The twisted pullback (c x + d)^{-1} f(M(x))."""
    if f.dim != m.dim:
        raise FieldError("field and matrix dimensions disagree")

    def ev(pts):
        x = Multivector.from_vector(m.dim, pts)
        inv = lipschitz_element_inverse(denominator(m, x))
        return inv * f(map_points(m, pts))

    return AnalyticField(f.dim, ev, None, (), name=f"twist[{f.name}]")


# ----------------------------------------------------------------- domains


@dataclass(frozen=True)
class Domain:
    """Axis box, ball, or annulus working region in R^dim.

    `kind` is one of "box" (lo/hi bounds), "ball" (center/radius) and
    "annulus" (center, inner and outer radius); `shifted-ball` is a ball
    whose center is away from the origin, constructed the same way.
    """

    dim: int
    kind: str
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    inner: float = 0.0
    outer: float = 0.0

    @classmethod
    def box(cls, lo, hi):
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise DomainError("box bounds must satisfy lo < hi componentwise")
        return cls(dim=len(lo), kind="box", lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius):
        center = tuple(float(v) for v in center)
        if not radius > 0:
            raise DomainError("ball radius must be positive")
        return cls(
            dim=len(center),
            kind="ball" if not any(center) else "shifted-ball",
            center=center,
            outer=float(radius),
        )

    @classmethod
    def annulus(cls, center, inner, outer):
        center = tuple(float(v) for v in center)
        if not 0 < inner < outer:
            raise DomainError("annulus needs 0 < inner < outer")
        return cls(
            dim=len(center),
            kind="annulus",
            center=center,
            inner=float(inner),
            outer=float(outer),
        )

    def bounding_box(self):
        if self.kind == "box":
            return np.array(self.lo), np.array(self.hi)
        c = np.array(self.center)
        return c - self.outer, c + self.outer

    def contains(self, pts, shrink: float = 0.0):
        """Boolean mask of points inside the domain (shrunk by `shrink`)."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "box":
            lo, hi = np.array(self.lo), np.array(self.hi)
            return np.all((pts >= lo + shrink) & (pts <= hi - shrink), axis=-1)
        r = np.linalg.norm(pts - np.array(self.center), axis=-1)
        inside = r <= self.outer - shrink
        if self.kind == "annulus":
            inside &= r >= self.inner + shrink
        return inside

    def grid_scan(self, per_axis: int = 9):
        """Point grid over the closure, for clearance validation."""
        lo, hi = self.bounding_box()
        axes = [np.linspace(lo[j], hi[j], per_axis) for j in range(self.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        return mesh[self.contains(mesh)]

    def sample_interior(self, rng, count: int, shrink: float = 0.0):
        """Rejection-sample `count` interior points."""
        lo, hi = self.bounding_box()
        out = []
        for _ in range(10000):
            pts = rng.uniform(lo, hi, size=(4 * count, self.dim))
            pts = pts[self.contains(pts, shrink=shrink)]
            out.extend(pts)
            if len(out) >= count:
                return np.array(out[:count])
        raise DomainError("interior sampling failed; domain too thin?")


def validate_clearance(
    domain: Domain,
    singular_points=(),
    mobius: VahlenMatrix = None,
    margin: float = 1e-3,
    per_axis: int = 9,
):
    """Grid-scan the domain closure for singularities and map poles.

    Raises DomainError if any scanned point of the closure comes within
    `margin` of a declared singular point, or if |c x + d| falls below
    `margin` (the transformation-hypothesis check).
    """
    pts = domain.grid_scan(per_axis=per_axis)
    for s in singular_points:
        dist = np.linalg.norm(pts - np.asarray(s, dtype=float), axis=-1)
        if np.min(dist) < margin:
            raise DomainError(
                f"domain comes within {np.min(dist):.2e} of singular point {s}"
            )
    if mobius is not None:
        nn = denominator(mobius, Multivector.from_vector(domain.dim, pts)).norm()
        if np.min(nn) < margin:
            raise DomainError(
                f"|c x + d| falls to {float(np.min(nn)):.2e} on the domain closure"
            )


# ------------------------------------------------------ finite differences


def richardson_step(central, h: float, extrapolate: bool = True):
    """(4 D(h/2) - D(h)) / 3 for a central difference D(step), cancelling
    its O(h^2) truncation term; D(h) itself when not extrapolating."""
    d = central(h)
    return (4.0 * central(h / 2.0) - d) / 3.0 if extrapolate else d


def _central_partial(f: AnalyticField, pts, j: int, hh: float) -> Multivector:
    """(f(x + hh e_j) - f(x - hh e_j)) / (2 hh) along axis j (0-based)."""
    step = np.zeros(f.dim)
    step[j] = hh
    return (f(pts + step) - f(pts - step)) / (2.0 * hh)


def dirac_fd(
    f: AnalyticField, points, h: float = 1e-3, richardson: bool = True
) -> Multivector:
    """Central-difference D f, Richardson-extrapolated to fourth order
    unless `richardson` is off."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != f.dim:
        raise FieldError(f"points must have last axis {f.dim}, got {pts.shape}")

    def central(hh: float) -> Multivector:
        out = None
        for j in range(f.dim):
            term = geometric_product(
                Multivector.basis_vector(f.dim, j + 1), _central_partial(f, pts, j, hh)
            )
            out = term if out is None else out + term
        return out

    result = richardson_step(central, h, richardson)
    if not np.all(np.isfinite(result.coeffs)):
        raise StencilError(
            f"stencil for {f.name!r} touched a singular point (h={h:g})"
        )
    return result


def gradient_fd(f: AnalyticField, points, h: float = 1e-3):
    """Richardson-extrapolated central-difference partial derivatives of f."""
    pts = np.asarray(points, dtype=float)
    out = []
    for j in range(f.dim):
        pj = richardson_step(lambda hh: _central_partial(f, pts, j, hh), h)
        if not np.all(np.isfinite(pj.coeffs)):
            raise StencilError(f"gradient stencil for {f.name!r} hit a singularity")
        out.append(pj)
    return out


# --------------------------------------------------------------- residuals


def p_dirac_residual(
    f: AnalyticField, p: float, points, h: float = 1e-3, richardson: bool = True
) -> Multivector:
    """D applied by FD to |f|^{p-2} f; zero iff f solves the p-Dirac equation."""
    return dirac_fd(nonlinear_power_field(f, p), points, h=h, richardson=richardson)


def p_harmonic_residual(
    h_field: AnalyticField, p: float, points, h: float = 1e-3
) -> Multivector:
    """D applied by FD to |Dh|^{p-2} Dh, the nested second-order residual.

    The inner Dirac derivative uses the field's analytic gradient when
    available (avoiding compounded FD truncation), falling back to central
    differences otherwise.
    """
    if h_field.has_grad:
        inner = AnalyticField(
            h_field.dim,
            lambda pts: h_field.dirac(pts),
            None,
            h_field.singular_points,
            name=f"D[{h_field.name}]",
        )
    else:
        inner = AnalyticField(
            h_field.dim,
            lambda pts: dirac_fd(h_field, pts, h=h),
            None,
            h_field.singular_points,
            name=f"D_fd[{h_field.name}]",
        )
    return dirac_fd(nonlinear_power_field(inner, p), points, h=h)


# --------------------------------------------------- transformation checks


def lemma1_check(
    m: VahlenMatrix, psi: AnalyticField, points, h: float = 1e-3
) -> float:
    """Discrepancy in the conformal differentiation identity.

    Both sides of

        D_x [ J1(M,x) psi(M(x)) ] = sigma * Jm1(M,x) * (D_y psi)(M(x))

    are evaluated by Richardson finite differences; sigma is the parity of
    c x + d.  The scale factors J1 and Jm1 make the identity hold for
    every generator (an unweighted form fails already for dilations).
    """
    pts = np.asarray(points, dtype=float)
    dim = m.dim

    def lhs_eval(q):
        x = Multivector.from_vector(dim, q)
        j1, _ = jacobian_factors(m, x)
        return j1 * psi(map_points(m, q))

    lhs_field = AnalyticField(dim, lhs_eval, None, (), name="J1*psi∘M")
    lhs = dirac_fd(lhs_field, pts, h=h)

    x = Multivector.from_vector(dim, pts)
    _, jm1 = jacobian_factors(m, x)
    sig = frame_at(m, x).sigma
    dpsi = dirac_fd(psi, map_points(m, pts), h=h)
    rhs = float(sig) * (jm1 * dpsi)
    return float(np.max((lhs - rhs).norm(), initial=0.0))


def dj1_check(m: VahlenMatrix, points, h: float = 1e-3) -> float:
    """Max |D J1(M, .)| over the points; J1 is monogenic, so ~0."""

    def ev(q):
        return jacobian_factors(m, Multivector.from_vector(m.dim, q))[0]

    fld = AnalyticField(m.dim, ev, None, (), name="J1")
    return float(np.max(dirac_fd(fld, points, h=h).norm(), initial=0.0))


# ------------------------------------------------------- convergence order


def convergence_order(samples) -> float:
    """Least-squares slope of log(residual) against log(h).

    Nonpositive or non-finite residuals are excluded; at least two usable
    samples are required.
    """
    hs, rs = [], []
    for h, r in samples:
        if r > 0 and np.isfinite(r) and h > 0:
            hs.append(float(h))
            rs.append(float(r))
    if len(hs) < 2:
        raise EstimationError("need at least two positive residual samples")
    slope = np.polyfit(np.log(hs), np.log(rs), 1)[0]
    return float(slope)
