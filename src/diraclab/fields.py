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

from dataclasses import dataclass, replace

import numpy as np

from .algebra import Multivector, geometric_product, lipschitz_element_inverse, square_sum
from .mobius import MobiusPoint, PoleError, VahlenMatrix, map_points, vahlen_inverse


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
_CLEARANCE = 1e-3  # the least distance validate_clearance accepts


# ------------------------------------------------------------------ fields


def dirac_sum(pairs) -> Multivector:
    """sum_j v_j * d_j over (v_j, d_j) pairs, added in pair order: D f for
    v_j = e_j and d_j = df/dx_j.  Each term is added before the next pair
    is drawn and is not kept, so a stream of pairs is summed one pair at a
    time."""
    out = None
    for v, d in pairs:
        out = geometric_product(v, d) if out is None else out + geometric_product(v, d)
    return out


@dataclass(frozen=True)
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
        return dirac_sum((Multivector.basis_vector(self.dim, j), d)
                         for j, d in enumerate(self.grad(points), start=1))


def constant_field(dim: int, value: Multivector) -> AnalyticField:
    def ev(pts):
        shape = pts.shape[:-1] + (1 << dim,)
        return Multivector(dim, np.broadcast_to(value.coeffs, shape))

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
            out.append(Multivector(dim, np.broadcast_to(ej.coeffs, batch + (1 << dim,))))
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


def radial_field(cls, dim: int, center, name: str, value, partials):
    """The radial field of class cls about the centre c (the origin when
    None), its one singular point.  At points x it forms y = x - c and
    r = |y| once and returns value(y, r), and its analytic partials
    partials(y, r) unless partials is None; at the centre the formulas may
    give inf or nan unwarned.  Every closed-form radial field, flat and
    spherical, is built here."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def at(formula):
        def fn(pts):
            y = pts - c
            with np.errstate(divide="ignore", invalid="ignore"):
                return formula(y, np.sqrt(square_sum(y)))

        return fn

    return cls(dim, at(value), None if partials is None else at(partials), (tuple(c),), name=name)


def radial_vector_power(dim: int, alpha: float, center=None, name=None) -> AnalyticField:
    """(x - c) / |x - c|^alpha with its analytic gradient."""

    def partials(y, r):
        out = []
        for j in range(dim):
            comps = -alpha * y[..., j : j + 1] * y * r[..., None] ** (-alpha - 2)
            comps[..., j] += r**-alpha
            out.append(Multivector.from_vector(dim, comps))
        return out

    return radial_field(AnalyticField, dim, center, name or f"radial-vector[{alpha:g}]",
                        lambda y, r: Multivector.from_vector(dim, y * r[..., None] ** -alpha),
                        partials)


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
    return radial_field(
        AnalyticField, dim, center, name or f"scalar-radial[{beta:g}]",
        lambda y, r: Multivector.scalar(dim, r**beta),
        lambda y, r: [Multivector.scalar(dim, beta * r ** (beta - 2.0) * y[..., j])
                      for j in range(dim)])


def log_radial(dim: int, center=None) -> AnalyticField:
    def partials(y, r):
        r2 = square_sum(y)  # not r**2, which rounds differently
        return [Multivector.scalar(dim, y[..., j] / r2) for j in range(dim)]

    return radial_field(AnalyticField, dim, center, "log-radial",
                        lambda y, r: Multivector.scalar(dim, np.log(r)), partials)


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
    """The field |f|^{p-2} f, guarding the blow-up locus when p < 2: the one
    p-flux of flat and spherical fields.  It keeps the class of f and reads
    f.eval_fn on the points its own call has prepared (renormalized onto
    the sphere, for a spherical field), so no point is prepared twice."""

    def ev(pts):
        val = f.eval_fn(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            return val * power_scale(val.norm(), p, f.name)

    return replace(f, eval_fn=ev, grad_fn=None, name=f"|{f.name}|^{p - 2:g}*{f.name}")


def compose_with_mobius(f: AnalyticField, m: VahlenMatrix) -> AnalyticField:
    """The pullback f(M(x)), with chain-rule gradient when f has one."""
    if f.dim != m.dim:
        raise FieldError("field and matrix dimensions disagree")

    def ev(pts):
        return f(map_points(m, pts))

    gr = None
    if f.has_grad:

        def gr(pts):
            at = MobiusPoint(m, pts)
            frame = at.frame  # first: a mixed-parity g is refused before the image
            return composed_partials(f.grad(at.image), frame, at.scale)

    return AnalyticField(f.dim, ev, gr, map_pole(m) + singular_preimages(f, m),
                         name=f"{f.name}∘M")


def singular_preimages(f: AnalyticField, m: VahlenMatrix) -> tuple:
    """The singular points of f pulled back through M, less any that M
    sends to infinity; f(M(x)) is also singular at M's own pole (`map_pole`)
    unless f vanishes at infinity."""
    back, out = vahlen_inverse(m), []
    for s in f.singular_points:
        try:
            out.append(tuple(map_points(back, np.asarray(s, dtype=float))))
        except PoleError:
            pass
    return tuple(out)


def map_pole(m: VahlenMatrix) -> tuple:
    """The pole -c^-1 d of the map, where c x + d = 0, as singular points: none when c = 0."""
    return () if float(m.c.norm()) < 1e-13 else (
        tuple((0.0 - (lipschitz_element_inverse(m.c) * m.d).vector_part()).tolist()),)


def composed_partials(target_partials, frame, scale) -> list:
    """d/dx_j f(M(x)) for j = 1..n from the partials of f at M(x) and the
    frame and scale |c x + d| of a `MobiusPoint`, by the chain rule through
    column j of dM_x, frame[j - 1] / |c x + d|^2, summed in k order;
    plain (scalar) partials give plain arrays."""
    return [sum((d * c for d, c in zip(target_partials[1:], col[1:])), target_partials[0] * col[0])
            for col in frame / scale**2]


def conformal_dirac_transform(f: AnalyticField, m: VahlenMatrix) -> AnalyticField:
    """The twisted pullback (c x + d)^{-1} f(M(x))."""
    if f.dim != m.dim:
        raise FieldError("field and matrix dimensions disagree")

    def ev(pts):
        return MobiusPoint(m, pts).twist(f)

    return AnalyticField(f.dim, ev, None, map_pole(m) + singular_preimages(f, m),
                         name=f"twist[{f.name}]")


# ----------------------------------------------------------------- domains


@dataclass(frozen=True)
class Domain:
    """Axis box, ball, or annulus working region in R^dim.

    `kind` is one of "box" (lo/hi bounds), "ball" (center/radius) and
    "annulus" (center, inner and outer radius).
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
            kind="ball",
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

    def distance(self, points):
        """The euclidean distance from each of the (..., n) points to the
        closed domain: 0 inside, |s - c| - r outside a ball, the gap to the
        nearer sphere of an annulus, the length of the clamped excess for a
        box."""
        s = np.asarray(points, dtype=float)
        if self.kind == "box":
            return np.linalg.norm(s - np.clip(s, self.lo, self.hi), axis=-1)
        r = np.linalg.norm(s - np.array(self.center), axis=-1)
        return np.maximum(np.maximum(r - self.outer, self.inner - r), 0.0)

    def contains(self, pts):
        """Boolean mask of the points in the closed domain."""
        return self.distance(pts) == 0.0

    def sample_interior(self, rng, count: int):
        """Rejection-sample `count` interior points from the bounding box."""
        c = np.array(self.center)
        lo, hi = (self.lo, self.hi) if self.kind == "box" else (c - self.outer, c + self.outer)
        out = []
        for _ in range(10000):
            pts = rng.uniform(lo, hi, size=(4 * count, self.dim))
            pts = pts[self.contains(pts)]
            out.extend(pts)
            if len(out) >= count:
                return np.array(out[:count])
        raise DomainError("interior sampling failed; domain too thin?")


def validate_clearance(domain: Domain, singular_points=(), mobius: VahlenMatrix = None):
    """Refuse a domain whose closure comes within 1e-3 of a singular point
    or on which |c x + d| falls below 1e-3 (the transformation-hypothesis
    check), by exact distances: `Domain.distance` of each singular point,
    and |c| times the distance of the map's pole p = -c^-1 d, since
    |c x + d| = |c| |x - p| when c is a product of vectors (|d| when c = 0).
    """
    for s in singular_points:
        gap = domain.distance(s)
        if gap < _CLEARANCE:
            raise DomainError(f"domain comes within {gap:.2e} of singular point {s}")
    if mobius is not None:
        pole = map_pole(mobius)
        nn = float(mobius.c.norm()) * domain.distance(pole[0]) if pole else float(mobius.d.norm())
        if nn < _CLEARANCE:
            raise DomainError(f"|c x + d| falls to {nn:.2e} on the domain closure")


# ------------------------------------------------------ finite differences


def richardson_step(central, h: float, name: str, points, singular_points,
                    extrapolate: bool = True):
    """The one guarded stencil: (4 D(h/2) - D(h)) / 3 for a central
    difference D(step) at `points`, cancelling its O(h^2) truncation term;
    D(h) itself when not extrapolating.

    Before anything is evaluated it refuses a step that is not positive and
    any point within 2h of a singular point of the field `name` (|z - s| for
    complex planar points); a non-finite result raises StencilError.
    """
    if not h > 0:
        raise FieldError(f"the finite-difference step must be positive, got {h}")
    for s in map(np.asarray, singular_points):
        gap = np.abs(points - s) if np.iscomplexobj(points) else np.linalg.norm(points - s, axis=-1)
        if gap.size and float(np.min(gap)) <= 2.0 * h:
            raise StencilError(f"stencil for {name!r} reaches the singular point {s.tolist()}")
    d = central(h)
    result = (4.0 * central(h / 2.0) - d) / 3.0 if extrapolate else d
    if not np.all(np.isfinite(result.coeffs if isinstance(result, Multivector) else result)):
        raise StencilError(f"stencil for {name!r} touched a singular point (h={h:g})")
    return result


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
        return dirac_sum((Multivector.basis_vector(f.dim, j + 1),
                          _central_partial(f, pts, j, hh)) for j in range(f.dim))

    return richardson_step(central, h, f.name, pts, f.singular_points, richardson)


def gradient_fd(f: AnalyticField, points, h: float = 1e-3):
    """Richardson-extrapolated central-difference partial derivatives of f."""
    pts = np.asarray(points, dtype=float)
    return [richardson_step(lambda hh: _central_partial(f, pts, j, hh), h, f.name, pts,
                            f.singular_points) for j in range(f.dim)]


# --------------------------------------------------------------- residuals


def p_dirac_residual(
    f: AnalyticField, p: float, points, h: float = 1e-3, richardson: bool = True
) -> Multivector:
    """D applied by FD to |f|^{p-2} f; zero iff f solves the p-Dirac equation."""
    return dirac_fd(nonlinear_power_field(f, p), points, h=h, richardson=richardson)


def dirac_field(f: AnalyticField) -> AnalyticField:
    """The field D f: analytic when f carries its gradient (avoiding
    compounded FD truncation), by central differences otherwise."""
    if f.has_grad:
        return AnalyticField(f.dim, f.dirac, None, f.singular_points, name=f"D[{f.name}]")
    return AnalyticField(f.dim, lambda pts: dirac_fd(f, pts), None, f.singular_points,
                         name=f"D_fd[{f.name}]")


def p_harmonic_residual(
    h_field: AnalyticField, p: float, points
) -> Multivector:
    """D applied by FD to |Dh|^{p-2} Dh, the nested second-order residual,
    with the inner derivative from `dirac_field`."""
    return dirac_fd(nonlinear_power_field(dirac_field(h_field), p), points)


# --------------------------------------------------- transformation checks


def lemma1_check(
    m: VahlenMatrix, psi: AnalyticField, points
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
        at = MobiusPoint(m, q)
        return at.j1 * psi(at.image)

    at = MobiusPoint(m, pts)  # the stencil skips the points: refuse a pole there
    lhs_field = AnalyticField(dim, lhs_eval, None, map_pole(m) + singular_preimages(psi, m),
                              name="J1*psi∘M")
    lhs = dirac_fd(lhs_field, pts)
    rhs = float(at.sigma) * (at.jm1 * dirac_fd(psi, at.image))
    return float(np.max((lhs - rhs).norm(), initial=0.0))


def dj1_check(m: VahlenMatrix, points) -> float:
    """Max |D J1(M, .)| over the points; J1 is monogenic, so ~0."""
    MobiusPoint(m, points).image  # the stencil skips the points: refuse a pole or bad map there

    def ev(q):
        return MobiusPoint(m, q).j1

    fld = AnalyticField(m.dim, ev, None, map_pole(m), name="J1")
    return float(np.max(dirac_fd(fld, points).norm(), initial=0.0))


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
