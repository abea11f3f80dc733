"""Vahlen-matrix machinery for conformal transformations of R^n.

A 2x2 matrix (a, b, c, d) with Clifford entries acts on vectors by

    M(x) = (a x + b) (c x + d)^{-1},

covering translations, dilations, rotations/reflections and the sphere
inversion x -> x/|x|^2.  Matrices are built from those four generators and
composed by matrix multiplication; entries of generator matrices are
products of vectors (or zero) by construction, and the numerical
conditions on the entry products are re-checked by `validate_vahlen`.

Alongside the point map the module exposes the two scale factors

    J1  = reversion(c x + d) / |c x + d|^n
    Jm1 = reversion(c x + d) / |c x + d|^(n+2),

the unit frame u = (c x + d)/|c x + d| whose twisted Dirac operator
sum_j (u e_j reversion(u)) d/dx_j appears in the covariance experiments,
and the conformal differential dM_x(v) = u v reversion(u) / |c x + d|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    Multivector,
    VectorFactorList,
    geometric_product,
    lipschitz_element_inverse,
    parity,
)


class MobiusError(ValueError):
    """Invalid Vahlen matrix, generator parameters, or expression."""


class PoleError(MobiusError):
    """The denominator c x + d is numerically zero at a requested point."""


def _as_vector(dim: int, t) -> Multivector:
    if isinstance(t, Multivector):
        if not t.is_grade(1, tol=1e-14 * float(np.max(t.norm(), initial=0.0))):
            raise MobiusError("translation parameter must be grade-1")
        return t
    return Multivector.from_vector(dim, np.asarray(t, dtype=float))


@dataclass(frozen=True, eq=False)
class VahlenMatrix:
    """Conformal transformation as a 2x2 Clifford matrix."""

    dim: int
    a: Multivector
    b: Multivector
    c: Multivector
    d: Multivector

    def __post_init__(self):
        for name in "abcd":
            entry = getattr(self, name)
            if entry.dim != self.dim or entry.batch_shape:
                raise MobiusError(f"entry {name} must be a single Cl(0,{self.dim}) value")


@dataclass(frozen=True)
class FramePoint:
    """Unit frame u = (c x + d)/|c x + d| and scale |c x + d| at a point.

    `map(A) = u A reversion(u)` is an isometry of the coefficient norm and
    sends grade-1 elements to grade-1 elements (orthogonally); `sigma` is
    the factor-count parity of c x + d (+1 even, -1 odd).
    """

    u: Multivector
    scale: np.ndarray
    sigma: int

    def map(self, A: Multivector) -> Multivector:
        return geometric_product(geometric_product(self.u, A), self.u.reversion())

    def frame_vector(self, j: int) -> Multivector:
        """The rotated basis vector u e_j reversion(u)."""
        return self.map(Multivector.basis_vector(self.u.dim, j))

    def twisted_dirac(self, partials) -> Multivector:
        """sum_j (u e_j reversion(u)) * partials[j] for given x-derivatives."""
        out = geometric_product(self.frame_vector(1), partials[0])
        for j in range(2, self.u.dim + 1):
            out = out + geometric_product(self.frame_vector(j), partials[j - 1])
        return out


# ------------------------------------------------------------- generators


def identity_matrix(dim: int) -> VahlenMatrix:
    one = Multivector.scalar(dim, 1.0)
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, one, zero, zero, one)


def translation(dim: int, t) -> VahlenMatrix:
    t = _as_vector(dim, t)
    one = Multivector.scalar(dim, 1.0)
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, one, t, zero, one)


def dilation(dim: int, lam: float) -> VahlenMatrix:
    if not lam > 0:
        raise MobiusError(f"dilation factor must be positive, got {lam}")
    s = float(np.sqrt(lam))
    zero = Multivector.zero(dim)
    return VahlenMatrix(
        dim, Multivector.scalar(dim, s), zero, zero, Multivector.scalar(dim, 1.0 / s)
    )


def inversion(dim: int) -> VahlenMatrix:
    zero = Multivector.zero(dim)
    return VahlenMatrix(
        dim, zero, Multivector.scalar(dim, -1.0), Multivector.scalar(dim, 1.0), zero
    )


def rotation(dim: int, i: int, j: int, theta: float) -> VahlenMatrix:
    """Rotation by theta in the oriented (e_i, e_j) plane.

    Built as a product of two unit-vector reflections, so the `a` entry is
    a certified Pin element; the matrix is (a, 0, 0, a) since the factor
    count is even.
    """
    if i == j or not (1 <= i <= dim and 1 <= j <= dim):
        raise MobiusError(f"rotation plane indices must be distinct in [1,{dim}]")
    half = 0.5 * theta
    w = np.zeros(dim)
    w[i - 1] = np.cos(half)
    w[j - 1] = np.sin(half)
    factors = VectorFactorList(
        [Multivector.from_vector(dim, w), Multivector.basis_vector(dim, i)]
    )
    a = factors.product()
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, a, zero, zero, a)


def rotation_from_factors(dim: int, factors: VectorFactorList) -> VahlenMatrix:
    """Pin-group generator (a, 0, 0, (-1)^J a) from explicit unit factors."""
    if not factors.is_unit():
        raise MobiusError("rotation factors must be unit vectors")
    a = factors.product()
    sign = -1.0 if len(factors) % 2 else 1.0
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, a, zero, zero, sign * a)


# ------------------------------------------------- composition and inverse


def compose(m1: VahlenMatrix, m2: VahlenMatrix) -> VahlenMatrix:
    """Matrix product m1 m2, representing the map m1 after m2."""
    if m1.dim != m2.dim:
        raise MobiusError("cannot compose matrices of different dimensions")
    a = m1.a * m2.a + m1.b * m2.c
    b = m1.a * m2.b + m1.b * m2.d
    c = m1.c * m2.a + m1.d * m2.c
    d = m1.c * m2.b + m1.d * m2.d
    return VahlenMatrix(m1.dim, a, b, c, d)


def vahlen_inverse(m: VahlenMatrix) -> VahlenMatrix:
    """Inverse matrix (reversion(d), -reversion(b), -reversion(c), reversion(a))."""
    return VahlenMatrix(
        m.dim, m.d.reversion(), -m.b.reversion(), -m.c.reversion(), m.a.reversion()
    )


# ------------------------------------------------------------- validation


@dataclass(frozen=True)
class VahlenValidation:
    condition_ii: dict
    condition_iii: float
    passes: bool


def validate_vahlen(m: VahlenMatrix) -> VahlenValidation:
    """Numerical residuals for the entry-product conditions.

    condition (ii): reversion(a)c, reversion(c)d, reversion(d)b and
    reversion(b)a must be grade-1 or zero -- reported as the off-grade-1
    coefficient mass relative to max(1, product norm).  condition (iii):
    the pseudo-determinant reversion(a)d - reversion(b)c must equal 1 --
    reported as the absolute coefficient distance.  Both pass at 1e-10.
    """
    pairs = {
        "rev(a)c": m.a.reversion() * m.c,
        "rev(c)d": m.c.reversion() * m.d,
        "rev(d)b": m.d.reversion() * m.b,
        "rev(b)a": m.b.reversion() * m.a,
    }
    residuals_ii = {}
    for name, prod in pairs.items():
        off = prod - prod.grade_select(1)
        residuals_ii[name] = float(off.norm()) / max(1.0, float(prod.norm()))
    det = m.a.reversion() * m.d - m.b.reversion() * m.c
    residual_iii = float((det - Multivector.scalar(m.dim, 1.0)).norm())
    passes = residual_iii <= 1e-10 and all(v <= 1e-10 for v in residuals_ii.values())
    return VahlenValidation(residuals_ii, residual_iii, passes)


# ------------------------------------------------------------- evaluation


def denominator(m: VahlenMatrix, x: Multivector) -> Multivector:
    """c x + d, broadcasting over the batch axes of x."""
    return m.c * x + m.d


_POLE_TOL = 1e-12  # the evaluators refuse points with |c x + d| at or below it


def _check_poles(g: Multivector):
    if np.any(g.norm() <= _POLE_TOL):
        raise PoleError(
            f"denominator norm fell to {float(np.min(g.norm())):.3e} "
            f"(tolerance {_POLE_TOL:g})"
        )


def apply_mobius(m: VahlenMatrix, x: Multivector) -> Multivector:
    """Evaluate M(x) = (a x + b)(c x + d)^{-1} at grade-1 x (batched ok)."""
    g = denominator(m, x)
    _check_poles(g)
    num = m.a * x + m.b
    out = num * lipschitz_element_inverse(g)
    vec = out.grade_select(1)
    off = float(np.max((out - vec).norm(), initial=0.0))
    if off > 1e-10 * max(1.0, float(np.max(out.norm(), initial=0.0))):
        raise MobiusError(f"image has off-grade-1 mass {off:.3e}")
    return vec


def map_points(m: VahlenMatrix, points: np.ndarray):
    """Convenience wrapper: (..., n) coordinate array in, same shape out."""
    x = Multivector.from_vector(m.dim, points)
    return apply_mobius(m, x).vector_part()


def jacobian_factors(m: VahlenMatrix, x: Multivector):
    """(J1, Jm1) at x; J1 equals |c x + d|^2 * Jm1 by construction."""
    g = denominator(m, x)
    _check_poles(g)
    nn = g.norm()
    rev = g.reversion()
    jm1 = rev / nn ** (m.dim + 2)
    j1 = jm1 * (nn**2)
    return j1, jm1


def frame_at(m: VahlenMatrix, x: Multivector) -> FramePoint:
    """Unit frame, scale |c x + d| and parity sigma at x."""
    g = denominator(m, x)
    _check_poles(g)
    nn = g.norm()
    u = g / nn
    sig = parity(g)
    if sig == 0:
        raise MobiusError("denominator has mixed parity; not a Vahlen matrix?")
    return FramePoint(u=u, scale=nn, sigma=sig)


def jacobian_determinant(m: VahlenMatrix, x: Multivector):
    """|det dM_x| = |c x + d|^{-2 dim}."""
    g = denominator(m, x)
    _check_poles(g)
    return g.norm() ** (-2 * m.dim)


def differential(m: VahlenMatrix, x: Multivector, v: Multivector) -> Multivector:
    """dM_x(v) = u v reversion(u) / |c x + d|^2 for grade-1 v."""
    fp = frame_at(m, x)
    return fp.map(v) / fp.scale**2


# ---------------------------------------------------------------- parsing

_GRAMMAR = """expression := generator ('*' generator)*, leftmost applied last;
generator := 'identity' | 'inversion' | 'translate:v1,...,vn'
           | 'dilate:lambda' | 'rotate:i,j,theta'"""


def _parameters(text: str) -> list:
    """The comma-separated real parameters of a generator, all finite."""
    vals = [float(s) for s in text.split(",")]
    if not np.all(np.isfinite(vals)):
        raise MobiusError(f"generator parameters must be finite, got {text!r}")
    return vals


def parse_mobius_expr(expr: str, dim: int) -> VahlenMatrix:
    """Parse a generator word like 'inversion*translate:1,0,0'.

    The leftmost generator is applied last, matching function composition
    and matrix-product order.
    """
    out = identity_matrix(dim)
    if not expr.strip():
        raise MobiusError("empty generator expression")
    for token in expr.split("*"):
        token = token.strip()
        head, _, args = token.partition(":")
        try:
            if head == "identity":
                gen = identity_matrix(dim)
            elif head == "inversion":
                gen = inversion(dim)
            elif head in ("translate", "translation"):
                vec = _parameters(args)
                if len(vec) != dim:
                    raise MobiusError(
                        f"translate needs {dim} components, got {len(vec)}"
                    )
                gen = translation(dim, vec)
            elif head in ("dilate", "dilation"):
                (lam,) = _parameters(args)
                gen = dilation(dim, lam)
            elif head in ("rotate", "rotation"):
                i_s, j_s, theta_s = args.split(",")
                gen = rotation(dim, int(i_s), int(j_s), *_parameters(theta_s))
            else:
                raise MobiusError(f"unknown generator {head!r}; grammar: {_GRAMMAR}")
        except (ValueError, AlgebraError) as exc:
            if isinstance(exc, MobiusError):
                raise
            raise MobiusError(f"bad generator token {token!r}: {exc}") from exc
        out = compose(out, gen)
    return out
