"""Vahlen-matrix machinery for conformal transformations of R^n.

A 2x2 matrix (a, b, c, d) with Clifford entries acts on vectors by

    M(x) = (a x + b) (c x + d)^{-1},

covering translations, dilations, rotations/reflections and the sphere
inversion x -> x/|x|^2.  Matrices are built from those four generators and
composed by matrix multiplication; entries of generator matrices are
products of vectors (or zero) by construction, and the numerical
conditions on the entry products are re-checked by `validate_vahlen`.

Every quantity of the map at a point comes from the one denominator
g = c x + d, and `MobiusPoint(m, points)` forms it once per batch of points,
with the one pole check.  From g it derives, when they are read, the image
M(x), the twist g^-1 f(M(x)), the two scale factors

    J1  = reversion(g) / |g|^n
    Jm1 = reversion(g) / |g|^(n+2),

the parity sigma of g and the unit frame u = g/|g|, whose sandwich
u e_j reversion(u) is |g|^2 times column j of the conformal differential
dM_x and gives the twisted Dirac operator sum_j (u e_j reversion(u))
d/dx_j of the covariance experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraError,
    Multivector,
    VectorFactorList,
    _lipschitz_inverse,
    parity,
    square_sum,
    vector_sandwich,
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


_POLE_TOL = 1e-12  # a MobiusPoint refuses points with |c x + d| at or below it


class MobiusPoint:
    """The map of `m` at an (..., n) array of points x, read from one g.

    x (the points as a multivector), g = c x + d and its sum of squares,
    whose root is |g| (`scale`), are formed once, with the pole check.  The
    rest is derived from g when it is read: the image M(x), the twist
    g^-1 f(M(x)), the scale factors J1 and Jm1, the parity sigma and the
    unit frame u, whose sandwich u A reversion(u) (`algebra.pin_action`) is
    an isometry of the coefficient norm that sends vectors to vectors;
    `frame` forms it on e_1..e_n, on grade-1 columns only.  The image and
    the twist invert g, from the kept sum of squares, each time they are
    read and keep nothing; sigma, u and the frame are kept once formed.
    """

    def __init__(self, m: VahlenMatrix, points):
        self.m, self.points, self.x = m, points, Multivector.from_vector(m.dim, points)
        self.g = m.c * self.x + m.d
        self._n2 = square_sum(self.g.coeffs)
        self.scale = np.sqrt(self._n2)
        if np.any(self.scale <= _POLE_TOL):
            raise PoleError(
                f"denominator norm fell to {float(np.min(self.scale)):.3e} "
                f"(tolerance {_POLE_TOL:g})"
            )

    def _image(self, inverse: Multivector) -> np.ndarray:
        out = (self.m.a * self.x + self.m.b) * inverse
        vec = out.grade_select(1)
        off = float(np.max((out - vec).norm(), initial=0.0))
        if off > 1e-10 * max(1.0, float(np.max(out.norm(), initial=0.0))):
            raise MobiusError(f"image has off-grade-1 mass {off:.3e}")
        return vec.vector_part()

    @property
    def image(self) -> np.ndarray:
        """The (..., n) coordinates of M(x) = (a x + b) g^-1, refused when
        (a x + b) g^-1 is off grade 1 by over 1e-10."""
        return self._image(_lipschitz_inverse(self.g, self._n2))

    def twist(self, f) -> Multivector:
        """g^-1 f(M(x)) for f taking coordinates, g inverted once for both."""
        inverse = _lipschitz_inverse(self.g, self._n2)
        return inverse * f(self._image(inverse))

    @property
    def jm1(self) -> Multivector:
        """Jm1 = reversion(g) / |g|^(n+2)."""
        return self.g.reversion() / self.scale ** (self.m.dim + 2)

    @property
    def j1(self) -> Multivector:
        """J1 = |g|^2 Jm1 = reversion(g) / |g|^n."""
        return self.jm1 * self.scale**2

    @cached_property
    def sigma(self) -> int:
        """The factor-count parity of g: +1 even, -1 odd; mixed is refused."""
        sig = parity(self.g)
        if sig == 0:
            raise MobiusError("denominator has mixed parity; not a Vahlen matrix?")
        return sig

    @cached_property
    def u(self) -> Multivector:
        """The unit frame g/|g|, formed after the parity check."""
        self.sigma  # refuses a mixed-parity g before any frame is read
        return self.g / self.scale

    @cached_property
    def frame(self) -> np.ndarray:
        """(n, n) + batch: frame[j - 1] is u e_j reversion(u), |g|^2 times
        column j of dM_x, formed after the parity check."""
        return vector_sandwich(self.u, *np.eye(self.m.dim))


def map_points(m: VahlenMatrix, points: np.ndarray):
    """M(x) on an (..., n) coordinate array, same shape out."""
    return MobiusPoint(m, points).image


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
