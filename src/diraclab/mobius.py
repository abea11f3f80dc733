"""Vahlen-matrix machinery for conformal transformations of R^n.

A 2x2 matrix (a, b, c, d) with Clifford entries acts on vectors by

    M(x) = (a x + b) (c x + d)^{-1},

covering translations, dilations, rotations/reflections and the sphere
inversion x -> x/|x|^2.  Every map is a word in those four generators, and
its matrix is their product: `parse_mobius_expr` composes the generators
left to right from the first, with no identity seed, and `compose` forms
the eight entry products of a matrix product as one batched product.  Every
`VahlenMatrix` is checked where it is built against Ahlfors' conditions on
its entries, and carries its inverse and its pole -c^-1 d, each formed once
when first read.

Every quantity of the map at a point comes from the one denominator
g = c x + d, and `MobiusPoint(m, points)` forms it once per batch of points,
refusing a non-finite point or |g|^2 and a pole.  From g it derives, when
they are read, the image M(x), the twist g^-1 f(M(x)), the two scale factors

    J1  = reversion(g) / |g|^n
    Jm1 = reversion(g) / |g|^(n+2),

the parity sigma of g and the unit frame u = g/|g|, whose sandwich
u e_j reversion(u) is |g|^2 times column j of the conformal differential
dM_x and gives the twisted Dirac operator sum_j (u e_j reversion(u))
d/dx_j of the covariance experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .algebra import (
    AlgebraError,
    Multivector,
    VectorFactorList,
    _lipschitz_inverse,
    blade_grades,
    geometric_product,
    lipschitz_element_inverse,
    parity,
    square_sum,
    vector_sandwich,
)


class MobiusError(ValueError):
    """Invalid Vahlen matrix, generator parameters, or expression."""


class PoleError(MobiusError):
    """The denominator c x + d is numerically zero at a requested point."""


@dataclass(frozen=True, eq=False)
class VahlenMatrix:
    """Conformal transformation as a 2x2 Clifford matrix, refused with
    `MobiusError` where it is built unless Ahlfors' conditions hold (`_residuals`)."""

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
        for condition, residual, scale in self._residuals():
            if not residual <= 1e-10 * scale:  # a NaN residual is refused too
                raise MobiusError(f"not a Vahlen matrix: condition {condition} has residual "
                                  f"{residual:.3e} at scale {scale:.3e} (tolerance 1e-10 relative)")

    def _residuals(self) -> list:
        """(condition, residual, scale) for each of Ahlfors' conditions, from one
        batch of six products: (ii) rev(a)c, rev(c)d, rev(d)b and rev(b)a are
        vectors, off grade 1 by at most 1e-10 max(1, |product|); (iii) the
        pseudo-determinant a rev(d) - b rev(c), on which `inverse` rests, is
        1 within 1e-10 max(1, |a rev(d)|, |b rev(c)|)."""
        a, b, c, d = rows = np.stack([e.coeffs for e in (self.a, self.b, self.c, self.d)])
        ra, rb, rc, rd = Multivector(self.dim, rows).reversion().coeffs
        left, right = (Multivector(self.dim, np.stack(rows))
                       for rows in ((ra, rc, rd, rb, a, b), (c, d, b, a, rd, rc)))
        prods = geometric_product(left, right).coeffs
        norms = np.linalg.norm(prods, axis=-1)
        off = np.linalg.norm(np.where(blade_grades(self.dim) == 1, 0.0, prods[:4]), axis=-1)
        det = prods[4] - prods[5]
        det[0] -= 1.0
        out = [(f"(ii) {name} is a vector", float(r), max(1.0, float(s)))
               for name, r, s in zip(("rev(a)c", "rev(c)d", "rev(d)b", "rev(b)a"), off, norms)]
        out.append(("(iii) a rev(d) - b rev(c) = 1", float(np.linalg.norm(det)),
                    max(1.0, float(norms[4]), float(norms[5]))))
        return out

    @cached_property
    def inverse(self) -> "VahlenMatrix":
        """The inverse matrix (rev(d), -rev(b), -rev(c), rev(a))."""
        return VahlenMatrix(self.dim, self.d.reversion(), -self.b.reversion(),
                            -self.c.reversion(), self.a.reversion())

    @cached_property
    def pole(self) -> tuple:
        """The pole -c^-1 d, where c x + d = 0, as singular points: none when c = 0."""
        return () if float(self.c.norm()) < 1e-13 else (
            tuple((0.0 - (lipschitz_element_inverse(self.c) * self.d).vector_part()).tolist()),)


# ------------------------------------------------------------- generators


def identity_matrix(dim: int) -> VahlenMatrix:
    one = Multivector.scalar(dim, 1.0)
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, one, zero, zero, one)


def translation(dim: int, t) -> VahlenMatrix:
    one = Multivector.scalar(dim, 1.0)
    return VahlenMatrix(dim, one, Multivector.from_vector(dim, t), Multivector.zero(dim), one)


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
    """Rotation by theta in the oriented (e_i, e_j) plane: `rotation_from_factors`
    of two unit vectors, so the `a` entry is a certified Pin element and the
    matrix is (a, 0, 0, a), as the factor count is even."""
    if i == j or not (1 <= i <= dim and 1 <= j <= dim):
        raise MobiusError(f"rotation plane indices must be distinct in [1,{dim}]")
    w = np.zeros(dim)
    w[i - 1], w[j - 1] = np.cos(0.5 * theta), np.sin(0.5 * theta)
    return rotation_from_factors(dim, VectorFactorList(
        [Multivector.from_vector(dim, w), Multivector.basis_vector(dim, i)]))


def rotation_from_factors(dim: int, factors: VectorFactorList) -> VahlenMatrix:
    """Pin-group generator (a, 0, 0, (-1)^J a) from explicit unit factors."""
    if not factors.is_unit():
        raise MobiusError("rotation factors must be unit vectors")
    a = factors.product()
    zero = Multivector.zero(dim)
    return VahlenMatrix(dim, a, zero, zero, -a if len(factors) % 2 else a)


# ------------------------------------------------------------ composition


def compose(m1: VahlenMatrix, m2: VahlenMatrix) -> VahlenMatrix:
    """Matrix product m1 m2, representing the map m1 after m2: its eight
    entry products are one 8-row `geometric_product`, added in pairs
    (a1 a2 + b1 c2, a1 b2 + b1 d2, c1 a2 + d1 c2, c1 b2 + d1 d2)."""
    if m1.dim != m2.dim:
        raise MobiusError("cannot compose matrices of different dimensions")
    stack = lambda *entries: Multivector(m1.dim, np.stack([e.coeffs for e in entries]), copy=False)
    p = geometric_product(stack(m1.a, m1.b, m1.a, m1.b, m1.c, m1.d, m1.c, m1.d),
                          stack(m2.a, m2.c, m2.b, m2.d, m2.a, m2.c, m2.b, m2.d)).coeffs
    return VahlenMatrix(m1.dim, *(Multivector(m1.dim, p[k] + p[k + 1], copy=False)
                                  for k in range(0, 8, 2)))


# ------------------------------------------------------------- evaluation


_POLE_TOL = 1e-12  # a MobiusPoint refuses points with |c x + d| at or below it


class MobiusPoint:
    """The map of `m` at an (..., n) array of points x, read from one g.

    x (the points as a multivector), g = c x + d and its sum of squares,
    whose root is |g| (`scale`), are formed once, with two checks: a
    non-finite point or sum of squares (a point at infinity or NaN, or an
    overflow) is refused with `MobiusError`, and a pole with `PoleError`.
    The rest is derived from g when it is read: the image M(x), the twist
    g^-1 f(M(x)), the scale factors J1 and Jm1, the parity sigma and the
    unit frame u, whose sandwich u A reversion(u) (`algebra.pin_action`) is
    an isometry of the coefficient norm that sends vectors to vectors;
    `frame` forms it on e_1..e_n, on grade-1 columns only.  The image and
    the twist invert g, from the kept sum of squares, each time they are
    read and keep nothing; sigma, u and the frame are kept once formed.
    """

    def __init__(self, m: VahlenMatrix, points):
        self.m, self.points, self.x = m, points, Multivector.from_vector(m.dim, points)
        with np.errstate(over="ignore", invalid="ignore"):
            self.g = m.c * self.x + m.d
            self._n2 = square_sum(self.g.coeffs)
        finite = np.isfinite(self._n2)
        if not finite.all():  # not a PoleError, which `fields.singular_preimages` skips
            raise MobiusError(f"|c x + d|^2 is not finite at {finite.size - np.count_nonzero(finite)} "
                              "point(s): a non-finite point, or a denominator that overflows")
        finite = np.isfinite(self.x.coeffs).all(axis=-1)  # c = 0 never reads x
        if not finite.all():
            raise MobiusError(f"x is not finite at {finite.size - np.count_nonzero(finite)} point(s)")
        self.scale = np.sqrt(self._n2)
        if np.any(self.scale <= _POLE_TOL):
            raise PoleError(
                f"denominator norm fell to {float(np.min(self.scale)):.3e} "
                f"(tolerance {_POLE_TOL:g})"
            )

    def _image(self, inverse: Multivector) -> np.ndarray:
        out = (self.m.a * self.x + self.m.b) * inverse
        finite = np.isfinite(out.coeffs).all(axis=-1)
        if not finite.all():
            raise MobiusError(f"image is not finite at {finite.size - np.count_nonzero(finite)} point(s)")
        off_grade_1 = (blade_grades(self.m.dim) != 1).tobytes()
        off = float(np.max(np.sqrt(square_sum(out.coeffs, off_grade_1)), initial=0.0))
        if off > 1e-10 * max(1.0, float(np.max(out.norm(), initial=0.0))):
            raise MobiusError(f"image has off-grade-1 mass {off:.3e}")
        return out.vector_part()

    @property
    def image(self) -> np.ndarray:
        """The (..., n) coordinates of M(x) = (a x + b) g^-1, refused when
        (a x + b) g^-1 is not finite or off grade 1 by over 1e-10."""
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


def _generator(token: str, dim: int) -> VahlenMatrix:
    """The matrix of one generator token of `_GRAMMAR`."""
    head, _, args = token.partition(":")
    try:
        if head == "identity":
            return identity_matrix(dim)
        if head == "inversion":
            return inversion(dim)
        if head in ("translate", "translation"):
            vec = _parameters(args)
            if len(vec) != dim:
                raise MobiusError(f"translate needs {dim} components, got {len(vec)}")
            return translation(dim, vec)
        if head in ("dilate", "dilation"):
            (lam,) = _parameters(args)
            return dilation(dim, lam)
        if head in ("rotate", "rotation"):
            i_s, j_s, theta_s = args.split(",")
            return rotation(dim, int(i_s), int(j_s), *_parameters(theta_s))
    except (ValueError, AlgebraError) as exc:
        if isinstance(exc, MobiusError):
            raise
        raise MobiusError(f"bad generator token {token!r}: {exc}") from exc
    raise MobiusError(f"unknown generator {head!r}; grammar: {_GRAMMAR}")


def parse_mobius_expr(expr: str, dim: int) -> VahlenMatrix:
    """Parse a generator word like 'inversion*translate:1,0,0'.

    The leftmost generator is applied last, matching function composition
    and matrix-product order: the word is its generators composed left to
    right, from the first, so a word of k generators builds 2k - 1 matrices.
    """
    if not expr.strip():
        raise MobiusError("empty generator expression")
    return reduce(compose, (_generator(token.strip(), dim) for token in expr.split("*")))
