"""Dense Clifford algebra kernel for negative-definite quadratic forms.

The algebra Cl(0, n) is generated by orthonormal vectors e_1 .. e_n with

    e_i e_j + e_j e_i = -2 delta_ij,

so every vector squares to minus its squared length.  Basis blades are
indexed by bitmasks: bit (j-1) of the index is set exactly when e_j is a
factor of the blade, and index 0 is the scalar unit.  A multivector is a
dense coefficient vector of length 2**n over that basis.

All operations broadcast over leading axes of the coefficient array, so a
"batched" Multivector with coeffs of shape (..., 2**n) evaluates fields on
many points at once with the same code path.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_DIM = 10


class AlgebraError(ValueError):
    """Contract violation in the algebra layer (dimension, grade, shape)."""


class SingularElementError(AlgebraError):
    """Raised when inverting an element whose norm is numerically zero."""


def _popcount(a):
    return np.bitwise_count(np.asarray(a, dtype=np.uint32)).astype(np.int64)


@lru_cache(maxsize=None)
def product_signs(dim: int) -> np.ndarray:
    """(2**dim, 2**dim) table of blade-product signs.

    Entry [a, b] is the sign s in  e_a * e_b = s * e_(a XOR b).  It is the
    parity of the transpositions needed to interleave the two sorted factor
    lists, times one factor of -1 for every shared generator (e_j**2 = -1).
    """
    if not 1 <= dim <= MAX_DIM:
        raise AlgebraError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    n = 1 << dim
    a = np.arange(n, dtype=np.uint32)[:, None]
    b = np.arange(n, dtype=np.uint32)[None, :]
    swaps = np.zeros((n, n), dtype=np.int64)
    shifted = a >> 1
    while shifted.any():
        swaps += _popcount(shifted & b)
        shifted = shifted >> 1
    total = swaps + _popcount(a & b)
    sign = np.where(total & 1, -1.0, 1.0)
    sign.setflags(write=False)
    return sign


@lru_cache(maxsize=None)
def blade_grades(dim: int) -> np.ndarray:
    g = _popcount(np.arange(1 << dim, dtype=np.uint32))
    g.setflags(write=False)
    return g


def blade_label(mask: int) -> str:
    """The name of basis blade `mask`: "1" for the scalar, else "e" and its
    1-based vector indices in increasing order (mask 0b101 -> "e13")."""
    if mask == 0:
        return "1"
    return "e" + "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _reversion_signs(dim: int) -> np.ndarray:
    r = blade_grades(dim)
    s = np.where((r * (r - 1) // 2) % 2, -1.0, 1.0)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _conjugation_signs(dim: int) -> np.ndarray:
    r = blade_grades(dim)
    s = np.where((r * (r + 1) // 2) % 2, -1.0, 1.0)
    s.setflags(write=False)
    return s


class Multivector:
    """Element of Cl(0, dim) with dense coefficients, optionally batched.

    coeffs has shape (..., 2**dim); the last axis runs over bitmask blade
    indices.  Leading axes are broadcast batch axes.
    """

    __slots__ = ("dim", "coeffs")

    # keep numpy from absorbing us in mixed expressions: ndarray * Multivector
    # must fall through to __rmul__
    __array_ufunc__ = None

    def __init__(self, dim: int, coeffs, copy: bool = True):
        if not 1 <= dim <= MAX_DIM:
            raise AlgebraError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        c = np.array(coeffs, dtype=float, copy=copy)
        if c.ndim == 0 or c.shape[-1] != (1 << dim):
            raise AlgebraError(
                f"coefficient axis must have length {1 << dim} for dim={dim}, "
                f"got shape {c.shape}"
            )
        self.dim = dim
        self.coeffs = c

    # ---------------------------------------------------------------- ctors

    @classmethod
    def zero(cls, dim: int, batch_shape=()) -> "Multivector":
        return cls(dim, np.zeros(tuple(batch_shape) + (1 << dim,)), copy=False)

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (1 << dim,))
        c[..., 0] = value
        return cls(dim, c, copy=False)

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> "Multivector":
        """e_j with 1-based index j."""
        if not 1 <= j <= dim:
            raise AlgebraError(f"basis index must be in [1, {dim}], got {j}")
        c = np.zeros(1 << dim)
        c[1 << (j - 1)] = 1.0
        return cls(dim, c, copy=False)

    @classmethod
    def blade(cls, dim: int, mask: int, coefficient: float = 1.0) -> "Multivector":
        if not 0 <= mask < (1 << dim):
            raise AlgebraError(f"blade mask {mask} out of range for dim={dim}")
        c = np.zeros(1 << dim)
        c[mask] = coefficient
        return cls(dim, c, copy=False)

    @classmethod
    def from_vector(cls, dim: int, components) -> "Multivector":
        """Grade-1 element from an (..., dim) array of components."""
        v = np.asarray(components, dtype=float)
        if v.shape[-1] != dim:
            raise AlgebraError(
                f"vector components must have last axis {dim}, got {v.shape}"
            )
        c = np.zeros(v.shape[:-1] + (1 << dim,))
        for j in range(dim):
            c[..., 1 << j] = v[..., j]
        return cls(dim, c, copy=False)

    # ------------------------------------------------------------ structure

    @property
    def batch_shape(self):
        return self.coeffs.shape[:-1]

    def copy(self) -> "Multivector":
        return Multivector(self.dim, self.coeffs, copy=True)

    def vector_part(self) -> np.ndarray:
        """(..., dim) array of the grade-1 components."""
        idx = [1 << j for j in range(self.dim)]
        return self.coeffs[..., idx]

    def grade_select(self, r: int) -> "Multivector":
        keep = blade_grades(self.dim) == r
        return Multivector(self.dim, np.where(keep, self.coeffs, 0.0), copy=False)

    def is_grade(self, r: int, tol: float = 0.0) -> bool:
        off = self.coeffs[..., blade_grades(self.dim) != r]
        return bool(np.all(np.abs(off) <= tol))

    # ----------------------------------------------------------- arithmetic

    def _check_same(self, other: "Multivector"):
        if self.dim != other.dim:
            raise AlgebraError(
                f"dimension mismatch: Cl(0,{self.dim}) vs Cl(0,{other.dim})"
            )

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.dim, self.coeffs + other.coeffs, copy=False)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            return Multivector(self.dim, self.coeffs - other.coeffs, copy=False)
        return NotImplemented

    def __neg__(self):
        return Multivector(self.dim, -self.coeffs, copy=False)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        other = np.asarray(other, dtype=float)
        return Multivector(self.dim, self.coeffs * other[..., None], copy=False)

    def __rmul__(self, other):
        # scalar * mv; multivector * multivector is handled by __mul__
        other = np.asarray(other, dtype=float)
        return Multivector(self.dim, other[..., None] * self.coeffs, copy=False)

    def __truediv__(self, other):
        other = np.asarray(other, dtype=float)
        return Multivector(self.dim, self.coeffs / other[..., None], copy=False)

    def __repr__(self):
        if self.batch_shape:
            return f"Multivector(dim={self.dim}, batch={self.batch_shape})"
        terms = []
        for mask in range(1 << self.dim):
            c = self.coeffs[mask]
            if c != 0.0:
                terms.append(f"{c:g}" if mask == 0 else f"{c:g}*{blade_label(mask)}")
        return f"Multivector(dim={self.dim}, {' + '.join(terms) or '0'})"

    # --------------------------------------------------------- involutions

    def reversion(self) -> "Multivector":
        return Multivector(
            self.dim, self.coeffs * _reversion_signs(self.dim), copy=False
        )

    def conjugation(self) -> "Multivector":
        return Multivector(
            self.dim, self.coeffs * _conjugation_signs(self.dim), copy=False
        )

    def scalar_part(self):
        return self.coeffs[..., 0]

    def norm(self):
        """Euclidean norm of the coefficient vector (per batch element)."""
        return np.sqrt(np.sum(self.coeffs**2, axis=-1))


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product in Cl(0, dim), broadcasting over batch axes."""
    a._check_same(b)
    n = 1 << a.dim
    signs = product_signs(a.dim)
    ca, cb = a.coeffs, b.coeffs
    shape = np.broadcast_shapes(ca.shape, cb.shape)
    out = np.zeros(shape)
    idx = np.arange(n)
    for i in range(n):
        ai = ca[..., i]
        if not np.any(ai):
            continue
        # i ^ idx is a permutation of the blade indices, so fancy-index
        # accumulation has no duplicate targets.
        out[..., i ^ idx] += ai[..., None] * (signs[i] * cb)
    return Multivector(a.dim, out, copy=False)


def reversion(a: Multivector) -> Multivector:
    return a.reversion()


def conjugation(a: Multivector) -> Multivector:
    return a.conjugation()


def scalar_part(a: Multivector):
    return a.scalar_part()


def norm(a: Multivector):
    return a.norm()


def clifford_inner(a: Multivector, b: Multivector) -> Multivector:
    """Clifford inner product conjugation(a) * b.

    Its scalar part is the Euclidean dot product of the coefficient
    vectors, so clifford_inner(a, a).scalar_part() == norm(a)**2.
    """
    return geometric_product(a.conjugation(), b)


def vector_inverse(x: Multivector, tol: float = 0.0) -> Multivector:
    """Inverse of a nonzero grade-1 element: x**-1 = -x / |x|^2."""
    if not x.is_grade(1, tol=tol * float(np.max(x.norm(), initial=0.0))):
        raise AlgebraError("vector_inverse requires a grade-1 element")
    n2 = np.sum(x.vector_part() ** 2, axis=-1)
    if np.any(n2 == 0.0):
        raise SingularElementError("vector_inverse of zero vector")
    return Multivector(x.dim, -x.coeffs / n2[..., None], copy=False)


def lipschitz_element_inverse(
    g: Multivector, validate: bool = True, tol: float = 1e-9
) -> Multivector:
    """Inverse of a product of vectors: g**-1 = conjugation(g) / |g|^2.

    Valid for elements of the Lipschitz group (products of nonzero
    vectors), where conjugation(g) * g collapses to the scalar |g|^2.
    With validate=True the scalar collapse is checked on the residual
    g * g**-1 - 1.
    """
    n2 = np.sum(g.coeffs**2, axis=-1)
    if np.any(n2 <= 0.0):
        raise SingularElementError("inverse of zero element")
    inv = Multivector(g.dim, g.conjugation().coeffs / n2[..., None], copy=False)
    if validate:
        resid = geometric_product(g, inv)
        resid = resid - Multivector.scalar(g.dim, np.ones(resid.batch_shape))
        if np.any(resid.norm() > tol):
            raise AlgebraError(
                "element is not invertible by conjugation (not a vector product); "
                f"max residual {np.max(resid.norm()):.3e}"
            )
    return inv


class VectorFactorList:
    """Ordered list of nonzero grade-1 factors certifying group membership.

    Membership in the Lipschitz group (and in Pin(n) when every factor is
    a unit vector) is carried by construction: the element is stored as
    its factors, and the assembled product is derived from them.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise AlgebraError("factor list must contain at least one vector")
        dim = factors[0].dim
        for f in factors:
            if f.dim != dim:
                raise AlgebraError("factor dimensions disagree")
            if f.batch_shape:
                raise AlgebraError("factors must be single values, not batches")
            if not f.is_grade(1, tol=1e-14 * float(f.norm())):
                raise AlgebraError("factors must be grade-1 elements")
            if float(f.norm()) == 0.0:
                raise AlgebraError("factors must be nonzero vectors")
        self.factors = factors
        self.dim = dim

    def __len__(self):
        return len(self.factors)

    def product(self) -> Multivector:
        out = self.factors[0]
        for f in self.factors[1:]:
            out = geometric_product(out, f)
        return out

    def norm(self) -> float:
        return float(np.prod([float(f.norm()) for f in self.factors]))

    def is_unit(self, tol: float = 1e-12) -> bool:
        return all(abs(float(f.norm()) - 1.0) <= tol for f in self.factors)

    def inverse(self) -> Multivector:
        """Product of the factor inverses in reverse order."""
        out = vector_inverse(self.factors[-1])
        for f in reversed(self.factors[:-1]):
            out = geometric_product(out, vector_inverse(f))
        return out


def reflect(y: Multivector, x: Multivector) -> Multivector:
    """y x y for a unit vector y: reflection negating the y-component."""
    return geometric_product(geometric_product(y, x), y)


def pin_action(a, x: Multivector) -> Multivector:
    """a x reversion(a) for a a product of unit vectors.

    On grade-1 arguments this is the orthogonal transformation represented
    by a; it preserves coefficient norms of arbitrary multivectors.
    """
    if isinstance(a, VectorFactorList):
        a = a.product()
    return geometric_product(geometric_product(a, x), a.reversion())


def parity(g: Multivector) -> int:
    """+1 for an even-graded element, -1 for odd, 0 for mixed/zero.

    Lipschitz group elements are always homogeneous in parity, so this
    reads the factor-count parity off the coefficients.
    """
    grades = blade_grades(g.dim)
    even = np.linalg.norm(np.where(grades % 2 == 0, g.coeffs, 0.0))
    odd = np.linalg.norm(np.where(grades % 2 == 1, g.coeffs, 0.0))
    scale = max(even, odd)
    if scale == 0.0:
        return 0
    if odd <= 1e-12 * scale:
        return 1
    if even <= 1e-12 * scale:
        return -1
    return 0
