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

import math
from functools import lru_cache, reduce

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
    indices.  Leading axes are broadcast batch axes.  `live`, the bool bytes
    of the blades that can be nonzero, is set only by constructors that know
    it, with coeffs made read-only; any other result has None (inf * 0 = NaN).
    """

    __slots__ = ("dim", "coeffs", "live")

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
        self.live = None

    def _carry(self, *blades) -> "Multivector":
        self.coeffs.setflags(write=False)
        live = bytearray(1 << self.dim)
        for k in blades:
            live[k] = 1
        self.live = bytes(live)
        return self

    # ---------------------------------------------------------------- ctors

    @classmethod
    def zero(cls, dim: int, batch_shape=()) -> "Multivector":
        return cls(dim, np.zeros(tuple(batch_shape) + (1 << dim,)), copy=False)

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (1 << dim,))
        c[..., 0] = value
        return cls(dim, c, copy=False)._carry(0)

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> "Multivector":
        """e_j with 1-based index j."""
        if not 1 <= j <= dim:
            raise AlgebraError(f"basis index must be in [1, {dim}], got {j}")
        c = np.zeros(1 << dim)
        c[1 << (j - 1)] = 1.0
        return cls(dim, c, copy=False)._carry(1 << (j - 1))

    @classmethod
    def blade(cls, dim: int, mask: int) -> "Multivector":
        if not 0 <= mask < (1 << dim):
            raise AlgebraError(f"blade mask {mask} out of range for dim={dim}")
        c = np.zeros(1 << dim)
        c[mask] = 1.0
        return cls(dim, c, copy=False)._carry(mask)

    @classmethod
    def from_vector(cls, dim: int, components) -> "Multivector":
        """Grade-1 element from an (..., dim) array of components."""
        v = np.asarray(components, dtype=float)
        if v.shape[-1] != dim:
            raise AlgebraError(
                f"vector components must have last axis {dim}, got {v.shape}"
            )
        c = np.zeros(v.shape[:-1] + (1 << dim,))
        c[..., [1 << j for j in range(dim)]] = v
        return cls(dim, c, copy=False)._carry(*(1 << j for j in range(dim)))

    # ------------------------------------------------------------ structure

    @property
    def batch_shape(self):
        return self.coeffs.shape[:-1]

    def vector_part(self) -> np.ndarray:
        """(..., dim) array of the grade-1 components."""
        return self.coeffs[..., [1 << j for j in range(self.dim)]]

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
        return np.sqrt(square_sum(self.coeffs, self.live))


def square_sum(a: np.ndarray, live=None) -> np.ndarray:
    """np.sum(a * a, axis=-1) to the bit.  On a C-ordered batch of 1024 rows
    or more, up to 127 columns of which fewer than 8 are in the bool bytes
    `live` (default all), whole squared columns are added in numpy's order
    (a left fold below 8; else every 8th into 8 lanes, a pairwise tree of
    them, then the rest), skipping zero columns outside `live`: no sum of
    squares is -0.0.  Elsewhere per-row sums are faster, or numpy's order
    differs (it folds the columns of an array not C-ordered)."""
    n = a.shape[-1]
    if n > 127 or a.size < 1024 * n or (live or b"\1" * n).count(1) > 7 or not a.flags.c_contiguous:
        return np.sum(a * a, axis=-1)
    cols = [a[..., k] ** 2 if live is None or live[k] else None for k in range(n)]
    add = lambda x, y: y if x is None else x if y is None else x + y
    tree = [reduce(add, cols[j:n - n % 8:8]) for j in range(8)] if n >= 8 else [None]
    while len(tree) > 1:
        tree = list(map(add, tree[::2], tree[1::2]))
    return add(np.zeros(a.shape[:-1]), reduce(add, cols[n - n % 8:], tree[0]))


@lru_cache(maxsize=None)
def _gather_table(dim: int):
    """I[i, k] = i ^ k and S[i, k] = product_signs(dim)[i, i ^ k], so that
    coefficient k of e_i * B is S[i, k] * B[I[i, k]]."""
    idx = np.arange(1 << dim)
    table = idx[:, None] ^ idx
    signs = np.take_along_axis(product_signs(dim), table, axis=1)
    for t in (table, signs):
        t.setflags(write=False)
    return table, signs


_BLOCK = 1 << 16  # elements of the (rows, live blades, columns) terms per block


@lru_cache(maxsize=256)  # a dim-6 entry holds at most 64 KB
def _columns(dim: int, live_a: bytes, live_b: bytes):
    """For the live-blade masks of a and b (bool bytes): the live blades i
    of a, the output blades k = i ^ j reachable from a live blade j of b,
    and the gather table and signs restricted to those rows and columns."""
    ia, ib = (np.flatnonzero(np.frombuffer(m, dtype=bool)) for m in (live_a, live_b))
    cols = np.unique(np.bitwise_xor.outer(ia, ib))
    table, signs = (t[np.ix_(ia, cols)] for t in _gather_table(dim))
    for t in (ia, cols, table, signs):
        t.setflags(write=False)
    return ia, cols, table, signs


@lru_cache(maxsize=256)
def _vector_columns(dim: int, live_b: bytes, live_l: bytes, every: bool):
    """The blades k of conj(b) l, l a vector, that a live component j of l
    reaches from a live blade of b (every blade when `every`), and per k
    its terms (j, k ^ e_j, negate) for those j in ascending order."""
    jl = np.flatnonzero(np.frombuffer(live_l, dtype=bool))
    ib = np.frombuffer(live_b, dtype=bool)
    (table, signs), conj = _gather_table(dim), _conjugation_signs(dim)
    cols = np.arange(1 << dim) if every else np.unique(
        np.bitwise_xor.outer(1 << jl, np.flatnonzero(ib)))
    cols.setflags(write=False)
    # the gather's term (b[k ^ e_j] S[e_j, k]) (-l_j), times k's conjugation sign
    return cols, tuple(tuple((j, int(table[1 << j, k]), int(conj[k] * signs[1 << j, k] > 0))
                             for j in jl.tolist() if ib[table[1 << j, k]]) for k in cols)


def conj_vector_sums(left: np.ndarray, vals: Multivector, wx: np.ndarray,
                     sums: np.ndarray, buf: np.ndarray):
    """Add to sums[..., k], for each blade k, the node-order sum over one
    block of B nodes of wx * (conj(vals) l)[k], l the vector with (B, dim)
    components `left`, vals batched (B,) or constant, wx (..., B), and buf
    a (..., 2**dim, B + 1 or more) scratch block.  Blade k sums, from 0.0,
    the gather's terms (vals[k ^ e_j] S) (-l_j) of conj((-l) vals) over the
    live j of l in ascending order whose partner k ^ e_j is live in vals,
    k's conjugation sign folded into l_j; it is weighted into one row of
    buf per leading row of wx, after the running total as element 0, and
    np.add.accumulate sums the row in node order.  So sums match, bit for
    bit, `geometric_product`'s blades conjugated, weighted and added node
    after node (a folded sign flips only zeros, which a running total never
    -0.0 absorbs).  vals' live blades are its carried ones, else a scan's: a
    carried blade zero in every row adds zeros to sums that start at 0.0.
    An inf or NaN in l makes every blade of vals live, and one in wx forms
    every blade, as inf * 0 is NaN."""
    dim = left.shape[-1]
    comps = np.ascontiguousarray(left.T)
    live_b = (vals.live or _live(vals.coeffs)) if np.isfinite(comps).all() else b"\x01" * (1 << dim)
    cols, terms = _vector_columns(dim, live_b, comps.any(axis=1).tobytes(),
                                  not np.isfinite(wx).all())
    count, signed = len(left), (comps, -comps)
    acc, term = np.empty((2, count))
    part = buf[..., :len(cols), :count + 1]
    part[..., 0] = sums[..., cols]
    for r, col_terms in enumerate(terms):
        acc.fill(0.0)
        for j, m, negate in col_terms:
            acc += np.multiply(vals.coeffs[..., m], signed[negate][j], out=term)
        np.multiply(wx, acc, out=part[..., r, 1:])
    np.add.accumulate(part, axis=-1, out=part)
    sums[..., cols] = part[..., count]


def _block_rows(c: np.ndarray, shape):
    """A function of a row slice that returns those rows of c broadcast to
    shape, batch flattened, never copying c at the full batch size."""
    full = c if c.shape == shape else np.broadcast_to(c, shape)
    try:
        flat = np.reshape(full, (-1, shape[-1]), copy=False)
        return lambda rows: flat[rows]
    except ValueError:  # batch axes that do not merge into one
        return lambda rows: full[np.unravel_index(np.r_[rows], shape[:-1])]


def _live(c: np.ndarray) -> bytes:
    """Bool bytes of the blades nonzero somewhere in the batch of c (NaN counts)."""
    return c.any(axis=tuple(range(c.ndim - 1))).tobytes()


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product in Cl(0, dim), broadcasting over batch axes.

    Gather form: (a b)[k] = sum_i a[i] * S[i, k] * b[I[i, k]] (`_gather_table`)
    over the live blades i, where a is nonzero somewhere in its batch.  Only
    the coefficients k = i ^ j that a live blade i reaches from a live blade
    j of b are computed, by a table cached per (dim, live(a), live(b))
    (`_columns`); the rest are +0.0, as their sums of zeros are.  An inf or
    NaN in a reaches every blade, since inf * 0 from a dead blade of b is
    NaN.  Each block of rows sums in blade order from 0.0, the order of a
    blade-by-blade accumulation, so the result is the same to the bit.
    """
    a._check_same(b)
    shape = np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape)
    live_a = _live(a.coeffs)
    live, cols, table, signs = _columns(a.dim, live_a, _live(b.coeffs))
    if len(cols) < shape[-1] and not np.isfinite(a.coeffs).all():
        live, cols, table, signs = _columns(a.dim, live_a, b"\x01" * shape[-1])
    out = np.empty(shape[:-1] + (len(cols),))
    flat = out.reshape(math.prod(shape[:-1]), len(cols))
    rows_a, rows_b = _block_rows(a.coeffs, shape), _block_rows(b.coeffs, shape)
    step = max(1, _BLOCK // max(len(cols) * len(live), 1))
    for start in range(0, len(flat), step):
        rows = slice(start, min(start + step, len(flat)))
        terms = rows_b(rows)[:, table]
        terms *= signs
        terms *= rows_a(rows)[:, live, None]
        terms.sum(axis=1, out=flat[rows], initial=0.0)
    if len(cols) == shape[-1]:
        return Multivector(a.dim, out, copy=False)
    full = np.zeros(shape)
    full[..., cols] = out
    return Multivector(a.dim, full, copy=False)


def vector_inverse(x: Multivector) -> Multivector:
    """Inverse of a nonzero grade-1 element: x**-1 = -x / |x|^2."""
    with np.errstate(over="ignore"):
        n2 = np.sum(x.vector_part() ** 2, axis=-1)
    if not (np.all(np.isfinite(x.coeffs)) and np.all(np.isfinite(n2))):
        raise AlgebraError("vector_inverse requires finite coefficients and squared length")
    if not x.is_grade(1):
        raise AlgebraError("vector_inverse requires a grade-1 element")
    if np.any(n2 == 0.0):
        raise SingularElementError("vector_inverse of zero vector")
    return Multivector(x.dim, -x.coeffs / n2[..., None], copy=False)


def lipschitz_element_inverse(g: Multivector) -> Multivector:
    """Inverse of a product of vectors: g**-1 = conjugation(g) / |g|^2.

    Valid for elements of the Lipschitz group (products of nonzero
    vectors), where conjugation(g) * g collapses to the scalar |g|^2.  The
    scalar collapse is checked on the residual g * g**-1 - 1, to 1e-9.
    """
    n2 = np.sum(g.coeffs**2, axis=-1)
    if np.any(n2 <= 0.0):
        raise SingularElementError("inverse of zero element")
    inv = Multivector(g.dim, g.conjugation().coeffs / n2[..., None], copy=False)
    resid = geometric_product(g, inv)
    resid = resid - Multivector.scalar(g.dim, np.ones(resid.batch_shape))
    if np.any(resid.norm() > 1e-9):
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

    def is_unit(self) -> bool:
        return all(abs(float(f.norm()) - 1.0) <= 1e-12 for f in self.factors)

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


@lru_cache(maxsize=256)
def _sandwich_terms(dim: int, live_u: bytes, live_w: bytes):
    """The gather terms of the vector part of (u w) reversion(u), w a vector:
    per blade l of u w, (k, l ^ e_k, negate) over the live components k of w
    whose partner l ^ e_k is live in u, by ascending partner; per output
    component i, (l ^ e_i, l, negate) over those blades l, ascending."""
    (_, signs), rev = _gather_table(dim), _reversion_signs(dim)
    first = {l: t for l in range(1 << dim) if (t := tuple(
        (k, l ^ 1 << k, bool(signs[l ^ 1 << k, l] < 0)) for k in sorted(
            range(dim), key=lambda k: l ^ 1 << k) if live_w[k] and live_u[l ^ 1 << k]))}
    return first, tuple(tuple((l ^ 1 << i, l, bool(rev[l ^ 1 << i] * signs[l, 1 << i] < 0))
                              for l in first) for i in range(dim))


def vector_sandwich(u: Multivector, *vectors) -> np.ndarray:
    """(len(vectors), n) + batch: the vector part of u w reversion(u) for a
    finite u and each vector w, given by its n components broadcast to u's
    batch, with the bits of `pin_action(u, w).vector_part()` but on grade-1
    columns only.  Each blade l of u w, then each e_i, sums its gather terms
    from 0.0 by ascending blade, less the zero terms a total from 0.0 never feels."""
    c = np.ascontiguousarray(np.moveaxis(u.coeffs, -1, 0))
    if not np.isfinite(c).all():
        raise AlgebraError("vector_sandwich needs a finite u")
    live = c.reshape(len(c), -1).any(axis=1).tobytes()
    out = np.zeros((len(vectors), u.dim) + c.shape[1:])
    for w, rows in zip(vectors, out):
        first, second = _sandwich_terms(u.dim, live, bytes(bool(np.any(k)) for k in w))
        uw = {l: np.zeros(c.shape[1:]) for l in first}
        for l, terms in first.items():
            for k, m, negate in terms:
                (np.subtract if negate else np.add)(uw[l], w[k] * c[m], out=uw[l])
        for i, terms in enumerate(second):
            row = rows[i, ...]  # a view even when the batch is empty
            for m, l, negate in terms:
                (np.subtract if negate else np.add)(row, c[m] * uw[l], out=row)
    return out


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
