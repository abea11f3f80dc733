"""Dense Clifford algebra kernel for negative-definite quadratic forms.

The algebra Cl(0, n) is generated by orthonormal vectors e_1 .. e_n with

    e_i e_j + e_j e_i = -2 delta_ij,

so every vector squares to minus its squared length.  Basis blades are
indexed by bitmasks: bit (j-1) of the index is set exactly when e_j is a
factor of the blade, and index 0 is the scalar unit.  A multivector is a
dense coefficient vector of length 2**n over that basis, stored
blade-major: each blade's coefficients over a batch are one contiguous row.

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


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only, as every cached table is shared by its callers."""
    a.setflags(write=False)
    return a


def _rows(c: np.ndarray) -> np.ndarray:
    """The (2**n, ...) view, a row per blade, of (..., 2**n) coefficients."""
    return c.T if c.ndim < 3 else c.transpose(-1, *range(c.ndim - 1))


def _coeffs(rows: np.ndarray) -> np.ndarray:
    """The (..., 2**n) coefficient view of (2**n, ...) blade rows."""
    return rows.T if rows.ndim < 3 else rows.transpose(*range(1, rows.ndim), 0)


def _blades(dim: int, blades) -> bytes:
    """The bool bytes, one per blade of Cl(0, dim), that name `blades`."""
    live = np.zeros(1 << dim, dtype=bool)
    live[blades] = True
    return live.tobytes()


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
    return _frozen(np.where(total & 1, -1.0, 1.0))


@lru_cache(maxsize=None)
def blade_grades(dim: int) -> np.ndarray:
    return _frozen(_popcount(np.arange(1 << dim, dtype=np.uint32)))


def blade_label(mask: int) -> str:
    """The name of basis blade `mask`: "1" for the scalar, else "e" and its
    1-based vector indices in increasing order (mask 0b101 -> "e13")."""
    if mask == 0:
        return "1"
    return "e" + "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1)


@lru_cache(maxsize=None)
def _involution_signs(dim: int, shift: int) -> np.ndarray:
    """Per blade of grade r, the sign (-1)^(r (r + shift) / 2) of reversion
    (shift -1) or of Clifford conjugation (shift +1)."""
    r = blade_grades(dim)
    return _frozen(np.where((r * (r + shift) // 2) % 2, -1.0, 1.0))


class Multivector:
    """Element of Cl(0, dim) with dense coefficients, optionally batched.

    coeffs has shape (..., 2**dim), broadcast batch axes first and blades
    last, and views a C-ordered (2**dim, ...) array, into which a caller's
    array is copied unless so laid out already and copy is False.  `live`,
    the bool bytes of the blades that can be nonzero, is set by constructors
    and finite products, with coeffs made read-only; else None (inf * 0 = NaN).
    """

    __slots__ = ("dim", "coeffs", "live")

    # keep numpy from absorbing us in mixed expressions: ndarray * Multivector
    # must fall through to __rmul__
    __array_ufunc__ = None

    def __init__(self, dim: int, coeffs, copy: bool = True):
        if not 1 <= dim <= MAX_DIM:
            raise AlgebraError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 0 or c.shape[-1] != (1 << dim):
            raise AlgebraError(
                f"coefficient axis must have length {1 << dim} for dim={dim}, "
                f"got shape {c.shape}"
            )
        rows = _rows(c)
        self.dim, self.live = dim, None
        self.coeffs = _coeffs(rows.copy()) if copy or not rows.flags.c_contiguous else c

    def _carry(self, live: bytes) -> "Multivector":
        self.coeffs.setflags(write=False)
        self.live = live
        return self

    # ---------------------------------------------------------------- ctors

    @classmethod
    def zero(cls, dim: int, batch_shape=()) -> "Multivector":
        return cls(dim, _coeffs(np.zeros((1 << dim,) + tuple(batch_shape))), copy=False)

    @classmethod
    def scalar(cls, dim: int, value) -> "Multivector":
        value = np.asarray(value, dtype=float)
        c = np.zeros((1 << dim,) + value.shape)
        c[0] = value
        return cls(dim, _coeffs(c), copy=False)._carry(_blades(dim, 0))

    @classmethod
    def basis_vector(cls, dim: int, j: int) -> "Multivector":
        """e_j with 1-based index j."""
        if not 1 <= j <= dim:
            raise AlgebraError(f"basis index must be in [1, {dim}], got {j}")
        return cls.blade(dim, 1 << (j - 1))

    @classmethod
    def blade(cls, dim: int, mask: int) -> "Multivector":
        if not 0 <= mask < (1 << dim):
            raise AlgebraError(f"blade mask {mask} out of range for dim={dim}")
        c = np.zeros(1 << dim)
        c[mask] = 1.0
        return cls(dim, c, copy=False)._carry(_blades(dim, mask))

    @classmethod
    def from_vector(cls, dim: int, components) -> "Multivector":
        """Grade-1 element from an (..., dim) array of components."""
        v = np.asarray(components, dtype=float)
        if v.shape[-1] != dim:
            raise AlgebraError(
                f"vector components must have last axis {dim}, got {v.shape}"
            )
        c, vector = np.zeros((1 << dim,) + v.shape[:-1]), [1 << j for j in range(dim)]
        c[vector] = _rows(v)
        return cls(dim, _coeffs(c), copy=False)._carry(_blades(dim, vector))

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
            self.dim, self.coeffs * _involution_signs(self.dim, -1), copy=False
        )

    def conjugation(self) -> "Multivector":
        return Multivector(
            self.dim, self.coeffs * _involution_signs(self.dim, 1), copy=False
        )

    def scalar_part(self):
        return self.coeffs[..., 0]

    def norm(self):
        """Euclidean norm of the coefficient vector (per batch element)."""
        return np.sqrt(square_sum(self.coeffs, self.live))


def square_sum(a: np.ndarray, live=None) -> np.ndarray:
    """np.sum(a * a, axis=-1) of the C-ordered a to the bit, in any layout,
    over the columns that the bool bytes `live` name (default all; a column
    left out, if zero, would add only +0.0), folded column by column in
    numpy's pairwise order: a left fold below 8 columns; up to 128, 8 lanes
    of every 8th column, a tree of them, then the rest; above, the sum of
    the halves split at n // 2 less n // 2 % 8.  A lane starts as its first
    square; every other square is formed in one scratch column and added."""
    n, cols, scratch = a.shape[-1], _rows(a), np.empty(a.shape[:-1])
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = square_sum(a[..., :half], live and live[:half])
        return np.add(total, square_sum(a[..., half:], live and live[half:]), out=total)

    def add(acc, k):
        if live is not None and not live[k]:
            return acc
        if acc is None:
            return np.square(cols[k], out=np.empty_like(scratch))
        return np.add(acc, np.square(cols[k], out=scratch), out=acc)

    join = lambda x, y: y if x is None else x if y is None else np.add(x, y, out=x)
    tree = [reduce(add, range(j, n - n % 8, 8), None) for j in range(8)] if n >= 8 else [None]
    while len(tree) > 1:
        tree = list(map(join, tree[::2], tree[1::2]))
    total = reduce(add, range(n - n % 8, n), tree[0])
    return np.zeros(a.shape[:-1]) if total is None else total


@lru_cache(maxsize=None)
def _gather_table(dim: int):
    """I = i ^ k and S = product_signs(dim)[i, i ^ k], so that (e_i B)[k] = S[i, k] B[I[i, k]]."""
    idx = np.arange(1 << dim)
    table = idx[:, None] ^ idx
    return _frozen(table), _frozen(np.take_along_axis(product_signs(dim), table, axis=1))


_BLOCK = 1 << 14  # elements of the (output blades, terms, rows) block that one pass sums


@lru_cache(maxsize=256)  # a dense dim-6 entry holds about 0.35 MB
def _terms(dim: int, live_a: bytes, live_b: bytes, want: bytes = None):
    """The one term table of a b in Cl(0, dim), for the live blades of a
    and b (bool bytes): (ia, ib, cols, live, signed, terms).  ia, ib: the
    live blades; cols: the output blades k that a blade of ia reaches from
    one of ib, or those `want` names; live: cols' bytes.  Per k and per i in
    ia, ascending, j = i ^ k and S the sign of e_i e_j: signed is the row of
    S b_j in [b; -b; 0] (ib's rows, their negatives and a zero row for a
    dead j), and terms holds the (i, j, S < 0) of the live j."""
    ia, ib = (np.flatnonzero(np.frombuffer(m, dtype=bool)) for m in (live_a, live_b))
    cols = (np.unique(np.bitwise_xor.outer(ia, ib)) if want is None
            else np.flatnonzero(np.frombuffer(want, dtype=bool)))
    place = np.full(1 << dim, len(ib))
    place[ib] = np.arange(len(ib))
    j = cols[:, None] ^ ia
    pos, negative = place[j], product_signs(dim)[ia, j] < 0
    signed = np.where(pos < len(ib), pos + len(ib) * negative, 2 * len(ib))
    terms = tuple(tuple((i, jk, s) for i, jk, p, s in zip(ia.tolist(), *rows) if p < len(ib))
                  for rows in zip(j.tolist(), pos.tolist(), negative.tolist()))
    return (*map(_frozen, (ia, ib, cols)), _blades(dim, cols), _frozen(signed), terms)


def conj_vector_sums(left: np.ndarray, vals: Multivector, wx: np.ndarray,
                     sums: np.ndarray, buf: np.ndarray):
    """Add to sums[..., k], for each blade k, the node-order sum over one
    block of B nodes of wx * (conj(vals) l)[k], l the vector with (B, dim)
    components `left`, vals batched (B,) or constant, wx (..., B), and buf
    a (..., 2**dim, B + 1 or more) scratch block.  Blade k sums, from 0.0,
    the `_terms` (vals[k ^ e_j] S) (-l_j) of conj((-l) vals) with l_j and
    vals[k ^ e_j] live, k's conjugation sign folded into l_j; it is weighted
    into one row of buf per leading row of wx, after the running total as
    element 0, and np.add.accumulate sums the row in node order: the bits
    of `geometric_product`'s blades conjugated, weighted and added node
    after node (a folded sign flips only zeros, which a running total never
    -0.0 absorbs).  vals' live blades are its carried ones, else a scan's;
    an inf or NaN in l makes every blade of vals live, and one in wx forms
    every blade, as inf * 0 is NaN."""
    dim, comps = left.shape[-1], np.ascontiguousarray(left.T)
    live_b = (vals.live or _live(vals.coeffs)) if np.isfinite(comps).all() else b"\x01" * (1 << dim)
    live_l = _blades(dim, (1 << np.arange(dim))[comps.any(axis=1)])
    _, _, cols, _, _, terms = _terms(dim, live_l, live_b,
                                     None if np.isfinite(wx).all() else b"\x01" * (1 << dim))
    count, signed, conj = len(left), (comps, -comps), _involution_signs(dim, 1).tolist()
    acc, term = np.empty((2, count))
    part = buf[..., :len(cols), :count + 1]
    part[..., 0] = sums[..., cols]
    for r, (k, col_terms) in enumerate(zip(cols.tolist(), terms)):
        acc.fill(0.0)
        for i, m, negative in col_terms:
            l_j = signed[(conj[k] < 0) == negative][i.bit_length() - 1]
            acc += np.multiply(vals.coeffs[..., m], l_j, out=term)
        np.multiply(wx, acc, out=part[..., r, 1:])
    np.add.accumulate(part, axis=-1, out=part)
    sums[..., cols] = part[..., count]


def _live(c: np.ndarray) -> bytes:
    """Bool bytes of the blades nonzero somewhere in c's batch (NaN counts), row by row."""
    return _rows(c).reshape(c.shape[-1], -1).any(axis=1).tobytes()


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric product in Cl(0, dim), broadcasting over batch axes.

    (a b)[k] sums (b[i ^ k] S) a[i], S the sign of e_i e_(i^k), from 0.0
    over the live blades i of a, ascending: the bits of a blade-by-blade
    accumulation (`tests/oracles.scatter_geometric_product`).  A blade is
    live where it is nonzero somewhere in the batch (NaN counts) or in a
    factor's carried set; a's set is read only where b is finite, and an
    inf or NaN in a makes every blade of b live, as 0 * inf = NaN.  Only
    the blades a live i reaches from a live j are formed (`_terms`); the
    rest are +0.0, and a finite product carries the formed ones.

    Blade-major: per block of rows, each factor's live blade rows are read,
    b's beside their negatives and a zero row; per group of output blades,
    b's signed terms are gathered as (blades, terms, rows) and one einsum
    multiplies them by a's rows and sums the terms in order, into whole
    output rows.  A factor of one row is one value per blade, broadcast
    over the block; two single rows are summed as two, as numpy sums one
    row's terms pairwise.
    """
    a._check_same(b)
    n = 1 << a.dim
    shape = np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape)
    live_a = a.live if a.live is not None and np.isfinite(b.coeffs).all() else _live(a.coeffs)
    ia, ib, cols, live, signed, _ = _terms(a.dim, live_a, b.live or _live(b.coeffs))
    if len(cols) < n and not np.isfinite(a.coeffs).all():
        ia, ib, cols, live, signed, _ = _terms(a.dim, live_a, b"\x01" * n)
    ca, cb = (c.reshape(n) if c.size == n else _rows(c if c.shape == shape else np.broadcast_to(
        c, shape)).reshape(n, -1) for c in (a.coeffs, b.coeffs))
    cb = np.stack((cb, cb), axis=1) if ca.ndim == cb.ndim == 1 else cb
    count = (cb if ca.ndim == 1 else ca).shape[1]
    out = (np.empty if len(cols) == n else np.zeros)((n, count))
    blocks = -(-count // (_BLOCK // max(len(ia), len(ib), len(cols), 1))) if len(cols) else 0
    bounds = [count * k // max(blocks, 1) for k in range(blocks + 1)]
    dest, finite = slice(None) if len(cols) == n else cols, True
    for start, stop in zip(bounds, bounds[1:]):
        rows_a = ca[ia, None] if ca.ndim == 1 else ca[ia, start:stop]
        rows_b = np.empty((2 * len(ib) + 1, stop - start))
        rows_b[:len(ib)] = cb[ib, None] if cb.ndim == 1 else cb[ib, start:stop]
        np.multiply(rows_b[:len(ib)], -1.0, out=rows_b[len(ib):-1])
        rows_b[-1] = 0.0
        group = max(_BLOCK // (len(ia) * (stop - start)), 1)
        terms, sums = np.empty((group, len(ia), stop - start)), np.empty((len(cols), stop - start))
        for k in range(0, len(cols), group):
            part = terms[:len(cols) - k]
            rows_b.take(signed[k:k + group], axis=0, out=part, mode="clip")
            np.einsum("gtr,tr->gr", part, rows_a, out=sums[k:k + group])
        finite = finite and np.isfinite(sums).all()
        out[dest, start:stop] = sums
    product = Multivector(a.dim, _coeffs(out[:, :math.prod(shape[:-1])]).reshape(shape), copy=False)
    return product._carry(live) if finite else product


def vector_inverse(x: Multivector) -> Multivector:
    """Inverse of a nonzero grade-1 element: x**-1 = -x / |x|^2."""
    with np.errstate(over="ignore"):
        n2 = square_sum(x.vector_part())
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
    return _lipschitz_inverse(g, square_sum(g.coeffs, g.live))


def _lipschitz_inverse(g: Multivector, n2: np.ndarray) -> Multivector:
    """`lipschitz_element_inverse` of g, given n2 = square_sum of g's coefficients."""
    if np.any(n2 <= 0.0):
        raise SingularElementError("inverse of zero element")
    inv = Multivector(g.dim, g.conjugation().coeffs / n2[..., None], copy=False)
    resid = geometric_product(g, inv) - Multivector.scalar(g.dim, np.ones(inv.batch_shape))
    if not np.all(resid.norm() <= 1e-9):  # a NaN residual is refused too
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
        return reduce(geometric_product, self.factors)

    def norm(self) -> float:
        return float(np.prod([float(f.norm()) for f in self.factors]))

    def is_unit(self) -> bool:
        return all(abs(float(f.norm()) - 1.0) <= 1e-12 for f in self.factors)

    def inverse(self) -> Multivector:
        """Product of the factor inverses in reverse order."""
        return reduce(geometric_product, map(vector_inverse, reversed(self.factors)))


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


def vector_sandwich(u: Multivector, *vectors) -> np.ndarray:
    """(len(vectors), n) + batch: the vector part of u w reversion(u) for a
    finite u and each vector w (n components broadcast to u's batch), with
    the bits of `pin_action(u, w).vector_part()` on grade-1 columns only:
    each blade of u w, then each e_i, sums its live `_terms` from 0.0."""
    c = _rows(u.coeffs)
    if not np.isfinite(c).all():
        raise AlgebraError("vector_sandwich needs a finite u")
    live, rev = _live(u.coeffs), _involution_signs(u.dim, -1)
    out = np.zeros((len(vectors), u.dim) + c.shape[1:])
    for w, rows in zip(vectors, out):
        _, _, cols, reach, _, first = _terms(
            u.dim, live, _blades(u.dim, [1 << k for k in range(u.dim) if np.any(w[k])]))
        uw = {}
        for l, terms in zip(cols.tolist(), first):
            uw[l] = acc = np.zeros(c.shape[1:])
            for m, e_k, negative in terms:
                (np.subtract if negative else np.add)(acc, w[e_k.bit_length() - 1] * c[m], out=acc)
        second = _terms(u.dim, reach, live, (blade_grades(u.dim) == 1).tobytes())[-1]
        for i, terms in enumerate(second):
            row = rows[i, ...]  # a view even when the batch is empty
            for l, m, negative in terms:
                (np.subtract if negative != (rev[m] < 0) else np.add)(row, c[m] * uw[l], out=row)
    return out


def parity(g: Multivector) -> int:
    """+1 for an even-graded element, -1 for odd, 0 for mixed/zero.

    Lipschitz group elements are always homogeneous in parity, so this
    reads the factor-count parity off the coefficients.
    """
    even, odd = (np.sqrt(np.sum(square_sum(g.coeffs, (blade_grades(g.dim) % 2 == r).tobytes())))
                 for r in (0, 1))
    scale = max(even, odd)
    if scale == 0.0:
        return 0
    if odd <= 1e-12 * scale:
        return 1
    if even <= 1e-12 * scale:
        return -1
    return 0
