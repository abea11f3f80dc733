"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with a different algorithm from the
package code (index lists and bubble sorts instead of bitmask tables) so the
tests cross two unrelated code paths.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def mask_to_indices(mask: int) -> tuple:
    """Bitmask blade -> ascending tuple of 1-based generator indices."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def indices_to_mask(indices) -> int:
    m = 0
    for j in indices:
        m |= 1 << (j - 1)
    return m


def blade_product_oracle(a_indices, b_indices):
    """(sign, sorted index tuple) for a blade product in Cl(0, n).

    Concatenates the factor lists, bubble-sorts with a -1 per adjacent
    transposition, then cancels equal adjacent pairs with e_j * e_j = -1.
    """
    seq = list(a_indices) + list(b_indices)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign = -sign  # e_j e_j = -1
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return sign, tuple(out)


def reversion_sign_oracle(indices) -> int:
    """Sign acquired by writing a blade's factors in reverse order."""
    seq = list(reversed(indices))
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    return sign


def dict_geometric_product(a: dict, b: dict) -> dict:
    """Sparse dict-of-masks product built on the index-list oracle."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            s, idx = blade_product_oracle(mask_to_indices(ma), mask_to_indices(mb))
            m = indices_to_mask(idx)
            out[m] = out.get(m, 0.0) + s * ca * cb
    return {m: c for m, c in out.items() if c != 0.0}


def mv_to_dict(mv) -> dict:
    return {m: float(c) for m, c in enumerate(mv.coeffs) if c != 0.0}


def dict_to_coeffs(d: dict, dim: int) -> np.ndarray:
    c = np.zeros(1 << dim)
    for m, v in d.items():
        c[m] = v
    return c


def fd_jacobian(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of fn: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


@lru_cache(maxsize=None)
def _oracle_signs(dim: int) -> np.ndarray:
    """(2**dim, 2**dim) blade-product signs from the swap-sort oracle."""
    n = 1 << dim
    return np.array([[blade_product_oracle(mask_to_indices(i), mask_to_indices(j))[0]
                      for j in range(n)] for i in range(n)], dtype=float)


def scatter_geometric_product(ca, cb, dim: int) -> np.ndarray:
    """The blade-by-blade scatter product on coefficient arrays: for each
    blade i of a that is nonzero anywhere in its batch, add a_i * (e_i b)
    into the permuted output coefficients.  The gather kernel must agree
    with it to the bit."""
    n = 1 << dim
    signs = _oracle_signs(dim)
    out = np.zeros(np.broadcast_shapes(ca.shape, cb.shape))
    idx = np.arange(n)
    for i in range(n):
        ai = ca[..., i]
        if not np.any(ai):
            continue
        # i ^ idx is a permutation of the blade indices, so fancy-index
        # accumulation has no duplicate targets.
        out[..., i ^ idx] += ai[..., None] * (signs[i] * cb)
    return out


def node_blocks(nodes, w):
    """(x, w) blocks of whole node and weight arrays, sliced in node order
    into the weak pairing's block size, as a rule's stream yields them; w
    may carry leading axes."""
    from diraclab.weakform import _BLOCK

    for start in range(0, len(nodes), _BLOCK):
        yield nodes[start:start + _BLOCK], w[..., start:start + _BLOCK]


def joined(blocks):
    """All nodes and weights of a block stream, concatenated."""
    nodes, w = zip(*blocks)
    return np.concatenate(nodes), np.concatenate(w, axis=-1)


def cr_pairing_oracle(flux, center, radius, coefficient, nodes, w):
    """Whole-rule sums R = sum w conj(F) dxi/dz and N = sum w |F| |dxi/dz|
    for xi = c exp(-1/(1 - t)), t = |z - z0|^2 / r^2, over the (M, 2) nodes
    at once, with the closed form dxi/dz = c phi'(t) / r^2 conj(z - z0)."""
    z = nodes[:, 0] + 1j * nodes[:, 1]
    d = z - center
    t = np.abs(d) ** 2 / radius**2
    inside = t < 1.0
    s = 1.0 / (1.0 - t[inside])
    dphi = np.zeros_like(t)
    dphi[inside] = -np.exp(-s) * s * s
    dxi = coefficient * dphi / radius**2 * np.conj(d)
    vals = flux(z)
    return complex(np.sum(w * np.conj(vals) * dxi)), float(np.sum(w * np.abs(vals) * np.abs(dxi)))


# ------------------------------------------------- slice-based lattice stencils
#
# The lattice kernels of diraclab.solver and diraclab.multigrid as they were
# written on grid-shaped arrays: every shift is a pair of slice tuples over
# the grid axes, so a node whose neighbor is off the grid is never touched.
# The package runs the same arithmetic on raveled arrays with flat offsets.


def neighbors(ndim: int, axis: int, step: int):
    """Index pair (here, there) of an ndim-axis grid: a[there] holds the
    values at x + step*h*e_axis of the nodes a[here], which are the nodes
    whose neighbor lies on the grid."""
    here, there = [slice(None)] * ndim, [slice(None)] * ndim
    here[axis], there[axis] = ((slice(None, -step), slice(step, None)) if step > 0
                               else (slice(-step, None), slice(None, step)))
    return tuple(here), tuple(there)


def slice_laplacian(x, mask, h):
    """2 h^(n-2) (2n x - the sum of the 2n lattice neighbors of x) on the
    nodes of mask and zero elsewhere."""
    dim = mask.ndim
    y = 2.0 * dim * x
    for axis in range(dim):
        for step in (+1, -1):
            here, there = neighbors(dim, axis, step)
            y[here] -= x[there]
    y *= 2.0 * h ** (dim - 2)
    y[~mask] = 0.0
    return y


def slice_dirac(values, dom, orientation):
    """D_h v on the grid: the array sum_j e_j d_j of a Clifford field, the
    list of the one-sided differences d_j of a scalar one."""
    from diraclab.algebra import _gather_table

    diffs = []
    for axis in range(dom.dim):
        here, there = neighbors(dom.dim, axis, orientation)
        ahead, behind = (there, here) if orientation > 0 else (here, there)
        d = np.zeros_like(values)
        np.subtract(values[ahead], values[behind], out=d[here])
        d /= dom.h
        diffs.append(d)
    if values.ndim == dom.dim:
        return diffs
    perm, signs = _gather_table(dom.dim)
    dirac = np.zeros_like(values)
    for j, d in enumerate(diffs):
        dirac += signs[1 << j] * d[..., perm[1 << j]]
    return dirac


def _slice_inner(a, b):
    if isinstance(a, np.ndarray):
        return np.sum(a * b, axis=-1)
    out = np.zeros_like(a[0])
    for x, y in zip(a, b):
        out += x * y
    return out


def slice_divergence(dom, orientation, weighted, out):
    """Adds sum_j orientation (F_j(y) - F_j(y - orientation h e_j)) to out
    for the fluxes F_j = e_j W of the weighted Dirac vector W."""
    from diraclab.algebra import _gather_table

    clifford = isinstance(weighted, np.ndarray)
    if clifford:
        perm, signs = _gather_table(dom.dim)
        fluxes = (signs[1 << j] * weighted[..., perm[1 << j]] for j in range(dom.dim))
    else:
        fluxes = weighted
    for axis, flux in enumerate(fluxes):
        here, there = neighbors(dom.dim, axis, -orientation)
        if (orientation > 0) == clifford:
            out[here] += flux[here] - flux[there]
        else:
            out[here] += flux[there] - flux[here]
    return out


def _slice_flux_weight(values, dom, p, epsilon, orientation):
    a = slice_dirac(values, dom, orientation)
    base = dom.base_mask if orientation > 0 else dom.backward_base_mask
    q = _slice_inner(a, a)[base] + epsilon**2
    psi = np.zeros(dom.shape)
    psi[base] = q ** ((p - 2.0) / 2.0)
    return a, q, psi


def slice_energy_gradient(values, dom, p, epsilon):
    """The average of the two one-sided gradients of the lattice energy."""
    sides = []
    for orientation in (+1, -1):
        a, _, psi = _slice_flux_weight(values, dom, p, epsilon, orientation)
        weighted = psi[..., None] * a if values.ndim > dom.dim else [psi * d for d in a]
        grad = slice_divergence(dom, orientation, weighted, np.zeros_like(values))
        grad *= p * dom.h ** (dom.dim - 1)
        grad[~dom.interior_mask] = 0.0
        sides.append(grad)
    return 0.5 * (sides[0] + sides[1])


def slice_hessian_product(values, dom, p, epsilon, v):
    """H v for the Hessian of the lattice energy at values."""
    out = np.zeros_like(v)
    for orientation in (+1, -1):
        a, q, psi = _slice_flux_weight(values, dom, p, epsilon, orientation)
        base = dom.base_mask if orientation > 0 else dom.backward_base_mask
        root = np.zeros(dom.shape)
        root[base] = np.sqrt(np.divide(abs(p - 2.0) * psi[base], q,
                                       out=np.zeros_like(q), where=q > 0))
        clifford = isinstance(a, np.ndarray)
        c = root[..., None] * a if clifford else [root * d for d in a]
        b = slice_dirac(v, dom, orientation)
        cb = np.sign(p - 2.0) * _slice_inner(c, b)
        if clifford:
            b *= psi[..., None]
            b += cb[..., None] * c
        else:
            for x, y in zip(c, b):
                y *= psi
                y += cb * x
        slice_divergence(dom, orientation, b, out)
    out *= p * dom.h ** (dom.dim - 1) / 2
    out[~dom.interior_mask] = 0.0
    return out


def _slice_prolong(x, shape):
    for axis, side in enumerate(shape):
        x = np.moveaxis(x, axis, 0)
        fine = np.empty((2 * len(x) - 1,) + x.shape[1:])
        fine[0::2] = x
        fine[1::2] = 0.5 * (x[:-1] + x[1:])
        x = np.moveaxis(fine[:side], 0, axis)
    return x


def _slice_restrict(x, shape):
    for axis, side in enumerate(shape):
        x = np.moveaxis(x, axis, 0)
        if len(x) < 2 * side - 1:
            x = np.concatenate([x, np.zeros((1,) + x.shape[1:])])
        half = 0.5 * x[1::2]
        coarse = x[0::2].copy()
        coarse[:-1] += half
        coarse[1:] += half
        x = np.moveaxis(coarse, 0, axis)
    return x


def slice_vcycle(mask, h):
    """g -> B g, the masked multigrid V-cycle on grid-shaped arrays, with
    prolongation and restriction moving each axis to the front in turn."""
    from diraclab.multigrid import COARSEST, SWEEPS

    dim = mask.ndim
    masks, spacings = [mask], [h]
    while np.count_nonzero(masks[-1]) > COARSEST:
        pad = [(0, 1 - side % 2) for side in masks[-1].shape]
        masks.append(np.pad(masks[-1], pad)[(slice(None, None, 2),) * dim])
        spacings.append(2.0 * spacings[-1])
    coarsest = masks[-1]
    units = np.zeros(coarsest.shape + (np.count_nonzero(coarsest),))
    units[coarsest] = np.eye(units.shape[-1])
    inverse = np.linalg.inv(slice_laplacian(units, coarsest, spacings[-1])[coarsest])
    inverse += inverse.T
    inverse *= 0.5
    jacobi = [0.5 / ((2 * dim + 1) * s ** (dim - 2)) for s in spacings]

    def cycle(level, r):
        fine, s = masks[level], spacings[level]
        if level == len(masks) - 1:
            x = np.zeros_like(r)
            x[fine] = inverse @ r[fine]
            return x

        def residual(x):
            y = slice_laplacian(x, fine, s)
            return np.subtract(r, y, out=y)

        x = jacobi[level] * r
        for _ in range(SWEEPS - 1):
            x += jacobi[level] * residual(x)
        coarse = masks[level + 1]
        r_c = _slice_restrict(residual(x), coarse.shape)
        r_c[~coarse] = 0.0
        e = _slice_prolong(cycle(level + 1, r_c), fine.shape)
        e[~fine] = 0.0
        x += e
        for _ in range(SWEEPS):
            x += jacobi[level] * residual(x)
        return x

    def apply(g):
        r = g.copy()
        r[~mask] = 0.0
        return cycle(0, r)

    return apply
