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
