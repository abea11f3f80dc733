"""Masked geometric multigrid for the lattice Laplacian.

The lattice solver preconditions its Newton steps with one V-cycle of the
p = 2 Hessian, 2 h^(n-2) (2n - the sum of the 2n lattice shifts), on the
interior nodes of a box or a staircase region.  Everything here acts on a
boolean node mask and a spacing, with arrays of the mask's grid shape; a
trailing axis beyond the grid axes, such as blade coefficients, rides
along, so a Clifford field is cycled blade by blade.  References: Briggs,
Henson & McCormick, A Multigrid Tutorial (2000); Bermejo & Infante,
SIAM J. Sci. Comput. 21 (2000).
"""

from __future__ import annotations

import numpy as np

SWEEPS = 2  # damped-Jacobi sweeps before and after each coarse correction
COARSEST = 400  # the most unknowns the coarsest level solves densely


def neighbors(ndim: int, axis: int, step: int):
    """Index pair (here, there) of an ndim-axis grid: a[there] holds the
    values at x + step*h*e_axis of the nodes a[here], which are the nodes
    whose neighbor lies on the grid."""
    here, there = [slice(None)] * ndim, [slice(None)] * ndim
    here[axis], there[axis] = ((slice(None, -step), slice(step, None)) if step > 0
                               else (slice(-step, None), slice(None, step)))
    return tuple(here), tuple(there)


def laplacian(x: np.ndarray, mask: np.ndarray, h: float) -> np.ndarray:
    """2 h^(n-2) (2n x - the sum of the 2n lattice neighbors of x) on the
    nodes of mask and zero elsewhere: for x zero off the mask, the masked
    Hessian of the p = 2 lattice energy."""
    dim = mask.ndim
    y = 2.0 * dim * x
    for axis in range(dim):
        for step in (+1, -1):
            here, there = neighbors(dim, axis, step)
            y[here] -= x[there]
    y *= 2.0 * h ** (dim - 2)
    y[~mask] = 0.0
    return y


def prolong(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Multilinear interpolation onto the grid of half the spacing whose
    nodes 2J are the coarse nodes J, cropped to the fine `shape`."""
    for axis, side in enumerate(shape):
        x = np.moveaxis(x, axis, 0)
        fine = np.empty((2 * len(x) - 1,) + x.shape[1:])
        fine[0::2] = x
        fine[1::2] = 0.5 * (x[:-1] + x[1:])
        x = np.moveaxis(fine[:side], 0, axis)
    return x


def restrict(x: np.ndarray, shape: tuple) -> np.ndarray:
    """The transpose of prolong: the fine grid, padded with a zero rim to
    odd sides, onto the coarse `shape`."""
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


def vcycle(mask: np.ndarray, h: float):
    """Returns g -> B g, one V-cycle for laplacian on `mask`: symmetric
    positive definite on the masked nodes and zero off them.  Each level
    injects the mask of the one above, its even sides padded with a
    masked-off rim, and smooths with damped Jacobi before and after the
    coarse correction, which moves through prolong and its transpose
    restrict.  The coarsest level, of at most COARSEST unknowns, is solved
    densely."""
    dim = mask.ndim
    masks, spacings = [mask], [h]
    while np.count_nonzero(masks[-1]) > COARSEST:
        pad = [(0, 1 - side % 2) for side in masks[-1].shape]
        masks.append(np.pad(masks[-1], pad)[(slice(None, None, 2),) * dim])
        spacings.append(2.0 * spacings[-1])
    # the dense operator of the coarsest level: laplacian of the unit
    # vector of each of its unknowns, carried on a trailing axis
    coarsest = masks[-1]
    units = np.zeros(coarsest.shape + (np.count_nonzero(coarsest),))
    units[coarsest] = np.eye(units.shape[-1])
    inverse = np.linalg.inv(laplacian(units, coarsest, spacings[-1])[coarsest])
    inverse += inverse.T
    inverse *= 0.5
    # the Jacobi weight 2n/(2n + 1) over the diagonal 4n h^(n-2)
    jacobi = [0.5 / ((2 * dim + 1) * s ** (dim - 2)) for s in spacings]

    def cycle(level, r):
        fine, s = masks[level], spacings[level]
        if level == len(masks) - 1:
            x = np.zeros_like(r)
            x[fine] = inverse @ r[fine]
            return x

        def residual(x):
            y = laplacian(x, fine, s)
            return np.subtract(r, y, out=y)

        x = jacobi[level] * r
        for _ in range(SWEEPS - 1):
            x += jacobi[level] * residual(x)
        coarse = masks[level + 1]
        r_c = restrict(residual(x), coarse.shape)
        r_c[~coarse] = 0.0
        e = prolong(cycle(level + 1, r_c), fine.shape)
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
