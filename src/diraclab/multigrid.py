"""Masked geometric multigrid for the lattice Laplacian.

The lattice solver preconditions its Newton steps with one V-cycle of the
p = 2 Hessian, 2 h^(n-2) (2n - the sum of the 2n lattice shifts), on the
interior nodes of a box or a staircase region.  Everything here acts on a
boolean node mask and a spacing, with arrays of the mask's grid shape; a
trailing axis beyond the grid axes, such as blade coefficients, rides
along, so a Clifford field is cycled blade by blade.  References: Briggs,
Henson & McCormick, A Multigrid Tutorial (2000); Bermejo & Infante,
SIAM J. Sci. Comput. 21 (2000).

Fields are raveled: the grid axes join into the first, a neighbor sits a
flat offset away, and each stencil moves contiguous one-dimensional
slices.  Such a slice wraps into the next grid row only from rim nodes,
whose neighbor is off the grid; the kernels set those lanes to exactly
0.0, as slices of the grid axes leave them.
"""

from __future__ import annotations

import math

import numpy as np

SWEEPS = 2  # damped-Jacobi sweeps before and after each coarse correction
COARSEST = 400  # the most unknowns the coarsest level solves densely


class Buffers(dict):
    """Work arrays by name, allocated at first use and reused after:
    take(name, shape) views the leading entries of `name` in `shape`,
    growing it when too small.  Two callers share a name when neither
    keeps its contents across a call of the other."""

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        if name not in self or self[name].size < size:
            self[name] = np.empty(size)
        return self[name][:size].reshape(shape)


class Grid:
    """The raveled layout of a C-ordered grid: the node x + h e_axis sits
    offsets[axis] rows after x, so a[o:] - a[:-o] differences every node
    with that neighbor, and rim[axis, step] indexes the nodes without a
    neighbor at x + step h e_axis, among them the lanes that wrap into the
    next grid row."""

    def __init__(self, shape):
        self.shape, self.size = tuple(shape), math.prod(shape)
        self.offsets = [math.prod(shape[axis + 1:]) for axis in range(len(shape))]
        index = np.arange(self.size).reshape(shape)
        self.rim = {(axis, step): np.take(index, side - 1 if step > 0 else 0, axis).ravel()
                    for axis, side in enumerate(shape) for step in (+1, -1)}

    def ravel(self, a: np.ndarray) -> np.ndarray:
        """The grid-shaped a with its grid axes joined into the first."""
        return a.reshape((self.size,) + a.shape[len(self.shape):])

    def shift(self, a: np.ndarray, axis: int, step: int) -> np.ndarray:
        """The raveled a at x + step h e_axis, zero (False) off the grid."""
        o, out = self.offsets[axis], np.empty_like(a)
        if step > 0:
            out[:-o] = a[o:]
        else:
            out[o:] = a[:-o]
        out[self.rim[axis, step]] = 0
        return out


def _laplacian(x, grid: Grid, off, h: float, out: np.ndarray) -> np.ndarray:
    """laplacian of the raveled x into out, zero on the nodes `off`."""
    dim = len(grid.shape)
    np.multiply(x, 2.0 * dim, out=out)
    for o in grid.offsets:
        out[:-o] -= x[o:]
        out[o:] -= x[:-o]
    out *= 2.0 * h ** (dim - 2)
    out[off] = 0.0
    return out


def laplacian(x: np.ndarray, mask: np.ndarray, h: float) -> np.ndarray:
    """2 h^(n-2) (2n x - the sum of the 2n lattice neighbors of x) on the
    nodes of mask and zero elsewhere: for x zero off the mask, the masked
    Hessian of the p = 2 lattice energy.  As an interior mask does, the
    mask leaves the rim of the grid out."""
    grid = Grid(mask.shape)
    flat = grid.ravel(x)
    return _laplacian(flat, grid, ~mask.ravel(), h, np.empty(flat.shape)).reshape(x.shape)


def _stages(x, out, dim, work):
    """The grids before and after the transfer along each axis as (lead,
    side, rest) views: the last into out, those between into work's
    "scratch" and "stage" in turn."""
    for axis in range(dim):
        shape = out.shape[:axis + 1] + x.shape[axis + 1:]
        after = out if axis == dim - 1 else work.take(("scratch", "stage")[axis % 2], shape)
        lead = math.prod(shape[:axis])
        yield x.reshape(lead, x.shape[axis], -1), after.reshape(lead, shape[axis], -1)
        x = after


def prolong(x: np.ndarray, out: np.ndarray, dim: int, work: Buffers) -> np.ndarray:
    """Multilinear interpolation of the grid x onto `out`, the grid of half
    the spacing whose nodes 2J are the nodes J of x, cropped; axes past the
    first dim ride along."""
    for coarse, fine in _stages(x, out, dim, work):
        side = fine.shape[1]
        fine[:, 0::2] = coarse[:, :(side + 1) // 2]
        np.add(coarse[:, :side // 2], coarse[:, 1:side // 2 + 1], out=fine[:, 1::2])
        fine[:, 1::2] *= 0.5
    return out


def restrict(x: np.ndarray, out: np.ndarray, dim: int, work: Buffers) -> np.ndarray:
    """The transpose of prolong: the grid x, padded with a zero rim to odd
    sides, onto the coarse grid `out`.  Halves the odd planes of x in place."""
    for fine, coarse in _stages(x, out, dim, work):
        even = (fine.shape[1] + 1) // 2
        coarse[:, :even] = fine[:, 0::2]
        coarse[:, even:] = 0.0  # the padding rim of an even side
        half = fine[:, 1::2]
        half *= 0.5
        coarse[:, :-1] += half
        coarse[:, 1:] += half
    return out


def vcycle(mask: np.ndarray, h: float, work: Buffers = None):
    """Returns apply(g, out=None) -> B g, one V-cycle for laplacian on
    `mask`: symmetric positive definite on the masked nodes and zero off
    them, written into `out` when given.  Each level injects the mask of
    the one above, its even sides padded with a masked-off rim, and smooths
    with damped Jacobi before and after the coarse correction, which moves
    through prolong and its transpose restrict.  The coarsest level, of at
    most COARSEST unknowns, is solved densely.  The levels keep their
    arrays in `work`, the finest in its "dirac0", "dirac1" and
    "scratch", where a caller keeps nothing across calls."""
    dim = mask.ndim
    masks, spacings = [mask], [h]
    while np.count_nonzero(masks[-1]) > COARSEST:
        pad = [(0, 1 - side % 2) for side in masks[-1].shape]
        masks.append(np.pad(masks[-1], pad)[(slice(None, None, 2),) * dim])
        spacings.append(2.0 * spacings[-1])
    grids = [Grid(m.shape) for m in masks]
    offs = [~m.ravel() for m in masks]
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
    work = Buffers() if work is None else work

    def apply(g, out=None):
        trailing = g.shape[dim:]
        out = np.empty(g.shape) if out is None else out
        # the raveled residual r, iterate x and work array y of each level
        sizes = [(grid.size,) + trailing for grid in grids]
        r = [work.take(f"r{k}" if k else "dirac0", size) for k, size in enumerate(sizes)]
        y = [work.take(f"y{k}" if k else "dirac1", size) for k, size in enumerate(sizes)]
        x = [grids[0].ravel(out)] + [work.take(f"x{k}", size)
                                     for k, size in enumerate(sizes[1:], 1)]

        def residual(k):
            _laplacian(x[k], grids[k], offs[k], spacings[k], y[k])
            return np.subtract(r[k], y[k], out=y[k])

        def smooth(k, sweeps):
            for _ in range(sweeps):
                x[k] += np.multiply(residual(k), jacobi[k], out=y[k])

        np.copyto(r[0], grids[0].ravel(g))
        r[0][offs[0]] = 0.0
        for k in range(len(grids) - 1):
            np.multiply(r[k], jacobi[k], out=x[k])
            smooth(k, SWEEPS - 1)
            restrict(residual(k).reshape(grids[k].shape + trailing),
                     r[k + 1].reshape(grids[k + 1].shape + trailing), dim, work)
            r[k + 1][offs[k + 1]] = 0.0
        x[-1].fill(0.0)
        x[-1][coarsest.ravel()] = inverse @ r[-1][coarsest.ravel()]
        for k in reversed(range(len(grids) - 1)):
            prolong(x[k + 1].reshape(grids[k + 1].shape + trailing),
                    y[k].reshape(grids[k].shape + trailing), dim, work)
            y[k][offs[k]] = 0.0
            x[k] += y[k]
            smooth(k, SWEEPS)
        return out

    return apply
