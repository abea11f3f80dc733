"""Lattice minimization of the p-Dirichlet energy with Dirichlet data.

The energy is the average of the forward and backward one-sided
energies.  Each is a sum over its base nodes of h^n (|D_h u|^2 + eps^2)^(p/2)
with D_h a one-sided-difference Dirac operator
sum_j e_j (u(x + h e_j) - u(x))/h (forward; the backward operator
differences against x - h e_j).  Base nodes are the lattice nodes whose
whole one-sided stencil stays inside the node set; on a box this makes
every lattice edge that touches an unknown appear exactly once, so the
first-order conditions at interior nodes are the symmetric
(2n+1)-point stencils and discrete harmonic quadratics are exact
critical points.  (Summing over interior nodes only would drop edges
based at the lower boundary and bias the stencils by O(h) there.)

The energy averages the two orientations because either one-sided energy
alone is only O(h)-consistent for p != 2: the nonlinear weight couples
the n one-sided differences based at a node, so the discrete flux lives
on half-edges to one side of it (error ratios measured at 1.9x per mesh
halving on a smooth box benchmark).  In the average the leading bias
terms cancel by reflection, and the same benchmark converges at second
order (ratios 4.0x).  In two dimensions the average is exactly the
piecewise-linear finite-element energy on the lattice triangulated by
splitting each cell along the north-west diagonal: the forward cluster at
a node is the gradient on the lower triangle of its cell, the backward
cluster the gradient on the upper one.  For p = 2 the quadratic energy
splits over edges, both orientations count every edge that touches an
unknown exactly once, and the average and either one-sided energy have
identical minimizers and five-point stencils.

Scalar Dirichlet data is solved in the scalar representation.  Restricted
to scalar fields the Dirac energy is the classical p-Dirichlet form, and
its minimizers are the discrete p-harmonic functions; over the full
algebra the gradient of the nonlinear energy acquires bivector components
(the discrete curl of |grad u|^(p-2) grad u, which vanishes only for
p = 2 or radial data), so the scalar sector is preserved by restriction,
not by the full-space flow.

The optimizer runs truncated Newton-CG on each continuation stage
(Nocedal & Wright, Numerical Optimization, ch. 7).  The Hessian-vector
product has a closed form whose weights are frozen once per Newton step.
The inner conjugate gradient stops at the Eisenstat-Walker forcing term
and is preconditioned by one V-cycle of a masked geometric multigrid for
the p = 2 Hessian, the Laplacian on the interior nodes.  At p = 2 the
Newton model is exact.  Steps halve until the energy decreases
sufficiently; the decrease is summed from each term's own change, which
resolves it far below the rounding noise of the energy.  The energy is
convex for p > 1 (the integrand is a convex radial function of a linear
map of u), so the Hessian is positive semidefinite.

For p < 2 the solve starts from the discrete p = 2 minimizer of the same
boundary data, which the exact Newton model reaches in two steps, and
then steps the regularization by decades, 1e-1, 1e-2 and 1e-3, down to
the configured epsilon.  Every stage but the last only seeds the next and
stops at max(tol, 1e-2 h^n).  The cost then stays flat under refinement:
on the annulus at p = 1.5, epsilon = 1e-6 a solve takes 11 Newton steps
at every h from 1/16 to 1/128, at most 3 per regularization stage, with
32, 39, 43 and 49 Hessian products in all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, _gather_table
from .multigrid import Buffers, Grid, laplacian, vcycle


class SolverError(ValueError):
    """Contract violation in the lattice solver layer."""


# ------------------------------------------------------------------ domains


@dataclass(frozen=True)
class LatticeDomain:
    """Axis-aligned lattice restricted to a box or an annulus.

    node_mask flags lattice points inside the region; interior nodes have
    all 2n neighbors in the node set (everything else in the node set is
    boundary and stays fixed); base nodes own a complete forward stencil
    and carry the forward energy terms, backward base nodes mirror them
    for the backward half of the averaged energy.
    """

    dim: int
    lo: tuple
    shape: tuple
    h: float
    node_mask: np.ndarray
    region: str

    def __post_init__(self):
        try:
            volume = self.h**self.dim  # the cell volume that weights every energy term
        except OverflowError:
            raise SolverError(f"the cell volume h^{self.dim} overflows at h = {self.h:g}") from None
        if volume < np.finfo(float).tiny:
            raise SolverError(f"the cell volume h^{self.dim} underflows at h = {self.h:g}")
        # A node is interior (an unknown) only if every energy cluster
        # containing it is complete: besides the 2n lattice neighbors this
        # needs the mixed diagonals x - h e_j + h e_k, which the one-sided
        # clusters carried by the neighbors reach.  On a box the extra
        # condition is implied by the neighbor one.  On a staircase region
        # it trims the unknowns next to notches; without the trim those
        # nodes see first-order conditions with fluxes missing, an O(1)
        # local defect that degrades the global error to roughly O(h).
        grid = Grid(self.shape)
        mask = self.node_mask.ravel()
        base, back, interior = mask.copy(), mask.copy(), mask.copy()
        for aj in range(self.dim):
            base &= grid.shift(mask, aj, +1)
            back &= grid.shift(mask, aj, -1)
            for ak in range(self.dim):
                if aj != ak:
                    interior &= grid.shift(grid.shift(mask, aj, -1), ak, +1)
        interior &= base & back
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "interior_mask", interior.reshape(self.shape))
        object.__setattr__(self, "base_mask", base.reshape(self.shape))
        object.__setattr__(self, "backward_base_mask", back.reshape(self.shape))
        object.__setattr__(self, "boundary_mask", self.node_mask & ~self.interior_mask)
        if not interior.any():
            raise SolverError("the lattice has no interior nodes")

    @classmethod
    def box(cls, lo, hi, h: float) -> "LatticeDomain":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise SolverError("box corners must be vectors of equal length")
        if not np.isfinite([lo, hi]).all():
            raise SolverError("box corners must be finite")
        if not h > 0:
            raise SolverError("spacing must be positive")
        counts = (hi - lo) / h
        rounded = np.round(counts)
        if np.any(np.abs(counts - rounded) > 1e-9) or np.any(rounded < 2):
            raise SolverError("box sides must be positive multiples of the spacing")
        shape = tuple(int(c) + 1 for c in rounded)
        return cls(len(lo), tuple(lo), shape, float(h),
                   np.ones(shape, dtype=bool), "box")

    @classmethod
    def annulus(cls, inner: float, outer: float, h: float) -> "LatticeDomain":
        if not 0 < inner < outer:
            raise SolverError("annulus radii must satisfy 0 < inner < outer")
        if not h > 0:
            raise SolverError("spacing must be positive")
        half = int(np.floor(outer / h + 1e-9))
        lo = (-half * h,) * 2
        shape = (2 * half + 1,) * 2
        coords = np.stack(
            np.meshgrid(*(np.arange(s) * h + l for s, l in zip(shape, lo)),
                        indexing="ij"),
            axis=-1,
        )
        radii = np.linalg.norm(coords, axis=-1)
        mask = (radii >= inner - 1e-12) & (radii <= outer + 1e-12)
        return cls(2, lo, shape, float(h), mask, "annulus")

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape self.shape + (dim,)."""
        axes = [np.arange(s) * self.h + l for s, l in zip(self.shape, self.lo)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @property
    def interior_count(self) -> int:
        return int(np.count_nonzero(self.interior_mask))

    @property
    def base_count(self) -> int:
        return int(np.count_nonzero(self.base_mask))


# ------------------------------------------------------------------- fields


@dataclass(frozen=True)
class LatticeField:
    """Scalar or Clifford-coefficient values on every lattice node.

    Scalar fields store an array of the grid shape; Clifford fields append
    a trailing axis of 2^dim blade coefficients.
    """

    domain: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        grid, blades = self.domain.shape, (1 << self.domain.dim,)
        v = np.asarray(self.values, dtype=float)
        if v.shape not in (grid, grid + blades):
            raise SolverError(f"values shape {v.shape} matches neither {grid} nor {grid + blades}")
        object.__setattr__(self, "values", v)

    @property
    def is_clifford(self) -> bool:
        return self.values.ndim == len(self.domain.shape) + 1

    @classmethod
    def zeros(cls, domain: LatticeDomain, clifford: bool = False) -> "LatticeField":
        shape = domain.shape + ((1 << domain.dim,) if clifford else ())
        return cls(domain, np.zeros(shape))

    @classmethod
    def from_function(cls, domain: LatticeDomain, fn) -> "LatticeField":
        """Sample fn on all nodes; fn maps (N, dim) points to either a
        scalar array or a batched Multivector."""
        pts = domain.coordinates().reshape(-1, domain.dim)
        out = fn(pts)
        if isinstance(out, Multivector):
            vals = out.coeffs.reshape(domain.shape + (1 << domain.dim,))
        else:
            vals = np.asarray(out, dtype=float).reshape(domain.shape)
        return cls(domain, vals)

    def interior_values(self) -> np.ndarray:
        return self.values[self.domain.interior_mask]

    def scalar_component(self) -> np.ndarray:
        return self.values[..., 0] if self.is_clifford else self.values


# ------------------------------------------------------- energy and gradient


_ORIENTATIONS = (+1, -1)


def _base_mask_for(domain: LatticeDomain, orientation: int) -> np.ndarray:
    return (domain.base_mask if orientation > 0 else domain.backward_base_mask).ravel()


def _dirac(values: np.ndarray, dom: LatticeDomain, orientation: int, work, out):
    """D_h v of the raveled values from the forward (v(x + h e) - v(x))/h or
    backward (v(x) - v(x - h e))/h differences d_j, zero where the neighbor
    is off the grid (the base masks remove them): the array sum_j e_j d_j of
    a Clifford field, the list of the d_j of a scalar one, in the arrays
    "dirac0", "dirac1", ... of the buffers `out`; temporaries go to work."""
    grid, clifford = dom.grid, values.ndim > 1
    diffs = [out.take(f"dirac{j}", values.shape) for j in range(1 if clifford else dom.dim)]
    if clifford:
        # row 1 << j of the gather tables gives e_j A = signs * A[..., perm]
        perm, signs = _gather_table(dom.dim)
        d, term = work.take("scratch", values.shape), work.take("flux", values.shape)
        dirac = diffs[0]
        dirac.fill(0.0)
    for axis in range(dom.dim):
        d, o = d if clifford else diffs[axis], grid.offsets[axis]
        # v(x + h e) - v(x) for every x with that neighbor, stored at x or x + h e
        np.subtract(values[o:], values[:-o], out=d[:-o] if orientation > 0 else d[o:])
        d[grid.rim[axis, orientation]] = 0.0
        d /= dom.h
        if clifford:
            dirac += np.multiply(np.take(d, perm[1 << axis], axis=-1, out=term, mode="clip"),
                                 signs[1 << axis], out=term)
    return dirac if clifford else diffs


def _inner(a, b, work) -> np.ndarray:
    """Nodewise scalar product of two values of _dirac, in work's "node".
    For Clifford fields the cross terms between the axes of D_h u =
    sum_j e_j d_j do not vanish (they do for scalar fields, whose e_j d_j
    are orthogonal)."""
    product = work.take("scratch", a.shape if isinstance(a, np.ndarray) else a[0].shape)
    out = work.take("node", product.shape[:1])
    if isinstance(a, np.ndarray):
        return np.sum(np.multiply(a, b, out=product), axis=-1, out=out)
    out.fill(0.0)
    for x, y in zip(a, b):
        out += np.multiply(x, y, out=product)
    return out


def _scale(a, weight: np.ndarray):
    """a, a value of _dirac, times the nodewise weight in place."""
    for d in [a] if isinstance(a, np.ndarray) else a:
        d *= weight[:, None] if d.ndim > 1 else weight
    return a


def _validate_exponents(p: float, epsilon: float):
    if not p > 1:
        raise SolverError("the exponent p must exceed 1")
    if not np.isfinite(p):
        raise SolverError(f"the exponent p must be finite, got {p}")
    if not np.isfinite(epsilon):
        raise SolverError(f"the regularization epsilon must be finite, got {epsilon}")
    if epsilon < 0:
        raise SolverError("the regularization must be nonnegative")


def _energy_terms(u: LatticeField, p: float, epsilon: float, work) -> np.ndarray:
    """Per-node energy terms as a flat array whose plain sum is the energy."""
    weight = u.domain.h**u.domain.dim / len(_ORIENTATIONS)
    parts = []
    for orientation in _ORIENTATIONS:
        a = _dirac(u.domain.grid.ravel(u.values), u.domain, orientation, work, work)
        base = _base_mask_for(u.domain, orientation)
        with np.errstate(over="ignore"):
            parts.append(weight * (_inner(a, a, work)[base] + epsilon**2) ** (p / 2.0))
    return np.concatenate(parts)


def discrete_energy(u: LatticeField, p: float, epsilon: float = 0.0) -> float:
    """The average of the forward and backward one-sided energies, each a
    sum over its base nodes of h^n (|D_h u|^2 + eps^2)^(p/2).

    Either one-sided energy alone is O(h)-consistent with the p-Dirichlet
    integral for p != 2 (the flux is evaluated on half-edges on one side of
    each node); the average cancels that bias by reflection and is O(h^2).
    For p = 2 the average and both one-sided energies agree on every term
    that touches an unknown, because the quadratic energy splits over edges
    and each such edge is counted once by either orientation.
    """
    _validate_exponents(p, epsilon)
    return float(np.sum(_energy_terms(u, p, epsilon, Buffers())))


def _flux_weight(values, dom, p: float, epsilon: float, orientation: int, work, out):
    """(a, q, psi) of one orientation of the raveled values: a = D_h u in
    the buffers `out`, q = |a|^2 + eps^2 on its base nodes and psi =
    q^((p-2)/2) on the grid, zero off those nodes, in out's "node"."""
    a = _dirac(values, dom, orientation, work, out)
    base = _base_mask_for(dom, orientation)
    q = _inner(a, a, work)[base] + epsilon**2
    with np.errstate(divide="ignore", over="ignore"):
        base_psi = q ** ((p - 2.0) / 2.0)
    if not np.all(np.isfinite(base_psi)):
        raise SolverError(f"the flux weight is not finite at a node for p = {p:g} "
                          f"and regularization {epsilon:g}")
    psi = out.take("node", base.shape)
    psi.fill(0.0)
    psi[base] = base_psi
    return a, q, psi


def _divergence(dom: LatticeDomain, orientation: int, weighted, out: np.ndarray,
                work) -> np.ndarray:
    """Adds sum_j orientation (F_j(y) - F_j(y - orientation h e_j)) to the
    raveled `out`, which holds no -0.0, for the fluxes F_j = e_j W of the
    weighted Dirac vector W: a Clifford-valued array, or the list of the
    per-axis scalar components, where e_j e_j = -1 makes F_j = -W_j."""
    grid, clifford = dom.grid, isinstance(weighted, np.ndarray)
    difference = work.take("scratch", out.shape)
    if clifford:
        perm, signs = _gather_table(dom.dim)
        flux = work.take("flux", out.shape)
    for axis in range(dom.dim):
        if clifford:
            np.take(weighted, perm[1 << axis], axis=-1, out=flux, mode="clip")
            flux *= signs[1 << axis]
        else:
            flux = weighted[axis]
        # the orientation and the sign of F_j fold into the order of the
        # subtraction; the nodes without a carrier at y - orientation h e_j
        # lie on the rim, off the interior, and add exactly 0.0
        o = grid.offsets[axis]
        ahead, behind = (flux[o:], flux[:-o]) if clifford else (flux[:-o], flux[o:])
        np.subtract(ahead, behind, out=difference[o:] if orientation > 0 else difference[:-o])
        difference[grid.rim[axis, -orientation]] = 0.0
        out += difference
    return out


def energy_gradient(u: LatticeField, p: float, epsilon: float = 0.0,
                    work=None) -> LatticeField:
    """Exact derivative of discrete_energy with respect to the interior
    node values; boundary entries are zero.  A solve passes the buffers
    `work` for its temporaries.

    Each one-sided piece is the signed divergence of the flux
    (|D_h u|^2 + eps^2)^((p-2)/2) e_j D_h u scaled by p h^(n-1); the
    gradient averages the two pieces.
    """
    _validate_exponents(p, epsilon)
    work = Buffers() if work is None else work
    dom, values = u.domain, u.domain.grid.ravel(u.values)
    sides = [np.zeros_like(values) for _ in _ORIENTATIONS]
    for orientation, grad in zip(_ORIENTATIONS, sides):
        a, _, psi = _flux_weight(values, dom, p, epsilon, orientation, work, work)
        _divergence(dom, orientation, _scale(a, psi), grad, work)
        grad *= p * dom.h ** (dom.dim - 1)
        grad[~dom.interior_mask.ravel()] = 0.0
    grad = np.add(*sides, out=sides[0])
    grad *= 0.5
    return LatticeField(dom, grad.reshape(u.values.shape))


def _curvature(u: LatticeField, p: float, epsilon: float, work=None):
    """The Hessian of discrete_energy at u, frozen for _hessian_product: per
    orientation the weight psi of _flux_weight and the rank-one vector
    c = sqrt(|kappa|) D_h u, with kappa = (p - 2) psi / q zero where q = 0,
    each in arrays of its own; and the buffers of the products."""
    work = Buffers() if work is None else work
    parts = []
    for orientation in _ORIENTATIONS:
        a, q, psi = _flux_weight(u.domain.grid.ravel(u.values), u.domain, p, epsilon,
                                 orientation, work, Buffers())
        base = _base_mask_for(u.domain, orientation)
        root = work.take("node", psi.shape)
        root.fill(0.0)
        root[base] = np.sqrt(np.divide(abs(p - 2.0) * psi[base], q,
                                       out=np.zeros_like(q), where=q > 0))
        parts.append((orientation, psi, _scale(a, root)))
    return u.domain, p, parts, work


def _hessian_product(curvature, v: np.ndarray, out=None) -> np.ndarray:
    """H v for the frozen Hessian H, into `out` when given: per base node
    and orientation the weighted Dirac vector p [psi b + sign(p - 2)(c.b) c]
    with b = D_h v, that is p psi [b + (p - 2)(a.b) a / q] for a = D_h u;
    assembled like the gradient's flux and zero off the interior."""
    dom, p, parts, work = curvature
    flat = dom.grid.ravel(v)
    product = dom.grid.ravel(np.empty_like(v) if out is None else out)
    product.fill(0.0)
    for orientation, psi, c in parts:
        b = _dirac(flat, dom, orientation, work, work)
        cb = _inner(c, b, work)
        cb *= np.sign(p - 2.0)
        _scale(b, psi)
        if isinstance(c, np.ndarray):
            b += np.multiply(c, cb[:, None], out=work.take("scratch", c.shape))
        else:
            for x, y in zip(c, b):
                y += np.multiply(x, cb, out=work.take("scratch", x.shape))
        _divergence(dom, orientation, b, product, work)
    product *= p * dom.h ** (dom.dim - 1) / len(parts)
    product[~dom.interior_mask.ravel()] = 0.0
    return product.reshape(v.shape)


def _energy_line(u: LatticeField, p: float, epsilon: float, s: np.ndarray, work):
    """The energy along u + a s for _energy_change: on the base nodes of
    each orientation q = |D_h u|^2 + eps^2 grows to q + a c1 + a^2 c2, with
    c1 = 2 D_h u . D_h s and c2 = |D_h s|^2."""
    dom = u.domain
    line = []
    for orientation in _ORIENTATIONS:
        a = _dirac(dom.grid.ravel(u.values), dom, orientation, work, Buffers())
        b = _dirac(dom.grid.ravel(s), dom, orientation, work, work)
        base = _base_mask_for(dom, orientation)
        q = _inner(a, a, work)[base] + epsilon**2
        line.append((q, q ** (p / 2.0), 2.0 * _inner(a, b, work)[base],
                     _inner(b, b, work)[base]))
    return p / 2.0, dom.h**dom.dim / len(line), line


def _energy_change(line, step: float) -> float:
    """E(u + step s) - E(u), summed over the terms' own changes
    q^m expm1(m log1p(dq / q)) with m = p/2.  Each is exact to rounding
    relative to itself, so the sum resolves decreases far below the
    rounding noise of the energy itself."""
    m, weight, parts = line
    changes = []
    for q, qm, c1, c2 in parts:
        dq = step * c1 + step**2 * c2
        with np.errstate(divide="ignore", invalid="ignore"):
            grown = qm * np.expm1(m * np.log1p(np.maximum(dq / q, -1.0)))
            changes.append(np.where(q > 0, grown, np.maximum(dq, 0.0) ** m))
    return weight * float(np.sum(np.concatenate(changes)))


def laplace_stencil_residual(u: LatticeField) -> float:
    """max over interior nodes of |(sum of neighbors - 2n u)/h^2| applied
    to the scalar component - the p = 2 stationarity stencil."""
    dom = u.domain
    res = laplacian(u.scalar_component(), dom.interior_mask, dom.h)
    return float(np.max(np.abs(res))) / (2.0 * dom.h**dom.dim)


# ---------------------------------------------------------------- optimizer


@dataclass(frozen=True)
class SolverConfig:
    """Exponent, regularization and stopping parameters.

    grad_tol None resolves to 1e-8 h^n at solve time (grid-independent
    stationarity); epsilon is the final regularization of the p < 2
    continuation, and there its square must be positive; max_iter caps the
    Newton steps of each continuation stage and of the p = 2 start.
    """

    p: float
    epsilon: float = 0.0
    grad_tol: float = None
    max_iter: int = 5000

    def __post_init__(self):
        _validate_exponents(self.p, self.epsilon)
        if self.p < 2 and not self.epsilon**2 > 0.0:
            raise SolverError("p < 2 requires a regularization whose square is "
                              f"positive, got epsilon = {self.epsilon:g}")
        if self.grad_tol is not None and not self.grad_tol > 0:
            raise SolverError("the gradient tolerance must be positive")
        if self.max_iter < 1:
            raise SolverError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Outcome and deterministic counters of one solve.  Each `stages` entry
    is (epsilon, iterations, final max |g|, stop reason) of one
    continuation stage.  For p < 2 the first entry, (0.0, ...), is the
    p = 2 start; its steps and evaluations count in the totals, but its
    p = 2 energies stay out of `energies`."""

    converged: bool
    iterations: int
    final_energy: float
    final_gradient_norm: float
    energies: tuple
    stages: tuple = ()
    message: str = ""
    gradient_evaluations: int = 0
    energy_evaluations: int = 0
    hessian_products: int = 0


def _dot(a: np.ndarray, b: np.ndarray, work) -> float:
    return float(np.sum(np.multiply(a, b, out=work.take("scratch", a.shape))))


_ETA = 0.5  # the first forcing term of each stage
_ETA_MAX = 0.9
_CG_STEPS = 100  # the most inner iterations of one Newton step
_SUFFICIENT_DECREASE = 1e-4


def _truncated_cg(hessian, precondition, g, tol_norm, tol_max, work):
    """Preconditioned conjugate gradient on H s = -g from s = 0 (Nocedal &
    Wright, Algorithm 7.1), stopped once the residual r = g + H s has
    |r|_2 <= tol_norm or max |r| <= tol_max, or at a direction of
    non-positive curvature.  Returns s and r.  The products hessian(d, out)
    and precondition(r, out) write into arrays of the call: z shares one
    with H d, which r has taken up by then."""
    s, r = np.zeros_like(g), g.copy()
    d, hd = np.empty_like(g), np.empty_like(g)
    np.negative(precondition(r, d), out=d)
    rz = -_dot(r, d, work)
    for _ in range(_CG_STEPS):
        hessian(d, hd)
        curvature = _dot(d, hd, work)
        if not curvature > 0.0:
            break
        s += np.multiply(d, rz / curvature, out=work.take("scratch", d.shape))
        hd *= rz / curvature
        r += hd
        if (np.sqrt(_dot(r, r, work)) <= tol_norm
                or np.max(np.abs(r, out=work.take("scratch", r.shape))) <= tol_max):
            break
        z = precondition(r, hd)
        rz, rz_prev = _dot(r, z, work), rz
        d *= rz / rz_prev
        d -= z
    return s, r


def _newton_step(u: LatticeField, g, p, epsilon, forcing, tol, precondition, call, work):
    """One damped Newton step, applied to u.values in place.  Returns the
    energy change and the norms of g + a H s, the linear model's gradient
    at the step a s taken, and of the residual g + H s of the inner solve;
    or the stop reason "no descent" or "stall", leaving u as it was."""
    curvature = _curvature(u, p, epsilon, work)
    # solving beyond half the stopping tolerance is wasted
    s, r = _truncated_cg(lambda v, out: call("hessian", _hessian_product, curvature, v, out),
                         precondition, g, forcing, 0.5 * tol, work)
    slope = _dot(g, s, work)
    if not -np.inf < slope < 0.0:
        return "no descent"  # the gradient is numerically zero, or s not finite
    del curvature
    line = _energy_line(u, p, epsilon, s, work)
    a = 1.0
    while a * np.max(np.abs(s)) > np.finfo(float).eps * np.max(np.abs(u.values)):
        delta = call("energy", _energy_change, line, a)
        if delta <= _SUFFICIENT_DECREASE * a * slope:
            u.values[...] += a * s
            model = (1.0 - a) * g + a * r
            return delta, np.sqrt(_dot(model, model, work)), np.sqrt(_dot(r, r, work))
        a *= 0.5
    return "stall"  # the step is below floating-point resolution


def _minimize_stage(values, domain, p, epsilon, tol, config, counts, precondition, work):
    """Truncated Newton-CG on one regularization stage.  Returns values,
    history lists, the Newton step count and the stop reason: "converged",
    "no descent", "stall" or "max_iter".  counts["gradient"],
    counts["energy"] and counts["hessian"] accumulate the energy_gradient,
    _energy_terms or _energy_change, and _hessian_product calls.

    Each step solves H s = -g by preconditioned CG to the Eisenstat-Walker
    "choice 1" forcing term (Eisenstat & Walker, SIAM J. Sci. Comput. 17
    (1996)) and halves the step until the energy decreases sufficiently.
    """

    def call(key, fn, *args):
        counts[key] += 1
        return fn(*args)

    u = LatticeField(domain, values)
    e = float(np.sum(call("energy", _energy_terms, u, p, epsilon, work)))
    g = call("gradient", energy_gradient, u, p, epsilon, work).values
    energies = [e]
    gnorms = [float(np.max(np.abs(g)))]
    eta = _ETA
    iterations = 0
    reason = "converged" if gnorms[-1] <= tol else None
    while reason is None and iterations < config.max_iter:
        g_size = np.sqrt(_dot(g, g, work))
        step = _newton_step(u, g, p, epsilon, eta * g_size, tol, precondition, call, work)
        if isinstance(step, str):
            reason = step
            break
        delta, model, residual = step
        e += delta
        g = call("gradient", energy_gradient, u, p, epsilon, work).values
        energies.append(e)
        gnorms.append(float(np.max(np.abs(g))))
        iterations += 1
        if gnorms[-1] <= tol:
            reason = "converged"
            break
        # choice 1, kept from falling faster than superlinearly below the
        # relative residual the last inner solve achieved
        floor = (residual / g_size) ** ((1.0 + np.sqrt(5.0)) / 2.0)
        eta = abs(np.sqrt(_dot(g, g, work)) - model) / g_size
        eta = min(_ETA_MAX, max(eta, floor) if floor > 0.1 else eta)
    return u.values, energies, gnorms, iterations, reason or "max_iter"


def _continuation_schedule(p: float, epsilon: float):
    """The automatic stages: the decades 1e-1, 1e-2 and 1e-3 above epsilon,
    then epsilon itself; one stage for p >= 2."""
    if p >= 2:
        return [epsilon]
    return [eps for eps in (1e-1, 1e-2, 1e-3) if eps > epsilon] + [epsilon]


def solve_dirichlet(domain: LatticeDomain, boundary, config: SolverConfig,
                    schedule=None):
    """Minimize the p-Dirichlet energy with boundary values from
    `boundary` (a callable on (N, dim) coordinates returning a scalar
    array or a batched Multivector).  Returns (field, diagnostics); a
    non-converged run still returns the field, flagged in diagnostics.

    `schedule` overrides the automatic regularization continuation: a
    strictly decreasing sequence of stage values ending at
    config.epsilon (each stage warm-starts the next).  For p < 2 the
    first stage starts from the discrete p = 2 minimizer of the same
    boundary data, on the automatic schedule and on a custom one alike.
    """
    if schedule is None:
        schedule = _continuation_schedule(config.p, config.epsilon)
    else:
        schedule = [float(e) for e in schedule]
        if not all(np.isfinite(schedule)):
            raise SolverError(f"a custom schedule must hold finite stage values, got {schedule}")
        if not schedule or schedule[-1] != config.epsilon:
            raise SolverError("a custom schedule must end at config.epsilon")
        if any(b >= a for a, b in zip(schedule, schedule[1:])):
            raise SolverError("a custom schedule must be strictly decreasing")
    bpts = domain.coordinates()[domain.boundary_mask]
    bvals = boundary(bpts)
    clifford = isinstance(bvals, Multivector)
    # row-major, as np.mean below folds in memory order and Multivectors are blade-major
    bvals = np.ascontiguousarray(bvals.coeffs) if clifford else np.asarray(bvals, dtype=float)
    blades = (1 << domain.dim,) if clifford else ()
    if bvals.shape != (len(bpts),) + blades:
        raise SolverError("boundary data does not cover the boundary nodes")
    if not np.all(np.isfinite(bvals)):
        raise SolverError("boundary data must be finite on every boundary node")
    values = np.zeros(domain.shape + blades)
    values[domain.boundary_mask] = bvals
    # neutral interior seed: the boundary mean keeps the start bounded even
    # when the boundary data comes from a field singular inside the hole
    values[domain.interior_mask] = np.mean(bvals, axis=0)

    tol = config.grad_tol if config.grad_tol is not None else 1e-8 * domain.h**domain.dim
    all_e = []
    stages = []
    total_iter = 0
    counts = {"gradient": 0, "energy": 0, "hessian": 0}
    work = Buffers()
    precondition = vcycle(domain.interior_mask, domain.h, work)
    # p < 2 starts from the discrete harmonic solution (p = 2, eps = 0),
    # whose exact Newton model reaches it in a few steps; its p = 2
    # energies stay out of the p-energy history
    start = [(2.0, 0.0)] if config.p < 2 else []
    for p, eps in start + [(config.p, eps) for eps in schedule]:
        stage_tol = tol if eps == config.epsilon else max(tol, 1e-2 * domain.h**domain.dim)
        values, energies, gnorms, iters, reason = _minimize_stage(
            values, domain, p, eps, stage_tol, config, counts, precondition, work
        )
        if p == config.p:
            all_e.extend(energies)
        total_iter += iters
        stages.append((float(eps), int(iters), float(gnorms[-1]), reason))
    converged = reason == "converged"
    message = "" if converged else f"gradient tolerance not reached: stopped on {reason}"
    diag = SolveDiagnostics(
        converged=bool(converged),
        iterations=int(total_iter),
        final_energy=float(all_e[-1]),
        final_gradient_norm=float(gnorms[-1]),
        energies=tuple(all_e),
        stages=tuple(stages),
        message=message,
        gradient_evaluations=counts["gradient"],
        energy_evaluations=counts["energy"],
        hessian_products=counts["hessian"],
    )
    return LatticeField(domain, values), diag
