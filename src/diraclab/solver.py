"""Lattice minimization of the p-Dirichlet energy with Dirichlet data.

The energy is sum over base nodes of h^n (|D_h u|^2 + eps^2)^(p/2) with
D_h a one-sided-difference Dirac operator sum_j e_j (u(x + h e_j) - u(x))/h
(forward; the backward operator differences against x - h e_j).  Base
nodes are the lattice nodes whose whole one-sided stencil stays inside
the node set; on a box this makes every lattice edge that touches an
unknown appear exactly once, so the first-order conditions at interior
nodes are the symmetric (2n+1)-point stencils and discrete harmonic
quadratics are exact critical points.  (Summing over interior nodes only
would drop edges based at the lower boundary and bias the stencils by
O(h) there.)

Either one-sided energy alone is only O(h)-consistent for p != 2: the
nonlinear weight couples the n one-sided differences based at a node, so
the discrete flux lives on half-edges to one side of it (error ratios
measured at 1.9x per mesh halving on a smooth box benchmark).  The
default scheme therefore minimizes the average of the forward and
backward energies, whose leading bias terms cancel by reflection; the
same benchmark then converges at second order (ratios 4.0x).  In two
dimensions the symmetric average is exactly the piecewise-linear
finite-element energy on the lattice triangulated by splitting each cell
along the north-west diagonal: the forward cluster at a node is the
gradient on the lower triangle of its cell, the backward cluster the
gradient on the upper one.  For p = 2 the quadratic energy splits over
edges, both orientations count every edge that touches an unknown
exactly once, and the symmetric, forward, and backward schemes have
identical minimizers and five-point stencils.

Scalar Dirichlet data is solved in the scalar representation.  Restricted
to scalar fields the Dirac energy is the classical p-Dirichlet form, and
its minimizers are the discrete p-harmonic functions; over the full
algebra the gradient of the nonlinear energy acquires bivector components
(the discrete curl of |grad u|^(p-2) grad u, which vanishes only for
p = 2 or radial data), so the scalar sector is preserved by restriction,
not by the full-space flow.

The optimizer is preconditioned descent with an optional Polak-Ribiere
conjugate direction (on by default).  Directions are built from
z = L^-1 g instead of the gradient g, with L the Dirichlet Laplacian of
the lattice's bounding box applied by sine transforms.  Without it the
iterations inherit the O(1/h^2) condition number of the lattice
Laplacian and their count grows like 1/h (3,497 for the h = 1/64
annulus); with it the count grows slowly (153, 236 and 381 at
h = 1/16, 1/32 and 1/64), and at p = 2 on a box the first step is
exact.  The step length comes from bracketing and secant-solving
the zero of the directional derivative a -> <grad E(u + a d), d>; the
energy only gates acceptance (the recorded history must be
non-increasing) and an Armijo backtracking pass (sufficient decrease
1e-4, halving) remains as a fallback.  A derivative-driven search is
required rather than a refinement: for p != 2 the per-step energy
decrease falls below one ulp of the total energy while the gradient
norm is still two orders of magnitude above the stopping tolerance, so
comparisons of energy values alone stall the iteration at that floor.
The energy is convex for p > 1 (the integrand is a convex radial
function of a linear map of u), so the directional derivative is
nondecreasing along any direction and the bracket is sound.  For p < 2
the regularization follows a continuation schedule from 1e-1 down to
the configured epsilon, halving per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector, _gather_table


class SolverError(ValueError):
    """Contract violation in the lattice solver layer."""


# ------------------------------------------------------------------ domains


def _shift(a: np.ndarray, axis: int, step: int) -> np.ndarray:
    """a evaluated at x + step*h*e_axis: zero (False) outside the grid.
    Trailing axes beyond the grid axes, such as blade coefficients, ride
    along."""
    out = np.zeros_like(a)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if step > 0:
        src[axis] = slice(step, None)
        dst[axis] = slice(None, -step)
    elif step < 0:
        src[axis] = slice(None, step)
        dst[axis] = slice(-step, None)
    out[tuple(dst)] = a[tuple(src)]
    return out


@dataclass(frozen=True)
class LatticeDomain:
    """Axis-aligned lattice restricted to a box or an annulus.

    node_mask flags lattice points inside the region; interior nodes have
    all 2n neighbors in the node set (everything else in the node set is
    boundary and stays fixed); base nodes own a complete forward stencil
    and carry the forward energy terms, backward base nodes mirror them
    for the reflected scheme.
    """

    dim: int
    lo: tuple
    shape: tuple
    h: float
    node_mask: np.ndarray
    region: str

    def __post_init__(self):
        # A node is interior (an unknown) only if every energy cluster
        # containing it is complete: besides the 2n lattice neighbors this
        # needs the mixed diagonals x - h e_j + h e_k, which the one-sided
        # clusters carried by the neighbors reach.  On a box the extra
        # condition is implied by the neighbor one.  On a staircase region
        # it trims the unknowns next to notches; without the trim those
        # nodes see first-order conditions with fluxes missing, an O(1)
        # local defect that degrades the global error to roughly O(h).
        interior = self.node_mask.copy()
        for axis in range(self.dim):
            for step in (+1, -1):
                interior &= _shift(self.node_mask, axis, step)
        for aj in range(self.dim):
            for ak in range(self.dim):
                if aj != ak:
                    interior &= _shift(
                        _shift(self.node_mask, aj, -1), ak, +1
                    )
        base = self.node_mask.copy()
        back = self.node_mask.copy()
        for axis in range(self.dim):
            base &= _shift(self.node_mask, axis, +1)
            back &= _shift(self.node_mask, axis, -1)
        object.__setattr__(self, "interior_mask", interior)
        object.__setattr__(self, "base_mask", base)
        object.__setattr__(self, "backward_base_mask", back)
        object.__setattr__(self, "boundary_mask", self.node_mask & ~interior)
        if not interior.any():
            raise SolverError("the lattice has no interior nodes")

    @classmethod
    def box(cls, lo, hi, h: float) -> "LatticeDomain":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise SolverError("box corners must be vectors of equal length")
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
    def annulus(cls, inner: float, outer: float, h: float, dim: int = 2) -> "LatticeDomain":
        if not 0 < inner < outer:
            raise SolverError("annulus radii must satisfy 0 < inner < outer")
        if not h > 0:
            raise SolverError("spacing must be positive")
        half = int(np.floor(outer / h + 1e-9))
        lo = tuple(-half * h for _ in range(dim))
        shape = tuple(2 * half + 1 for _ in range(dim))
        coords = np.stack(
            np.meshgrid(*(np.arange(s) * h + l for s, l in zip(shape, lo)),
                        indexing="ij"),
            axis=-1,
        )
        radii = np.linalg.norm(coords, axis=-1)
        mask = (radii >= inner - 1e-12) & (radii <= outer + 1e-12)
        return cls(dim, lo, shape, float(h), mask, "annulus")

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
        grid = self.domain.shape
        v = np.asarray(self.values, dtype=float)
        if v.shape == grid:
            object.__setattr__(self, "values", v)
        elif v.shape == grid + (1 << self.domain.dim,):
            object.__setattr__(self, "values", v)
        else:
            raise SolverError(
                f"values shape {v.shape} matches neither {grid} nor "
                f"{grid + (1 << self.domain.dim,)}"
            )

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


_SCHEMES = ("forward", "backward", "symmetric")


def _base_mask_for(domain: LatticeDomain, orientation: int) -> np.ndarray:
    return domain.base_mask if orientation > 0 else domain.backward_base_mask


def _dirac_square(u: LatticeField, orientation: int = +1):
    """Returns (per-axis differences, D_h u or None, |D_h u|^2) for the
    one-sided difference of the requested orientation.

    For Clifford fields the square must be taken after assembling
    D_h u = sum_j e_j d_j - the cross terms between axes do not vanish
    for multivector differences (they do for scalar fields, where the
    e_j d_j are orthogonal grade-1 blades).
    """
    dom = u.domain
    # forward (u(x + h e) - u(x))/h or backward (u(x) - u(x - h e))/h on the
    # full grid; off the matching base nodes the base mask removes them
    diffs = [(_shift(u.values, axis, orientation) - u.values) * orientation / dom.h
             for axis in range(dom.dim)]
    if u.is_clifford:
        # row 1 << j of the gather tables gives e_j A = signs * A[..., perm]
        perm, signs = _gather_table(dom.dim)
        dirac = np.zeros_like(u.values)
        for j, d in enumerate(diffs):
            dirac += signs[1 << j] * d[..., perm[1 << j]]
        return diffs, dirac, np.sum(dirac * dirac, axis=-1)
    w = np.zeros(dom.shape)
    for d in diffs:
        w += d * d
    return diffs, None, w


def _validate_exponents(p: float, epsilon: float):
    if not p > 1:
        raise SolverError("the exponent p must exceed 1")
    if epsilon < 0:
        raise SolverError("the regularization must be nonnegative")


def _validate_scheme(scheme: str):
    if scheme not in _SCHEMES:
        raise SolverError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")


def _energy_terms(u: LatticeField, p: float, epsilon: float, scheme: str) -> np.ndarray:
    """Per-node energy terms as a flat array whose plain sum is the energy.

    Line searches accept steps on the sum of termwise differences of this
    array, which resolves energy changes of order 1e-18 * sqrt(terms) -
    far below one ulp of the total energy, where comparisons of two
    separately summed totals go blind.
    """
    orientations = {"forward": (+1,), "backward": (-1,), "symmetric": (+1, -1)}[scheme]
    weight = u.domain.h**u.domain.dim / len(orientations)
    parts = []
    for orientation in orientations:
        _, _, w = _dirac_square(u, orientation)
        base = _base_mask_for(u.domain, orientation)
        parts.append(weight * (w[base] + epsilon**2) ** (p / 2.0))
    return np.concatenate(parts)


def discrete_energy(u: LatticeField, p: float, epsilon: float = 0.0,
                    scheme: str = "symmetric") -> float:
    """Sum over base nodes of h^n (|D_h u|^2 + eps^2)^(p/2).

    scheme picks the one-sided difference: "forward", "backward", or the
    default "symmetric" average of the two one-sided energies.  The
    one-sided energies are O(h)-consistent with the p-Dirichlet integral
    for p != 2 (the flux is evaluated on half-edges on one side of each
    node); the symmetric average cancels that bias by reflection and is
    O(h^2).  For p = 2 all three agree on every term that touches an
    unknown, because the quadratic energy splits over edges and each such
    edge is counted once by either orientation.
    """
    _validate_exponents(p, epsilon)
    _validate_scheme(scheme)
    return float(np.sum(_energy_terms(u, p, epsilon, scheme)))


def _one_sided_gradient(u: LatticeField, p: float, epsilon: float,
                        orientation: int) -> np.ndarray:
    dom = u.domain
    diffs, dirac, w = _dirac_square(u, orientation)
    base = _base_mask_for(dom, orientation)
    with np.errstate(divide="ignore"):
        base_psi = (w[base] + epsilon**2) ** ((p - 2.0) / 2.0)
    if not np.all(np.isfinite(base_psi)):
        raise SolverError("p < 2 with epsilon = 0 hit a zero-gradient node")
    psi = np.zeros(dom.shape)
    psi[base] = base_psi

    if u.is_clifford:
        perm, signs = _gather_table(dom.dim)
        fluxes = (psi[..., None] * (signs[1 << j] * dirac[..., perm[1 << j]])
                  for j in range(dom.dim))
    else:
        # e_j e_j = -1 on the Clifford path; the scalar flux carries it
        fluxes = (-psi * d for d in diffs)
    grad = np.zeros_like(u.values)
    for axis, flux in enumerate(fluxes):
        # term at the carrier node y minus the term reaching y from the
        # carrier at y - orientation * h e_axis
        grad += orientation * (flux - _shift(flux, axis, -orientation))
    grad *= p * dom.h ** (dom.dim - 1)
    grad[~dom.interior_mask] = 0.0
    return grad


def energy_gradient(u: LatticeField, p: float, epsilon: float = 0.0,
                    scheme: str = "symmetric") -> LatticeField:
    """Exact derivative of discrete_energy with respect to the interior
    node values; boundary entries are zero.

    Each one-sided piece is the signed divergence of the flux
    (|D_h u|^2 + eps^2)^((p-2)/2) e_j D_h u scaled by p h^(n-1); the
    symmetric scheme averages the two pieces.
    """
    _validate_exponents(p, epsilon)
    _validate_scheme(scheme)
    dom = u.domain
    if scheme == "forward":
        grad = _one_sided_gradient(u, p, epsilon, +1)
    elif scheme == "backward":
        grad = _one_sided_gradient(u, p, epsilon, -1)
    else:
        grad = 0.5 * (_one_sided_gradient(u, p, epsilon, +1)
                      + _one_sided_gradient(u, p, epsilon, -1))
    return LatticeField(dom, grad)


def laplace_stencil_residual(u: LatticeField) -> float:
    """max over interior nodes of |(sum of neighbors - 2n u)/h^2| applied
    to the scalar component - the p = 2 stationarity stencil."""
    dom = u.domain
    vals = u.scalar_component()
    acc = -2.0 * dom.dim * vals.copy()
    for axis in range(dom.dim):
        for step in (+1, -1):
            acc += _shift(vals, axis, step)
    res = np.abs(acc[dom.interior_mask]) / dom.h**2
    return float(np.max(res)) if res.size else 0.0


# ---------------------------------------------------------------- optimizer


@dataclass(frozen=True)
class SolverConfig:
    """Exponent, regularization, and stopping/step-rule parameters.

    grad_tol None resolves to 1e-8 h^n at solve time (grid-independent
    stationarity); epsilon is the final regularization of the p < 2
    continuation and must be positive there.
    """

    p: float
    epsilon: float = 0.0
    grad_tol: float = None
    max_iter: int = 5000
    backtrack: float = 0.5
    sufficient_decrease: float = 1e-4
    use_conjugate: bool = True
    scheme: str = "symmetric"

    def __post_init__(self):
        _validate_exponents(self.p, self.epsilon)
        _validate_scheme(self.scheme)
        if self.p < 2 and self.epsilon == 0.0:
            raise SolverError("p < 2 requires a positive regularization")
        if self.grad_tol is not None and not self.grad_tol > 0:
            raise SolverError("the gradient tolerance must be positive")
        if not 0 < self.backtrack < 1:
            raise SolverError("the backtracking factor must lie in (0, 1)")
        if not 0 < self.sufficient_decrease < 1:
            raise SolverError("the sufficient-decrease constant must lie in (0, 1)")
        if self.max_iter < 1:
            raise SolverError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveDiagnostics:
    converged: bool
    iterations: int
    final_energy: float
    final_gradient_norm: float
    energies: tuple
    gradient_norms: tuple
    stages: tuple = ()
    message: str = ""
    gradient_evaluations: int = 0
    energy_evaluations: int = 0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def _dst(a: np.ndarray, axis: int) -> np.ndarray:
    """DST-I along `axis` of an array whose first and last entries along it
    are zero: the sine coefficients -Im(rfft)/2 of the odd extension, with
    the same shape and zero ends.  Applied twice it scales by (s - 1)/2."""
    a = np.moveaxis(a, axis, -1)
    s = a.shape[-1]
    odd = np.empty(a.shape[:-1] + (2 * s - 2,))
    odd[..., :s] = a
    odd[..., s:] = -a[..., s - 2:0:-1]
    return np.moveaxis(-0.5 * np.fft.rfft(odd).imag, -1, axis)


def _laplacian_preconditioner(domain: LatticeDomain):
    """Returns g -> z = P L^-1 P g, where P zeroes the nodes off the
    interior and L = 2 h^(n-2) (2n - sum of the 2n lattice shifts) is the
    Dirichlet Laplacian of the bounding box, scaled to the Hessian of the
    p = 2 energy.  L is diagonal in the DST-I basis of the box.  The
    operator is symmetric positive definite on the interior nodes; it is
    exact on a box and a fictitious-domain approximation on a staircase
    region.  A Clifford field is transformed blade by blade."""
    interior = domain.interior_mask
    # the eigenvalues of L times the (s - 1)/2 of each inverse transform,
    # one broadcastable factor per axis, so no grid-sized array persists
    scale = 2.0 * domain.h ** (domain.dim - 2)
    scale *= np.prod([(s - 1) / 2.0 for s in domain.shape])
    eigs = []
    for axis, s in enumerate(domain.shape):
        lam = scale * 4.0 * np.sin(0.5 * np.pi * np.arange(s) / (s - 1)) ** 2
        lam[0] = np.inf  # the zero end of every transform
        eigs.append(lam.reshape((s,) + (1,) * (domain.dim - 1 - axis)))

    def scalar(g):
        z = np.where(interior, g, 0.0)
        for axis in range(domain.dim):
            z = _dst(z, axis)
        z /= sum(eigs)
        for axis in range(domain.dim):
            z = _dst(z, axis)
        z[~interior] = 0.0
        return z

    def apply(g):
        if g.ndim == domain.dim:
            return scalar(g)
        z = np.empty_like(g)
        for blade in range(g.shape[-1]):
            z[..., blade] = scalar(g[..., blade])
        return z

    return apply


def _minimize_stage(values, domain, p, epsilon, tol, config, counts, precondition):
    """Preconditioned descent loop on one regularization stage: directions
    are built from z = precondition(g) in place of the gradient g.  Returns
    values, history lists, the iteration count and the stop reason:
    "converged", "zero slope", "no bracket", "step underflow", "stall" or
    "max_iter".
    counts["gradient"] and counts["energy"] accumulate the energy_gradient
    and _energy_terms calls.

    The line search brackets and secant-solves the zero of the
    directional derivative phi'(a) = <grad(u + a d), d>.  Energy only
    gates acceptance (the recorded history must be non-increasing) and is
    compared through sums of termwise differences, which stay sharp long
    after the difference of two separately summed totals has collapsed to
    zero ulps.
    """

    def terms(v):
        counts["energy"] += 1
        return _energy_terms(LatticeField(domain, v), p, epsilon, config.scheme)

    def gradient(v):
        counts["gradient"] += 1
        return energy_gradient(LatticeField(domain, v), p, epsilon,
                               config.scheme).values

    u = values
    t_u = terms(u)
    e = float(np.sum(t_u))
    g = gradient(u)
    gnorm = float(np.max(np.abs(g)))
    energies = [e]
    gnorms = [gnorm]
    z = precondition(g)
    d = -z
    alpha = 1.0
    iterations = 0
    stalls = 0
    reason = "converged" if gnorm <= tol else None
    while reason is None and iterations < config.max_iter:
        slope = _dot(g, d)
        if slope >= 0.0:  # conjugate direction failed; restart on -z = -L^-1 g
            d = -z
            slope = _dot(g, d)
            if slope >= 0.0:
                reason = "zero slope"  # gradient is numerically zero
                break
        # Bracket the zero of phi'(a) = <grad(u + a d), d>, warm-started
        # from the last accepted step.  phi' is nondecreasing (convex
        # energy), negative at a = 0.
        trials = []  # (a, phi'(a), grad at u + a d)
        hi = alpha
        f_hi = None
        for _ in range(64):
            g_hi = gradient(u + hi * d)
            f_hi = _dot(g_hi, d)
            trials.append((hi, f_hi, g_hi))
            if not np.isfinite(f_hi) or f_hi >= 0.0:
                break
            hi *= 2.0
        if not np.isfinite(f_hi) or f_hi < 0.0:
            reason = "no bracket"  # numerically flat direction
            break
        lo, f_lo = 0.0, slope
        # secant proposals with a bisection safeguard
        for _ in range(24):
            if abs(trials[-1][1]) <= 0.1 * abs(slope):
                break
            a_sec = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else lo
            if not np.isfinite(a_sec) or not lo < a_sec < hi:
                a_sec = 0.5 * (lo + hi)
            if a_sec <= lo or a_sec >= hi:
                break  # bracket exhausted at floating-point resolution
            g_sec = gradient(u + a_sec * d)
            f_sec = _dot(g_sec, d)
            trials.append((a_sec, f_sec, g_sec))
            if f_sec < 0.0:
                lo, f_lo = a_sec, f_sec
            else:
                hi, f_hi = a_sec, f_sec
        # Accept the candidate with the smallest |phi'| whose energy does
        # not increase.  Once the true per-step decrease falls below the
        # termwise resolution (~eps * energy), a delta in the noise band
        # is accepted on the derivative criterion alone - |phi'| strictly
        # below |slope| implies descent for the locally quadratic phi -
        # and recorded as zero, which keeps the history non-increasing
        # while understating, never overstating, the progress.
        noise = 4.0 * np.finfo(float).eps * float(np.sum(t_u))
        accepted = None
        for a_c, f_c, g_c in sorted(trials, key=lambda t: abs(t[1]))[:5]:
            u_c = u + a_c * d
            t_c = terms(u_c)
            delta = float(np.sum(t_c - t_u))
            if delta <= 0.0 or (delta <= noise and abs(f_c) < abs(slope)):
                accepted = (a_c, u_c, t_c, min(delta, 0.0), g_c)
                break
        if accepted is None:
            # Energy rose beyond noise at every candidate (a
            # far-from-minimum bracket): Armijo backtracking.
            a_c = trials[0][0]
            for _ in range(80):
                u_c = u + a_c * d
                t_c = terms(u_c)
                delta = float(np.sum(t_c - t_u))
                if delta <= config.sufficient_decrease * a_c * slope:
                    accepted = (a_c, u_c, t_c, delta, None)
                    break
                a_c *= config.backtrack
        if accepted is None:
            reason = "step underflow"
            break
        alpha, u_new, t_u, delta, g_new = accepted
        e_new = e + delta
        # At the roundoff floor the preconditioned steps still flip single
        # ulps at random, so "no progress" means no node moved by more
        # than the rounding resolution of the field as a whole.
        if np.max(np.abs(u_new - u)) <= np.finfo(float).eps * np.max(np.abs(u)):
            stalls += 1
            if stalls >= 3:
                reason = "stall"  # progress below floating-point resolution
                break
        else:
            stalls = 0
        gz_prev, u, e = _dot(g, z), u_new, e_new
        g = gradient(u) if g_new is None else g_new
        gnorm = float(np.max(np.abs(g)))
        energies.append(e)
        gnorms.append(gnorm)
        iterations += 1
        if gnorm <= tol:
            reason = "converged"
            break
        # <g, z_prev> is taken before z is replaced, so no previous
        # vector outlives the update
        g_zprev = _dot(g, z)
        z = precondition(g)
        if config.use_conjugate:
            beta = max(0.0, (_dot(g, z) - g_zprev) / max(gz_prev, 1e-300))
            d = -z + beta * d
        else:
            d = -z
    return u, energies, gnorms, iterations, reason or "max_iter"


def _continuation_schedule(p: float, epsilon: float):
    if p >= 2:
        return [epsilon]
    stages = []
    eps = 1e-1
    while eps > epsilon and eps > 1e-3 - 1e-15:
        stages.append(eps)
        eps *= 0.5
    if not stages or stages[-1] != epsilon:
        stages.append(epsilon)
    return stages


def solve_dirichlet(domain: LatticeDomain, boundary, config: SolverConfig,
                    schedule=None):
    """Minimize the p-Dirichlet energy with boundary values from
    `boundary` (a callable on (N, dim) coordinates returning a scalar
    array or a batched Multivector).  Returns (field, diagnostics); a
    non-converged run still returns the field, flagged in diagnostics.

    `schedule` overrides the automatic regularization continuation: a
    strictly decreasing sequence of stage values ending at
    config.epsilon (each stage warm-starts the next).
    """
    if schedule is None:
        schedule = _continuation_schedule(config.p, config.epsilon)
    else:
        schedule = [float(e) for e in schedule]
        if not schedule or schedule[-1] != config.epsilon:
            raise SolverError("a custom schedule must end at config.epsilon")
        if any(b >= a for a, b in zip(schedule, schedule[1:])):
            raise SolverError("a custom schedule must be strictly decreasing")
        if config.p < 2 and schedule[-1] <= 0.0:
            raise SolverError("p < 2 stages need positive regularization")
    bpts = domain.coordinates()[domain.boundary_mask]
    bvals = boundary(bpts)
    if isinstance(bvals, Multivector):
        if bvals.coeffs.shape != (len(bpts), 1 << domain.dim):
            raise SolverError("boundary data does not cover the boundary nodes")
        clifford = True
        values = np.zeros(domain.shape + (1 << domain.dim,))
        values[domain.boundary_mask] = bvals.coeffs
        fill = np.mean(bvals.coeffs, axis=0)
    else:
        bvals = np.asarray(bvals, dtype=float)
        if bvals.shape != (len(bpts),):
            raise SolverError("boundary data does not cover the boundary nodes")
        clifford = False
        values = np.zeros(domain.shape)
        values[domain.boundary_mask] = bvals
        fill = float(np.mean(bvals))
    # neutral interior seed: the boundary mean keeps the start bounded even
    # when the boundary data comes from a field singular inside the hole
    values[domain.interior_mask] = fill

    tol = config.grad_tol if config.grad_tol is not None else 1e-8 * domain.h**domain.dim
    all_e, all_g = [], []
    stages = []
    total_iter = 0
    counts = {"gradient": 0, "energy": 0}
    precondition = _laplacian_preconditioner(domain)
    for eps in schedule:
        stage_tol = tol if eps == config.epsilon else max(tol, 1e-5 * domain.h**domain.dim)
        values, energies, gnorms, iters, reason = _minimize_stage(
            values, domain, config.p, eps, stage_tol, config, counts, precondition
        )
        all_e.extend(energies)
        all_g.extend(gnorms)
        total_iter += iters
        stages.append((float(eps), int(iters), float(gnorms[-1])))
    converged = reason == "converged"
    message = "" if converged else f"gradient tolerance not reached: stopped on {reason}"
    diag = SolveDiagnostics(
        converged=bool(converged),
        iterations=int(total_iter),
        final_energy=float(all_e[-1]),
        final_gradient_norm=float(all_g[-1]),
        energies=tuple(all_e),
        gradient_norms=tuple(all_g),
        stages=tuple(stages),
        message=message,
        gradient_evaluations=counts["gradient"],
        energy_evaluations=counts["energy"],
    )
    field = LatticeField(domain, values)
    assert field.is_clifford == clifford
    return field, diag
