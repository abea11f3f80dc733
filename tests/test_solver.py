"""Lattice solver tests: domain masks, the discrete energy, its exact
gradient and Hessian (finite-difference and reflection oracles), the
flat-offset kernels against their slice-based form, the multigrid
preconditioner against dense solves, Dirichlet solves against closed-form
minimizers, and digests of two solves pinned bit for bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import Multivector
from diraclab.solver import (
    LatticeDomain,
    LatticeField,
    SolveDiagnostics,
    SolverConfig,
    SolverError,
    discrete_energy,
    energy_gradient,
    laplace_stencil_residual,
    solve_dirichlet,
)
from diraclab import multigrid
from diraclab import solver as solver_module
from diraclab.multigrid import Buffers, laplacian, vcycle
from diraclab.solver import _curvature, _dirac, _divergence, _hessian_product

from conftest import blas_child
from oracles import (
    slice_dirac,
    slice_divergence,
    slice_energy_gradient,
    slice_hessian_product,
    slice_laplacian,
    slice_vcycle,
)

A2 = np.array([0.8, -0.45])


def linear_bc(pts):
    return pts @ A2


def saddle_bc(pts):
    return pts[..., 0] ** 2 - pts[..., 1] ** 2


def radial_bc(pts):
    return 1.0 / np.linalg.norm(pts, axis=-1)


# ------------------------------------------------------------------ domains


def test_box_masks_and_counts():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    assert dom.shape == (5, 5)
    assert dom.interior_count == 9
    assert dom.base_count == 16
    assert int(np.count_nonzero(dom.backward_base_mask)) == 16
    assert int(np.count_nonzero(dom.boundary_mask)) == 25 - 9
    # interior nodes own complete clusters of both orientations
    assert np.all(dom.base_mask[dom.interior_mask])
    assert np.all(dom.backward_base_mask[dom.interior_mask])


def test_box_coordinates():
    dom = LatticeDomain.box([1.0, -1.0], [2.0, 0.0], 0.5)
    pts = dom.coordinates()
    assert pts.shape == dom.shape + (2,)
    assert pts[0, 0] == pytest.approx([1.0, -1.0])
    assert pts[-1, -1] == pytest.approx([2.0, 0.0])


def test_box_rejects_bad_geometry():
    with pytest.raises(SolverError):
        LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.3)  # not a divisor
    with pytest.raises(SolverError):
        LatticeDomain.box([0.0], [1.0, 1.0], 0.25)
    with pytest.raises(SolverError):
        LatticeDomain.box([0.0, 0.0], [1.0, 1.0], -0.1)


def test_annulus_masks():
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 8)
    r = np.linalg.norm(dom.coordinates(), axis=-1)
    assert np.all(r[dom.node_mask] >= 1.0 - 1e-9)
    assert np.all(r[dom.node_mask] <= 2.0 + 1e-9)
    assert dom.interior_count > 0
    # the hole and the far corners are outside the node set
    assert not dom.node_mask[dom.shape[0] // 2, dom.shape[1] // 2]
    assert not dom.node_mask[0, 0]


def test_annulus_interior_clusters_complete():
    # every cluster that contains an unknown is complete, so each unknown
    # sees the full symmetric first-order condition (staircase notches
    # next to an unknown would otherwise drop fluxes and drag the global
    # error to first order)
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 8)
    idx = np.argwhere(dom.interior_mask)
    nm = dom.node_mask
    for ij in idx:
        i, j = ij
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            assert nm[i + di, j + dj]


def test_annulus_rejects_bad_radii():
    with pytest.raises(SolverError):
        LatticeDomain.annulus(2.0, 1.0, 0.1)
    with pytest.raises(SolverError):
        LatticeDomain.annulus(-1.0, 2.0, 0.1)


def test_empty_interior_rejected():
    with pytest.raises(SolverError):
        LatticeDomain.annulus(1.0, 1.01, 0.5)


# ------------------------------------------------------------------- fields


def test_field_shapes_and_helpers():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    f = LatticeField.from_function(dom, linear_bc)
    assert not f.is_clifford
    assert f.interior_values().shape == (9,)
    assert np.array_equal(f.scalar_component(), f.values)

    g = LatticeField.from_function(
        dom, lambda pts: Multivector.from_vector(2, pts)
    )
    assert g.is_clifford
    assert g.values.shape == dom.shape + (4,)
    assert g.scalar_component().shape == dom.shape

    z = LatticeField.zeros(dom, clifford=True)
    assert z.is_clifford and not z.values.any()

    with pytest.raises(SolverError):
        LatticeField(dom, np.zeros((3, 3)))


# ------------------------------------------------------------------- energy


def test_energy_of_constant_field():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    u = LatticeField(dom, np.full(dom.shape, 1.7))
    eps = 1e-2
    e = discrete_energy(u, 2.5, eps)
    # every cluster difference vanishes: base_count terms of h^n eps^p
    assert e == pytest.approx(dom.h**2 * eps**2.5 * dom.base_count, rel=1e-13)
    assert discrete_energy(u, 2.0, 0.0) == 0.0


def test_energy_of_linear_field():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    u = LatticeField.from_function(dom, linear_bc)
    w = float(A2 @ A2)
    for p in (1.5, 2.0, 3.0):
        e = discrete_energy(u, p, 0.0)
        assert e == pytest.approx(dom.h**2 * w ** (p / 2) * dom.base_count, rel=1e-12)


def test_energy_of_linear_clifford_field():
    # vector-valued linear data: the axis differences are constant vectors
    # and the cross terms between axes enter through the assembled product
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    b1 = Multivector.from_vector(2, [0.6, -0.2])
    b2 = Multivector.from_vector(2, [0.1, 0.9])

    def bc(pts):
        coeffs = (pts[:, :1] * b1.coeffs[None, :]
                  + pts[:, 1:] * b2.coeffs[None, :])
        return Multivector(2, coeffs)

    u = LatticeField.from_function(dom, bc)
    from diraclab.algebra import geometric_product

    e1 = Multivector.blade(2, 0b01)
    e2 = Multivector.blade(2, 0b10)
    dirac = geometric_product(e1, b1).coeffs + geometric_product(e2, b2).coeffs
    w = float(np.sum(dirac * dirac))
    e = discrete_energy(u, 2.5, 0.0)
    assert e == pytest.approx(dom.h**2 * w**1.25 * dom.base_count, rel=1e-12)


def test_energy_and_gradient_are_reflection_symmetric():
    # the backward orientation at u mirrors the forward one at the reflected
    # field, so their average is invariant: E(flip u) = E(u) and
    # grad E(flip u) = flip grad E(u)
    rng = np.random.default_rng(11)
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    flip = (slice(None, None, -1), slice(None, None, -1))
    for clifford in (False, True):
        shape = dom.shape + ((4,) if clifford else ())
        vals = rng.normal(size=shape)
        u = LatticeField(dom, vals)
        v = LatticeField(dom, vals[flip].copy())
        for p, eps in ((2.0, 0.0), (2.5, 0.0), (1.5, 1e-3)):
            eu = discrete_energy(u, p, eps)
            ev = discrete_energy(v, p, eps)
            assert eu == pytest.approx(ev, rel=1e-13)
            gu = energy_gradient(u, p, eps).values
            gv = energy_gradient(v, p, eps).values[flip]
            assert np.max(np.abs(gu - gv)) <= 1e-13 * np.max(np.abs(gv))


def test_energy_requires_valid_exponents():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    u = LatticeField.zeros(dom)
    with pytest.raises(SolverError):
        discrete_energy(u, 1.0, 0.0)
    with pytest.raises(SolverError):
        discrete_energy(u, 2.0, -1e-3)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(1.2, 4.0),
)
def test_energy_is_convex_along_segments(seed, p):
    rng = np.random.default_rng(seed)
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    a = LatticeField(dom, rng.normal(size=dom.shape))
    b = LatticeField(dom, rng.normal(size=dom.shape))
    mid = LatticeField(dom, 0.5 * (a.values + b.values))
    eps = 1e-3
    e_mid = discrete_energy(mid, p, eps)
    e_avg = 0.5 * (discrete_energy(a, p, eps) + discrete_energy(b, p, eps))
    assert e_mid <= e_avg + 1e-12 * max(1.0, abs(e_avg))


# ----------------------------------------------------------------- gradient


def fd_gradient_error(dom, vals, p, eps, rng, count=20, step=1e-5):
    u = LatticeField(dom, vals)
    g = energy_gradient(u, p, eps).values
    idxs = np.argwhere(dom.interior_mask)
    worst = 0.0
    for _ in range(count):
        ij = tuple(idxs[rng.integers(len(idxs))])
        if u.is_clifford:
            ij = ij + (int(rng.integers(vals.shape[-1])),)
        vp = vals.copy()
        vp[ij] += step
        vm = vals.copy()
        vm[ij] -= step
        fd = (discrete_energy(LatticeField(dom, vp), p, eps)
              - discrete_energy(LatticeField(dom, vm), p, eps)) / (2 * step)
        worst = max(worst, abs(fd - g[ij]) / max(abs(fd), abs(g[ij]), 1e-12))
    return worst


@pytest.mark.parametrize("p,eps", [(2.0, 0.0), (2.5, 0.0), (1.5, 1e-3), (3.0, 1e-3)])
def test_gradient_matches_finite_differences_scalar(rng, p, eps):
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    vals = rng.normal(size=dom.shape)
    assert fd_gradient_error(dom, vals, p, eps, rng) <= 1e-6


@pytest.mark.parametrize("p,eps", [(2.0, 0.0), (2.5, 0.0), (1.5, 1e-3)])
def test_gradient_matches_finite_differences_clifford(rng, p, eps):
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    vals = rng.normal(size=dom.shape + (4,))
    assert fd_gradient_error(dom, vals, p, eps, rng) <= 1e-6


def test_gradient_of_linear_field_vanishes():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    u = LatticeField.from_function(dom, linear_bc)
    for p in (1.5, 2.0, 2.5):
        g = energy_gradient(u, p, 1e-3).values
        # constant flux differences cancel to the last rounding bit
        assert np.max(np.abs(g)) <= 1e-13


def test_gradient_vanishes_off_interior():
    rng = np.random.default_rng(3)
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 8)
    u = LatticeField(dom, rng.normal(size=dom.shape))
    g = energy_gradient(u, 2.5, 0.0).values
    assert not g[~dom.interior_mask].any()


def test_p2_gradient_is_five_point_stencil():
    # p = 2, eps = 0: the gradient at interior nodes is
    # -2 h^(n-2) (sum of neighbors - 2n u), as it is for either one-sided
    # energy alone
    rng = np.random.default_rng(5)
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    vals = rng.normal(size=dom.shape)
    stencil = np.zeros(dom.shape)
    stencil[1:-1, 1:-1] = (
        vals[2:, 1:-1] + vals[:-2, 1:-1] + vals[1:-1, 2:] + vals[1:-1, :-2]
        - 4.0 * vals[1:-1, 1:-1]
    )
    expected = -2.0 * stencil  # h^(n-2) = 1 at n = 2
    g = energy_gradient(LatticeField(dom, vals), 2.0, 0.0).values
    assert np.max(np.abs(g - expected)[dom.interior_mask]) <= 1e-12


def test_scalar_embedding_consistency():
    # a scalar field embedded in the grade-0 slot has the same energy and
    # the same scalar-sector gradient as the scalar representation
    rng = np.random.default_rng(9)
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    vals = rng.normal(size=dom.shape)
    emb = np.zeros(dom.shape + (4,))
    emb[..., 0] = vals
    for p, eps in ((2.0, 0.0), (2.5, 1e-3)):
        es = discrete_energy(LatticeField(dom, vals), p, eps)
        ec = discrete_energy(LatticeField(dom, emb), p, eps)
        assert ec == pytest.approx(es, rel=1e-14)
        gs = energy_gradient(LatticeField(dom, vals), p, eps).values
        gc = energy_gradient(LatticeField(dom, emb), p, eps).values
        assert np.max(np.abs(gc[..., 0] - gs)) <= 1e-13 * max(np.max(np.abs(gs)), 1.0)


@pytest.mark.parametrize("p,eps", [(1.5, 1e-3), (2.0, 0.0), (2.5, 0.0)])
@pytest.mark.parametrize("clifford", [False, True])
def test_hessian_product_matches_central_difference_of_gradient(rng, p, eps, clifford):
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    shape = dom.shape + ((4,) if clifford else ())
    u = rng.normal(size=shape)
    v = rng.normal(size=shape)
    hv = _hessian_product(_curvature(LatticeField(dom, u), p, eps), v)
    t = 1e-5
    fd = (energy_gradient(LatticeField(dom, u + t * v), p, eps).values
          - energy_gradient(LatticeField(dom, u - t * v), p, eps).values) / (2 * t)
    assert np.max(np.abs(hv - fd)) <= 1e-6 * np.max(np.abs(fd))
    assert not hv[~dom.interior_mask].any()


def test_degenerate_gradient_raises():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    u = LatticeField(dom, np.ones(dom.shape))  # all differences vanish
    with pytest.raises(SolverError, match="flux weight is not finite"):
        energy_gradient(u, 1.5, 0.0)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(p=1.0)
    with pytest.raises(SolverError):
        SolverConfig(p=2.0, epsilon=-1e-3)
    with pytest.raises(SolverError):
        SolverConfig(p=1.5)  # p < 2 needs a positive regularization
    with pytest.raises(SolverError):
        SolverConfig(p=2.0, grad_tol=0.0)
    with pytest.raises(SolverError):
        SolverConfig(p=2.0, max_iter=0)
    with pytest.raises(SolverError, match="p must be finite"):
        SolverConfig(p=np.inf)
    with pytest.raises(SolverError, match="epsilon must be finite"):
        SolverConfig(p=2.5, epsilon=np.nan)
    with pytest.raises(SolverError, match="square is positive"):
        SolverConfig(p=1.5, epsilon=1e-300)  # eps^2 underflows to zero
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    with pytest.raises(SolverError, match="finite stage values"):
        solve_dirichlet(dom, linear_bc, SolverConfig(p=1.5, epsilon=1e-6),
                        schedule=[np.nan, 1e-6])


# ------------------------------------------------- flat kernels, bit for bit


def same_bits(got, want):
    """Equal shapes, equal values with NaN equal to NaN, and equal bytes,
    so that a -0.0 for a 0.0 or another NaN payload fails too."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


KERNEL_CASES = {
    "annulus-h32": (lambda: LatticeDomain.annulus(1.0, 2.0, 1 / 32), False),
    "box-3d": (lambda: LatticeDomain.box([0.0] * 3, [1.0] * 3, 1 / 6), False),
    "clifford-2d": (lambda: LatticeDomain.box([0.0] * 2, [1.0] * 2, 1 / 8), True),
    "clifford-3d": (lambda: LatticeDomain.box([0.0] * 3, [1.0] * 3, 1 / 4), True),
    "side-of-3": (lambda: LatticeDomain.box([0.0] * 3, [0.25, 1.0, 0.5], 0.125), False),
}


def kernel_field(rng, dom, clifford, special=False):
    """A random field with exact zeros of both signs, and with special a
    NaN at one node and an inf at another, so signbits and NaN reach the
    kernels."""
    shape = dom.shape + ((1 << dom.dim,) if clifford else ())
    u = rng.normal(size=shape)
    flat = u.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 0.0
    if special:
        flat[len(flat) // 3] = np.nan
        flat[-5] = np.inf
    return u


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_flat_kernels_match_the_slice_reference_bit_for_bit(rng, monkeypatch, case):
    make, clifford = KERNEL_CASES[case]
    dom = make()
    ravel = dom.grid.ravel
    # the stencils alone, on data with NaN and inf
    x = kernel_field(rng, dom, clifford, special=True)
    same_bits(laplacian(x, dom.interior_mask, dom.h),
              slice_laplacian(x, dom.interior_mask, dom.h))
    for orientation in (+1, -1):
        got = _dirac(ravel(x), dom, orientation, Buffers(), Buffers())
        want = slice_dirac(x, dom, orientation)
        for g, w in zip([got] if clifford else got, [want] if clifford else want):
            same_bits(g, ravel(w))
        if clifford:
            weighted = kernel_field(rng, dom, True, special=True)
            flat = ravel(weighted)
        else:
            weighted = [kernel_field(rng, dom, False, special=True) for _ in range(dom.dim)]
            flat = [ravel(w) for w in weighted]
        out = np.zeros_like(x)
        same_bits(_divergence(dom, orientation, flat, ravel(out.copy()), Buffers()),
                  ravel(slice_divergence(dom, orientation, weighted, out)))
    # the energy's derivatives on finite data with signed zeros
    u = kernel_field(rng, dom, clifford)
    v = kernel_field(rng, dom, clifford)
    for p, eps in ((1.5, 1e-3), (3.0, 0.0)):
        same_bits(energy_gradient(LatticeField(dom, u), p, eps).values,
                  slice_energy_gradient(u, dom, p, eps))
        same_bits(_hessian_product(_curvature(LatticeField(dom, u), p, eps), v),
                  slice_hessian_product(u, dom, p, eps, v))
    # a small coarsest level puts every case through several levels
    monkeypatch.setattr(multigrid, "COARSEST", 4)
    want = slice_vcycle(dom.interior_mask, dom.h)(v)
    cycle = vcycle(dom.interior_mask, dom.h)
    same_bits(cycle(v), want)
    out = np.full_like(v, np.nan)
    assert cycle(v, out) is out
    same_bits(out, want)


# ----------------------------------------------------------- preconditioner


def dense_dirichlet_laplacian(dom):
    """2 h^(n-2) (2n - sum of the lattice shifts) on the interior nodes,
    built entry by entry: the Hessian of the p = 2 energy on a box."""
    nodes = [tuple(ij) for ij in np.argwhere(dom.interior_mask)]
    index = {ij: k for k, ij in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    for k, ij in enumerate(nodes):
        lap[k, k] = 2 * dom.dim
        for axis in range(dom.dim):
            for step in (+1, -1):
                nb = list(ij)
                nb[axis] += step
                if tuple(nb) in index:
                    lap[k, index[tuple(nb)]] -= 1.0
    return 2.0 * dom.h ** (dom.dim - 2) * lap


VCYCLE_DOMAINS = {
    "annulus": lambda: LatticeDomain.annulus(1.0, 2.0, 1 / 8),
    "box-1d": lambda: LatticeDomain.box([0.0], [1.0], 1 / 15),
    "box-2d": lambda: LatticeDomain.box([0.0] * 2, [1.0] * 2, 1 / 9),
    "box-3d": lambda: LatticeDomain.box([0.0] * 3, [1.0] * 3, 1 / 7),
}


@pytest.mark.parametrize("region", sorted(VCYCLE_DOMAINS))
@pytest.mark.parametrize("clifford", [False, True])
def test_vcycle_iteration_reaches_the_dense_laplacian_solve(rng, monkeypatch, region,
                                                            clifford):
    # the boxes have even sides, so every level pads; a small coarsest
    # level makes even these grids cycle through three or more levels
    monkeypatch.setattr(multigrid, "COARSEST", 4)
    dom = VCYCLE_DOMAINS[region]()
    mask = dom.interior_mask
    b = rng.standard_normal(dom.shape + ((1 << dom.dim,) if clifford else ()))
    b[~mask] = 0.0
    want = np.linalg.solve(dense_dirichlet_laplacian(dom), b[mask])
    cycle = vcycle(mask, dom.h)
    x = np.zeros_like(b)
    for _ in range(100):
        x += cycle(b - laplacian(x, mask, dom.h))
    assert np.max(np.abs(x[mask] - want)) <= 1e-12 * np.max(np.abs(want))
    assert not x[~mask].any()


def test_preconditioner_is_symmetric_and_supported_on_the_interior(rng):
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 16)
    precondition = vcycle(dom.interior_mask, dom.h)
    x = rng.standard_normal(dom.shape)
    y = rng.standard_normal(dom.shape)
    mx, my = precondition(x), precondition(y)
    assert abs(np.sum(mx * y) - np.sum(x * my)) <= 1e-12 * abs(np.sum(mx * y))
    assert np.all(mx[~dom.interior_mask] == 0.0)
    # positive on the interior: <x, Mx> > 0 for x supported there
    x[~dom.interior_mask] = 0.0
    assert np.sum(x * precondition(x)) > 0.0
    # a Clifford field is cycled blade by blade
    blades = precondition(np.stack([x, y], axis=-1))
    each = np.stack([precondition(x), my], axis=-1)
    assert np.max(np.abs(blades - each)) <= 1e-14 * np.max(np.abs(each))


def test_p2_box_solve_takes_at_most_two_iterations():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)
    _, diag = solve_dirichlet(dom, saddle_bc, SolverConfig(p=2.0))
    assert diag.converged
    assert diag.iterations <= 2


def test_newton_steps_stay_flat_under_refinement():
    # the nonlinear conjugate gradient this replaced needed 153, 236 and
    # 381 iterations in all; the halving continuation from the boundary
    # mean took 28, 31 and 36 Newton steps, the decades from the harmonic
    # start take 11 at each level
    for k in (16, 32, 64):
        dom = LatticeDomain.annulus(1.0, 2.0, 1 / k)
        _, diag = solve_dirichlet(dom, radial_bc, SolverConfig(p=1.5, epsilon=1e-6))
        assert diag.converged
        assert max(stage[1] for stage in diag.stages) <= 25
        assert diag.iterations <= 14


def test_annulus_iterations_stay_far_below_unpreconditioned_descent():
    # unpreconditioned conjugate gradient took 1,396 iterations here
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 32)
    _, diag = solve_dirichlet(dom, radial_bc, SolverConfig(p=1.5, epsilon=1e-6))
    assert diag.converged
    assert diag.iterations <= 400


# ------------------------------------------------------------------- solves


def monotone(history):
    return all(b <= a for a, b in zip(history, history[1:]))


def test_solve_recovers_linear_field_scalar():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)
    u, diag = solve_dirichlet(dom, linear_bc, SolverConfig(p=2.5))
    exact = dom.coordinates() @ A2
    err = np.max(np.abs(u.values - exact)[dom.interior_mask])
    assert err <= 1e-8
    assert diag.converged
    assert monotone(diag.energies)


def test_solve_recovers_linear_field_clifford():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)

    def bc(pts):
        coeffs = np.zeros((len(pts), 4))
        coeffs[:, 0] = pts @ A2
        coeffs[:, 1] = pts @ np.array([-0.2, 0.7])
        coeffs[:, 3] = pts @ np.array([0.3, 0.1])
        return Multivector(2, coeffs)

    u, diag = solve_dirichlet(dom, bc, SolverConfig(p=2.5))
    exact = bc(dom.coordinates().reshape(-1, 2)).coeffs.reshape(dom.shape + (4,))
    err = np.max(np.abs(u.values - exact)[dom.interior_mask])
    assert err <= 1e-8
    assert diag.converged


def test_solve_p2_recovers_harmonic_quadratic():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)
    u, diag = solve_dirichlet(dom, saddle_bc, SolverConfig(p=2.0))
    exact = saddle_bc(dom.coordinates())
    err = np.max(np.abs(u.values - exact)[dom.interior_mask])
    assert err <= 1e-6
    assert laplace_stencil_residual(u) <= 1e-8
    assert diag.converged
    assert monotone(diag.energies)


def test_solve_p15_linear_with_continuation():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)
    u, diag = solve_dirichlet(dom, linear_bc, SolverConfig(p=1.5, epsilon=1e-4))
    exact = dom.coordinates() @ A2
    assert np.max(np.abs(u.values - exact)[dom.interior_mask]) <= 1e-8
    # the first entry is the harmonic start, at p = 2 and eps = 0
    assert diag.stages[0][0] == 0.0
    eps_seq = [s[0] for s in diag.stages[1:]]
    assert eps_seq[0] == pytest.approx(0.1)
    assert eps_seq[-1] == pytest.approx(1e-4)
    assert all(b < a for a, b in zip(eps_seq, eps_seq[1:]))
    assert monotone(diag.energies)


def test_solve_p_geq_2_single_stage():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    _, diag = solve_dirichlet(dom, linear_bc, SolverConfig(p=3.0))
    assert len(diag.stages) == 1
    assert diag.stages[0][0] == 0.0


def test_solve_annulus_radial_recovery():
    # boundary |x|^(-1) is the exact minimizer for p = 1.5 in the plane
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 16)
    u, diag = solve_dirichlet(dom, radial_bc, SolverConfig(p=1.5, epsilon=1e-6))
    r = np.linalg.norm(dom.coordinates(), axis=-1)
    r[~dom.node_mask] = 1.0
    rel = np.abs(u.values - 1.0 / r) * r
    assert diag.converged
    assert float(np.max(rel[dom.interior_mask])) <= 0.05


def test_solver_converges_at_second_order_on_smooth_problem():
    # measured orders on this family: 3.9-4.0x per halving; the fitted
    # slope stays comfortably above the 1.5 bar
    errs = []
    hs = (1 / 4, 1 / 8, 1 / 16)
    for h in hs:
        dom = LatticeDomain.box([1.0, 0.5], [2.0, 1.5], h)
        u, diag = solve_dirichlet(dom, radial_bc, SolverConfig(p=1.5, epsilon=1e-8))
        assert diag.converged
        r = np.linalg.norm(dom.coordinates(), axis=-1)
        errs.append(float(np.max((np.abs(u.values - 1.0 / r) * r)[dom.interior_mask])))
    q = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert q >= 1.5


def loop_energy_gradient(dom, vals, p, eps):
    """Independent loop-based gradient of the symmetric energy (textbook
    form, no shared machinery)."""
    h = dom.h
    grid = np.zeros_like(vals)
    ni, nj = dom.shape
    for ori in (+1, -1):
        for i in range(ni):
            for j in range(nj):
                if not dom.node_mask[i, j]:
                    continue
                ii, jj = i + ori, j + ori
                if not (0 <= ii < ni and 0 <= jj < nj):
                    continue
                if not (dom.node_mask[ii, j] and dom.node_mask[i, jj]):
                    continue
                d1 = ori * (vals[ii, j] - vals[i, j]) / h
                d2 = ori * (vals[i, jj] - vals[i, j]) / h
                w = d1 * d1 + d2 * d2
                coef = 0.5 * h**2 * p * (w + eps**2) ** ((p - 2) / 2)
                grid[ii, j] += coef * d1 * ori / h
                grid[i, j] -= coef * d1 * ori / h
                grid[i, jj] += coef * d2 * ori / h
                grid[i, j] -= coef * d2 * ori / h
    grid[~dom.interior_mask] = 0.0
    return grid


def test_scalar_solve_matches_textbook_newton_oracle():
    # the same strictly convex functional minimized by an independent
    # dense Newton iteration must land on the same nodal values
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    bc = lambda pts: saddle_bc(pts) + 0.4 * (pts @ A2)
    p, eps = 2.5, 1e-3

    u, diag = solve_dirichlet(dom, bc, SolverConfig(p=p, epsilon=eps, grad_tol=1e-13))
    assert diag.converged

    vals = np.array(u.values)
    vals[dom.interior_mask] = float(np.mean(vals[dom.boundary_mask]))
    idxs = np.argwhere(dom.interior_mask)
    for _ in range(60):
        g = loop_energy_gradient(dom, vals, p, eps)
        gi = np.array([g[tuple(ij)] for ij in idxs])
        if np.max(np.abs(gi)) <= 1e-14:
            break
        hess = np.zeros((len(idxs), len(idxs)))
        delta = 1e-7
        for col, ij in enumerate(idxs):
            vp = vals.copy()
            vp[tuple(ij)] += delta
            gp = loop_energy_gradient(dom, vp, p, eps)
            hess[:, col] = (np.array([gp[tuple(kk)] for kk in idxs]) - gi) / delta
        step = np.linalg.solve(hess, gi)
        for ij, s in zip(idxs, step):
            vals[tuple(ij)] -= s
    assert np.max(np.abs(loop_energy_gradient(dom, vals, p, eps))) <= 1e-14

    assert np.max(np.abs(vals - u.values)[dom.interior_mask]) <= 1e-10


def test_solve_is_deterministic():
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 8)
    cfg = SolverConfig(p=1.5, epsilon=1e-4)
    u1, d1 = solve_dirichlet(dom, radial_bc, cfg)
    u2, d2 = solve_dirichlet(dom, radial_bc, cfg)
    assert np.array_equal(u1.values, u2.values)
    assert d1 == d2


def affine_clifford_bc(pts):
    rng = np.random.default_rng(3)
    slope = rng.normal(size=(3, 8))
    offset = rng.normal(size=8)
    return Multivector(3, pts @ slope + offset)


# sha256 of the solution's bytes and of the repr of its diagnostics,
# recorded before the lattice kernels moved to flat offsets
PINNED_SOLVES = {
    "annulus-h32": (
        lambda: LatticeDomain.annulus(1.0, 2.0, 1 / 32), radial_bc,
        SolverConfig(p=1.5, epsilon=1e-6),
        "65580dd6bc0d8754f836c3d5b9caef021d390239f48967233909efd414864ba4",
        "ec3374b869d334b18161d2cc04e33310693c3ced47e8e53d13e951afdd476181"),
    "clifford-d3": (
        lambda: LatticeDomain.box([0.0] * 3, [1.0] * 3, 1 / 12), affine_clifford_bc,
        SolverConfig(p=1.5, epsilon=1e-4),
        "67178c8a4b37e15781f40acc61a36120a3414c4034452cc62533971549fa9675",
        "91d13443758c2d221299305856d2b91a10cd47c1f1579e39f89592dff8aff4df"),
}


def solve_digests(case):
    """sha256 of the solution's bytes and of the repr of its diagnostics."""
    make, boundary, config = PINNED_SOLVES[case][:3]
    u, d = solve_dirichlet(make(), boundary, config)
    diagnostics = (d.converged, d.iterations, d.final_energy, d.final_gradient_norm,
                   d.energies, d.stages, d.message, d.gradient_evaluations,
                   d.energy_evaluations, d.hessian_products)
    return (hashlib.sha256(u.values.tobytes()).hexdigest(),
            hashlib.sha256(repr(diagnostics).encode()).hexdigest())


@pytest.mark.parametrize("case", sorted(PINNED_SOLVES))
def test_pinned_solve_digests(case):
    # the coarsest multigrid level's dense product follows the BLAS thread count
    out = blas_child(f"import test_solver; print(*test_solver.solve_digests({case!r}))")
    assert out.split() == list(PINNED_SOLVES[case][3:])


def test_evaluation_counters_count_calls(monkeypatch):
    calls = {"gradient": 0, "energy": 0, "hessian": 0}

    def counted(name, key):
        original = getattr(solver_module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(solver_module, name, wrapper)

    counted("energy_gradient", "gradient")
    counted("_energy_terms", "energy")
    counted("_energy_change", "energy")
    counted("_hessian_product", "hessian")
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    _, diag = solve_dirichlet(dom, linear_bc, SolverConfig(p=1.5, epsilon=1e-4))
    assert diag.gradient_evaluations == calls["gradient"]
    assert diag.energy_evaluations == calls["energy"]
    assert diag.hessian_products == calls["hessian"]
    # one start per stage, one gradient and at least one line-search
    # energy and one Hessian product per Newton step
    assert diag.gradient_evaluations == diag.iterations + len(diag.stages)
    assert diag.energy_evaluations >= diag.iterations + len(diag.stages)
    assert diag.hessian_products >= diag.iterations > 0


def test_non_convergence_is_reported():
    # a Newton step is exact at p = 2, so the stop on max_iter needs a
    # nonlinear problem; one step per stage leaves the last one short
    dom = LatticeDomain.annulus(1.0, 2.0, 1 / 16)
    u, diag = solve_dirichlet(dom, radial_bc,
                              SolverConfig(p=1.5, epsilon=1e-6, max_iter=1))
    assert isinstance(diag, SolveDiagnostics)
    assert not diag.converged
    assert diag.message.endswith("stopped on max_iter")
    assert u.values.shape == dom.shape
    # a tolerance below roundoff ends with iterates that no longer move
    coarse = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    _, stalled = solve_dirichlet(coarse, lambda x: x[:, 0] * x[:, 1],
                                 SolverConfig(p=2.5, grad_tol=1e-300))
    assert not stalled.converged
    assert stalled.message.endswith("stopped on stall")


def test_boundary_shape_mismatch_rejected():
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)
    with pytest.raises(SolverError):
        solve_dirichlet(dom, lambda pts: np.zeros(3), SolverConfig(p=2.0))
    with pytest.raises(SolverError):
        solve_dirichlet(
            dom,
            lambda pts: Multivector(3, np.zeros((len(pts), 8))),
            SolverConfig(p=2.0),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_boundary_data_rejected(bad):
    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 0.25)

    def scalar(pts):
        vals = pts[:, 0] * pts[:, 1]
        vals[-1] = bad
        return vals

    def clifford(pts):
        coeffs = np.zeros((len(pts), 4))
        coeffs[0, 3] = bad
        return Multivector(2, coeffs)

    for boundary in (scalar, clifford):
        with pytest.raises(SolverError, match="finite"):
            solve_dirichlet(dom, boundary, SolverConfig(p=2.0))
