"""Weak-form engine tests: bump calculus, the fitted quadrature and its
tensor cross-check, the divergence-theorem oracle, weak residuals of the
closed-form families, domain pullbacks, and the conformal covariance
experiments."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diraclab import mobius, sphere, weakform
from diraclab.algebra import Multivector, blade_grades, conj_vector_sums, geometric_product
from diraclab.fields import (
    NORM_CUTOFF,
    AnalyticField,
    Domain,
    DomainError,
    FieldError,
    VanishingNormError,
    cauchy_kernel,
    constant_field,
    identity_field,
    log_radial,
    p_dirac_solution,
    p_harmonic_radial,
)
from diraclab.mobius import (
    MobiusPoint,
    compose,
    dilation,
    inversion,
    map_points,
    rotation,
    translation,
)
from diraclab.weakform import (
    BumpTestFunction,
    QuadratureRule,
    SupportError,
    WeakFormError,
    centered_bump,
    default_test_functions,
    dirac_covariance_experiment,
    dirac_integral_check,
    fitted_node_count,
    harmonic_covariance_experiment,
    norm_frame_identity_check,
    normalized_weak_residual,
    pullback_domain,
    random_bump,
    sc_invariance_check,
    support_families,
    support_quadrature,
    weak_p_dirac_residual,
    weak_p_harmonic_residual,
    weak_pairing,
)
from diraclab.sphere import CapBump
from diraclab.weakform import _BLOCK as BLOCK
from oracles import dict_geometric_product, dict_to_coeffs, joined, mv_to_dict, node_blocks

# node counts around a block edge come after several whole blocks
EDGE = 4 * BLOCK

BALL3 = Domain.ball([3.0, 0.0, 0.0], 1.0)


def small_rule(domain, order=6):
    return QuadratureRule.build(domain, order=order, cells=2)


# ------------------------------------------------------- bump test functions


def test_bump_profile_vanishes_outside_support():
    eta = BumpTestFunction(3, (0.0, 0.0, 0.0), 1.0, Multivector.scalar(3, 1.0))
    pts = np.array([[0.0, 0.0, 0.0], [0.999, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    prof = eta.profile(pts)
    assert prof[0] == pytest.approx(math.exp(-1.0))
    assert prof[1] > 0
    assert prof[2] == 0.0 and prof[3] == 0.0
    assert list(eta.support_mask(pts)) == [True, True, False, False]


def test_bump_families_are_finite_and_exactly_zero_from_the_edge_out():
    """Every bump family, and its derivatives, at the centre, at the last
    float inside the support, on the edge and far outside: no floating
    point warning, finite values, and exactly 0 from the edge outward."""
    from diraclab.sphere import CapBump

    below = np.nextafter(1.0, 0.0)
    flat = BumpTestFunction(2, (0.0, 0.0), 1.0, Multivector(2, [1.0, 2.0, -1.0, 0.5]))
    flat_pts = np.array([[0.0, 0.0], [below, 0.0], [1.0, 0.0], [40.0, 0.0]])
    # on the unit circle through the pole (0, 0, 1), height z = 1/2 lies at
    # chordal distance exactly 1; the next float up is the last one inside
    cap = CapBump((0.0, 0.0, 1.0), 1.0, Multivector.blade(3, 0b101))
    z = np.array([1.0, np.nextafter(0.5, 1.0), 0.5, -1.0])
    cap_pts = np.stack([np.sqrt(1.0 - z * z), np.zeros(4), z], axis=-1)
    unit = cap_pts / np.linalg.norm(cap_pts, axis=-1, keepdims=True)
    t = np.sum((unit - np.array(cap.center)) ** 2, axis=-1)
    assert t[1] < 1.0 and t[2] == 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            flat(flat_pts).coeffs, flat.dirac(flat_pts).coeffs, flat.dirac_vector(flat_pts),
            cap(cap_pts).coeffs, cap.dirac_vector(cap_pts), cap.dirac(cap_pts).coeffs,
        ]
    for v in values:
        assert np.all(np.isfinite(v))
        assert np.all(v[2:] == 0.0)
    assert flat.profile(flat_pts)[0] == math.exp(-1.0)


def test_bump_partials_match_finite_differences(rng):
    blade = Multivector(3, rng.normal(size=8))
    eta = BumpTestFunction(3, (0.3, -0.2, 0.1), 0.8, blade)
    pts = np.array([[0.4, 0.0, 0.3], [0.1, -0.5, 0.0], [0.9, -0.2, 0.1]])
    h = 1e-6
    grad = eta.dirac_vector(pts)
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (eta(pts + step).coeffs - eta(pts - step).coeffs) / (2 * h)
        assert np.allclose(grad[:, j, None] * blade.coeffs, fd, atol=1e-7)


def test_bump_dirac_assembles_partials(rng):
    blade = Multivector(3, rng.normal(size=8))
    eta = BumpTestFunction(3, (0.0, 0.0, 0.0), 1.0, blade)
    pts = rng.uniform(-0.5, 0.5, size=(6, 3))
    manual = Multivector.zero(3)
    grad = eta.dirac_vector(pts)
    for j in range(3):
        ej = Multivector.blade(3, 1 << j)
        manual = manual + geometric_product(ej, Multivector(3, grad[:, j, None] * blade.coeffs))
    assert np.allclose(eta.dirac(pts).coeffs, manual.coeffs, atol=1e-14)


def test_bump_gradient_is_zero_on_boundary_and_outside():
    eta = BumpTestFunction(2, (0.0, 0.0), 1.0, Multivector.scalar(2, 1.0))
    pts = np.array([[1.0, 0.0], [0.0, -1.0], [1.5, 0.2]])
    assert np.all(eta.dirac(pts).coeffs == 0.0)


def test_bump_rejects_bad_parameters():
    with pytest.raises(WeakFormError):
        BumpTestFunction(3, (0.0, 0.0, 0.0), 0.0, Multivector.scalar(3, 1.0))
    with pytest.raises(WeakFormError):
        BumpTestFunction(3, (0.0, 0.0, 0.0), 1.0, Multivector.scalar(2, 1.0))


def test_support_containment_checks():
    ball = Domain.ball([0.0, 0.0], 1.0)
    box = Domain.box([-1.0, -1.0], [1.0, 1.0])
    ring = Domain.annulus([0.0, 0.0], 1.0, 2.0)
    one = Multivector.scalar(2, 1.0)
    BumpTestFunction(2, (0.2, 0.0), 0.5, one).require_support_inside(ball)
    with pytest.raises(SupportError):
        BumpTestFunction(2, (0.6, 0.0), 0.5, one).require_support_inside(ball)
    with pytest.raises(SupportError):
        BumpTestFunction(2, (0.8, 0.0), 0.5, one).require_support_inside(box)
    with pytest.raises(SupportError):  # reaches inside the hole
        BumpTestFunction(2, (1.2, 0.0), 0.5, one).require_support_inside(ring)
    BumpTestFunction(2, (1.5, 0.0), 0.3, one).require_support_inside(ring)


def test_bump_families_stay_inside(rng):
    for domain in (
        BALL3,
        Domain.box([0.0, 0.0, 0.0], [1.0, 2.0, 1.0]),
        Domain.annulus([0.0, 0.0], 0.5, 2.0),
    ):
        for _ in range(5):
            random_bump(domain, rng).require_support_inside(domain)
        blade = Multivector.scalar(domain.dim, 1.0)
        centered_bump(domain, blade).require_support_inside(domain)


def test_default_test_function_family_layout():
    etas = default_test_functions(BALL3, seed=1, random_count=3)
    assert len(etas) == 3 + 8
    assert [e.label for e in etas[:3]] == ["rand-0", "rand-1", "rand-2"]
    assert etas[3].label == "blade-1" and etas[-1].label == "blade-e123"
    # same seed reproduces the family exactly
    again = default_test_functions(BALL3, seed=1, random_count=3)
    for a, b in zip(etas, again):
        assert a.center == b.center and a.radius == b.radius
        assert np.array_equal(a.blade.coeffs, b.blade.coeffs)


def test_support_families_group_runs_of_one_centre_and_radius():
    one, e1 = Multivector.scalar(3, 1.0), Multivector.blade(3, 0b001)
    a = BumpTestFunction(3, (3.0, 0.0, 0.0), 0.5, one, label="a")
    a_e1 = BumpTestFunction(3, (3.0, 0.0, 0.0), 0.5, e1, label="a-e1")
    moved = BumpTestFunction(3, (3.0, 0.1, 0.0), 0.5, one, label="moved")
    smaller = BumpTestFunction(3, (3.0, 0.0, 0.0), 0.4, one, label="smaller")
    families = support_families([a, a_e1, moved, smaller, a])
    assert [[e.label for e in f] for f in families] == [
        ["a", "a-e1"], ["moved"], ["smaller"], ["a"]]
    etas = default_test_functions(BALL3, random_count=2)
    assert [len(f) for f in support_families(etas)] == [1, 1, 8]


# --------------------------------------------------------------- quadrature


def test_tensor_rule_parameter_validation():
    with pytest.raises(WeakFormError):
        QuadratureRule.build(Domain.box([0.0] * 5, [1.0] * 5))
    with pytest.raises(WeakFormError):
        QuadratureRule.build(BALL3, order=0)
    with pytest.raises(WeakFormError):
        QuadratureRule.build(BALL3, cells=0)
    # the closed form (order * cells)**dim, with no grid built
    assert QuadratureRule.build(Domain.ball([3.0, 0.0, 0.0, 0.0], 1.0), order=12,
                                cells=2).node_count == 24**4


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_fitted_rule_integrates_ball_volume_and_moments(dim):
    eta = BumpTestFunction(
        dim, (0.5,) + (0.0,) * (dim - 1), 0.7, Multivector.scalar(dim, 1.0)
    )
    nodes, w = support_quadrature(eta, order=6)
    r = eta.radius
    vol = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1) * r**dim
    assert float(np.sum(w)) == pytest.approx(vol, rel=1e-13)
    # second moment about the bump center: vol * r^2 * dim/(dim+2)
    sq = np.sum((nodes - np.array(eta.center)) ** 2, axis=-1)
    assert float(np.sum(w * sq)) == pytest.approx(
        vol * r**2 * dim / (dim + 2.0), rel=1e-13
    )


def _sphere_moment(dim, m):
    """Integral of x_k^(2m) over S^(dim-1): the area times
    (2m-1)!! / (dim (dim + 2) ... (dim + 2m - 2))."""
    area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return area * math.prod((2 * i + 1) / (dim + 2 * i) for i in range(m))


def _sphere_rule(dim, order, rho=0.0):
    """The sphere factor of the fitted rule of `order` in `dim` dimensions."""
    _, level, inner, outer = weakform._counts(order, rho)
    return weakform._unit_sphere_rule(dim, level, outer if dim == 2 else inner)


# dim 6 at order 12 is left out: its rule holds 15.9 M nodes (0.8 GB)
@pytest.mark.parametrize("dim, order", [
    (dim, order) for dim in range(2, 7) for order in (3, 6, 12) if (dim, order) != (6, 12)
])
def test_unit_sphere_rule_integrates_even_moments(dim, order):
    """The recursive sphere rule integrates the area and every x_k^4 and
    x_k^6 on S^(dim-1) to 1e-14, and holds as many nodes, times the radial
    rule, as the closed form the CLI budget prices."""
    omega, w = _sphere_rule(dim, order)
    assert omega.shape == (dim, len(w)) and omega.flags.c_contiguous
    assert len(w) * weakform._counts(order)[0] == weakform.fitted_node_count(dim, order)
    for m in (0, 2, 3):
        exact = _sphere_moment(dim, m)
        for k in range(dim):
            got = math.fsum(w * omega[k] ** (2 * m))
            assert abs(got - exact) <= 1e-14 * exact, (m, k, got, exact)


@pytest.mark.parametrize("order", [3, 6, 12])
@pytest.mark.parametrize("bump, rule_dim", [
    *((BumpTestFunction(dim, (0.0,) * dim, 0.5, Multivector.scalar(dim, 1.0)), dim)
      for dim in (2, 3, 4)),
    *((CapBump((0.0,) * (ambient - 1) + (1.0,), 0.8, Multivector.scalar(ambient, 1.0)),
       ambient - 1) for ambient in (3, 4)),
], ids=["flat-2", "flat-3", "flat-4", "cap-3", "cap-4"])
def test_streamed_node_count_is_the_priced_count(bump, rule_dim, order):
    """The pairing counts the nodes it sums, for flat bumps in R^n and cap
    bumps on S^n alike, and the count is the closed form the CLI's budget
    prices: `fitted_node_count` of the rule's dimension, n for a ball in
    R^n and n for a cap of S^n in R^(n+1)."""
    one = Multivector.scalar(bump.dim, 1.0)
    count = weakform._pair(lambda x: (one, None), "1", 2.0, [bump], order)[2]
    assert count == fitted_node_count(rule_dim, order)


@pytest.mark.parametrize("bump, rule_dim", [
    *((BumpTestFunction(dim, (0.0,) * dim, 0.5, Multivector.scalar(dim, 1.0)), dim)
      for dim in (3, 4)),
    (CapBump((0.0, 0.0, 0.0, 1.0), 0.8, Multivector.scalar(4, 1.0)), 3),
], ids=["flat-3", "flat-4", "cap-4"])
def test_streamed_count_is_at_most_the_priced_count(bump, rule_dim):
    """`fitted_node_count` prices the rule before any field is known, so it
    bounds the count: no singular point, one at the centre and one a radius
    away (rho <= 1) stream exactly the price at order 8, and one ten radii
    away streams the Gauss level 12 that rho = 10 needs, not the order's 16."""
    one, order = Multivector.scalar(bump.dim, 1.0), 8
    c, step = np.array(bump.center), bump.radius * np.eye(bump.dim)[0]
    price = fitted_node_count(rule_dim, order)
    far = price * 12**(rule_dim - 1) // 16**(rule_dim - 1)  # level 12 and circle 24, not 16 and 32
    for singular, count in (((), price), ((tuple(c),), price), ((tuple(c + step),), price),
                            ((tuple(c + 10 * step),), far)):
        assert weakform._pair(lambda x: (one, None), "1", 2.0, [bump], order, singular)[2] == count


def test_artifact_rows_stream_at_most_the_priced_count():
    """Every family's row of a covariance experiment and of a spherical
    residual at order 8 streams at most the price, and the families clear of
    the singular points stream fewer nodes."""
    rep = dirac_covariance_experiment(p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0]), 2.5,
                                      inversion(3), BALL3, order=8, random_bumps=2)
    pole = sphere.sphere_point([0.3, -0.5, 0.7, 0.4])
    caps = sphere.default_cap_bumps(sphere.SphericalCap(tuple(-pole), 1.0))
    spherical = sphere.normalized_weak_spherical_residual(sphere.spherical_kernel(pole, 2.5), 2.5,
                                                          caps, 8)
    counts = [r.nodes for r in rep.rows] + [count for _, count in spherical]
    assert max(counts) <= fitted_node_count(3, 8) and min(counts) < fitted_node_count(3, 8)


def _rho_case(kind, rho):
    """A bump (a dense blade over the profile) and a field singular only at
    one point rho radii from its centre: a flat bump of radius 0.9 at the
    origin and `p_dirac_solution` about that point, or a cap of chordal
    radius 0.5 about e_4 on S^3 and the spherical kernel of a pole rho radii
    away chordally; with the values, exponent and name `_pair` reads."""
    if kind == "cap-4":
        c, theta = np.eye(4)[3], 2.0 * math.asin(rho * 0.5 / 2.0)
        f = sphere.spherical_kernel(math.cos(theta) * c + math.sin(theta) * np.eye(4)[0], 2.5)
        bump = CapBump(tuple(c), 0.5, Multivector(4, np.linspace(0.3, 1.0, 16)))
        return bump, f, sphere._flux_values(f, 2.5), 2.0
    dim = int(kind[-1])
    f = p_dirac_solution(dim, 2.5, center=[0.9 * rho] + [0.0] * (dim - 1))
    bump = BumpTestFunction(dim, (0.0,) * dim, 0.9,
                            Multivector(dim, np.linspace(0.3, 1.0, 1 << dim)))
    return bump, f, lambda x: (f(x), None), 2.5


@pytest.mark.parametrize("order", [6, 8, 12])
@pytest.mark.parametrize("rho", [1.17, 1.44, 2.2])
@pytest.mark.parametrize("kind", ["flat-3", "flat-4", "cap-4"])
def test_gauss_level_follows_the_nearest_singular_point(monkeypatch, kind, rho, order):
    """Where the level that rho needs reaches the order's clamp max(12,
    2 order), the pairing is the full rule's bit for bit.  Where it is lower
    (rho = 2.2 at order 12: level 23, not 24), the raw pairing's error against
    a level-32 rule of the same radial count, which leaves only the angular
    error, is the full rule's to within 2 eps of the normalizer: the level
    is chosen to reach rho^(-2G) <= 2^-52."""
    bump, f, values, p = _rho_case(kind, rho)
    assert bump.clearance(f.singular_points) == pytest.approx(rho, rel=1e-12)
    chosen, full = (weakform._pair(values, f.name, p, [bump], order, singular)
                    for singular in (f.singular_points, ()))
    if chosen[2] == full[2]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(chosen[:2], full[:2]))
        return
    assert (rho, order) == (2.2, 12) and chosen[2] < full[2]
    radial, _, _, top = weakform._counts(order)
    monkeypatch.setattr(weakform, "_counts", lambda order, rho=0.0: (radial, 32, 64, top))
    (ref,), (scale,), _ = weakform._pair(values, f.name, p, [bump], order)
    chosen_error, full_error = (np.max(np.abs(raw[0] - ref)) for raw, _, _ in (chosen, full))
    assert chosen_error <= full_error + 2 * np.finfo(float).eps * scale


def _index_placed(bump, order):
    """The fitted rule's nodes and weights placed by index arithmetic and
    gathers, node k at radial index k // M and sphere index k % M, on the
    row-major (M, n) sphere nodes."""
    cap = isinstance(bump, CapBump)
    n = bump.dim - 1 if cap else bump.dim
    r, wr = weakform._radial_rule(weakform._counts(order)[0])
    omega, wo = _sphere_rule(n, order)
    omega = np.ascontiguousarray(omega.T)
    i, j = np.divmod(np.arange(len(r) * len(wo)), len(wo))
    c = np.array(bump.center)
    if not cap:
        rw = wr * r ** (n - 1)
        return c + bump.radius * (r[i, None] * omega[j]), bump.radius**n * (rw[i] * wo[j])
    theta = bump.geodesic_radius * r
    rw = bump.geodesic_radius * wr * np.sin(theta) ** (n - 1)
    directions = omega @ sphere._orthonormal_complement(c).T
    return np.cos(theta)[i, None] * c + np.sin(theta)[i, None] * directions[j], rw[i] * wo[j]


@pytest.mark.parametrize("block", [7, 100, 1000, BLOCK])
@pytest.mark.parametrize("bump", [
    BumpTestFunction(2, (0.3, -0.2), 0.7, Multivector.scalar(2, 1.0)),
    BumpTestFunction(3, (3.0, 0.1, -0.2), 0.9, Multivector.scalar(3, 1.0)),
    CapBump((0.6, 0.0, 0.8), 0.5, Multivector.scalar(3, 1.0)),
], ids=["flat-2", "flat-3", "cap-3"])
def test_blocks_are_the_index_placed_rule_bit_for_bit(monkeypatch, bump, block):
    """Blocks placed as rectangles of the radial x sphere grid (within one
    radial row, across two, across many) hold, in node order, the bytes of
    the same nodes and weights placed by index arithmetic, and every block
    but the last holds `_BLOCK` nodes.  Each block's points are the (B, n)
    view of n contiguous rows, and a flat bump's slope keeps that layout,
    so the pairing reads its components without a copy."""
    monkeypatch.setattr(weakform, "_BLOCK", block)
    blocks = list(bump.blocks(3))
    assert all(len(w) == block for _, w in blocks[:-1]) and 0 < len(blocks[-1][1]) <= block
    assert all(x.T.flags.c_contiguous and w.flags.c_contiguous for x, w in blocks)
    if not isinstance(bump, CapBump):
        assert all(bump.dirac_vector(x).T.flags.c_contiguous for x, _ in blocks)
    for got, want in zip(joined(blocks), _index_placed(bump, 3)):
        assert got.tobytes() == want.tobytes()


def test_dirac_integral_check_rejects_an_escaped_bump():
    rule = small_rule(BALL3)
    escaped = BumpTestFunction(3, (3.9, 0.0, 0.0), 0.5, Multivector.scalar(3, 1.0))
    with pytest.raises(SupportError):
        dirac_integral_check(escaped, rule)


def test_dirac_integral_oracle_fitted_vs_tensor(rng):
    """The integral of D eta vanishes exactly, and the fitted rule reaches
    roundoff.  (The box-tensor comparison went with the tensor grid.)"""
    rule = QuadratureRule.build(BALL3)
    eta = random_bump(BALL3, rng, label="off-center")
    assert dirac_integral_check(eta, rule) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dirac_integral_vanishes_for_random_bumps(data):
    cx = data.draw(st.floats(-0.5, 0.5))
    cy = data.draw(st.floats(-0.5, 0.5))
    radius = data.draw(st.floats(0.1, 0.45))
    # the support must lie inside the unit ball the rule covers
    assume(math.hypot(cx, cy) + radius < 0.99)
    coeffs = [data.draw(st.floats(-2, 2)) for _ in range(4)]
    if not any(abs(c) > 1e-3 for c in coeffs):
        coeffs[0] = 1.0
    dom = Domain.ball([0.0, 0.0], 1.0)
    eta = BumpTestFunction(2, (cx, cy), radius, Multivector(2, coeffs))
    assert dirac_integral_check(eta, small_rule(dom, order=4)) <= 1e-11


# ----------------------------------------------------------- weak residuals


@pytest.mark.parametrize("dim,p", [(2, 1.5), (3, 2.0), (3, 2.5)])
def test_closed_form_solutions_have_vanishing_weak_residual(dim, p):
    domain = Domain.ball([3.0] + [0.0] * (dim - 1), 1.0)
    f = p_dirac_solution(dim, p)
    rule = small_rule(domain)
    for eta in default_test_functions(domain, seed=42, random_count=2):
        assert normalized_weak_residual(f, p, eta, rule) <= 1e-12


def test_closed_form_solution_weak_residual_dim4(rng):
    domain = Domain.ball([3.0, 0.0, 0.0, 0.0], 1.0)
    f = p_dirac_solution(4, 3.0)
    eta = random_bump(domain, rng)
    assert normalized_weak_residual(f, 3.0, eta, small_rule(domain)) <= 1e-8


def test_weak_residual_trivial_cases(rng):
    rule = small_rule(BALL3)
    eta = random_bump(BALL3, rng)
    zero = constant_field(3, Multivector.zero(3))
    assert float(weak_p_dirac_residual(zero, 2.0, eta, rule).norm()) == 0.0
    const = constant_field(3, Multivector.from_vector(3, [1.0, 2.0, -0.5]))
    assert normalized_weak_residual(const, 2.0, eta, rule) <= 1e-13


def test_p_harmonic_derivative_solves_the_weak_dirac_equation(rng):
    """Restricted equivalence: D h of a p-harmonic h is a weak p-Dirac
    solution, via either entry point."""
    p = 2.5
    h = p_harmonic_radial(3, p)
    rule = small_rule(BALL3)
    eta = random_bump(BALL3, rng)
    res = weak_p_harmonic_residual(h, p, eta, rule)

    def block(x, wx):
        dh = h.dirac(x)
        return dh, dh.norm(), eta.dirac_vector(x), wx * dh.norm() ** (p - 2.0)

    raw, norm, _ = weak_pairing(eta.blocks(rule.order), block, eta.blade)
    assert np.array_equal(res.coeffs, raw)
    assert float(res.norm()) / norm <= 1e-12
    assert normalized_weak_residual(h, p, eta, rule, of_derivative=True) <= 1e-12


def test_log_radial_is_weakly_n_harmonic(rng):
    h = log_radial(3)
    eta = random_bump(BALL3, rng)
    assert normalized_weak_residual(h, 3.0, eta, small_rule(BALL3), of_derivative=True) <= 1e-12


def test_weak_p_harmonic_requires_analytic_derivative(rng):
    opaque = AnalyticField(3, lambda q: Multivector.scalar(3, q[..., 0]), name="bare")
    eta = random_bump(BALL3, rng)
    with pytest.raises(FieldError):
        weak_p_harmonic_residual(opaque, 2.0, eta, small_rule(BALL3))
    with pytest.raises(FieldError):
        normalized_weak_residual(opaque, 2.0, eta, small_rule(BALL3), of_derivative=True)


def test_vanishing_norm_guard_for_small_p():
    domain = Domain.ball([0.0, 0.0, 0.0], 1.0)
    eta = centered_bump(domain, Multivector.scalar(3, 1.0))
    with pytest.raises(VanishingNormError):
        weak_p_dirac_residual(identity_field(3), 1.5, eta, small_rule(domain))


def test_p_must_exceed_one(rng):
    eta = random_bump(BALL3, rng)
    with pytest.raises(FieldError):
        weak_p_dirac_residual(identity_field(3), 1.0, eta, small_rule(BALL3))


def fitted_normalizer(f, p, eta, rule):
    """Quadrature of |f|^(p-1) |D eta| over the fitted nodes."""
    def block(x, wx):
        vals = f(x)
        return vals, vals.norm(), eta.dirac_vector(x), wx * vals.norm() ** (p - 2.0)

    return float(weak_pairing(eta.blocks(rule.order), block, eta.blade)[1])


def test_unit_weight_changes_nothing(rng):
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = random_bump(BALL3, rng)
    rule = small_rule(BALL3)
    plain = weak_p_dirac_residual(f, 2.5, eta, rule)
    unit = weak_p_dirac_residual(
        f, 2.5, eta, rule, weight=lambda pts: np.ones(len(pts))
    )
    assert np.array_equal(plain.coeffs, unit.coeffs)


def test_normalized_residual_is_scale_invariant(rng):
    base = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    f3 = AnalyticField(3, lambda q: base(q) * 3.0, name="3f")
    eta = random_bump(BALL3, rng)
    rule = small_rule(BALL3)
    a = normalized_weak_residual(base, 2.5, eta, rule)
    b = normalized_weak_residual(f3, 2.5, eta, rule)
    assert b == pytest.approx(a, abs=1e-14)


def test_normalizer_scales_like_p_minus_one_power(rng):
    base = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    f3 = AnalyticField(3, lambda q: base(q) * 3.0, name="3f")
    eta = random_bump(BALL3, rng)
    rule = small_rule(BALL3)
    na = fitted_normalizer(base, 2.5, eta, rule)
    nb = fitted_normalizer(f3, 2.5, eta, rule)
    assert nb == pytest.approx(na * 3.0**1.5, rel=1e-13)
    # normalized_weak_residual divides by exactly this normalizer
    raw = weak_p_dirac_residual(f3, 2.5, eta, rule)
    assert normalized_weak_residual(f3, 2.5, eta, rule) == float(raw.norm()) / nb


def test_weak_pairing_rows_match_single_calls(rng):
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = random_bump(BALL3, rng)
    nodes, w = support_quadrature(eta, 6)
    vals = f(nodes)
    scan = w * np.stack([np.ones(len(w)), vals.norm(), nodes[:, 0] ** 2])

    def block(x, wx):
        vals = f(x)
        return vals, vals.norm(), eta.dirac_vector(x), wx

    raw, normalizer, _ = weak_pairing(node_blocks(nodes, scan), block, eta.blade)
    assert raw.shape == (3, 8) and normalizer.shape == (3,)
    for k in range(3):
        raw_k, normalizer_k, _ = weak_pairing(node_blocks(nodes, scan[k]), block, eta.blade)
        assert np.array_equal(raw[k], raw_k)
        assert normalizer[k] == normalizer_k


@pytest.mark.parametrize("dim, count", [
    (dim, count) for dim in (2, 3, 4) for count in (1, EDGE, EDGE + 1)
])
def test_weak_pairing_blade_stack_matches_single_blades(dim, count):
    """K stacked right factors share one pass and give, bit for bit, the
    K rows of K single-blade calls, for 1-D and (E, N) weights."""
    rng = np.random.default_rng(10 * dim + count)
    idx = np.arange(count)
    vec = rng.standard_normal((count, dim))
    vals = Multivector(dim, rng.standard_normal((count, 1 << dim)))
    blades = [Multivector.blade(dim, 0), Multivector.blade(dim, (1 << dim) - 1),
              Multivector(dim, rng.standard_normal(1 << dim))]
    stack = Multivector(dim, np.stack([b.coeffs for b in blades]))

    block = _node_block(vals, vec)

    for w in (rng.uniform(0.1, 1.0, count), rng.uniform(0.1, 1.0, (3, count))):
        raw, normalizer, _ = weak_pairing(node_blocks(idx, w), block, stack)
        assert raw.shape == (3,) + w.shape[:-1] + (1 << dim,)
        assert normalizer.shape == (3,) + w.shape[:-1]
        for k, blade in enumerate(blades):
            raw_k, normalizer_k, _ = weak_pairing(node_blocks(idx, w), block, blade)
            assert np.array_equal(raw[k], raw_k)
            assert np.array_equal(normalizer[k], normalizer_k)


def _rows(a, i):
    """Node rows i of a batched Multivector; a constant stays whole."""
    return Multivector(a.dim, a.coeffs[i]) if a.batch_shape else a


def _node_block(vals, vec):
    """The weak pairing's block(i, wi) over node rows i of vals and vec."""
    def block(i, wi):
        v = _rows(vals, i)
        return v, v.norm(), vec[i], wi

    return block


# every dimension on a few nodes and at the block edges
@pytest.mark.parametrize("dim, count", [
    (dim, count) for dim in range(1, 7) for count in (1, 3, EDGE - 1, EDGE, EDGE + 1)
])
def test_weak_pairing_matches_per_node_reference(dim, count):
    """The streamed kernel against a dense product per node summed by
    np.sum: within 1e-14 of the scale sum w |vals| |D eta| for a vector
    left factor times a constant right."""
    rng = np.random.default_rng(100 * dim + count)
    blades = 1 << dim
    idx = np.arange(count)
    vec = rng.standard_normal((count, dim))
    right = Multivector(dim, rng.standard_normal(blades))
    deta = geometric_product(Multivector.from_vector(dim, vec), right)
    batched = Multivector(dim, rng.standard_normal((count, blades)))
    constant = Multivector(dim, rng.standard_normal(blades))
    for vals in (batched, constant):
        ref = geometric_product(vals.conjugation(), deta).coeffs
        for w in (rng.uniform(0.1, 1.0, count), rng.uniform(0.1, 1.0, (3, count))):
            raw, nz, _ = weak_pairing(
                node_blocks(idx, w), _node_block(vals, vec), right)
            scale = np.sum(w * vals.norm() * deta.norm(), axis=-1)
            assert np.all(np.abs(raw - np.sum(w[..., None] * ref, axis=-2))
                          <= 1e-14 * scale[..., None])
            assert np.all(np.abs(nz - scale) <= 1e-14 * scale)
            if count == 1:
                conj = Multivector(dim, _rows(vals, 0).conjugation().coeffs.reshape(-1))
                node = dict_to_coeffs(dict_geometric_product(
                    mv_to_dict(conj), mv_to_dict(_rows(deta, 0))), dim)
                assert np.all(np.abs(raw - w[..., 0, None] * node)
                              <= 1e-14 * scale[..., None])
    zero = Multivector.zero(dim, (count,))
    w = rng.uniform(0.1, 1.0, count)
    raw, nz, _ = weak_pairing(
        node_blocks(idx, w), _node_block(zero, np.zeros((count, dim))), right)
    assert not np.any(raw) and nz == 0.0


@pytest.mark.parametrize("count", [3, 100, EDGE, EDGE + 1])
def test_weak_pairing_sums_in_node_order(count):
    """Every block, the first included, adds its nodes one after another:
    the raw pairing equals, bit for bit, a running sum over the per-node
    products conj((-l) vals) = conj(vals) l, for a dense field, a vector
    field (7 of 16 blades reached), an even field and a scalar field
    against a one-axis l (a single blade reached), with 1-D and (E, N)
    weights."""
    dim = 4
    rng = np.random.default_rng(count)
    vec = rng.standard_normal((count, dim))
    even = blade_grades(dim) % 2 == 0
    for left, vals in (
        (vec, Multivector(dim, rng.standard_normal((count, 1 << dim)))),
        (vec, Multivector.from_vector(dim, rng.standard_normal((count, dim)))),
        (vec, Multivector(dim, np.where(even, rng.standard_normal((count, 1 << dim)), 0.0))),
        (vec * [1.0, 0.0, 0.0, 0.0], Multivector.scalar(dim, rng.standard_normal(count))),
    ):
        prod = geometric_product(Multivector.from_vector(dim, -left), vals).conjugation()
        for w in (rng.uniform(0.1, 1.0, count), rng.uniform(0.1, 1.0, (3, count))):
            raw, _, _ = weak_pairing(node_blocks(np.arange(count), w),
                                     _node_block(vals, left), Multivector.scalar(dim, 1.0))
            acc = np.zeros(w.shape[:-1] + (1 << dim,))
            for k in range(count):
                acc = acc + w[..., k, None] * prod.coeffs[k]
            assert np.array_equal(raw, acc)
            assert np.array_equal(np.signbit(raw), np.signbit(acc))


def _same_bytes(got, want):
    """NaN exactly where want is NaN (equal_nan), and the same bytes, signbit
    included, everywhere else."""
    keep = ~np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64)))


# every dimension on a few nodes and around one block edge
@pytest.mark.parametrize("dim, count", [
    (dim, count) for dim in range(1, 7) for count in (1, 3, BLOCK - 1, BLOCK, BLOCK + 1)
])
def test_conj_vector_sums_match_the_gather_bit_for_bit(dim, count):
    """The pairing kernel, streamed block by block, against the gather
    product geometric_product(from_vector(-l), vals), conjugated, weighted
    and summed node after node below the running total: the same bytes for
    dense, vector, scalar, even, constant and all-zero fields, for l with
    a component of -0.0, zeros, an inf or a NaN, for 1-D and (E, N)
    weights, one with an inf and one with a NaN, and through weak_pairing
    for a stack of K right factors."""
    rng = np.random.default_rng(1000 * dim + count)
    n, grades = 1 << dim, blade_grades(dim)
    field = lambda keep: np.where(keep, rng.standard_normal((count, n)), 0.0)
    fields = (field(True), field(grades == 1), field(grades == 0),
              field(grades % 2 == 0), rng.standard_normal(n), np.zeros((count, n)))
    signed_zeros = rng.standard_normal((count, dim))
    signed_zeros[:, 0], signed_zeros[::2, -1] = -0.0, 0.0
    lefts = [signed_zeros]
    for bad in (np.inf, np.nan):
        lefts.append(rng.standard_normal((count, dim)))
        lefts[-1][count // 2, dim // 2] = bad
    weights = [rng.uniform(0.1, 1.0, count), rng.uniform(0.1, 1.0, (3, count))]
    for bad in (np.inf, np.nan):
        weights.append(rng.uniform(0.1, 1.0, weights[-2].shape))
        weights[-1][..., count - 1] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        # every field meets every l on a few nodes, one l each at the block edge
        pairs = [(v, l) for v in fields for l in lefts] if count <= 3 else [
            (v, lefts[i % len(lefts)]) for i, v in enumerate(fields)]
        for case, (vals, left) in enumerate(pairs):
            w = weights[case % len(weights)]
            start = np.zeros(w.shape[:-1] + (n,)) if case % 2 else rng.standard_normal(
                w.shape[:-1] + (n,))
            got, buf = start.copy(), np.empty(w.shape[:-1] + (n, BLOCK + 1))
            for i, wi in node_blocks(np.arange(count), w):
                block = Multivector(dim, vals[i] if vals.ndim > 1 else vals)
                conj_vector_sums(left[i], block, wi, got, buf)
            prod = geometric_product(Multivector.from_vector(dim, -left),
                                     Multivector(dim, vals)).conjugation().coeffs
            rows = np.concatenate([start[..., None, :], w[..., None] * prod], axis=-2)
            assert _same_bytes(got, np.add.accumulate(rows, axis=-2)[..., -1, :]), case
    vals, left, w = fields[0], lefts[0], weights[1]
    stack = Multivector(dim, rng.standard_normal((2, n)))
    raw, _, _ = weak_pairing(node_blocks(np.arange(count), w),
                             _node_block(Multivector(dim, vals), left), stack)
    prod = geometric_product(Multivector.from_vector(dim, -left),
                             Multivector(dim, vals)).conjugation().coeffs
    sums = np.add.accumulate(w[..., None] * prod, axis=-2)[..., -1, :]
    want = geometric_product(Multivector(dim, sums), Multivector(dim, stack.coeffs[:, None]))
    assert _same_bytes(raw, want.coeffs)


@pytest.mark.parametrize("dim", range(2, 7))
def test_conj_vector_sums_read_either_layout_of_l(dim):
    """A row-major l and a component-major one (the (B, n) view of n
    contiguous rows, as a flat block streams its slopes) give the kernel's
    sums and the pairing's normalizer the same bytes, for an l with signed
    zeros, with an inf and with a NaN."""
    rng = np.random.default_rng(dim)
    count, n = 1500, 1 << dim
    vals = Multivector(dim, rng.standard_normal((count, n)))
    w = rng.uniform(0.1, 1.0, (2, count))
    signed = rng.standard_normal((count, dim))
    signed[:, 0], signed[::2, -1] = -0.0, 0.0
    lefts = [signed]
    for bad in (np.inf, np.nan):
        lefts.append(rng.standard_normal((count, dim)))
        lefts[-1][count // 2, dim // 2] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        for left in lefts:
            rows = np.ascontiguousarray(left.T).T
            assert rows.T.flags.c_contiguous and np.array_equal(rows, left, equal_nan=True)
            sums = []
            for l in (left, rows):
                sums.append(np.zeros((2, n)))
                conj_vector_sums(l, vals, w, sums[-1], np.empty((2, n, count + 1)))
                sums += weak_pairing(node_blocks(np.arange(count), w), _node_block(vals, l),
                                     Multivector.scalar(dim, 1.0))[:2]
            for got, want in zip(sums[3:], sums[:3]):
                assert _same_bytes(got, want)


def test_pairing_streams_fields_in_fixed_blocks(rng):
    """A 110,592-node pairing evaluates its field in blocks of at most BLOCK
    nodes, and the |f|^(p-2) guard still fires when only the last block
    holds a vanishing node.  The outermost radial shells lie within 1e-10
    of one another, across a block edge, so the vanishing field is steep,
    2000 (x - x_last): below the cutoff only on the last block's shells."""
    base = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = random_bump(BALL3, rng)
    rule = QuadratureRule.build(BALL3, order=12, cells=2)
    nodes = support_quadrature(eta, 12)[0]
    assert len(nodes) == 110_592
    sizes = []

    def recorded(q):
        sizes.append(len(q))
        return base(q)

    f = AnalyticField(3, recorded, name="recorded")
    assert normalized_weak_residual(f, 2.5, eta, rule) <= 1e-12
    assert max(sizes) <= BLOCK and sum(sizes) == len(nodes)

    last = nodes[-1]
    steep = lambda q: Multivector.from_vector(3, 2000.0 * (q - last))
    near = np.flatnonzero(steep(nodes).norm() < NORM_CUTOFF)
    assert near[0] >= (len(nodes) - 1) // BLOCK * BLOCK and near[-1] == len(nodes) - 1
    sizes.clear()

    def vanishing_at_last_node(q):
        sizes.append(len(q))
        return steep(q)

    g = AnalyticField(3, vanishing_at_last_node, name="x-last")
    with pytest.raises(VanishingNormError):
        weak_p_dirac_residual(g, 1.5, eta, rule)
    assert max(sizes) <= BLOCK and sum(sizes) == len(nodes)


def _run_capped(body, limit):
    """Run `body` in a child process whose address space is capped at
    `limit` bytes, with one BLAS thread; returns its stdout."""
    pytest.importorskip("resource")
    script = textwrap.dedent(f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS,
                           ({limit}, resource.getrlimit(resource.RLIMIT_AS)[1]))
    """) + textwrap.dedent(body)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({k: "1" for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


_D4_ORDER12 = """
    from diraclab.fields import Domain, p_dirac_solution
    from diraclab.weakform import (
        QuadratureRule, default_test_functions, normalized_weak_residual)
    domain = Domain.ball([3.0, 0.0, 0.0, 0.0], 1.0)
    eta = default_test_functions(domain, seed=42, random_count=1)[0]
    rule = QuadratureRule.build(domain, order=12, cells=2)
    print(normalized_weak_residual(p_dirac_solution(4, 3.0), 3.0, eta, rule))
"""


def test_d4_order12_residual_fits_in_one_gib():
    """The criterion-6 dim-4, order-12 residual (2,654,208 nodes) runs in a
    child process whose address space is capped at 1 GiB."""
    assert float(_run_capped(_D4_ORDER12, 1 << 30)) <= 1e-12


def test_d4_order12_residual_streams_its_nodes():
    """The same residual fits under 256 MiB: the fitted nodes stream in
    blocks, so no (N, 4) node array is ever held (that array alone is
    81 MiB)."""
    assert float(_run_capped(_D4_ORDER12, 1 << 28)) <= 1e-12


def test_d5_weak_residual_oracle_and_control():
    """At dim 5, order 6 (1,990,656 nodes) under 256 MiB: the closed-form
    solution has a vanishing weak residual, the divergence oracle reaches
    roundoff and the wrong exponent is loud.  The box-tensor rule stops at
    dim 4, so a stand-in holding the domain and order serves as the rule;
    the residuals read nothing else."""
    out = _run_capped("""
        from types import SimpleNamespace
        from diraclab.fields import Domain, p_dirac_solution
        from diraclab.weakform import (
            default_test_functions, dirac_integral_check, normalized_weak_residual)
        domain = Domain.ball([3.0, 0.0, 0.0, 0.0, 0.0], 1.0)
        eta = default_test_functions(domain, seed=42, random_count=1)[0]
        rule = SimpleNamespace(domain=domain, order=6)
        f = p_dirac_solution(5, 3.0)
        print(normalized_weak_residual(f, 3.0, eta, rule),
              dirac_integral_check(eta, rule),
              normalized_weak_residual(f, 3.5, eta, rule))
    """, 1 << 28)
    residual, oracle, control = map(float, out.split())
    assert residual <= 1e-6 and oracle <= 1e-10 and control >= 1e-3


def test_residual_determinism(rng):
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = random_bump(BALL3, rng)
    rule = small_rule(BALL3)
    a = weak_p_dirac_residual(f, 2.5, eta, rule)
    b = weak_p_dirac_residual(f, 2.5, eta, rule)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_conformal_weight_of_inversion_is_radial_power():
    pts = np.array([[1.0, 2.0, 2.0], [3.0, 0.0, 4.0]])
    w = MobiusPoint(inversion(3), pts).scale ** -0.5
    assert np.allclose(w, np.linalg.norm(pts, axis=-1) ** -0.5, atol=1e-14)


# ---------------------------------------------------------- domain pullback


def test_pullback_under_translation_and_dilation():
    ball = Domain.ball([3.0, 0.0, 0.0], 1.0)
    back = pullback_domain(translation(3, [1.0, -2.0, 0.5]), ball)
    assert np.allclose(back.center, [2.0, 2.0, -0.5]) and back.outer == pytest.approx(1.0)
    back = pullback_domain(dilation(3, 4.0), ball)
    assert np.allclose(back.center, [0.75, 0.0, 0.0])
    assert back.outer == pytest.approx(0.25, rel=1e-12)
    ring = Domain.annulus([0.0, 0.0, 0.0], 1.0, 2.0)
    back = pullback_domain(dilation(3, 2.0), ring)
    assert back.inner == pytest.approx(0.5) and back.outer == pytest.approx(1.0)


def test_pullback_of_box_survives_only_scalar_maps():
    box = Domain.box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    back = pullback_domain(translation(3, [1.0, 0.0, 0.0]), box)
    assert np.allclose(back.lo, [-1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        pullback_domain(rotation(3, 1, 2, 0.3), box)


def test_pullback_through_inversion_matches_the_closed_form():
    """Inversion sends the sphere |y - a| = r to the sphere with center
    a/(|a|^2 - r^2) and radius r/| |a|^2 - r^2 |; the fitted pullback must
    reproduce it to roundoff."""
    back = pullback_domain(inversion(3), BALL3)
    assert np.allclose(back.center, [3.0 / 8.0, 0.0, 0.0], atol=1e-12)
    assert back.outer == pytest.approx(1.0 / 8.0, rel=1e-12)
    # consistency: mapped interior samples land in the source ball
    rng = np.random.default_rng(0)
    pts = back.sample_interior(rng, 50)
    assert np.all(BALL3.contains(map_points(inversion(3), pts)))


def test_pullback_through_inversion_is_exact():
    """The crossings 2 e_1 and 4 e_1 of the line through the centre and the
    pole invert to 0.5 e_1 and 0.25 e_1 without rounding, so the diameter
    construction gives the preimage's centre and radius exactly."""
    back = pullback_domain(inversion(3), BALL3)
    assert back.center == (0.375, 0.0, 0.0) and back.outer == 0.125


def _random_word(rng, n):
    """The inversion composed, in a random order, with up to two random
    translations, dilations or rotations."""
    gens = [inversion(n)]
    for _ in range(rng.integers(0, 3)):
        kind = rng.integers(3)
        if kind == 0:
            gens.append(translation(n, rng.uniform(-2.0, 2.0, n)))
        elif kind == 1:
            gens.append(dilation(n, rng.uniform(0.3, 3.0)))
        else:
            i, j = rng.choice(np.arange(1, n + 1), 2, replace=False)
            gens.append(rotation(n, int(i), int(j), rng.uniform(-np.pi, np.pi)))
    rng.shuffle(gens)
    out = gens[0]
    for gen in gens[1:]:
        out = compose(out, gen)
    return out


def test_pullback_boundaries_map_onto_the_source_sphere():
    """On 60 random words at n = 2..4 and random balls, boundary points of
    each preimage map onto the source sphere within 1e-13 relative; a word
    is refused exactly when the ball's closure holds M(inf)."""
    rng = np.random.default_rng(0)
    accepted = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = _random_word(rng, n)
        ball = Domain.ball(rng.uniform(-3.0, 3.0, n), rng.uniform(0.2, 1.5))
        dirs = rng.normal(size=(16, n))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        if ball.distance(m.inverse.pole[0]) == 0.0:
            with pytest.raises(DomainError, match="inside out"):
                pullback_domain(m, ball)
            continue
        back = pullback_domain(m, ball)
        y = map_points(m, np.array(back.center) + back.outer * dirs)
        r = np.linalg.norm(y - np.array(ball.center), axis=-1)
        assert np.max(np.abs(r - ball.outer)) <= 1e-13 * ball.outer
        accepted += 1
    assert accepted == 59


def test_pullback_refusals_name_their_cause():
    """A ball whose closure (boundary included) holds M(inf) turns inside
    out; an annulus or a box under a map with a pole, and a box under a
    rotation, have no preimage of their kind."""
    box = Domain.box([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    for m, dom, cause in [
        (inversion(3), Domain.ball([1.0, 0.0, 0.0], 1.0), "turns the ball inside out"),
        (inversion(3), Domain.annulus([3.0, 0.0, 0.0], 0.5, 1.0), "balls only"),
        (inversion(3), box, "balls only"),
        (rotation(3, 1, 2, 0.3), box, "rotating map"),
    ]:
        with pytest.raises(DomainError, match=cause):
            pullback_domain(m, dom)


def test_pullback_rejects_pole_inside_and_non_ball():
    with pytest.raises(DomainError):
        pullback_domain(inversion(3), Domain.ball([0.2, 0.0, 0.0], 1.0))
    with pytest.raises(DomainError):
        pullback_domain(inversion(3), Domain.annulus([0.0, 0.0, 0.0], 1.0, 2.0))


def test_near_tangent_pullback_is_refused_within_the_pole_tolerance_and_runs_beyond():
    """A ball whose boundary passes 1e-13 outside M(inf) = 0 is refused as a
    DomainError, where its crossing lands within the pole tolerance of M^-1
    (it raised PoleError).  At 1e-9 outside, its preimage is the true ball
    of radius about 5e8, and a covariance experiment on it runs and holds."""
    with pytest.raises(DomainError, match=r"boundary reaches M\(inf\)"):
        pullback_domain(inversion(3), Domain.ball([1.0 + 1e-13, 0.0, 0.0], 1.0))
    source = Domain.ball([1.0 + 1e-9, 0.0, 0.0], 1.0)
    eps = source.center[0] - 1.0  # the gap as stored, exact by Sterbenz
    back = pullback_domain(inversion(3), source)
    assert back.outer == pytest.approx((1.0 / eps - 1.0 / (2.0 + eps)) / 2.0, rel=1e-12)
    assert back.center[0] == pytest.approx((1.0 / eps + 1.0 / (2.0 + eps)) / 2.0, rel=1e-12)
    rep = dirac_covariance_experiment(p_dirac_solution(3, 2.5), 2.5, inversion(3), source, order=4)
    assert rep.max_normalized <= 1e-12


# ------------------------------------------------------ covariance reports


def test_dirac_covariance_under_translation_is_trivial():
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    rep = dirac_covariance_experiment(
        f, 2.5, translation(3, [0.3, 0.0, 0.0]), BALL3,
        order=6, random_bumps=2,
    )
    assert rep.experiment == "dirac-pullback"
    assert rep.max_normalized <= 1e-12
    assert len(rep.rows) == 2 + 8


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_dirac_covariance_under_inversion(p):
    f = p_dirac_solution(3, p, center=[0.0, 0.5, 0.0])
    rep = dirac_covariance_experiment(
        f, p, inversion(3), BALL3, order=6, random_bumps=2
    )
    assert rep.max_normalized <= 1e-12
    assert all(r.exponent == pytest.approx(p - 3.0) for r in rep.rows)
    assert rep.domain.kind == "ball"


def test_dirac_covariance_inverts_once_per_node_block(monkeypatch):
    """One pass of the experiment inverts c x + d once per node block, for
    the twist and the image together, besides the inversions of the domain
    pullback and of the singular points' preimages."""
    calls, blocks = [], []
    inverse = mobius._lipschitz_inverse
    monkeypatch.setattr(mobius, "_lipschitz_inverse",
                        lambda g, n2: calls.append(1) or inverse(g, n2))
    build = BumpTestFunction.blocks
    monkeypatch.setattr(BumpTestFunction, "blocks",
                        lambda eta, order, singular=(): (blocks.append(1) or b
                                                         for b in build(eta, order, singular)))
    pullback_domain(inversion(3), BALL3)
    pullback = len(calls)
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    calls.clear()
    dirac_covariance_experiment(f, 2.5, inversion(3), BALL3, order=6, random_bumps=2)
    assert len(blocks) > 3
    assert len(calls) == len(blocks) + pullback + len(f.singular_points)


def test_dirac_covariance_rejects_singularity_near_preimage():
    # singular point of f pulls back into the working volume
    f = p_dirac_solution(3, 2.5, center=[8.0 / 3.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        dirac_covariance_experiment(f, 2.5, inversion(3), BALL3, order=6)


def test_dirac_covariance_admits_singular_point_sent_to_infinity():
    # inversion sends the kernel's pole at the origin to infinity, so no
    # preimage comes near the working volume and the clearance check passes
    rep = dirac_covariance_experiment(p_dirac_solution(3, 2.5), 2.5, inversion(3), BALL3,
                                      order=6, random_bumps=1)
    assert rep.max_normalized <= 1e-12


def test_covariance_report_rows_and_determinism():
    f = p_dirac_solution(3, 3.0, center=[0.0, 0.5, 0.0])
    kw = dict(order=6, random_bumps=1)
    a = dirac_covariance_experiment(f, 3.0, inversion(3), BALL3, **kw)
    b = dirac_covariance_experiment(f, 3.0, inversion(3), BALL3, **kw)
    assert [(r.eta_label, r.residual_norm, r.normalizer) for r in a.rows] == [
        (r.eta_label, r.residual_norm, r.normalizer) for r in b.rows
    ]
    row = a.to_rows()[0]
    assert set(row) == {
        "experiment", "n", "p", "exponent", "eta", "nodes", "residual",
        "normalizer", "normalized",
    }
    # the order-6 fitted rule at dim 3: 48 radial nodes times 12 x 24 on S^2
    assert {r.nodes for r in a.rows} == {48 * 12 * 24} == {len(support_quadrature(
        default_test_functions(BALL3)[0], 6)[1])}


def test_twisted_harmonic_covariance_is_unweighted_at_p_equals_n():
    h = log_radial(3, center=[-5.0, 0.0, 0.0])
    rep = harmonic_covariance_experiment(
        h, 3.0, inversion(3), BALL3, order=6, random_bumps=2
    )
    assert rep.experiment == "twisted-harmonic"
    table = rep.normalized_by_exponent()
    assert table[0.0] <= 1e-12          # the conformal case needs no weight
    assert table[4.0] > 1e-3            # and a wrong weight is loud
    assert rep.best_exponent == 0.0
    assert any("unweighted" in note for note in rep.notes)


def test_twisted_harmonic_exponent_scan_selects_2p_minus_2n():
    """For a genuinely p-harmonic input the scan's minimizer sits at
    2(p - n) and the residual there reaches roundoff; this is measured,
    never assumed."""
    p = 2.5
    h = p_harmonic_radial(3, p, center=[-5.0, 0.0, 0.0])
    rep = harmonic_covariance_experiment(
        h, p, inversion(3), BALL3, order=6, random_bumps=2
    )
    table = rep.normalized_by_exponent()
    assert set(table) == {3.0, -1.0, -0.5, 0.0}
    assert rep.best_exponent == -1.0
    assert table[-1.0] <= 1e-12
    assert min(v for s, v in table.items() if s != -1.0) > 1e-3


def test_harmonic_covariance_validates_input():
    opaque = AnalyticField(3, lambda q: Multivector.scalar(3, q[..., 0]), name="bare")
    with pytest.raises(FieldError):
        harmonic_covariance_experiment(opaque, 3.0, inversion(3), BALL3)
    h = log_radial(3, center=[-5.0, 0.0, 0.0])
    with pytest.raises(FieldError):
        harmonic_covariance_experiment(h, 1.0, inversion(3), BALL3)


def test_twisted_gradient_needs_a_scalar_field():
    """The twisted gradient pairs each partial as a plain array, so a field
    whose partials leave the scalar blade is refused; a scalar field that
    carries no blade record passes the coefficient scan."""
    kernel = cauchy_kernel(3, center=[-5.0, 0.0, 0.0])
    with pytest.raises(FieldError, match="needs a scalar field"):
        harmonic_covariance_experiment(kernel, 3.0, inversion(3), BALL3, order=2, random_bumps=0)
    h = log_radial(3, center=[-5.0, 0.0, 0.0])
    bare = replace(h, grad_fn=lambda x: [Multivector(3, d.coeffs) for d in h.grad(x)])
    assert (harmonic_covariance_experiment(bare, 3.0, inversion(3), BALL3, order=2).rows
            == harmonic_covariance_experiment(h, 3.0, inversion(3), BALL3, order=2).rows)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_covariance_families_match_per_bump_pairings(monkeypatch, dim):
    """Grouping the bumps by support changes no row: with every bump paired
    on its own (singleton families) the rows, their order and labels, and
    every number are the same to the bit.  The fitted rule is cut to 2,000
    nodes of nonzero weight so that dim 4 stays quick; both runs use it."""
    source = Domain.ball([3.0] + [0.0] * (dim - 1), 1.0)
    f = p_dirac_solution(dim, 2.5, center=[0.0, 0.5] + [0.0] * (dim - 2))
    h = p_harmonic_radial(dim, 2.5, center=[-5.0] + [0.0] * (dim - 1))
    labels = [e.label for e in default_test_functions(source, random_count=2)]

    build = BumpTestFunction.blocks

    def short_rule(eta, order, singular=()):
        nodes, w = joined(build(eta, order, singular))
        keep = np.flatnonzero(w > 0)[:2000]
        return node_blocks(nodes[keep], w[keep])

    monkeypatch.setattr(BumpTestFunction, "blocks", short_rule)
    for experiment, field in ((dirac_covariance_experiment, f),
                              (harmonic_covariance_experiment, h)):
        def rows():
            return experiment(field, 2.5, inversion(dim), source, order=6,
                              random_bumps=2).rows

        shared = rows()
        with monkeypatch.context() as single:
            single.setattr(weakform, "support_families", lambda etas: [[e] for e in etas])
            assert rows() == shared
        assert list(dict.fromkeys(r.eta_label for r in shared)) == labels


def test_covariance_experiments_quadrature_order():
    """The experiments integrate at order 12 up to dim 3 unless told
    otherwise, and refuse an order below 1."""
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    rep = dirac_covariance_experiment(
        f, 2.5, translation(3, [0.3, 0.0, 0.0]), BALL3, random_bumps=0)
    assert rep.order == 12 and rep.max_normalized <= 1e-12
    h = log_radial(3, center=[-5.0, 0.0, 0.0])
    for experiment, field in ((dirac_covariance_experiment, f),
                              (harmonic_covariance_experiment, h)):
        with pytest.raises(WeakFormError):
            experiment(field, 3.0, inversion(3), BALL3, order=0)


# -------------------------------------------------- pointwise invariances


def frame_check_setup(rng):
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    blade = Multivector(3, rng.normal(size=8))
    eta = centered_bump(BALL3, blade=blade, scale=0.95)
    return f, eta


@pytest.mark.parametrize(
    "make",
    [
        lambda: inversion(3),
        lambda: dilation(3, 2.0),
        lambda: translation(3, [0.1, -0.2, 0.3]),
        lambda: compose(inversion(3), translation(3, [0.0, 0.0, 0.5])),
    ],
    ids=["inversion", "dilation", "translation", "inversion-translation"],
)
def test_pointwise_frame_invariances(make, rng):
    m = make()
    f, eta = frame_check_setup(rng)
    pts = pullback_domain(m, BALL3).sample_interior(rng, 20)
    assert sc_invariance_check(f, 2.5, m, eta, pts) <= 1e-12
    assert norm_frame_identity_check(m, f, pts) <= 1e-12


def test_frame_invariances_hold_for_derivative_free_fields(rng):
    """The identities are algebraic in whatever derivative is used, so a
    field evaluated by finite differences passes at the same precision."""
    opaque = AnalyticField(
        3, lambda q: p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])(q), name="fd"
    )
    blade = Multivector(3, rng.normal(size=8))
    eta = centered_bump(BALL3, blade=blade, scale=0.95)
    m = inversion(3)
    pts = pullback_domain(m, BALL3).sample_interior(rng, 10)
    assert not opaque.has_grad
    assert sc_invariance_check(opaque, 2.5, m, eta, pts) <= 1e-12
    assert norm_frame_identity_check(m, opaque, pts) <= 1e-12
