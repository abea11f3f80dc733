"""Weak-form engine tests: bump calculus, the two quadrature schemes, the
divergence-theorem oracle, weak residuals of the closed-form families, domain
pullbacks, and the conformal covariance experiments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import Multivector, geometric_product
from diraclab.fields import (
    AnalyticField,
    Domain,
    DomainError,
    FieldError,
    VanishingNormError,
    constant_field,
    identity_field,
    log_radial,
    p_dirac_solution,
    p_harmonic_radial,
)
from diraclab.mobius import (
    compose,
    dilation,
    inversion,
    map_points,
    rotation,
    translation,
)
from diraclab.weakform import (
    AccuracyWarning,
    BumpTestFunction,
    ConformalWeight,
    QuadratureRule,
    SupportError,
    WeakFormError,
    centered_bump,
    default_test_functions,
    dirac_covariance_experiment,
    dirac_integral_check,
    harmonic_covariance_experiment,
    norm_frame_identity_check,
    normalized_weak_residual,
    pullback_domain,
    random_bump,
    sc_invariance_check,
    support_quadrature,
    weak_p_dirac_residual,
    weak_p_harmonic_residual,
    weak_pairing,
)

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
    from diraclab.cr2d import ComplexBump
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
    disc = ComplexBump(0j, 1.0, 0.6 + 0.8j)
    disc_pts = np.array([0.0, below, 1.0, 40.0]) + 0j

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [
            flat(flat_pts).coeffs, flat.dirac(flat_pts).coeffs,
            *(d.coeffs for d in flat.partials(flat_pts)),
            cap(cap_pts).coeffs, cap.gamma(cap_pts).coeffs, cap.dirac(cap_pts).coeffs,
            disc(disc_pts), disc.dz(disc_pts), disc.dzbar(disc_pts),
        ]
    for v in values:
        assert np.all(np.isfinite(v))
        assert np.all(v[2:] == 0.0)
    assert flat.profile(flat_pts)[0] == math.exp(-1.0)
    assert disc(disc_pts)[0] == (0.6 + 0.8j) * math.exp(-1.0)


def test_bump_partials_match_finite_differences(rng):
    blade = Multivector(3, rng.normal(size=8))
    eta = BumpTestFunction(3, (0.3, -0.2, 0.1), 0.8, blade)
    pts = np.array([[0.4, 0.0, 0.3], [0.1, -0.5, 0.0], [0.9, -0.2, 0.1]])
    h = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (eta(pts + step).coeffs - eta(pts - step).coeffs) / (2 * h)
        assert np.allclose(eta.partials(pts)[j].coeffs, fd, atol=1e-7)


def test_bump_dirac_assembles_partials(rng):
    blade = Multivector(3, rng.normal(size=8))
    eta = BumpTestFunction(3, (0.0, 0.0, 0.0), 1.0, blade)
    pts = rng.uniform(-0.5, 0.5, size=(6, 3))
    manual = Multivector.zero(3)
    parts = eta.partials(pts)
    for j in range(3):
        ej = Multivector.blade(3, 1 << j)
        manual = manual + geometric_product(ej, parts[j])
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


# --------------------------------------------------------------- quadrature


def test_tensor_rule_is_exact_on_polynomials():
    box = Domain.box([0.0, -1.0], [2.0, 1.0])
    rule = QuadratureRule.build(box, order=4, cells=3)
    # degree 2*4-1 = 7 per axis is integrated exactly
    vals = rule.nodes[:, 0] ** 7 * rule.nodes[:, 1] ** 6
    exact = (2.0**8 / 8.0) * (2.0 / 7.0)
    assert rule.integrate_scalar(vals) == pytest.approx(exact, rel=1e-14)
    assert np.all(rule.weights > 0)


def test_tensor_rule_masks_nodes_to_the_domain():
    rule = QuadratureRule.build(Domain.ball([0.0, 0.0], 1.0), order=10, cells=8)
    assert not np.all(rule.inside)
    vol = rule.integrate_scalar(np.ones(rule.node_count))
    assert vol == pytest.approx(math.pi, rel=5e-3)  # mask is only first order


def test_tensor_rule_parameter_validation():
    with pytest.raises(WeakFormError):
        QuadratureRule.build(Domain.box([0.0] * 5, [1.0] * 5))
    with pytest.raises(WeakFormError):
        QuadratureRule.build(BALL3, order=0)
    with pytest.raises(WeakFormError):
        QuadratureRule.build(BALL3, cells=0)


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


def test_scheme_dispatch_and_validation():
    eta = centered_bump(BALL3, Multivector.scalar(3, 1.0))
    rule = small_rule(BALL3)
    with pytest.raises(WeakFormError):
        dirac_integral_check(eta, rule, scheme="simpson")
    escaped = BumpTestFunction(3, (3.9, 0.0, 0.0), 0.5, Multivector.scalar(3, 1.0))
    with pytest.raises(SupportError):
        dirac_integral_check(escaped, rule)


def test_dirac_integral_oracle_fitted_vs_tensor(rng):
    """The integral of D eta vanishes exactly; the fitted scheme reaches
    roundoff while the box-tensor scheme floors at its flat-edge error."""
    rule = QuadratureRule.build(BALL3)
    eta = random_bump(BALL3, rng, label="off-center")
    assert dirac_integral_check(eta, rule, scheme="fitted") <= 1e-12
    tensor = dirac_integral_check(eta, rule, scheme="tensor")
    assert tensor <= 1e-3  # converges, but only at algebraic rate


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dirac_integral_vanishes_for_random_bumps(data):
    cx = data.draw(st.floats(-0.5, 0.5))
    cy = data.draw(st.floats(-0.5, 0.5))
    radius = data.draw(st.floats(0.1, 0.45))
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
    nodes, w = support_quadrature(eta, rule.order)
    dh = h.dirac(nodes)
    raw, norm = weak_pairing(dh, eta.dirac(nodes), w * dh.norm() ** (p - 2.0))
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
    nodes, w = support_quadrature(eta, rule.order)
    vals = f(nodes)
    return float(weak_pairing(vals, eta.dirac(nodes), w * vals.norm() ** (p - 2.0))[1])


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
    vals, deta = f(nodes), eta.dirac(nodes)
    scan = w * np.stack([np.ones(len(w)), vals.norm(), nodes[:, 0] ** 2])
    raw, normalizer = weak_pairing(vals, deta, scan)
    assert raw.shape == (3, 8) and normalizer.shape == (3,)
    for k in range(3):
        raw_k, normalizer_k = weak_pairing(vals, deta, scan[k])
        assert np.array_equal(raw[k], raw_k)
        assert normalizer[k] == normalizer_k
    # a constant scalar 1 pairs D eta with itself: the divergence oracle
    ones_raw, total = weak_pairing(Multivector.scalar(3, 1.0), deta, w)
    assert np.array_equal(ones_raw, np.sum(w[:, None] * deta.coeffs, axis=0))
    assert total == float(np.sum(w * deta.norm()))


def test_residual_determinism(rng):
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = random_bump(BALL3, rng)
    rule = small_rule(BALL3)
    a = weak_p_dirac_residual(f, 2.5, eta, rule)
    b = weak_p_dirac_residual(f, 2.5, eta, rule)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_conformal_weight_of_inversion_is_radial_power():
    w = ConformalWeight(inversion(3), -0.5)
    pts = np.array([[1.0, 2.0, 2.0], [3.0, 0.0, 4.0]])
    assert np.allclose(w(pts), np.linalg.norm(pts, axis=-1) ** -0.5, atol=1e-14)
    assert w.description == "|c x + d|^-0.5"


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


def test_pullback_rejects_pole_inside_and_non_ball():
    with pytest.raises(DomainError):
        pullback_domain(inversion(3), Domain.ball([0.2, 0.0, 0.0], 1.0))
    with pytest.raises(DomainError):
        pullback_domain(inversion(3), Domain.annulus([0.0, 0.0, 0.0], 1.0, 2.0))


# ------------------------------------------------------ covariance reports


def test_dirac_covariance_under_translation_is_trivial():
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    rep = dirac_covariance_experiment(
        f, 2.5, translation(3, [0.3, 0.0, 0.0]), BALL3,
        order=6, cells=2, random_bumps=2,
    )
    assert rep.experiment == "dirac-pullback"
    assert rep.max_normalized <= 1e-12
    assert len(rep.rows) == 2 + 8


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_dirac_covariance_under_inversion(p):
    f = p_dirac_solution(3, p, center=[0.0, 0.5, 0.0])
    rep = dirac_covariance_experiment(
        f, p, inversion(3), BALL3, order=6, cells=2, random_bumps=2
    )
    assert rep.max_normalized <= 1e-12
    assert all(r.exponent == pytest.approx(p - 3.0) for r in rep.rows)
    assert rep.domain.kind in ("ball", "shifted-ball")


def test_dirac_covariance_rejects_singularity_near_preimage():
    # singular point of f pulls back into the working volume
    f = p_dirac_solution(3, 2.5, center=[8.0 / 3.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        dirac_covariance_experiment(f, 2.5, inversion(3), BALL3, order=6, cells=2)


def test_covariance_report_rows_and_determinism():
    f = p_dirac_solution(3, 3.0, center=[0.0, 0.5, 0.0])
    kw = dict(order=6, cells=2, random_bumps=1)
    a = dirac_covariance_experiment(f, 3.0, inversion(3), BALL3, **kw)
    b = dirac_covariance_experiment(f, 3.0, inversion(3), BALL3, **kw)
    assert [(r.eta_label, r.residual_norm, r.normalizer) for r in a.rows] == [
        (r.eta_label, r.residual_norm, r.normalizer) for r in b.rows
    ]
    row = a.to_rows()[0]
    assert set(row) == {
        "experiment", "n", "p", "exponent", "eta", "residual",
        "normalizer", "normalized",
    }


def test_twisted_harmonic_covariance_is_unweighted_at_p_equals_n():
    h = log_radial(3, center=[-5.0, 0.0, 0.0])
    rep = harmonic_covariance_experiment(
        h, 3.0, inversion(3), BALL3, order=6, cells=2, random_bumps=2
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
        h, p, inversion(3), BALL3, order=6, cells=2, random_bumps=2
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


def test_accuracy_warning_fires_for_unconverged_tensor_quadrature():
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    with pytest.warns(AccuracyWarning):
        dirac_covariance_experiment(
            f, 2.5, inversion(3), BALL3, order=2, cells=1,
            random_bumps=1, scheme="tensor", verify_quadrature=True,
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        dirac_covariance_experiment(
            f, 2.5, inversion(3), BALL3, order=6, cells=2,
            random_bumps=1, verify_quadrature=True,
        )


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
