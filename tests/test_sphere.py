"""Sphere operators: rotational stencils, kernel identities, cap weak forms."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import sphere, weakform
from diraclab.algebra import Multivector, geometric_product
from diraclab.fields import (AnalyticField, FieldError, StencilError, VanishingNormError,
                             constant_field, identity_field, nonlinear_power_field,
                             p_dirac_solution, power_scale, richardson_step)
from diraclab.sphere import (
    CapBump,
    SphereError,
    SphericalCap,
    SphericalField,
    cayley_lift,
    cayley_ratio_constancy,
    conformal_scale,
    coordinate_field,
    default_cap_bumps,
    gamma_op,
    lr_identity_check,
    normalized_weak_spherical_residual,
    radial_distance_power,
    random_cap_bump,
    random_sphere_points,
    sphere_point,
    spherical_dirac,
    spherical_kernel,
    spherical_p_dirac_residual,
    spherical_p_harmonic_check,
    weak_spherical_residual,
    yamabe_op,
)
from diraclab.weakform import _BLOCK as BLOCK
from diraclab.weakform import SupportError, mollifier, support_families
from oracles import joined, node_blocks

# node counts around a block edge come after several whole blocks
EDGE = 4 * BLOCK

POLE3 = sphere_point([0.3, -0.7, 0.8])
POLE4 = sphere_point([0.3, -0.7, 0.8, 0.4])
NORTH3 = (0.0, 0.0, 1.0)


def away_from(pole, count, seed=20240817, clearance=0.5):
    rng = np.random.default_rng(seed)
    return random_sphere_points(rng, len(pole), count, avoid=[pole], clearance=clearance)


# ----------------------------------------------------------- points/fields


def test_sphere_point_normalizes():
    x = sphere_point([3.0, 4.0, 0.0])
    assert np.allclose(x, [0.6, 0.8, 0.0])
    with pytest.raises(SphereError):
        sphere_point([0.0, 0.0, 0.0])


def test_degree_zero_extension_power_of_two_is_bit_equal():
    f = spherical_kernel(POLE3, 2.0)
    x = sphere_point([1.0, 2.0, -0.5])
    a = f(x[None, :]).coeffs
    b = f((4.0 * x)[None, :]).coeffs
    assert np.array_equal(a, b)


def test_degree_zero_extension_small_rescaling_agrees_to_roundoff():
    # A non-power-of-two factor renormalizes to the same point up to one ulp.
    f = spherical_kernel(POLE3, 2.0)
    x = sphere_point([1.0, 2.0, -0.5])
    a = f(x[None, :]).coeffs
    c = f((1.0000001 * x)[None, :]).coeffs
    assert np.max(np.abs(a - c)) <= 1e-14


def test_coordinate_field_bounds():
    with pytest.raises(SphereError):
        coordinate_field(3, 0)
    with pytest.raises(SphereError):
        coordinate_field(3, 4)


# -------------------------------------------------------- angular operator


def test_gamma_of_first_coordinate_matches_closed_form():
    # For f = x_1 the pair sum collapses to -e1 x - x_1.
    pts = away_from((1.0, 0, 0), 6, clearance=0.0)
    g = gamma_op(coordinate_field(3, 1), pts)
    x_mv = Multivector.from_vector(3, pts)
    e1 = Multivector.blade(3, 0b001)
    expected = -1.0 * geometric_product(e1, x_mv) - Multivector.scalar(3, pts[:, 0])
    assert float(np.max((g - expected).norm())) <= 1e-10


def test_gamma_of_position_field_is_minus_n_x():
    for ambient in (3, 4):
        pts = away_from(np.zeros(ambient), 5, clearance=0.0)
        g = gamma_op(identity_field(ambient), pts)
        expected = float(1 - ambient) * Multivector.from_vector(ambient, pts)
        assert float(np.max((g - expected).norm())) <= 1e-10


def test_dirac_of_position_field_is_half_n_scalar():
    pts = away_from(np.zeros(3), 5, clearance=0.0)
    out = spherical_dirac(identity_field(3), pts)
    expected = Multivector.scalar(3, np.full(len(pts), 1.0))
    assert float(np.max((out - expected).norm())) <= 1e-10


def test_dirac_of_constant_field():
    rng = np.random.default_rng(4)
    c = Multivector(3, rng.normal(size=8))
    pts = away_from(np.zeros(3), 5, clearance=0.0)
    out = spherical_dirac(constant_field(3, c), pts)
    x_mv = Multivector.from_vector(3, pts)
    c_b = Multivector(3, np.broadcast_to(c.coeffs, (len(pts), 8)).copy())
    assert float(np.max((out - geometric_product(x_mv, c_b)).norm())) <= 1e-14


def test_gamma_is_frame_independent():
    rng = np.random.default_rng(12)
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    f = spherical_kernel(POLE3, 2.0)
    pts = away_from(POLE3, 5)
    a = gamma_op(f, pts)
    b = gamma_op(f, pts, frame=frame)
    assert float(np.max((a - b).norm())) <= 1e-8


def test_gamma_rejects_non_orthogonal_frame():
    with pytest.raises(SphereError):
        gamma_op(spherical_kernel(POLE3, 2.0), away_from(POLE3, 2), frame=np.ones((3, 3)))


def test_gamma_stencil_clearance_near_pole():
    f = spherical_kernel(POLE3, 2.0)
    grazing = sphere_point(np.array(POLE3) + 1e-4 * np.array([1.0, 1.0, 0.0]))
    with pytest.raises(StencilError):
        gamma_op(f, grazing[None, :])
    # 0.05 from the pole, a negative or NaN step never meets the clearance
    # test, so the step itself is refused
    g = spherical_kernel([0.0, 0.0, 1.0], 2.0)
    near = sphere_point([0.05, 0.0, 1.0])[None, :]
    with pytest.raises(StencilError):
        gamma_op(g, near, theta=0.1)
    for theta in (-0.1, float("nan")):
        with pytest.raises(FieldError, match="step must be positive"):
            gamma_op(g, near, theta=theta)
        with pytest.raises(FieldError, match="step must be positive"):
            spherical_dirac(g, near, theta=theta)


def counting(f):
    """f with an eval_fn that counts its calls in `calls`."""
    calls = []

    def ev(pts):
        calls.append(pts.shape)
        return f.eval_fn(pts)

    return replace(f, eval_fn=ev), calls


def gamma_per_plane(f, pts, theta, frame):
    """Gamma f as a sum over planes, each plane's stencil evaluated alone."""
    pts, out = sphere._renormalize(pts, f.dim), None
    for i in range(f.dim):
        for j in range(i + 1, f.dim):
            u, v = frame[:, i], frame[:, j]

            def central(tt):
                plus = f.eval_fn(sphere._renormalize(sphere._plane_rotate(pts, u, v, tt), f.dim))
                minus = f.eval_fn(sphere._renormalize(sphere._plane_rotate(pts, u, v, -tt), f.dim))
                return (plus - minus) / (2.0 * tt)

            d = richardson_step(central, theta, f.name, pts, f.singular_points)
            biv = geometric_product(Multivector.from_vector(f.dim, u),
                                    Multivector.from_vector(f.dim, v))
            term = geometric_product(biv, d)
            out = term if out is None else out + term
    return out


@pytest.mark.parametrize("ambient", [3, 4, 5])
def test_gamma_evaluates_once_per_richardson_step(ambient):
    rng = np.random.default_rng(ambient)
    frame, _ = np.linalg.qr(rng.normal(size=(ambient, ambient)))
    pole = sphere_point(rng.normal(size=ambient))
    f, calls = counting(spherical_kernel(pole, 2.5))
    pts = away_from(pole, 4, seed=ambient)
    planes = ambient * (ambient - 1) // 2
    for x in (pts[0], pts):
        for fr in (None, frame):
            calls.clear()
            got = gamma_op(f, x, theta=1e-3, frame=fr)
            assert calls == [(2 * planes,) + x.shape] * 2
            want = gamma_per_plane(f, x, 1e-3, np.eye(ambient) if fr is None else fr)
            assert got.coeffs.shape == want.coeffs.shape
            assert np.array_equal(got.coeffs, want.coeffs)


def test_gamma_guard_runs_before_any_evaluation():
    f, calls = counting(spherical_kernel(POLE3, 2.0))
    theta = 1e-3
    near = sphere_point(np.array(POLE3) + 1.5 * theta * sphere_point([1.0, 1.0, 0.0]))
    assert np.linalg.norm(near - POLE3) <= 2.0 * theta
    with pytest.raises(StencilError, match="reaches the singular point"):
        gamma_op(f, near[None, :], theta=theta)
    assert calls == []
    # at e_2 only the rotation in the (e_2, e_3) plane, the last, moves x_3
    # off zero, so a field that is NaN there is NaN in that plane alone
    nan_off_plane = SphericalField(3, lambda pts: Multivector.scalar(
        3, np.where(pts[..., 2] != 0.0, np.nan, pts[..., 0])), name="nan-where-x3")
    g, calls = counting(nan_off_plane)
    with pytest.raises(StencilError, match="touched a singular point"):
        gamma_op(g, np.array([[0.0, 1.0, 0.0]]), theta=theta)
    assert len(calls) == 2


# ------------------------------------------------------------ kernel family


def test_kernel_exponent_specializations():
    # p = 2 gives exponent n; p = n gives exponent 2.
    y = POLE4
    x = sphere_point(-np.array(y) + np.array([0.05, 0, 0, 0]))
    rho = np.linalg.norm(x - y)
    k2 = spherical_kernel(y, 2.0)(x[None, :]).norm()[0]
    assert np.isclose(k2, rho ** (1 - 3) * rho ** 0, rtol=1e-12)  # rho^(1-n)
    kn = spherical_kernel(y, 3.0)(x[None, :]).norm()[0]
    assert np.isclose(kn, rho ** (1 - 2), rtol=1e-12)


def test_kernel_antipodal_chord_has_length_two():
    y = np.array(POLE3)
    val = spherical_kernel(y, 2.0)((-y)[None, :])
    assert np.isclose(np.linalg.norm(val.vector_part()[0]), 2.0 ** (1 - 2), rtol=1e-12)


def test_kernel_rejects_pole_and_bad_exponent():
    with pytest.raises(SphereError):
        spherical_kernel(POLE3, 2.0)(np.array(POLE3)[None, :])
    with pytest.raises(FieldError):
        spherical_kernel(POLE3, 1.0)


def test_first_order_kernel_is_annihilated():
    # Calibration anchor: 20 deterministic points, both ambient dimensions.
    for pole in (POLE3, POLE4):
        f = spherical_kernel(pole, 2.0)
        pts = away_from(pole, 20)
        res = spherical_dirac(f, pts, theta=1e-3)
        assert float(np.max(res.norm())) <= 1e-6


def test_companion_field_is_annihilated_too():
    # x K(x) satisfies the same first-order equation; this is what makes
    # the conjugated weak pairing vanish on kernel solutions.
    pole = POLE4
    base = spherical_kernel(pole, 2.0)

    def ev(q):
        return geometric_product(Multivector.from_vector(4, q), base.eval_fn(q))

    companion = SphericalField(4, ev, singular_points=base.singular_points, name="x-kernel")
    res = spherical_dirac(companion, away_from(pole, 10))
    assert float(np.max(res.norm())) <= 1e-6


def test_flux_of_kernel_family_collapses_to_p2_member():
    cauchy = spherical_kernel(POLE3, 2.0)
    pts = away_from(POLE3, 8)
    for p in (1.5, 2.5, 4.0):
        flux = nonlinear_power_field(spherical_kernel(POLE3, p), p)
        assert float(np.max((flux(pts) - cauchy(pts)).norm())) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=1.2, max_value=5.0))
def test_flux_collapse_property(p):
    cauchy = spherical_kernel(POLE3, 2.0)
    pts = away_from(POLE3, 4)
    flux = nonlinear_power_field(spherical_kernel(POLE3, p), p)
    assert float(np.max((flux(pts) - cauchy(pts)).norm())) <= 1e-11


def test_nonlinear_residual_across_exponents():
    for pole, ps in ((POLE3, (1.5, 2.0)), (POLE4, (1.5, 2.0, 3.0))):
        f_pts = away_from(pole, 6)
        for p in ps:
            f = spherical_kernel(pole, p)
            res = spherical_p_dirac_residual(f, p, f_pts)
            assert float(np.max(res.norm())) <= 1e-6


def test_nonlinear_residual_at_antipode():
    pole = POLE4
    f = spherical_kernel(pole, 1.5)
    res = spherical_p_dirac_residual(f, 1.5, (-np.array(pole))[None, :])
    assert float(res.norm()[0]) <= 1e-6


def test_one_field_type_and_one_flux_builder():
    # the one p-flux builder keeps the class of its field and drops any gradient
    assert type(nonlinear_power_field(spherical_kernel(POLE3, 2.5), 2.5)) is SphericalField
    flat = nonlinear_power_field(p_dirac_solution(3, 2.5), 2.5)
    assert type(flat) is AnalyticField and flat.grad_fn is None
    # on cap nodes, unit only to rounding, the spherical flux renormalizes once
    # and equals the former spherical formula bit for bit
    nodes, _ = joined(CapBump(tuple(-POLE3), 0.9, Multivector.scalar(3, 1.0)).blocks(8))
    assert np.any(np.sqrt(np.sum(nodes * nodes, axis=-1)) != 1.0)
    for p in (1.5, 2.0, 2.5, 4.0):
        f = spherical_kernel(POLE3, p)
        v = f.eval_fn(sphere._renormalize(nodes, 3))
        want = Multivector(3, power_scale(v.norm(), p, f.name)[..., None] * v.coeffs)
        assert nonlinear_power_field(f, p)(nodes).coeffs.tobytes() == want.coeffs.tobytes()
    # the call still renormalizes, and still refuses a wrong last axis
    f = spherical_kernel(POLE3, 2.5)
    far = 3.0 * nodes
    assert f(far).coeffs.tobytes() == f.eval_fn(sphere._renormalize(far, 3)).coeffs.tobytes()
    with pytest.raises(SphereError, match="last axis 3"):
        f(np.ones((2, 4)))


def test_flux_guard_for_vanishing_norm():
    with pytest.raises(VanishingNormError):
        nonlinear_power_field(coordinate_field(3, 1), 1.5)(np.array([[0.0, 1.0, 0.0]]))


# --------------------------------------------------------- identity reports


def test_radial_identity_flipped_sign_closed_form():
    # With the -(p/2) x coupling the left side is -(p-n) rho^(p-n-2) (x-y),
    # so left/right = -2/rho^2 componentwise.
    p, y = 2.5, POLE4
    x = sphere_point(np.array(y) + np.array([0.9, -0.4, 0.2, 0.1]))
    rho = float(np.linalg.norm(x - y))
    rep = lr_identity_check(x, y, p)
    expected_ratio = -2.0 / rho**2
    assert rep.ratios_flipped
    for r in rep.ratios_flipped:
        assert np.isclose(r, expected_ratio, rtol=1e-6)
    n = 3
    lhs = -(p - n) * rho ** (p - n - 2) * (x - y)
    rhs = ((p - n) / 2.0) * rho ** (p - n) * (x - y)
    assert np.isclose(rep.discrepancy_flipped, np.linalg.norm(lhs - rhs), rtol=1e-6)
    # the displayed sign differs by p rho^(p-n) x
    assert rep.discrepancy > 1e-1


def test_radial_identity_degenerates_at_p_equal_n():
    # Right side vanishes; the left evaluates to n x exactly, norm n.
    rep = lr_identity_check(sphere_point([1.0, 1.0, -1.0]), POLE3, 2.0)
    assert rep.right_norm == 0.0
    assert rep.ratios == ()
    assert np.isclose(rep.left_norm, 2.0, atol=1e-9)
    assert np.isclose(rep.discrepancy, 2.0, atol=1e-9)


def test_radial_identity_report_is_deterministic():
    x = sphere_point([0.2, -0.9, 0.4])
    assert lr_identity_check(x, POLE3, 2.5) == lr_identity_check(x, POLE3, 2.5)


@pytest.mark.parametrize("ambient", [3, 4, 5])
def test_lr_identity_forms_each_operator_once(monkeypatch, ambient):
    """D_S s and x s are formed once for both couplings: three evaluations
    of s (one stencil evaluation per Richardson step, then one at the point,
    shared by the (n/2) s term of D_S s and by x s), not eight, and the
    report has the bits of (D_S + k x) s read from `coupled_dirac` once per
    sign k = +-p/2."""
    rng = np.random.default_rng(ambient)
    pole = sphere_point(rng.normal(size=ambient))
    x, p, n = away_from(pole, 1, seed=ambient)[0], 2.5, ambient - 1
    built = radial_distance_power
    seen = []
    monkeypatch.setattr(sphere, "radial_distance_power",
                        lambda y, e: seen.append(counting(built(y, e))) or seen[-1][0])
    rep = lr_identity_check(x, pole, p)
    ((_, calls),) = seen
    planes = ambient * (ambient - 1) // 2
    assert calls == [(2 * planes, 1, ambient)] * 2 + [(1, ambient)]
    x, y = sphere_point(x), sphere_point(pole)  # as the check normalizes them
    s, rho = built(y, p - n), float(np.linalg.norm(x - y))
    right = Multivector.from_vector(ambient, ((p - n) / 2.0) * rho ** (p - n) * (x - y)[None, :])
    left = [sphere.coupled_dirac(s, k, 1e-3).eval_fn(x[None, :]) for k in (p / 2.0, -p / 2.0)]
    assert rep.discrepancy == float((left[0] - right).norm()[0])
    assert rep.discrepancy_flipped == float((left[1] - right).norm()[0])
    assert rep.left_norm == float(left[0].norm()[0])


@pytest.mark.parametrize("ambient", [3, 4])
def test_flipped_reports_are_exactly_zero_at_p_equal_n(ambient):
    """At p = n the radial field is 1, so (D_S - (p/2) x) 1 is (n/2) x 1 -
    (n/2) x 1: exactly 0.0 when both terms read the one point, in the
    first-order report and, through the flux of 0, in the second-order one."""
    rng = np.random.default_rng(ambient)
    pole = sphere_point(rng.normal(size=ambient))
    pts, p = away_from(pole, 20, seed=ambient), float(ambient - 1)
    assert [lr_identity_check(x, pole, p).discrepancy_flipped for x in pts] == [0.0] * 20
    rows = spherical_p_harmonic_check(pole, p, pts).rows
    assert [row["residual_flipped"] for row in rows] == [0.0] * 20


def test_no_point_is_projected_twice(monkeypatch):
    """A point is projected onto the sphere only where it enters the layer:
    in each operator call, no input of `_renormalize` has the bytes of one
    of its earlier outputs, through the nested operators and a cap family's
    weak residual alike."""
    project, made, again = sphere._renormalize, set(), []

    def watched(points, dim):
        pts = np.asarray(points, dtype=float)
        again.append((pts.shape, pts.tobytes()) in made)
        out = project(pts, dim)
        made.add((out.shape, out.tobytes()))
        return out

    monkeypatch.setattr(sphere, "_renormalize", watched)
    f, pts = radial_distance_power(POLE3, 0.5), away_from(POLE3, 5)
    cap = SphericalCap(tuple(-POLE3), 1.0)
    for run in (lambda: spherical_dirac(f, pts), lambda: yamabe_op(f, pts),
                lambda: sphere.coupled_dirac(f, 1.5, 1e-3)(pts),
                lambda: [lr_identity_check(x, POLE3, 2.5) for x in pts],
                lambda: spherical_p_harmonic_check(POLE3, 2.5, pts),
                lambda: normalized_weak_spherical_residual(
                    spherical_kernel(POLE3, 2.5), 2.5, default_cap_bumps(cap), order=8)):
        made.clear()
        again.clear()
        run()
        assert again and not any(again)


PUBLIC_ENTRIES = pytest.mark.parametrize("entry", [
    lambda f, pts: f(pts),
    lambda f, pts: gamma_op(f, pts),
    lambda f, pts: spherical_dirac(f, pts),
    lambda f, pts: spherical_p_dirac_residual(f, 2.5, pts),
    lambda f, pts: yamabe_op(f, pts),
    lambda f, pts: spherical_p_harmonic_check(POLE3, 2.5, pts),
], ids=["call", "gamma_op", "spherical_dirac", "spherical_p_dirac_residual", "yamabe_op",
        "spherical_p_harmonic_check"])


@PUBLIC_ENTRIES
def test_points_of_the_wrong_width_are_refused(entry):
    """Each public entry checks the last axis of its points before it
    projects them or evaluates anything; zero rows of the wrong width are
    refused for their width, not as a point at the origin."""
    f, calls = counting(spherical_kernel(POLE3, 2.5))
    for pts in (np.ones((2, 4)), np.zeros((1, 4)), np.ones((3, 2)), np.ones(4)):
        with pytest.raises(SphereError, match=re.escape(f"last axis 3, got {pts.shape}")):
            entry(f, pts)
    assert calls == []


@PUBLIC_ENTRIES
def test_non_finite_points_are_refused(entry):
    """Each public entry refuses a nan or inf point as non-finite before it
    evaluates anything, not as a stencil that touched a singular point and
    not as a nan value."""
    f, calls = counting(spherical_kernel(POLE3, 2.5))
    for pts in ([[np.nan, 0.0, 0.0]], [[np.inf, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, -np.inf, 1.0]]):
        with pytest.raises(SphereError, match="cannot normalize a non-finite vector"):
            entry(f, np.array(pts))
    assert calls == []


def test_lr_identity_check_refuses_points_of_different_widths():
    with pytest.raises(SphereError, match=re.escape("last axis 3, got (4,)")):
        lr_identity_check([1.0, 0.0, 0.0, 0.0], POLE3, 2.5)
    with pytest.raises(SphereError, match=re.escape("last axis 4, got (3,)")):
        lr_identity_check(POLE3, [1.0, 0.0, 0.0, 0.0], 2.5)


def test_spherical_p_harmonic_claim_holds_under_flipped_sign_at_p2():
    pts = away_from(POLE4, 4)
    report = spherical_p_harmonic_check(POLE4, 2.0, pts)
    assert report.sphere_dim == 3 and report.p == 2.0
    assert len(report.rows) == 4
    for row in report.rows:
        assert row["residual_flipped"] <= 1e-5
        assert row["residual"] > 1e-1  # the displayed sign is not a solution
    assert report.max_flipped <= 1e-5


def test_spherical_p_harmonic_report_structure_off_p2():
    pts = away_from(POLE4, 2)
    report = spherical_p_harmonic_check(POLE4, 2.5, pts)
    assert len(report.notes) == 2
    for row in report.rows:
        assert set(row) == {"point", "residual", "residual_flipped"}
        assert np.isfinite(row["residual"]) and np.isfinite(row["residual_flipped"])
    again = spherical_p_harmonic_check(POLE4, 2.5, pts)
    assert report == again


def test_spherical_p_harmonic_batch_matches_single_points():
    pts = away_from(POLE3, 3)
    for p in (1.5, 2.5):
        batch = spherical_p_harmonic_check(POLE3, p, pts).rows
        assert batch == tuple(spherical_p_harmonic_check(POLE3, p, x).rows[0] for x in pts)


def test_p_harmonic_check_rejects_bad_exponent():
    with pytest.raises(FieldError):
        spherical_p_harmonic_check(POLE4, 1.0, away_from(POLE4, 1))


# ------------------------------------------------------- conformal Laplacian


def test_yamabe_on_constants_composes_the_two_factors():
    # D_S c = (n/2) x c and D_S(x c) = (n/2) c give Y c = (n/2 - 1)(n/2) c.
    rng = np.random.default_rng(6)
    c = Multivector(3, rng.normal(size=8))
    pts = away_from(np.zeros(3), 4, clearance=0.0)
    out = yamabe_op(constant_field(3, c), pts)
    expected = Multivector(3, 0.0 * np.broadcast_to(c.coeffs, (len(pts), 8)).copy())
    # n = 2: (n/2 - 1) = 0, so constants are annihilated outright
    assert float(np.max((out - expected).norm())) <= 1e-9


def test_yamabe_on_constants_ambient_four():
    rng = np.random.default_rng(7)
    c = Multivector(4, rng.normal(size=16))
    pts = away_from(np.zeros(4), 3, clearance=0.0)
    out = yamabe_op(constant_field(4, c), pts)
    factor = (3 / 2 - 1) * (3 / 2)
    expected = Multivector(4, factor * np.broadcast_to(c.coeffs, (len(pts), 16)).copy())
    assert float(np.max((out - expected).norm())) <= 1e-9


def test_yamabe_annihilates_inverse_distance_on_three_sphere():
    # f = |x - y|^(2-n) feeds the first factor the p = 2 kernel exactly.
    f = radial_distance_power(POLE4, -1.0)
    res = yamabe_op(f, away_from(POLE4, 4))
    assert float(np.max(res.norm())) <= 1e-5


def test_yamabe_is_linear():
    f = radial_distance_power(POLE3, 1.0)
    g = coordinate_field(3, 2)
    pts = away_from(POLE3, 3)

    def combo(q):
        return 2.0 * f.eval_fn(q) + (-0.5) * g.eval_fn(q)

    combined = SphericalField(3, combo, singular_points=f.singular_points, name="combo")
    lhs = yamabe_op(combined, pts)
    rhs = 2.0 * yamabe_op(f, pts) + (-0.5) * yamabe_op(g, pts)
    assert float(np.max((lhs - rhs).norm())) <= 1e-8


# ----------------------------------------------------------- caps and bumps


def test_cap_mass_matches_closed_form():
    bump3 = CapBump(NORTH3, 0.8, Multivector.scalar(3, 1.0))
    nodes, w = joined(bump3.blocks(10))
    theta = 2.0 * np.arcsin(0.4)
    assert np.isclose(np.sum(w), 2.0 * np.pi * (1 - np.cos(theta)), rtol=1e-13)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)

    bump4 = CapBump((0.0, 0.0, 0.0, 1.0), 0.8, Multivector.scalar(4, 1.0))
    _, w4 = joined(bump4.blocks(8))
    exact = 4.0 * np.pi * (theta / 2.0 - np.sin(2.0 * theta) / 4.0)
    assert np.isclose(np.sum(w4), exact, rtol=1e-13)


def test_cap_bump_closed_form_derivatives_match_stencils():
    bump = CapBump(NORTH3, 0.9, Multivector.blade(3, 0b011), label="b")
    rng = np.random.default_rng(2)
    pts = []
    while len(pts) < 6:
        q = sphere_point(np.array(NORTH3) + 0.25 * rng.normal(size=3))
        if bump.profile(q[None, :])[0] > 1e-3:
            pts.append(q)
    pts = np.array(pts)
    field = SphericalField(3, bump, name=bump.label)
    assert float(np.max((bump.dirac(pts) - spherical_dirac(field, pts)).norm())) <= 1e-9


def test_cap_bump_vanishes_outside_support():
    bump = CapBump(NORTH3, 0.5, Multivector.scalar(3, 1.0))
    outside = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.all(bump(outside).coeffs == 0.0)
    assert np.all(bump.dirac(outside).coeffs == 0.0)


def test_cap_and_bump_validation():
    with pytest.raises(SphereError):
        SphericalCap(NORTH3, 2.5)
    with pytest.raises(SphereError):
        CapBump(NORTH3, 0.0, Multivector.scalar(3, 1.0))
    with pytest.raises(SphereError):
        CapBump(NORTH3, 0.5, Multivector.scalar(4, 1.0))
    cap = SphericalCap((1.0, 0.0, 0.0), 0.5)
    with pytest.raises(SupportError):
        CapBump(NORTH3, 0.9, Multivector.scalar(3, 1.0)).require_support_inside(cap)


def test_default_cap_bumps_layout_and_support():
    cap = SphericalCap(NORTH3, 1.0)
    bumps = default_cap_bumps(cap, seed=9, random_count=3)
    labels = [b.label for b in bumps]
    assert labels[:3] == ["rand-0", "rand-1", "rand-2"]
    assert "blade-1" in labels and "blade-e12" in labels and "blade-e123" in labels
    assert len(bumps) == 3 + 8
    for b in bumps:
        b.require_support_inside(cap)


def test_random_cap_bump_is_reproducible():
    cap = SphericalCap(NORTH3, 1.0)
    a = random_cap_bump(cap, np.random.default_rng(5))
    b = random_cap_bump(cap, np.random.default_rng(5))
    assert a.center == b.center and a.radius == b.radius
    assert np.array_equal(a.blade.coeffs, b.blade.coeffs)


# ------------------------------------------------------------- weak pairing


def test_weak_residual_of_kernel_solutions():
    for pole, ambient in ((POLE3, 3), (POLE4, 4)):
        n = ambient - 1
        center = sphere_point(-np.array(pole))
        cap = SphericalCap(tuple(center), 1.0)
        bumps = default_cap_bumps(cap, seed=9, random_count=2)[:5]
        for p in {2.0, float(n)} if n > 1 else {2.0}:
            f = spherical_kernel(pole, p)
            worst = max(
                normalized_weak_spherical_residual(f, p, b, order=8) for b in bumps
            )
            assert worst <= 1e-5


def test_cap_families_match_single_bumps():
    """The 5 sphere-check bumps paired as 3 support families give, bit for
    bit and in order, the normalized residuals of 5 single-bump pairings,
    each with its node count."""
    cap = SphericalCap(tuple(sphere_point(-np.array(POLE3))), 1.0)
    bumps = default_cap_bumps(cap, seed=9, random_count=2)[:5]
    assert [len(family) for family in support_families(bumps)] == [1, 1, 3]
    f = spherical_kernel(POLE3, 2.5)
    shared = normalized_weak_spherical_residual(f, 2.5, bumps, order=8)
    assert shared == [
        (normalized_weak_spherical_residual(f, 2.5, b, order=8), 4096) for b in bumps
    ]


def test_weak_residual_of_zero_field_is_zero():
    zero = constant_field(3, Multivector.scalar(3, 0.0))
    bump = CapBump(NORTH3, 0.7, Multivector.scalar(3, 1.0))
    for p in (2.0, 3.0):
        res = weak_spherical_residual(zero, p, bump, order=6)
        assert float(res.norm()) == 0.0


def test_weak_residual_of_constant_matches_direct_assembly():
    rng = np.random.default_rng(8)
    c = Multivector(3, rng.normal(size=8))
    f = constant_field(3, c)
    bump = CapBump(NORTH3, 0.7, Multivector.blade(3, 0b001))
    res = weak_spherical_residual(f, 2.0, bump, order=8)
    nodes, w = joined(bump.blocks(8))
    conj = c.conjugation()
    deta = bump.dirac(nodes)
    direct = np.sum(
        w[:, None]
        * geometric_product(
            Multivector(3, np.broadcast_to(conj.coeffs, (len(w), 8)).copy()), deta
        ).coeffs,
        axis=0,
    )
    scale = np.sum(w * c.norm() * deta.norm())
    assert np.all(np.abs(res.coeffs - direct) <= 1e-14 * scale)
    assert float(res.norm()) > 1e-3  # constants are not weak solutions here


def _dense_cap_dirac(bump, pts):
    """x (Gamma + n/2) eta by dense products per node, with the angular
    derivative Gamma eta = -(2/R^2) profile'(t) (x c + x.c) blade."""
    ambient = bump.dim
    c = np.array(bump.center)
    x = Multivector.from_vector(ambient, pts)
    xc = geometric_product(x, Multivector.from_vector(ambient, np.broadcast_to(c, pts.shape)))
    t = np.sum((pts - c) ** 2, axis=-1) / bump.radius**2
    phi, dphi = mollifier(t)
    fac = (-2.0 / bump.radius**2) * dphi
    wedge = Multivector(ambient, fac[:, None] * (xc + Multivector.scalar(ambient, pts @ c)).coeffs)
    inner = geometric_product(wedge, bump.blade) + (ambient - 1) / 2.0 * bump(pts)
    return geometric_product(x, inner)


@pytest.mark.parametrize("ambient, order, count", [
    *((ambient, order, count) for ambient, order in ((3, 24), (4, 12))
      for count in (1, 3, EDGE - 1, EDGE, EDGE + 1)),
    *((5, 2, count) for count in (1, 3, 1000)),
])
def test_cap_pairing_matches_per_node_reference(monkeypatch, ambient, order, count):
    """The streamed cap pairing on `count` nodes of the cap rule, from
    the first of nonzero weight, against conj(flux) times the dense
    x (Gamma + n/2) eta per node, summed by np.sum: within 1e-14 of the
    scale sum w |flux| |D_S eta|."""
    rng = np.random.default_rng(10 * ambient + count)
    pole = sphere_point(rng.normal(size=ambient))
    blade = Multivector(ambient, rng.normal(size=1 << ambient))
    bump = CapBump(tuple(-pole), 0.8, blade)
    nodes, w = joined(bump.blocks(order))
    start = int(np.argmax(w > 0))
    assert len(w) >= start + count
    nodes, w = nodes[start:start + count], w[start:start + count]
    monkeypatch.setattr(CapBump, "blocks", lambda eta, o, singular=(): node_blocks(nodes, w))
    f = spherical_kernel(pole, 2.5)
    (raw,), (nz,), _ = weakform._pair(sphere._flux_values(f, 2.5), f.name, 2.0, [bump], order)
    flux = nonlinear_power_field(f, 2.5)(nodes)
    deta = _dense_cap_dirac(bump, nodes)
    ref = np.sum(w[:, None] * geometric_product(flux.conjugation(), deta).coeffs, axis=0)
    scale = np.sum(w * flux.norm() * deta.norm())
    assert scale > 0
    assert np.all(np.abs(raw - ref) <= 1e-14 * scale)
    assert abs(nz - scale) <= 1e-14 * scale


def test_weak_residual_respects_cap_argument():
    f = spherical_kernel(POLE3, 2.0)
    cap = SphericalCap((1.0, 0.0, 0.0), 0.4)
    bump = CapBump(NORTH3, 0.7, Multivector.scalar(3, 1.0))
    with pytest.raises(SupportError):
        weak_spherical_residual(f, 2.0, bump, order=6, cap=cap)


def test_weak_residual_is_deterministic():
    f = spherical_kernel(POLE3, 2.5)
    bump = CapBump(tuple(sphere_point(-np.array(POLE3))), 0.8, Multivector.blade(3, 0b010))
    a = weak_spherical_residual(f, 2.5, bump, order=8)
    b = weak_spherical_residual(f, 2.5, bump, order=8)
    assert np.array_equal(a.coeffs, b.coeffs)


# ----------------------------------------------------- stereographic bridge


def test_cayley_lift_lands_on_the_sphere():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(10, 3))
    x = cayley_lift(u)
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-14)
    assert np.allclose(cayley_lift(np.zeros((1, 2))), [[0.0, 0.0, -1.0]])


def test_conformal_scale_values():
    assert conformal_scale(np.zeros(2)) == 2.0
    assert np.isclose(conformal_scale(np.array([1.0, 0.0])), 1.0)


def test_cayley_chordal_identity():
    rng = np.random.default_rng(9)
    u = rng.normal(size=(12, 3))
    v = rng.normal(size=3)
    chord = np.linalg.norm(cayley_lift(u) - cayley_lift(v), axis=1)
    flat = np.linalg.norm(u - v, axis=1) * np.sqrt(
        conformal_scale(u) * conformal_scale(v)
    )
    assert np.allclose(chord, flat, rtol=1e-12)


def test_cayley_ratio_constancy_ties_both_kernels():
    for n in (2, 3):
        report = cayley_ratio_constancy(n, seed=42)
        assert report["n"] == n and report["count"] >= 15
        assert report["max_deviation"] <= 1e-12
        again = cayley_ratio_constancy(n, seed=42)
        assert np.array_equal(report["ratios"], again["ratios"])


def test_spherical_radial_fields_refuse_their_pole():
    pole = sphere_point([0.3, -0.5, 0.7])
    for f in (spherical_kernel(pole, 2.5), spherical_kernel(pole, 1.5),
              radial_distance_power(pole, -1.5)):
        with pytest.raises(SphereError, match="at its pole"):
            f(np.vstack([[1.0, 0.0, 0.0], pole]))
    assert radial_distance_power(pole, 0.5)(pole).coeffs[0] == 0.0
