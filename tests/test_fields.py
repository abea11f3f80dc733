"""Field-layer tests: finite-difference Dirac operator against closed-form
fields, the radial solution families, conformal differentiation identities,
and classical div/curl cross-checks for the scalar reduction."""

import numpy as np
import pytest

from diraclab.algebra import Multivector
from diraclab.fields import (
    AnalyticField,
    Domain,
    DomainError,
    EstimationError,
    FieldError,
    StencilError,
    VanishingNormError,
    cauchy_kernel,
    compose_with_mobius,
    conformal_dirac_transform,
    constant_field,
    convergence_order,
    dirac_fd,
    dj1_check,
    gradient_fd,
    identity_field,
    lemma1_check,
    linear_scalar_field,
    log_radial,
    nonlinear_power_field,
    p_dirac_residual,
    p_dirac_solution,
    p_harmonic_radial,
    p_harmonic_residual,
    scalar_radial_power,
    validate_clearance,
)
from diraclab.mobius import compose, dilation, inversion, translation


def shell_points(rng, dim, count, r_lo=1.0, r_hi=3.0):
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v * rng.uniform(r_lo, r_hi, size=(count, 1))


# ------------------------------------------------------------ the operator


def test_dirac_of_identity_field_is_minus_n(rng):
    pts = rng.normal(size=(6, 3))
    d = dirac_fd(identity_field(3), pts, h=1e-3)
    assert np.allclose(d.coeffs[..., 0], -3.0, atol=1e-10)
    assert np.max(np.abs(d.coeffs[..., 1:])) <= 1e-10


def test_dirac_of_scalar_is_gradient(rng):
    a = np.array([2.0, -1.0, 0.5])
    lin = linear_scalar_field(3, a)
    d = dirac_fd(lin, rng.normal(size=(5, 3)), h=1e-3)
    assert np.allclose(d.vector_part(), a, atol=1e-10)
    assert d.is_grade(1, tol=1e-10)


def test_dirac_squared_is_minus_laplacian(rng):
    quad = AnalyticField(
        3, lambda q: Multivector.scalar(3, np.sum(q**2, axis=-1)), name="r^2"
    )
    pts = rng.normal(size=(4, 3))
    first = dirac_fd(quad, pts, h=1e-3)
    assert np.allclose(first.vector_part(), 2 * pts, atol=1e-8)
    nested = AnalyticField(3, lambda q: dirac_fd(quad, q, h=1e-3), name="Dr^2")
    second = dirac_fd(nested, pts, h=1e-3)
    assert np.allclose(second.coeffs[..., 0], -6.0, atol=1e-8)


def test_analytic_gradients_match_fd(rng):
    pts = shell_points(rng, 3, 5)
    for fld in (
        cauchy_kernel(3),
        p_dirac_solution(3, 2.5),
        p_harmonic_radial(3, 2.5),
        log_radial(3),
        scalar_radial_power(3, -1.3),
    ):
        analytic = fld.grad(pts)
        numeric = gradient_fd(fld, pts, h=1e-4)
        for a, b in zip(analytic, numeric):
            assert float(np.max((a - b).norm())) <= 1e-8, fld.name


def test_stencil_error_at_singularity():
    with pytest.raises(StencilError):
        dirac_fd(cauchy_kernel(3), np.array([[5e-4, 0.0, 0.0]]), h=1e-3)


# ------------------------------------------------------------ closed forms


def test_cauchy_kernel_values():
    ck = cauchy_kernel(3)
    assert np.allclose(ck(np.array([1.0, 0, 0])).vector_part(), [1, 0, 0])
    v = np.array([1.0, 1.0]) / np.sqrt(2.0) * 1.7
    ck2 = cauchy_kernel(2)
    assert np.allclose(ck2(v).vector_part(), v / (v @ v))


def test_cauchy_kernel_annihilated(rng):
    pts = shell_points(rng, 3, 20)
    res = dirac_fd(cauchy_kernel(3), pts, h=1e-3, richardson=True)
    assert float(np.max(res.norm())) <= 1e-8


def test_cauchy_kernel_fd_order_without_richardson(rng):
    pts = shell_points(rng, 3, 6, r_lo=1.2, r_hi=2.5)
    samples = []
    for h in (1e-1, 5e-2, 2.5e-2):
        r = float(np.max(dirac_fd(cauchy_kernel(3), pts, h=h, richardson=False).norm()))
        samples.append((h, r))
    assert convergence_order(samples) == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("n,p", [(3, 2.0), (3, 2.5), (4, 3.0), (2, 1.5)])
def test_p_dirac_solution_residual(rng, n, p):
    pts = shell_points(rng, n, 10, r_lo=1.0, r_hi=2.0)
    res = p_dirac_residual(p_dirac_solution(n, p), p, pts, h=1e-3)
    assert float(np.max(res.norm())) <= 1e-8


def test_p_dirac_solution_structure():
    f = p_dirac_solution(3, 2.0)
    ck = cauchy_kernel(3)
    pts = np.array([[1.3, -0.2, 0.4], [0.5, 2.0, -1.0]])
    assert np.allclose(f(pts).coeffs, ck(pts).coeffs)
    # (3, 2.5): exponent (3 + 0.5) / 1.5 = 7/3
    f = p_dirac_solution(3, 2.5)
    x = np.array([1.7, 0.0, 0.0])
    assert np.allclose(f(x).vector_part()[0], 1.7 / 1.7 ** (7.0 / 3.0))
    # the nonlinearity maps the solution back onto the kernel exactly
    nl = nonlinear_power_field(f, 2.5)
    assert np.allclose(nl(pts).coeffs, ck(pts).coeffs, rtol=1e-12, atol=1e-15)
    with pytest.raises(FieldError):
        p_dirac_solution(3, 1.0)


def test_p_harmonic_radial_structure():
    assert p_harmonic_radial(3, 2.0).name.startswith("p-harmonic")
    x = np.array([2.0, 0.0, 0.0])
    # p = 2, n = 3: the Newtonian potential 1/|x|
    assert float(p_harmonic_radial(3, 2.0)(x).scalar_part()) == pytest.approx(0.5)
    # p = n: ln|x|
    assert float(p_harmonic_radial(3, 3.0)(x).scalar_part()) == pytest.approx(
        np.log(2.0)
    )
    # (n, p) = (2, 1.5): exponent (1.5-2)/0.5 = -1
    assert float(p_harmonic_radial(2, 1.5)(x[:2]).scalar_part()) == pytest.approx(0.5)
    with pytest.raises(FieldError):
        p_harmonic_radial(2, 0.5)


@pytest.mark.parametrize("n,p", [(3, 2.0), (3, 2.5), (4, 3.0), (2, 1.5)])
def test_p_harmonic_radial_residual(rng, n, p):
    pts = shell_points(rng, n, 10, r_lo=1.0, r_hi=2.0)
    res = p_harmonic_residual(p_harmonic_radial(n, p), p, pts, h=1e-3)
    assert float(np.max(res.norm())) <= 1e-6


def test_log_radial_is_n_harmonic(rng):
    pts = shell_points(rng, 3, 10, r_lo=1.5, r_hi=2.5)
    res = p_harmonic_residual(p_harmonic_radial(3, 3.0), 3.0, pts, h=1e-3)
    assert float(np.max(res.norm())) <= 1e-6


def test_residual_trivial_cases(rng):
    c = constant_field(3, Multivector(3, rng.normal(size=8)))
    res = p_dirac_residual(c, 2.7, rng.normal(size=(4, 3)), h=1e-2)
    assert float(np.max(res.norm())) == 0.0
    # identity field at p = 2 reduces to D x = -n
    res = p_dirac_residual(identity_field(3), 2.0, rng.normal(size=(4, 3)))
    assert np.allclose(res.coeffs[..., 0], -3.0, atol=1e-10)
    # linear scalar data: |Dh| constant, so any p gives zero
    res = p_harmonic_residual(
        linear_scalar_field(3, [1.0, 2.0, -1.0]), 3.7, rng.normal(size=(4, 3))
    )
    assert float(np.max(res.norm())) <= 1e-12


def test_vanishing_norm_guard():
    f = identity_field(3)  # vanishes at the origin
    with pytest.raises(VanishingNormError):
        p_dirac_residual(f, 1.5, np.array([[5e-4, 0.0, 0.0]]), h=1e-3)


# ----------------------------------------------------- scalar-part oracles


def _scalar_test_function():
    """u = x1^2 x2 + x3, with gradient (2 x1 x2, x1^2, 1) never zero."""

    def ev(q):
        return Multivector.scalar(3, q[..., 0] ** 2 * q[..., 1] + q[..., 2])

    def gr(q):
        batch = q.shape[:-1]
        return [
            Multivector.scalar(3, 2.0 * q[..., 0] * q[..., 1]),
            Multivector.scalar(3, q[..., 0] ** 2),
            Multivector.scalar(3, np.ones(batch)),
        ]

    return AnalyticField(3, ev, gr, name="x1^2 x2 + x3")


def _nabla_u(q):
    return np.stack(
        [2.0 * q[..., 0] * q[..., 1], q[..., 0] ** 2, np.ones(q.shape[:-1])],
        axis=-1,
    )


def test_scalar_part_matches_divergence_form(rng):
    """The grade-0 part of D |Du|^{p-2} Du is -div(|grad u|^{p-2} grad u).

    (Minus: each e_j^2 = -1, so the diagonal terms of D acting on a vector
    field assemble the negative divergence.)
    """
    p = 2.6
    u = _scalar_test_function()
    pts = rng.normal(size=(6, 3)) + np.array([1.5, 1.0, 0.0])
    got = p_harmonic_residual(u, p, pts, h=1e-3).coeffs[..., 0]

    def V(q):
        g = _nabla_u(q)
        return np.linalg.norm(g, axis=-1, keepdims=True) ** (p - 2.0) * g

    h = 1e-4
    div = np.zeros(len(pts))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        div += (V(pts + e)[:, j] - V(pts - e)[:, j]) / (2 * h)
    assert np.max(np.abs(got + div)) <= 1e-6


def test_bivector_part_matches_curl(rng):
    """Under e_i e_j <-> the Hodge pairing, the grade-2 part of D applied
    to a vector field is its curl (n = 3)."""
    p = 2.6
    u = _scalar_test_function()
    pts = rng.normal(size=(6, 3)) + np.array([1.5, 1.0, 0.0])
    res = p_harmonic_residual(u, p, pts, h=1e-3)

    def V(q):
        g = _nabla_u(q)
        return np.linalg.norm(g, axis=-1, keepdims=True) ** (p - 2.0) * g

    h = 1e-4
    partial = np.zeros((len(pts), 3, 3))  # partial[i, j, k] = d V_k / d x_j
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        partial[:, j, :] = (V(pts + e) - V(pts - e)) / (2 * h)
    curl = np.stack(
        [
            partial[:, 1, 2] - partial[:, 2, 1],
            partial[:, 2, 0] - partial[:, 0, 2],
            partial[:, 0, 1] - partial[:, 1, 0],
        ],
        axis=-1,
    )
    # e12 <-> +curl_3, e13 <-> -curl_2, e23 <-> +curl_1
    assert np.max(np.abs(res.coeffs[..., 0b011] - curl[:, 2])) <= 1e-6
    assert np.max(np.abs(res.coeffs[..., 0b101] + curl[:, 1])) <= 1e-6
    assert np.max(np.abs(res.coeffs[..., 0b110] - curl[:, 0])) <= 1e-6
    # for p-harmonic *solutions* the curl part vanishes too; here u is
    # generic, so the full residual need not vanish -- only match the
    # classical operators componentwise (checked above).


# --------------------------------------------- conformal differentiation


def _gaussian_blade_field(rng, dim, center):
    blade = Multivector(dim, rng.normal(size=1 << dim))
    c = np.asarray(center, dtype=float)

    def ev(pts):
        prof = np.exp(-np.sum((pts - c) ** 2, axis=-1))
        return Multivector(dim, prof[..., None] * blade.coeffs)

    return AnalyticField(dim, ev, name="gauss-blade")


@pytest.mark.parametrize(
    "make",
    [
        lambda: translation(3, [0.4, -0.1, 0.2]),
        lambda: dilation(3, 2.0),
        lambda: inversion(3),
        lambda: compose(inversion(3), translation(3, [0.4, -0.1, 0.2])),
    ],
    ids=["translation", "dilation", "inversion", "inv-transl"],
)
def test_lemma1_and_dj1(rng, make):
    m = make()
    psi = _gaussian_blade_field(rng, 3, [2.0, 0.3, -0.1])
    pts = np.array([2.0, 0.0, 0.0]) + 0.25 * rng.normal(size=(10, 3))
    assert lemma1_check(m, psi, pts, h=1e-3) <= 1e-6
    assert dj1_check(m, pts, h=1e-3) <= 1e-6


def test_dj1_constant_for_affine_maps(rng):
    # c = 0 makes J1 literally constant, so the FD derivative is 0.0
    pts = rng.normal(size=(4, 3))
    assert dj1_check(translation(3, [1.0, 0, 0]), pts) == 0.0
    assert dj1_check(dilation(3, 3.0), pts) == 0.0


def test_compose_with_mobius_gradient(rng):
    m = compose(inversion(3), translation(3, [0.4, -0.1, 0.2]))
    comp = compose_with_mobius(cauchy_kernel(3), m)
    pts = np.array([2.0, 0.5, -0.3]) + 0.2 * rng.normal(size=(5, 3))
    analytic = comp.grad(pts)
    numeric = gradient_fd(comp, pts, h=1e-4)
    for a, b in zip(analytic, numeric):
        assert float(np.max((a - b).norm())) <= 1e-8


def test_conformal_dirac_transform_translation_is_plain_shift(rng):
    t = [0.3, 0.1, -0.2]
    f = cauchy_kernel(3, center=[3.0, 0.0, 0.0])
    g = conformal_dirac_transform(f, translation(3, t))
    pts = rng.normal(size=(5, 3))
    assert np.allclose(g(pts).coeffs, f(pts + np.array(t)).coeffs, atol=1e-14)


# ------------------------------------------------------------ convergence


def test_convergence_order_synthetic():
    assert convergence_order([(0.1, 0.01), (0.05, 0.0025), (0.025, 0.000625)]) == (
        pytest.approx(2.0)
    )
    assert convergence_order([(0.1, 3.0), (0.05, 3.0), (0.025, 3.0)]) == (
        pytest.approx(0.0)
    )
    # nonpositive residuals are dropped; too few left -> estimation error
    with pytest.raises(EstimationError):
        convergence_order([(0.1, 0.0), (0.05, -1.0), (0.025, 1e-3)])


# ----------------------------------------------------------------- domains


def test_domain_membership_and_sampling(rng):
    box = Domain.box([0, 0], [1, 2])
    assert bool(box.contains(np.array([0.5, 1.0])))
    assert not bool(box.contains(np.array([1.5, 1.0])))
    ann = Domain.annulus([0, 0, 0], 1.0, 2.0)
    pts = ann.sample_interior(rng, 50)
    r = np.linalg.norm(pts, axis=-1)
    assert np.all((r >= 1.0) & (r <= 2.0))
    ball = Domain.ball([3, 0, 0], 1.0)
    assert ball.kind == "shifted-ball"
    assert ball.grid_scan(per_axis=5).shape[1] == 3
    with pytest.raises(DomainError):
        Domain.annulus([0, 0], 2.0, 1.0)
    with pytest.raises(DomainError):
        Domain.box([0, 0], [0, 1])


def test_validate_clearance():
    ball = Domain.ball([3.0, 0.0, 0.0], 1.0)
    validate_clearance(ball, singular_points=[(0.0, 0.0, 0.0)], mobius=inversion(3))
    near = Domain.ball([0.5, 0.0, 0.0], 0.4999999)
    with pytest.raises(DomainError):
        validate_clearance(near, singular_points=[(0.0, 0.0, 0.0)])
    through_pole = Domain.box([-1, -1, -1], [1, 1, 1])
    with pytest.raises(DomainError):
        validate_clearance(through_pole, mobius=inversion(3))
