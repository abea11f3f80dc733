"""Planar Cauchy-Riemann layer tests: Wirtinger finite differences, the
radial solution family and its flux structure, the derivative-transfer
identity, the holomorphic-composition covariance, and consistency with the
Cl_2 Dirac operator under the even-subalgebra encoding."""

import tracemalloc

import numpy as np
import pytest

from diraclab.algebra import Multivector, geometric_product
from diraclab.cr2d import (
    ComplexField,
    CRError,
    _cr_pairing,
    _flux,
    complex_bump,
    composed_flux,
    dbar_fd,
    default_complex_bumps,
    dz_fd,
    even_encoding,
    normalized_weak_cr_residual,
    p_cr_residual,
    p_cr_solution,
    polynomial_map,
    theorem5_experiment,
    transfer_identity_check,
    weak_cr_residual,
    wirtinger_polynomial,
)
from diraclab.fields import (
    Domain,
    DomainError,
    FieldError,
    StencilError,
    VanishingNormError,
    dirac_fd,
)
from diraclab.weakform import SupportError, WeakFormError, support_quadrature
from oracles import cr_pairing_oracle

RING = Domain.annulus([0.0, 0.0], 0.5, 1.5)


def shell(rng, count=20, r_lo=0.5, r_hi=2.0):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, count)) * rng.uniform(
        r_lo, r_hi, count
    )


# ------------------------------------------------- Wirtinger derivatives


def test_dbar_oracles(rng):
    z = shell(rng, 12)
    assert np.max(np.abs(dbar_fd(polynomial_map([0, 1]), z))) <= 1e-12
    zbar = wirtinger_polynomial({(0, 1): 1.0})
    assert np.max(np.abs(dbar_fd(zbar, z) - 1.0)) <= 1e-12
    modsq = wirtinger_polynomial({(1, 1): 1.0})
    assert np.max(np.abs(dbar_fd(modsq, z) - z)) <= 1e-11
    assert np.max(np.abs(dz_fd(modsq, z) - np.conj(z))) <= 1e-11


def test_wirtinger_fd_without_richardson_is_second_order():
    # the truncation term is (h^2/6)(d^3/dz^3 + 3 d/dz d^2/dzbar^2); z^3
    # keeps it alive, so halving h divides the error by 4
    g = polynomial_map([0.0, 0.0, 0.0, 1.0], name="z^3")
    z = np.array([1.0 + 0.5j])
    errs = [
        float(np.max(np.abs(dbar_fd(g, z, h=h, richardson=False))))
        for h in (1e-2, 5e-3)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_analytic_wirtinger_derivatives_match_fd(rng):
    z = shell(rng, 10)
    for g in (
        polynomial_map([1.0, -2.0j, 0.5]),
        wirtinger_polynomial({(2, 1): 1.0 - 0.5j, (0, 2): 0.25}),
        p_cr_solution(1.5),
        p_cr_solution(3.0),
        p_cr_solution(2.0),
    ):
        assert np.max(np.abs(g.dz(z) - dz_fd(g, z, h=1e-4))) <= 1e-9
        assert np.max(np.abs(g.dzbar(z) - dbar_fd(g, z, h=1e-4))) <= 1e-9


def test_stencil_clearance_near_singularity():
    g = p_cr_solution(2.0)
    with pytest.raises(StencilError):
        dbar_fd(g, 0.001 + 0j, h=1e-3)
    with pytest.raises(StencilError):
        p_cr_residual(g, 2.0, np.array([1.0j, 1e-4]), h=1e-3)
    for h in (-1e-3, float("nan")):
        for fd in (dbar_fd, dz_fd):
            with pytest.raises(FieldError, match="step must be positive"):
                fd(g, 0.001 + 0j, h=h)
        with pytest.raises(FieldError, match="step must be positive"):
            p_cr_residual(g, 2.0, np.array([1.0j, 1e-4]), h=h)


def test_derivative_accessors_require_functions():
    bare = ComplexField(lambda z: z, name="bare")
    assert not bare.has_dz and not bare.has_dzbar
    with pytest.raises(FieldError):
        bare.dz(np.array([1.0 + 0j]))
    with pytest.raises(FieldError):
        bare.dzbar(np.array([1.0 + 0j]))


# ----------------------------------------------------- the radial family


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_derived_solution_residual_on_the_shell(rng, p):
    g = p_cr_solution(p)
    z = shell(rng, 20)
    assert np.max(np.abs(p_cr_residual(g, p, z))) <= 1e-10


def test_derived_solution_flux_is_a_multiple_of_one_over_z(rng):
    p = 3.0
    a = (p - 2.0) / (p - 1.0)
    g = p_cr_solution(p)
    z = shell(rng, 10)
    vals = g(z)
    flux = np.abs(vals) ** (p - 2.0) * vals
    c = (a / 2.0) * abs(a / 2.0) ** (p - 2.0)
    assert np.max(np.abs(flux - c / z)) <= 1e-14


def test_p2_member_comes_from_the_logarithmic_potential(rng):
    g = p_cr_solution(2.0, center=1.0 - 1.0j)
    z = shell(rng, 8) + 3.0
    assert np.allclose(g(z), 0.5 / (z - (1.0 - 1.0j)), atol=1e-15)


def test_z_derivative_of_p_harmonic_potential_solves_p_cr(rng):
    # the 2-harmonic cubic: h = Re(z^3), dh/dz = 1.5 z^2
    h = wirtinger_polynomial({(3, 0): 0.5, (0, 3): 0.5})
    g = ComplexField(h.dz_fn, name="dh/dz")
    z = shell(rng, 10)
    assert np.max(np.abs(p_cr_residual(g, 2.0, z))) <= 1e-10
    assert np.allclose(g(z), 1.5 * z**2, atol=1e-13)


def test_constant_field_residual_is_exactly_zero(rng):
    const = ComplexField(lambda q: np.full_like(q, 2.0 - 1.0j), name="const")
    assert np.max(np.abs(p_cr_residual(const, 2.7, shell(rng, 6)))) == 0.0


def test_flux_guards(rng):
    zero = ComplexField(lambda q: np.zeros_like(q), name="zero")
    with pytest.raises(VanishingNormError):
        p_cr_residual(zero, 1.5, shell(rng, 3))
    with pytest.raises(FieldError):
        p_cr_residual(polynomial_map([0, 1]), 1.0, shell(rng, 3))
    with pytest.raises(FieldError):
        p_cr_solution(0.5)


# ------------------------------------------------------ transfer identity


def test_transfer_identity_for_simple_maps(rng):
    eta = wirtinger_polynomial({(2, 1): 1.0 + 0.5j, (1, 0): -2.0, (0, 2): 0.75j})
    zetas = np.array([1 + 1j, -0.5 + 2j, 2.0 - 0.3j])
    assert transfer_identity_check(polynomial_map([0, 1]), eta, zetas) <= 1e-10
    assert transfer_identity_check(polynomial_map([0, 2]), eta, zetas) <= 1e-8
    assert transfer_identity_check(polynomial_map([0, 0, 1]), eta, 1 + 1j) <= 1e-6


def test_transfer_identity_rejects_critical_points():
    eta = wirtinger_polynomial({(1, 1): 1.0})
    with pytest.raises(CRError):
        transfer_identity_check(polynomial_map([0, 0, 1]), eta, 0j)


def test_transfer_identity_refuses_a_stencil_over_a_pulled_back_pole():
    # 100 z sends 0 to the pole of 1/(2w); the stencil at 8e-4 straddles it
    with pytest.raises(StencilError, match="reaches the singular point"):
        transfer_identity_check(polynomial_map([0, 100]), p_cr_solution(2), 0.0008)
    assert transfer_identity_check(polynomial_map([0, 100]), p_cr_solution(2), 0.5) <= 1e-12


# -------------------------------------------------------------- weak form


@pytest.mark.parametrize("coefficient", [1.0, 0.3 - 1.7j])
def test_cr_pairing_matches_the_whole_rule_complex_sum(coefficient):
    """The streamed Clifford pairing, halved, against the complex sum of
    conj(F) d xi / d z over the whole rule at once, on a non-solution flux."""
    flux = _flux(wirtinger_polynomial({(2, 1): 1.0 + 0.5j, (0, 2): 0.75j, (1, 0): -2.0}), 2.5)
    xi = complex_bump(0.2 + 0.1j, 0.7, coefficient)
    nodes, w = support_quadrature(xi, 12)
    want_raw, want_norm = cr_pairing_oracle(flux, 0.2 + 0.1j, 0.7, coefficient, nodes, w)
    raw, normalizer = _cr_pairing(flux, xi, 12)
    assert abs(want_raw) > 1e-2
    assert abs(raw - want_raw) <= 1e-13 * abs(want_raw)
    assert abs(normalizer - want_norm) <= 1e-13 * want_norm


def test_cr_pairing_memory_does_not_grow_with_the_order():
    """A disc pairing streams its nodes: its traced peak at order 48
    (147,456 nodes) stays within 1.5x of its peak at order 24."""
    g, xi = p_cr_solution(2.0), default_complex_bumps(RING, seed=42)[0]
    peaks = []
    for order in (24, 48):
        tracemalloc.start()
        try:
            normalized_weak_cr_residual(g, 2.0, xi, order=order)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_complex_bump_validation():
    with pytest.raises(WeakFormError):
        complex_bump(0j, 0.0)
    with pytest.raises(SupportError):
        complex_bump(0j, 0.2).require_support_inside(RING)
    complex_bump(1.0 + 0j, 0.2).require_support_inside(RING)


def test_default_complex_bumps_family(rng):
    bumps = default_complex_bumps(RING, seed=9, count=4)
    assert [b.label for b in bumps] == ["rand-0", "rand-1", "rand-2", "rand-3"]
    for b in bumps:
        b.require_support_inside(RING)
        assert b.blade.norm() == pytest.approx(1.0)
    with pytest.raises(CRError):
        default_complex_bumps(Domain.ball([0.0, 0.0, 0.0], 1.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_weak_residual_of_derived_solutions(p):
    g = p_cr_solution(p)
    for xi in default_complex_bumps(RING, seed=42):
        assert normalized_weak_cr_residual(g, p, xi) <= 1e-12


def test_weak_residual_detects_non_solutions():
    bad = wirtinger_polynomial({(0, 1): 1.0}, name="zbar")
    xi = default_complex_bumps(RING, seed=42)[0]
    assert normalized_weak_cr_residual(bad, 2.0, xi) > 1e-3


def test_weak_residual_rejects_non_finite_fields():
    blown = ComplexField(lambda q: np.full_like(q, np.inf), name="blown")
    xi = default_complex_bumps(RING, seed=42)[0]
    with pytest.raises(CRError):
        weak_cr_residual(blown, 2.0, xi)
    with pytest.raises(CRError):
        normalized_weak_cr_residual(blown, 2.0, xi)


# ------------------------------------------------- composition covariance


def test_theorem5_translation_reduces_to_plain_residual():
    p = 2.5
    g = p_cr_solution(p)
    move = polynomial_map([1.0 + 1.0j, 1.0], name="shift")
    disc = Domain.ball([0.5, 0.25], 0.5)  # clear of the pole at -1 - 1j
    shifted = ComplexField(lambda z: g(z + (1.0 + 1.0j)), name="g-shifted")
    rows = theorem5_experiment(g, move, p, disc, seed=42, count=3)
    bumps = default_complex_bumps(disc, seed=42, count=3)
    assert len(rows) == len(bumps) == 3
    for row, xi in zip(rows, bumps):
        assert row["residual"] == abs(weak_cr_residual(shifted, p, xi))
        assert row["normalized"] == normalized_weak_cr_residual(shifted, p, xi)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_theorem5_square_map_on_the_annulus(p):
    f = polynomial_map([3.0, 0.0, 1.0], name="z^2+3")
    rows = theorem5_experiment(p_cr_solution(p), f, p, RING, seed=42)
    assert len(rows) == 5
    assert max(r["normalized"] for r in rows) <= 1e-12
    assert {k for r in rows for k in r} == {
        "eta", "p", "map", "residual", "normalizer", "normalized",
    }


def test_theorem5_zero_field_gives_zero():
    zero = ComplexField(lambda q: np.zeros_like(q), name="zero")
    f = polynomial_map([3.0, 0.0, 1.0])
    rows = theorem5_experiment(zero, f, 2.0, RING, seed=42)
    assert all(r["residual"] == 0.0 and r["normalizer"] == 0.0 for r in rows)


def test_theorem5_rejects_critical_points_on_the_support():
    g = p_cr_solution(2.0, center=-3.0 + 0j)
    f = polynomial_map([3.0, 0.0, 1.0], name="z^2+3")
    nodes = support_quadrature(complex_bump(0j, 0.3), 12)[0]  # centred on the critical point of f
    z = nodes[:, 0] + 1j * nodes[:, 1]
    with pytest.raises(CRError):
        composed_flux(g, f, 2.0)(z)


def test_theorem5_refuses_a_domain_holding_a_pulled_back_pole():
    f = polynomial_map([3.0, 0.0, 1.0], name="z^2+3")
    g = p_cr_solution(1.5)
    poles = composed_flux(g, f, 1.5).singular_points
    assert np.allclose(sorted(poles, key=np.imag), [-1j * np.sqrt(3.0), 1j * np.sqrt(3.0)])
    with pytest.raises(DomainError, match="singular point"):
        theorem5_experiment(g, f, 1.5, Domain.annulus([0.0, 0.0], 1.2, 2.2))
    # a map whose preimages are unknown cannot certify a field with poles
    opaque = ComplexField(f.eval_fn, f.dz_fn, f.dzbar_fn, name="opaque")
    with pytest.raises(CRError, match="poles"):
        composed_flux(g, opaque, 1.5)
    assert composed_flux(ComplexField(lambda q: q, name="plain"), opaque, 2.0).singular_points == ()


def test_theorem5_determinism():
    f = polynomial_map([3.0, 0.0, 1.0])
    a = theorem5_experiment(p_cr_solution(3.0), f, 3.0, RING, seed=42)
    b = theorem5_experiment(p_cr_solution(3.0), f, 3.0, RING, seed=42)
    assert a == b


# -------------------------------------------------------- Cl_2 consistency


def test_bivector_square_is_minus_one_exactly():
    e21 = geometric_product(
        Multivector.basis_vector(2, 2), Multivector.basis_vector(2, 1)
    )
    sq = geometric_product(e21, e21)
    assert list(sq.coeffs) == [-1.0, 0.0, 0.0, 0.0]


def test_even_encoding_links_dirac_and_dbar(rng):
    """D(encode g) = e_1 * encode(2 dbar g): the planar Dirac operator is
    the Cauchy-Riemann operator up to the constant unit factor e_1."""
    g = wirtinger_polynomial(
        {(2, 1): 1.0, (0, 1): 3.0, (0, 0): -1.0, (1, 2): 0.5 - 0.25j}
    )
    enc = even_encoding(g)
    pts = rng.normal(size=(8, 2))
    lhs = dirac_fd(enc, pts, h=1e-4)
    val = 2.0 * dbar_fd(g, pts[:, 0] + 1j * pts[:, 1], h=1e-4)
    packed = np.zeros(pts.shape[:-1] + (4,))
    packed[..., 0] = val.real
    packed[..., 3] = -val.imag
    rhs = geometric_product(Multivector.basis_vector(2, 1), Multivector(2, packed))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-10
    # the encoding also carries the analytic gradient
    assert np.max(np.abs(enc.dirac(pts).coeffs - lhs.coeffs)) <= 1e-9


def test_even_encoding_of_holomorphic_field_is_monogenic(rng):
    enc = even_encoding(polynomial_map([1.0, 0.5j, 2.0], name="poly"))
    pts = rng.normal(size=(6, 2))
    assert float(np.max(enc.dirac(pts).norm())) <= 1e-13
