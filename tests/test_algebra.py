"""Clifford kernel tests: table-driven product vs. an index-list oracle,
involution and norm identities, group actions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import (
    AlgebraError,
    Multivector,
    SingularElementError,
    VectorFactorList,
    blade_grades,
    clifford_inner,
    geometric_product,
    lipschitz_element_inverse,
    parity,
    pin_action,
    product_signs,
    reflect,
    vector_inverse,
)

from conftest import random_factor_list, random_multivector, random_vector
from oracles import (
    blade_product_oracle,
    dict_geometric_product,
    dict_to_coeffs,
    indices_to_mask,
    mask_to_indices,
    mv_to_dict,
    reversion_sign_oracle,
)

# ------------------------------------------------------------------ product


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_product_table_matches_swap_sort_oracle(dim):
    signs = product_signs(dim)
    n = 1 << dim
    for a in range(n):
        ia = mask_to_indices(a)
        for b in range(n):
            s, idx = blade_product_oracle(ia, mask_to_indices(b))
            assert indices_to_mask(idx) == a ^ b
            assert signs[a, b] == s


def test_frozen_product_anchors():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    e3 = Multivector.basis_vector(3, 3)
    assert (e1 * e1).coeffs[0] == -1.0
    # vector square is minus the squared length
    x = Multivector.from_vector(3, [1.0, 2.0, 3.0])
    sq = x * x
    assert sq.coeffs[0] == -14.0
    assert np.all(sq.coeffs[1:] == 0.0)
    # anticommutation
    assert np.allclose((e1 * e2 + e2 * e1).coeffs, 0.0)
    # (e1 e2)(e2 e3) = -e1 e3
    got = (e1 * e2) * (e2 * e3)
    want = -(e1 * e3)
    assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_product_matches_dict_oracle(rng, dim):
    for _ in range(25):
        a = random_multivector(rng, dim)
        b = random_multivector(rng, dim)
        got = geometric_product(a, b).coeffs
        want = dict_to_coeffs(dict_geometric_product(mv_to_dict(a), mv_to_dict(b)), dim)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


coeff_lists = lambda dim: st.lists(
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    min_size=1 << dim,
    max_size=1 << dim,
)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), data=st.data())
def test_associativity(dim, data):
    a = Multivector(dim, data.draw(coeff_lists(dim)))
    b = Multivector(dim, data.draw(coeff_lists(dim)))
    c = Multivector(dim, data.draw(coeff_lists(dim)))
    left = (a * b) * c
    right = a * (b * c)
    scale = max(a.norm() * b.norm() * c.norm(), 1.0)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), data=st.data())
def test_distributivity(dim, data):
    a = Multivector(dim, data.draw(coeff_lists(dim)))
    b = Multivector(dim, data.draw(coeff_lists(dim)))
    c = Multivector(dim, data.draw(coeff_lists(dim)))
    left = a * (b + c)
    right = a * b + a * c
    scale = max(a.norm() * (b.norm() + c.norm()), 1.0)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


def test_batched_product_equals_single_products(rng):
    dim = 4
    a = random_multivector(rng, dim, batch=(7,))
    b = random_multivector(rng, dim, batch=(7,))
    batched = geometric_product(a, b)
    for k in range(7):
        single = geometric_product(
            Multivector(dim, a.coeffs[k]), Multivector(dim, b.coeffs[k])
        )
        assert np.array_equal(batched.coeffs[k], single.coeffs)


def test_dimension_contract_errors():
    with pytest.raises(AlgebraError):
        Multivector(3, np.zeros(4))
    with pytest.raises(AlgebraError):
        Multivector(11, np.zeros(2**11))
    a = Multivector.scalar(2, 1.0)
    b = Multivector.scalar(3, 1.0)
    with pytest.raises(AlgebraError):
        geometric_product(a, b)


# --------------------------------------------------------------- involutions


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_reversion_blade_signs_match_reversal_oracle(dim):
    for mask in range(1 << dim):
        blade = Multivector.blade(dim, mask)
        got = blade.reversion().coeffs[mask]
        assert got == reversion_sign_oracle(mask_to_indices(mask))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 5), data=st.data())
def test_reversion_antiautomorphism(dim, data):
    a = Multivector(dim, data.draw(coeff_lists(dim)))
    b = Multivector(dim, data.draw(coeff_lists(dim)))
    left = (a * b).reversion()
    right = b.reversion() * a.reversion()
    scale = max(a.norm() * b.norm(), 1.0)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale
    # involution
    assert np.array_equal(a.reversion().reversion().coeffs, a.coeffs)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 5), data=st.data())
def test_conjugation_antiautomorphism(dim, data):
    a = Multivector(dim, data.draw(coeff_lists(dim)))
    b = Multivector(dim, data.draw(coeff_lists(dim)))
    left = (a * b).conjugation()
    right = b.conjugation() * a.conjugation()
    scale = max(a.norm() * b.norm(), 1.0)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12 * scale


def test_conjugation_is_reversion_with_grade_involution(rng):
    a = random_multivector(rng, 4)
    grades = blade_grades(4)
    manual = a.reversion().coeffs * np.where(grades % 2, -1.0, 1.0)
    assert np.array_equal(a.conjugation().coeffs, manual)
    # on vectors, conjugation is minus the identity
    x = random_vector(rng, 4)
    assert np.array_equal(x.conjugation().coeffs, -x.coeffs)


# ------------------------------------------------------- norms and inverses


def test_scalar_part_of_self_inner_is_squared_norm(rng):
    for dim in (2, 3, 5):
        a = random_multivector(rng, dim)
        got = clifford_inner(a, a).scalar_part()
        assert got == pytest.approx(a.norm() ** 2, rel=1e-13)


def test_clifford_inner_scalar_part_is_coefficient_dot(rng):
    a = random_multivector(rng, 4)
    b = random_multivector(rng, 4)
    got = clifford_inner(a, b).scalar_part()
    assert got == pytest.approx(float(a.coeffs @ b.coeffs), rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_norm_multiplicativity_for_vector_products(rng, count):
    for dim in (2, 3, 4):
        factors = random_factor_list(rng, dim, count)
        a = factors.product()
        B = random_multivector(rng, dim)
        left = (a * B).norm()
        right = a.norm() * B.norm()
        assert left == pytest.approx(right, rel=1e-12)
        # and the norm of the product element is the product of factor norms
        assert a.norm() == pytest.approx(factors.norm(), rel=1e-12)


def test_vector_inverse(rng):
    x = random_vector(rng, 3)
    xi = vector_inverse(x)
    assert np.allclose((x * xi).coeffs, Multivector.scalar(3, 1.0).coeffs, atol=1e-14)
    expected = -x.coeffs / float(x.norm()) ** 2
    assert np.allclose(xi.coeffs, expected)
    with pytest.raises(SingularElementError):
        vector_inverse(Multivector.from_vector(3, [0.0, 0.0, 0.0]))
    with pytest.raises(AlgebraError):
        vector_inverse(Multivector.scalar(3, 2.0))


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_lipschitz_inverse_by_factor_list(rng, count):
    factors = random_factor_list(rng, 3, count)
    a = factors.product()
    inv = factors.inverse()
    assert np.allclose(
        (a * inv).coeffs, Multivector.scalar(3, 1.0).coeffs, atol=1e-12
    )
    # conjugation route gives the same inverse
    inv2 = lipschitz_element_inverse(a)
    assert np.allclose(inv.coeffs, inv2.coeffs, atol=1e-12)


def test_conjugation_inverse_rejects_non_group_element():
    bad = Multivector.scalar(3, 1.0) + Multivector.blade(3, 0b111)
    with pytest.raises(AlgebraError):
        lipschitz_element_inverse(bad)


# ------------------------------------------------------------ group actions


def test_reflect_flips_only_the_mirror_component(rng):
    e1 = Multivector.basis_vector(4, 1)
    x = random_vector(rng, 4)
    got = reflect(e1, x)
    want = x.vector_part().copy()
    want[0] = -want[0]
    assert np.allclose(got.vector_part(), want, atol=1e-15)
    assert got.is_grade(1, tol=1e-15)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_pin_action_is_orthogonal_on_vectors(rng, count):
    dim = 4
    factors = random_factor_list(rng, dim, count, unit=True)
    x = random_vector(rng, dim)
    y = random_vector(rng, dim)
    gx = pin_action(factors, x)
    gy = pin_action(factors, y)
    assert gx.is_grade(1, tol=1e-12)
    dot = lambda u, v: float(u.vector_part() @ v.vector_part())
    assert dot(gx, gy) == pytest.approx(dot(x, y), rel=1e-12, abs=1e-12)


def test_pin_action_preserves_multivector_norm(rng):
    factors = random_factor_list(rng, 3, 3, unit=True)
    A = random_multivector(rng, 3)
    assert pin_action(factors, A).norm() == pytest.approx(A.norm(), rel=1e-12)


def test_parity_classification(rng):
    factors_even = random_factor_list(rng, 3, 2)
    factors_odd = random_factor_list(rng, 3, 3)
    assert parity(factors_even.product()) == 1
    assert parity(factors_odd.product()) == -1
    mixed = Multivector.scalar(3, 1.0) + Multivector.basis_vector(3, 1)
    assert parity(mixed) == 0


# ------------------------------------------------------------------ helpers


def test_vector_part_and_from_vector_roundtrip(rng):
    v = rng.standard_normal((6, 5))
    mv = Multivector.from_vector(5, v)
    assert np.array_equal(mv.vector_part(), v)
    assert mv.is_grade(1)


def test_grade_select(rng):
    a = random_multivector(rng, 3)
    total = sum(
        (a.grade_select(r) for r in range(1, 4)), start=a.grade_select(0)
    )
    assert np.array_equal(total.coeffs, a.coeffs)


def test_repr_names_blades():
    mv = Multivector(3, [1.0, 0.0, 0.0, 0.0, 0.0, 2.5, 0.0, -1.0])
    assert repr(mv) == "Multivector(dim=3, 1 + 2.5*e13 + -1*e123)"
    assert repr(Multivector.zero(2)) == "Multivector(dim=2, 0)"
    assert repr(Multivector.zero(2, (4,))) == "Multivector(dim=2, batch=(4,))"
