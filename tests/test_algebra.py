"""Clifford kernel tests: table-driven product vs. an index-list oracle,
involution and norm identities, group actions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.algebra import (
    _BLOCK,
    _live,
    AlgebraError,
    Multivector,
    SingularElementError,
    blade_grades,
    conj_vector_sums,
    geometric_product,
    lipschitz_element_inverse,
    parity,
    pin_action,
    product_signs,
    reflect,
    square_sum,
    vector_inverse,
    vector_sandwich,
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
    scatter_geometric_product,
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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
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


def _same_bits(got, want):
    """Equal shapes and values, NaN in the same places, and the same sign
    on every zero."""
    keep = ~np.isnan(want)
    return (got.shape == want.shape
            and np.array_equal(np.isnan(got), ~keep)
            and np.array_equal(got[keep], want[keep])
            and np.array_equal(np.signbit(got[keep]), np.signbit(want[keep])))


def _check_against_scatter(dim, ca, cb):
    got = geometric_product(Multivector(dim, ca), Multivector(dim, cb)).coeffs
    assert _same_bits(got, scatter_geometric_product(ca, cb, dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_product_matches_scatter_reference_bit_for_bit(rng, dim):
    """The gather kernel against the blade-by-blade scatter loop: the same
    bits for every broadcast pattern, for all-zero, vector and dense left
    factors times dense and grade-sparse (vector, bivector, even, scalar)
    right factors, and for batches one row short of, at and past a block,
    whose rows count only the output blades the factors can reach."""
    n = 1 << dim
    grades = blade_grades(dim)

    def graded(*keep):
        mask = np.isin(grades, keep)
        return lambda *batch: np.where(mask, rng.standard_normal(batch + (n,)), 0.0)

    dense, vector = graded(*range(dim + 1)), graded(1)
    sparse = (vector, graded(2), graded(*range(0, dim + 1, 2)), graded(0))
    for left in (dense, vector):
        for right in (dense,) + sparse:
            for a_batch, b_batch in (((), ()), ((), (5,)), ((5,), ()), ((3, 5), (5,)),
                                     ((3, 1), (4,)), ((0,), ()), ((), (2, 0))):
                _check_against_scatter(dim, left(*a_batch), right(*b_batch))
            live_a, live_b = (np.flatnonzero(f()) for f in (left, right))
            reach = len({i ^ j for i in live_a for j in live_b})
            rows = _BLOCK // max(reach * len(live_a), 1)
            for count in (rows - 1, rows, rows + 1):
                ca = left(count)
                ca[0] = 0.0  # its sums hold only zeros: each must come out +0.0
                _check_against_scatter(dim, ca, right(count))
            _check_against_scatter(dim, left(rows + 1), right())
    _check_against_scatter(dim, np.zeros((3, n)), dense(3))
    for zero in (np.zeros(n), np.zeros((3, n))):  # b zero: nothing is reachable
        _check_against_scatter(dim, dense(3), zero)
    # b live only in some rows, and a blade live in only one row
    cb = vector(6)
    cb[[1, 4]] = 0.0
    cb[2, -1] = 1.5
    _check_against_scatter(dim, dense(6), cb)
    _check_against_scatter(dim, vector(6), cb)
    # inf and NaN in b: where a live blade's zero coefficient meets inf
    # (row 0), the reference forms 0 * inf = NaN, and so must the kernel
    ca, cb = dense(4), dense(4)
    ca[0, n - 1] = 0.0
    cb[0, 0], cb[1, 0], cb[2, n - 1] = np.inf, np.nan, -np.inf
    with np.errstate(invalid="ignore"):
        _check_against_scatter(dim, ca, cb)
        _check_against_scatter(dim, ca[1], cb)
    # and mirrored: inf or NaN in a live blade of a meets the blades that
    # are zero throughout a sparse b, which must come out NaN, not +0.0
    for left in (dense, vector):
        ca = left(4)
        live = np.flatnonzero(ca[0])
        ca[0, live[0]], ca[1, live[-1]], ca[2, live[0]] = np.inf, np.nan, -np.inf
        for right in sparse:
            with np.errstate(invalid="ignore"):
                _check_against_scatter(dim, ca, right(4))
                _check_against_scatter(dim, ca[1], right())
                _check_against_scatter(dim, ca, right())


def _sound_carried_set(product):
    """A product carries a set only with read-only coefficients; the set
    names every blade nonzero somewhere in the batch (NaN counts), and a
    blade zero throughout is +0.0 in every row."""
    if product.live is None:
        return True
    c = product.coeffs.reshape(-1, product.coeffs.shape[-1])
    live, nonzero = np.frombuffer(product.live, dtype=bool), c.any(axis=0)
    return (not product.coeffs.flags.writeable and np.all(live >= nonzero)
            and not np.signbit(c[:, ~nonzero]).any())


def _check_kernel(a, b):
    """The product against the scatter reference, bit for bit, with a sound
    carried set, carried exactly when the product is finite."""
    got = geometric_product(a, b)
    assert _same_bits(got.coeffs, scatter_geometric_product(a.coeffs, b.coeffs, a.dim))
    assert _sound_carried_set(got)
    assert (got.live is not None) == np.isfinite(got.coeffs).all()
    return got


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_blade_major_kernel_on_short_broadcast_and_carried_batches(rng, dim):
    """The blade-major kernel against the scatter reference at every batch
    of 1 to 64 rows (dense, vector and signed-zero factors), on broadcast
    batches and single rows on either side, on batches one row short of,
    at and past its block, with inf and NaN in either factor, and on
    factors that carry their live blades: a constructor's set with a blade
    zero in every row, which must not be read where b holds an inf (0 * inf
    would be NaN), and a product's own carried set."""
    n = 1 << dim
    vector = np.isin(np.arange(n), [1 << j for j in range(dim)])

    def draw(*batch, grade1=False):
        c = rng.standard_normal(batch + (n,))
        c[rng.random(c.shape) < 0.15] = -0.0
        return Multivector(dim, np.where(vector, c, 0.0) if grade1 else c)

    for rows in range(1, 65):
        _check_kernel(draw(rows), draw(rows))
        _check_kernel(draw(rows, grade1=True), draw(rows))
        _check_kernel(draw(rows), draw(rows, grade1=True))
    for rows in (1, 2, 7, 64):
        for a_batch, b_batch in (((), (rows,)), ((rows,), ()), ((rows, 1), (3,)),
                                 ((2, 1), (1, rows))):
            _check_kernel(draw(*a_batch), draw(*b_batch))
            _check_kernel(draw(*a_batch, grade1=True), draw(*b_batch))
    for left, right in ((False, False), (True, False), (False, True), (True, True)):
        live_a, live_b = (np.flatnonzero(vector) if g else range(n) for g in (left, right))
        reach = {i ^ j for i in live_a for j in live_b}
        block = _BLOCK // max(len(live_a), len(live_b), len(reach))  # the kernel's rows per block
        for count in (block - 1, block, block + 1, 2 * block + 1):
            _check_kernel(draw(count, grade1=left), draw(count, grade1=right))
    for rows in (1, 3, 64):
        for side in range(2):
            a, b = draw(rows), draw(rows, grade1=True)
            c = (a, b)[side].coeffs
            c[0, 0], c[-1, n - 1], c[rows // 2, 1 % n] = np.inf, np.nan, -np.inf
            with np.errstate(invalid="ignore"):
                _check_kernel(a, b)
                _check_kernel(b, a)
                _check_kernel(Multivector(dim, a.coeffs[0]), b)
    comps = rng.standard_normal((9, dim))
    comps[:, 0] = 0.0
    carried = Multivector.from_vector(dim, comps)  # blade e_1 carried, zero throughout
    assert carried.live is not None
    for right in (draw(9), draw(), draw(9, grade1=True)):
        _check_kernel(carried, right)
        _check_kernel(right, carried)
        product = _check_kernel(carried, right)
        _check_kernel(product, draw(9))
        _check_kernel(draw(9), product)
    with np.errstate(invalid="ignore"):
        b = draw(9)
        b.coeffs[4, 1 % n] = np.inf
        _check_kernel(carried, b)
        _check_kernel(Multivector.scalar(dim, 0.0), b)
        _check_kernel(_check_kernel(carried, draw(9, grade1=True)), b)


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
        got = geometric_product(a.conjugation(), a).scalar_part()
        assert got == pytest.approx(a.norm() ** 2, rel=1e-13)


def test_clifford_inner_scalar_part_is_coefficient_dot(rng):
    a = random_multivector(rng, 4)
    b = random_multivector(rng, 4)
    got = geometric_product(a.conjugation(), b).scalar_part()
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
    # a non-finite vector, or one whose squared length overflows, is refused
    # by name and without a numpy warning
    for coeffs in ([np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0], [1e308, 1e308, 0.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AlgebraError, match="finite"):
                vector_inverse(Multivector.from_vector(3, coeffs))


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


# ---------------------------------------------- square sums and live blades

# values that a reordered sum would show: signed zeros, subnormals, the
# overflow edge, infinities and NaN
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308, np.inf, -np.inf,
                     np.nan, 1.0, -1.0, 1e16, -1e16])


def same_bytes(got, want):
    """The same shape, NaN exactly where want is NaN, and the same bytes,
    signbit included, everywhere else (a NaN's sign and payload follow
    operand order, which IEEE 754 leaves open and numpy's own loops vary)."""
    keep = ~np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), ~keep)
            and np.array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64)))


def _special_array(rng, shape, special):
    """Normal values over 300 decades, whose squares stay finite and span
    600, a share `special` of them replaced by SPECIALS."""
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    pick = rng.random(shape) < special
    a[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return a


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from(list(range(1, 18)) + [31, 64, 100, 127, 128, 129, 136, 256, 300, 1024]),
       rows=st.sampled_from([(), (0,), (1,), (7,), (1024,), (2, 600), (3, 5)]),
       order=st.sampled_from("CFB"), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.1, 0.5]),
       live_count=st.sampled_from([None, 0, 1, 3, 7, 8, 12]))
def test_square_sum_is_np_sum_bit_for_bit(n, rows, order, seed, special, live_count):
    """square_sum equals np.sum(a * a, axis=-1) of the C-ordered a, with and
    without a live mask whose dead columns hold +0.0 or -0.0, on NaN,
    infinities, signed zeros, subnormals, squares that overflow or
    underflow, and an empty batch, for a C-ordered, an F-ordered and a
    blade-major (B: the columns contiguous rows) a, unbatched, batched
    (B, n) or (E, B, n), one row among them: its one column fold follows
    numpy's pairwise order through the left fold below 8 columns, the 8
    lanes up to 128 and one (256, 300) and two (1024) levels of halving
    above."""
    rng = np.random.default_rng(seed)
    c = _special_array(rng, rows + (n,), special)
    live = np.ones(n, dtype=bool)
    if live_count is not None:
        live[rng.permutation(n)[live_count:]] = False
    c[..., ~live] = rng.choice([0.0, -0.0], size=(~live).sum())
    a = (np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -1, 0)), 0, -1) if order == "B"
         else np.asarray(c, order=order))
    with np.errstate(over="ignore", under="ignore"):
        want = np.sum(c * c, axis=-1)
        for mask in (None,) * (live_count is None) + (live.tobytes(),):
            assert same_bytes(square_sum(a, mask), want)


def _carried(dim):
    return [Multivector.scalar(dim, [1.5, -0.0]), Multivector.basis_vector(dim, dim),
            Multivector.blade(dim, (1 << dim) - 1),
            Multivector.from_vector(dim, np.ones((3, dim)))]


@pytest.mark.parametrize("dim", range(1, 8))
def test_constructors_carry_exact_read_only_live_blades(dim):
    """Each carrying constructor names every blade it may make nonzero, and
    only those, and hands out read-only coefficients, so no in-place write
    can leave its set stale; an in-place write on a copy keeps none."""
    for mv in _carried(dim):
        live = np.frombuffer(mv.live, dtype=bool)
        assert len(live) == 1 << dim
        assert np.array_equal(live, mv.coeffs.reshape(-1, 1 << dim).any(axis=0))
        with pytest.raises(ValueError, match="read-only"):
            mv.coeffs[..., 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            mv.coeffs += 1.0
        copy = Multivector(dim, mv.coeffs)
        copy.coeffs[..., 0] = 2.0
        assert copy.live is None


def test_derived_multivectors_carry_no_live_blades():
    """Products, sums, differences, negation, scalar multiples, quotients,
    involutions and grade projections start without a set: an inf times a
    dead blade's 0.0 is NaN there."""
    a, b = Multivector.from_vector(3, [[np.inf, 1.0, 0.0]]), Multivector.scalar(3, 2.0)
    with np.errstate(invalid="ignore"):
        derived = [a * b, b * a, a + b, a - b, -a, 2.0 * a, a * 2.0, a / 2.0, a.reversion(),
                   a.conjugation(), a.grade_select(1), Multivector(3, a.coeffs, copy=False),
                   Multivector.zero(3),
                   vector_inverse(Multivector.from_vector(3, [1.0, 2.0, 3.0]))]
        assert np.isnan((a * Multivector.blade(3, 0b110)).coeffs).any()
    assert all(mv.live is None for mv in derived)


@pytest.mark.parametrize("dim", range(1, 8))
def test_from_vector_norm_is_the_dense_sum_bit_for_bit(rng, dim):
    """norm() of a from_vector field sums its dim live columns by
    square_sum and equals sqrt(np.sum(c**2, -1)) of its C-ordered dense
    coefficients c, also where a carried blade is zero (+0.0 or -0.0) in
    every row, and on NaN, infinities and subnormals."""
    comps = _special_array(rng, (1100, dim), 0.3)
    comps[:, dim // 2] = rng.choice([0.0, -0.0], size=1100)
    for c in (comps, comps[5], np.zeros(dim), np.full(dim, -0.0)):
        mv = Multivector.from_vector(dim, c)
        dense = np.ascontiguousarray(mv.coeffs)
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bytes(mv.norm(), np.sqrt(np.sum(dense**2, axis=-1)))


def _blade_major(c):
    """c's values with the blade axis outermost in memory, as the batched
    constructors lay them out: each blade one contiguous row."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -1, 0)), 0, -1)


@pytest.mark.parametrize("dim", range(1, 7))
def test_blade_major_and_c_ordered_coefficients_give_the_same_bytes(rng, dim):
    """Every operation gives the same bytes, carried sets included, whatever
    layout a caller hands the coefficients in: a value built on blade-major
    rows passed with copy=False, which it keeps as given, against values
    built from a C-ordered (node-major) and an F-ordered array of the same
    coefficients, which it copies.  The operations are norm, the product
    with the value on either side, conj_vector_sums, vector_sandwich and
    pin_action, vector_part, grade_select and is_grade, the involutions,
    +, -, scalar * and /, and the live-blade scan.  Values are dense,
    grade-1 and scalar, from raw coefficients and from the constructors, at
    7 and 1,100 rows and 2 x 600, with signed zeros, subnormals, inf and NaN
    (finite where vector_sandwich needs it)."""
    n = 1 << dim
    for batch in ((7,), (1100,), (2, 600)):
        comps = _special_array(rng, batch + (dim,), 0.2)
        comps[..., dim // 2] = -0.0
        finite = rng.standard_normal(batch + (n,))
        finite[rng.random(finite.shape) < 0.2] = -0.0
        values = [Multivector(dim, _blade_major(_special_array(rng, batch + (n,), 0.2))),
                  Multivector(dim, _blade_major(finite)), Multivector.from_vector(dim, comps),
                  Multivector.scalar(dim, comps[..., 0])]
        other = Multivector(dim, _special_array(rng, batch + (n,), 0.1))
        vectors = (rng.standard_normal(dim), rng.standard_normal((dim,) + batch))
        left, wx = _special_array(rng, (batch[-1], dim), 0.1), rng.uniform(0.1, 1.0, (2, batch[-1]))
        for value in values:
            assert not value.coeffs.flags.c_contiguous
            kept = Multivector(dim, value.coeffs, copy=False)
            assert kept.coeffs is value.coeffs
            copies = []
            for order in "CF":
                given = np.array(value.coeffs, order=order)
                copies.append(Multivector(dim, given))
                assert not np.shares_memory(copies[-1].coeffs, given)
            if value.live is not None:
                kept, copies = kept._carry(value.live), [c._carry(value.live) for c in copies]

            def results(v):
                out = [v.norm(), v * other, other * v, v * v, pin_action(v, other),
                       pin_action(other, v), v.vector_part(), v.reversion(), v.conjugation(),
                       v + other, other - v, -v, 2.5 * v, v * -0.5, v / 3.0,
                       _live(v.coeffs), *(v.is_grade(r) for r in range(dim + 1)),
                       *(v.grade_select(r) for r in range(dim + 1))]
                if len(batch) == 1:
                    sums = np.zeros((2, n))
                    conj_vector_sums(left, v, wx, sums, np.empty((2, n, batch[0] + 1)))
                    out.append(sums)
                if np.isfinite(v.coeffs).all():
                    out.append(vector_sandwich(v, *vectors))
                return out

            with np.errstate(all="ignore"):
                got = results(kept)
                for copy in copies:
                    for g, w in zip(got, results(copy)):
                        if isinstance(w, Multivector):
                            assert g.live == w.live
                            g, w = g.coeffs, w.coeffs
                        if isinstance(w, np.ndarray):
                            assert same_bytes(g, w)
                        else:
                            assert g == w


@pytest.mark.parametrize("dim", range(1, 7))
def test_every_multivector_is_blade_major(rng, dim):
    """Every constructor, arithmetic operation, involution, grade projection,
    product and inverse stores its coefficients blade-major: the (2**dim,
    ...) array behind coeffs is C-ordered.  That holds for a caller's
    C-ordered or F-ordered array, passed with copy=False too, and for
    products with a one-row, an unbatched or a broadcast factor."""
    n = 1 << dim
    a = Multivector(dim, rng.standard_normal((5, n)), copy=False)
    vec = Multivector.from_vector(dim, rng.standard_normal((5, dim)))
    one, row = Multivector(dim, rng.standard_normal(n)), random_multivector(rng, dim, (1,))
    stack = Multivector(dim, np.asfortranarray(rng.standard_normal((3, 1, n))), copy=False)
    unit, factors = random_vector(rng, dim, unit=True), random_factor_list(rng, dim, 3)
    values = [
        a, vec, one, row, stack, Multivector.zero(dim), Multivector.zero(dim, (2, 3)),
        Multivector.scalar(dim, 1.5), Multivector.scalar(dim, rng.random((2, 3))),
        Multivector.basis_vector(dim, 1), Multivector.blade(dim, n - 1),
        Multivector.from_vector(dim, rng.standard_normal(dim)),
        a + vec, a - vec, -a, 2.0 * a, a * -0.5, rng.random(5) * a, a / 3.0, a / rng.random(5),
        a.reversion(), a.conjugation(), *(a.grade_select(r) for r in range(dim + 1)),
        a * vec, vec * a, a * one, one * a, a * row, row * a, stack * a, a * stack, one * one,
        row * row, stack * Multivector(dim, rng.standard_normal((1, 4, n))), a * a * a,
        vector_inverse(vec), lipschitz_element_inverse(factors.product()), factors.product(),
        factors.inverse(), pin_action(factors, vec), reflect(unit, vec),
    ]
    for mv in values:
        assert np.moveaxis(mv.coeffs, -1, 0).flags.c_contiguous, mv


@pytest.mark.parametrize("dim", range(1, 7))
def test_conj_vector_sums_read_the_carried_set_bit_for_bit(rng, dim):
    """The kernel on a field that carries its live blades, one of them zero
    in every row, gives the bytes of the same field scanned: a carried
    dead blade adds only zeros.  An inf or NaN in l makes every blade live
    on both paths."""
    count, n = 300, 1 << dim
    comps = rng.standard_normal((count, dim))
    comps[:, -1] = -0.0
    lefts = [rng.standard_normal((count, dim)) for _ in range(3)]
    lefts[1][7, 0], lefts[2][9, dim - 1] = np.inf, np.nan
    fields = [Multivector.from_vector(dim, comps), Multivector.scalar(dim, rng.random(count)),
              Multivector.from_vector(dim, np.zeros(dim)), Multivector.blade(dim, n - 1)]
    w = rng.uniform(0.1, 1.0, (2, count))
    for field in fields:
        scanned = Multivector(dim, field.coeffs)
        assert field.live is not None and scanned.live is None
        for left in lefts:
            got, want = np.zeros((2, n)), np.zeros((2, n))
            with np.errstate(invalid="ignore"):
                for vals, sums in ((field, got), (scanned, want)):
                    conj_vector_sums(left, vals, w, sums, np.empty((2, n, count + 1)))
            assert same_bytes(got, want)
