"""Vahlen matrix tests: generator validity, composition, the conformal
differential against a finite-difference Jacobian, frames and scale factors,
all read through the one per-point record `MobiusPoint`."""

import numpy as np
import pytest

from diraclab.algebra import (AlgebraError, Multivector, geometric_product, pin_action,
                              vector_sandwich)
from diraclab.fields import (
    StencilError,
    compose_with_mobius,
    conformal_dirac_transform,
    dj1_check,
    identity_field,
    lemma1_check,
)
from diraclab.mobius import (
    MobiusError,
    MobiusPoint,
    PoleError,
    VahlenMatrix,
    compose,
    dilation,
    identity_matrix,
    inversion,
    map_points,
    parse_mobius_expr,
    rotation,
    rotation_from_factors,
    translation,
    vahlen_inverse,
    validate_vahlen,
)
from diraclab.weakform import BumpTestFunction, norm_frame_identity_check, sc_invariance_check

from conftest import random_factor_list
from oracles import fd_jacobian


def sample_matrices(dim):
    """Deterministic generator words used across the parametrized tests."""
    t = ([0.3, -0.2, 0.5, 0.1] + [0.0] * dim)[:dim]
    mats = {
        "identity": identity_matrix(dim),
        "translation": translation(dim, t),
        "dilation": dilation(dim, 1.7),
        "inversion": inversion(dim),
        "rotation": rotation(dim, 1, 2, 0.4),
        "inv*transl": compose(inversion(dim), translation(dim, t)),
        "word": compose(
            compose(inversion(dim), translation(dim, t)),
            compose(dilation(dim, 0.6), rotation(dim, 1, 2, -0.9)),
        ),
    }
    return mats


def probe_points(rng, dim, count=6):
    pts = rng.normal(size=(count, dim))
    pts[:, 0] += 3.0  # keep away from the inversion pole at 0
    return pts


# -------------------------------------------------------------- validation


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_generators_and_words_validate(dim):
    for name, m in sample_matrices(dim).items():
        report = validate_vahlen(m)
        assert report.passes, (name, report)


def test_identity_matrix_residuals_are_exactly_zero():
    report = validate_vahlen(identity_matrix(3))
    assert report.condition_iii == 0.0
    assert all(v == 0.0 for v in report.condition_ii.values())


def test_scaled_identity_fails_condition_iii():
    m = identity_matrix(3)
    bad = type(m)(3, m.a, m.b, m.c, Multivector.scalar(3, 2.0))
    report = validate_vahlen(bad)
    assert report.condition_iii == pytest.approx(1.0)
    assert not report.passes


_GENERATOR_WORDS = [
    ("identity", identity_matrix(3)),
    ("inversion", inversion(3)),
    ("translate:0.3,-0.2,0.5", translation(3, [0.3, -0.2, 0.5])),
    ("translation:0.3,-0.2,0.5", translation(3, [0.3, -0.2, 0.5])),
    ("dilate:1.7", dilation(3, 1.7)),
    ("dilation:1.7", dilation(3, 1.7)),
    ("rotate:1,3,0.2", rotation(3, 1, 3, 0.2)),
    ("rotation:1,3,0.2", rotation(3, 1, 3, 0.2)),
]


@pytest.mark.parametrize("word, built", _GENERATOR_WORDS, ids=[w for w, _ in _GENERATOR_WORDS])
def test_parse_accepts_every_generator_word(rng, word, built):
    m = parse_mobius_expr(word, 3)
    pts = probe_points(rng, 3)
    assert np.array_equal(map_points(m, pts), map_points(built, pts))
    assert validate_vahlen(m).passes


# -------------------------------------------------------------- point maps


def image(m, x: Multivector) -> Multivector:
    """M(x) from the record, as a grade-1 Multivector."""
    return Multivector.from_vector(m.dim, MobiusPoint(m, x.vector_part()).image)


def test_closed_form_generator_actions(rng):
    x = Multivector.from_vector(3, [2.0, 0.0, 0.0])
    assert np.allclose(
        image(inversion(3), x).vector_part(), [0.5, 0.0, 0.0]
    )
    assert np.allclose(
        image(translation(3, [1, 2, 3]), x).vector_part(), [3.0, 2.0, 3.0]
    )
    assert np.allclose(image(dilation(3, 2.0), x).vector_part(), [4, 0, 0])
    y = image(identity_matrix(3), x)
    assert np.array_equal(y.vector_part(), x.vector_part())
    # general point: inversion is x / |x|^2
    v = rng.normal(size=3)
    got = map_points(inversion(3), v)
    assert np.allclose(got, v / (v @ v), atol=1e-14)


def test_rotation_turns_the_plane_and_fixes_the_complement():
    theta = 0.7
    m = rotation(3, 1, 2, theta)
    e1 = map_points(m, np.array([1.0, 0, 0]))
    assert np.allclose(e1, [np.cos(theta), np.sin(theta), 0.0], atol=1e-14)
    e3 = map_points(m, np.array([0.0, 0, 1.0]))
    assert np.allclose(e3, [0, 0, 1], atol=1e-14)


def test_rotation_from_factors_matches_pin_action(rng):
    factors = random_factor_list(rng, 3, 3, unit=True)
    m = rotation_from_factors(3, factors)
    assert validate_vahlen(m).passes
    x = rng.normal(size=3)
    want = factors.product()
    assert np.allclose(
        map_points(m, x),
        pin_action(want, Multivector.from_vector(3, x)).vector_part(),
        atol=1e-12,
    )


def test_composition_consistency(rng):
    mats = sample_matrices(3)
    pts = Multivector.from_vector(3, probe_points(rng, 3))
    names = list(mats)
    for k in range(8):
        n1, n2 = names[k % len(names)], names[(k * 3 + 1) % len(names)]
        m12 = compose(mats[n1], mats[n2])
        via_matrix = image(m12, pts).vector_part()
        stepwise = image(mats[n1], image(mats[n2], pts)).vector_part()
        assert np.max(np.abs(via_matrix - stepwise)) <= 1e-10, (n1, n2)


def test_vahlen_inverse_roundtrip(rng):
    for name, m in sample_matrices(3).items():
        pts = Multivector.from_vector(3, probe_points(rng, 3))
        back = image(vahlen_inverse(m), image(m, pts))
        assert np.max(np.abs(back.vector_part() - pts.vector_part())) <= 1e-9, name


def test_pole_error():
    with pytest.raises(PoleError):
        image(inversion(3), Multivector.from_vector(3, [0.0, 0.0, 0.0]))
    with pytest.raises(PoleError):
        MobiusPoint(inversion(3), np.zeros(3)).u
    # |c x + d| = |x| for the inversion: the record and every reader of it
    # refuse a point at or below the pole tolerance 1e-12 and evaluate one
    # just above it
    m = inversion(3)
    f = identity_field(3)
    far = BumpTestFunction(3, (5.0, 0.0, 0.0), 0.5, Multivector.scalar(3, 1.0))
    evaluators = (
        lambda x: MobiusPoint(m, x).image,
        lambda x: map_points(m, x),
        lambda x: np.concatenate([MobiusPoint(m, x).j1.coeffs, MobiusPoint(m, x).jm1.coeffs]),
        lambda x: MobiusPoint(m, x).u.coeffs,
        lambda x: MobiusPoint(m, x).scale ** (-2 * 3),
        lambda x: MobiusPoint(m, x).twist(f).coeffs,
        lambda x: conformal_dirac_transform(f, m)(x).coeffs,
        lambda x: np.stack([d.coeffs for d in compose_with_mobius(f, m).grad(x)]),
        lambda x: sc_invariance_check(f, 2.5, m, far, x),
        lambda x: norm_frame_identity_check(m, f, x),
    )
    # the two stencils of J1 declare the pole as their singular point, so
    # they refuse the point just above the tolerance too
    stencils = (lambda x: lemma1_check(m, f, x), lambda x: dj1_check(m, x))
    for evaluate in evaluators + stencils:
        for r in (0.99e-12, 1e-12):
            x = np.array([r, 0.0, 0.0])
            assert float((m.c * Multivector.from_vector(3, x) + m.d).norm()) <= 1e-12
            with pytest.raises(PoleError):
                evaluate(x)
        if evaluate in stencils:
            with pytest.raises(StencilError, match="reaches the singular point"):
                evaluate(np.array([1.01e-12, 0.0, 0.0]))
        else:
            assert np.all(np.isfinite(evaluate(np.array([1.01e-12, 0.0, 0.0]))))


def test_non_vahlen_matrix_is_refused_by_every_reader():
    """a = d = 1, b = 0, c = 1 + e1: g = c x + d has mixed parity and an
    image off grade 1, and each reader refuses it with a MobiusError."""
    one = Multivector.scalar(3, 1.0)
    m = VahlenMatrix(3, one, Multivector.zero(3), one + Multivector.basis_vector(3, 1), one)
    assert not validate_vahlen(m).passes
    pts = np.array([[0.3, 0.2, 0.1], [1.0, -0.5, 0.7]])
    f = identity_field(3)
    far = BumpTestFunction(3, (5.0, 0.0, 0.0), 0.5, Multivector.scalar(3, 1.0))
    readers = {
        "map_points": lambda: map_points(m, pts),
        "twist": lambda: conformal_dirac_transform(f, m)(pts),
        "lemma1": lambda: lemma1_check(m, f, pts),
        "sc": lambda: sc_invariance_check(f, 2.5, m, far, pts),
        "norm-frame": lambda: norm_frame_identity_check(m, f, pts),
        "dj1": lambda: dj1_check(m, pts),
    }
    for name, read in readers.items():
        with pytest.raises(MobiusError, match="off-grade-1 mass"):
            read()
    # the chain-rule gradient reads the frame first, so the parity check speaks
    with pytest.raises(MobiusError, match="mixed parity"):
        compose_with_mobius(f, m).grad(pts)


# ------------------------------------------------- differential / Jacobian


@pytest.mark.parametrize("name", ["inversion", "dilation", "rotation", "word"])
def test_differential_matches_fd_jacobian(rng, name):
    m = sample_matrices(3)[name]
    for x0 in probe_points(rng, 3, count=3):
        J = fd_jacobian(lambda p: map_points(m, p), x0)
        at = MobiusPoint(m, x0)
        for j in range(3):
            # column j of dM_x is u e_j reversion(u) / |c x + d|^2
            col = pin_action(at.u, Multivector.basis_vector(3, j + 1)) / at.scale**2
            assert np.max(np.abs(col.vector_part() - J[:, j])) <= 1e-6


def test_conformality_and_determinant(rng):
    for name, m in sample_matrices(3).items():
        x0 = probe_points(rng, 3, count=1)[0]
        J = fd_jacobian(lambda p: map_points(m, p), x0)
        at = MobiusPoint(m, x0)
        s = float(at.scale)
        assert np.max(np.abs(J.T @ J * s**4 - np.eye(3))) <= 1e-6, name
        det = float(at.scale ** (-2 * 3))  # |det dM_x| = |c x + d|^(-2n)
        assert abs(abs(np.linalg.det(J)) - det) <= 1e-6 * det, name


def test_jacobian_factor_formulas(rng):
    v = probe_points(rng, 3)
    j1 = MobiusPoint(identity_matrix(3), v).j1
    assert np.allclose(j1.coeffs[..., 0], 1.0) and j1.is_grade(0)
    # inversion: J1 = x / |x|^n
    j1_inv = MobiusPoint(inversion(3), v).j1
    r = np.linalg.norm(v, axis=-1, keepdims=True)
    assert np.allclose(j1_inv.vector_part(), v / r**3, atol=1e-13)
    # ratio J1 = |cx+d|^2 Jm1 holds bit-for-bit as constructed
    at = MobiusPoint(sample_matrices(3)["word"], v)
    j1w, jm1w = at.j1, at.jm1
    nn = at.g.norm()
    assert np.array_equal(j1w.coeffs, (jm1w * nn**2).coeffs)


# ------------------------------------------------------------------ frames


def test_frame_is_unit_and_orthogonal(rng):
    m = sample_matrices(3)["inv*transl"]
    at = MobiusPoint(m, probe_points(rng, 3))
    assert np.max(np.abs(at.u.norm() - 1.0)) <= 1e-12
    # frame map sends e_j to unit vectors with preserved dot products
    vecs = [pin_action(at.u, Multivector.basis_vector(3, j)) for j in (1, 2, 3)]
    for j, vj in enumerate(vecs):
        assert vj.is_grade(1, tol=1e-12)
        assert np.max(np.abs(vj.norm() - 1.0)) <= 1e-12
        for k, vk in enumerate(vecs):
            dots = np.sum(vj.vector_part() * vk.vector_part(), axis=-1)
            assert np.max(np.abs(dots - (1.0 if j == k else 0.0))) <= 1e-12


def test_frame_map_scalar_invariance(rng):
    """Sc(conj(uAu~) uBu~) equals Sc(conj(A)B) for unit Lipschitz frames."""
    for count in (1, 2, 3, 4):
        u = random_factor_list(rng, 3, count, unit=True).product()
        A = Multivector(3, rng.normal(size=8))
        B = Multivector(3, rng.normal(size=8))
        uA = u * A * u.reversion()
        uB = u * B * u.reversion()
        lhs = float(geometric_product(uA.conjugation(), uB).scalar_part())
        rhs = float(geometric_product(A.conjugation(), B).scalar_part())
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert abs(float(uA.norm()) - float(A.norm())) <= 1e-12 * float(A.norm())


def _frame_words(dim):
    """Words whose frame u is odd (a vector, or a vector and a trivector
    once a rotation acts) or even (a rotor, constant or varying with x)."""
    shift = ",".join(["1", "0.5"] + ["0"] * (dim - 2))
    return {"odd": ["inversion", f"inversion*translate:{shift}",
                    f"rotate:1,2,0.3*inversion*translate:{shift}"],
            "even": [f"rotate:1,2,0.3*translate:{shift}", f"inversion*translate:{shift}*inversion",
                     f"rotate:2,1,1.1*inversion*translate:{shift}*inversion"]}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_frame_kernel_matches_pin_action_bytes(rng, dim):
    """`MobiusPoint.frame` and `rotate` give the bytes of the vector part of
    pin_action(u, e_j) and pin_action(u, w), for even and odd frames, on
    rows with signed-zero coordinates and on a single point."""
    pts = rng.uniform(-3.0, 3.0, (40, dim))
    pts[:4, 0], pts[4:8, -1], pts[8, :] = -0.0, 0.0, [-0.0, 2.0] + [0.0] * (dim - 2)
    w = rng.normal(size=(40, dim))
    w[:6, 1], w[6] = -0.0, 0.0
    for parity, words in _frame_words(dim).items():
        for word in words:
            m = parse_mobius_expr(word, dim)
            for x, v in ((pts, w), (pts[9], w[9])):
                at = MobiusPoint(m, x)
                assert at.sigma == (1 if parity == "even" else -1), word
                for j in range(dim):
                    want = pin_action(at.u, Multivector.basis_vector(dim, j + 1)).vector_part()
                    assert np.moveaxis(want, -1, 0).tobytes() == at.frame[j].tobytes(), (word, j)
                want = pin_action(at.u, Multivector.from_vector(dim, v)).vector_part()
                got = vector_sandwich(at.u, np.moveaxis(v, -1, 0))[0]
                assert np.moveaxis(want, -1, 0).tobytes() == got.tobytes(), word


def test_frame_refuses_a_non_finite_unit_frame():
    """A point at infinity passes the pole and parity checks with a NaN u:
    the frame kernel, whose skipped zero terms assume a finite u, refuses it."""
    for word in ("inversion", "rotate:1,2,0.3*inversion*translate:1,0.5,0"):
        pts = np.array([[np.inf, 1.0, 0.0], [3.0, 0.0, 1.0]])
        at = MobiusPoint(parse_mobius_expr(word, 3), pts)
        with np.errstate(invalid="ignore"), pytest.raises(AlgebraError, match="finite u"):
            at.frame
        with pytest.raises(AlgebraError, match="finite u"):
            vector_sandwich(at.u, np.ones((3, 2)))


def test_sigma_parity(rng):
    x = probe_points(rng, 3, count=1)[0]
    assert MobiusPoint(translation(3, [1, 0, 0]), x).sigma == 1
    assert MobiusPoint(dilation(3, 2.0), x).sigma == 1
    assert MobiusPoint(rotation(3, 1, 2, 0.3), x).sigma == 1
    assert MobiusPoint(inversion(3), x).sigma == -1
    assert MobiusPoint(compose(inversion(3), translation(3, [1, 0, 0])), x).sigma == -1


# ----------------------------------------------------------------- parsing


def test_parse_mobius_expr(rng):
    expr = "inversion*translate:0.3,-0.2,0.5*dilate:1.7"
    m = parse_mobius_expr(expr, 3)
    want = compose(
        compose(inversion(3), translation(3, [0.3, -0.2, 0.5])), dilation(3, 1.7)
    )
    pts = Multivector.from_vector(3, probe_points(rng, 3))
    assert np.allclose(
        image(m, pts).vector_part(),
        image(want, pts).vector_part(),
        atol=1e-13,
    )
    assert validate_vahlen(m).passes


@pytest.mark.parametrize(
    "expr",
    ["", "swirl", "translate:1,2", "dilate:abc", "rotate:1,1,0.3", "dilate:-2"],
)
def test_parse_rejects_bad_expressions(expr):
    with pytest.raises(MobiusError):
        parse_mobius_expr(expr, 3)
