"""Golden numerical baselines: small-configuration CLI artifacts compared
with JSON documents committed under tests/golden/.

Determinism tests only compare a rerun with a rerun, so a refactor that
moves every number by the same amount would pass them.  These artifacts
pin the numbers themselves.  Every number whose golden magnitude exceeds
FLOOR must agree to a relative RTOL; a golden number at or below FLOOR is
roundoff and only has to stay at or below it.  Strings, booleans, keys
and list lengths must match exactly.

Regenerate a file only after a deliberate numerical change to its case,
and say which numbers moved and why in CHANGES.md.  The tool rewrites
only the cases it is named, since the last digits of untouched cases can
differ between machines:

    PYTHONPATH=src python tests/test_golden.py covariance-t1 cr-check
"""

import hashlib
import importlib.util
import json
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from diraclab import cr2d, sphere, weakform
from diraclab.algebra import (Multivector, VectorFactorList, _live, conj_vector_sums, pin_action,
                              vector_sandwich)
from diraclab.cli import main
from diraclab.fields import (Domain, cauchy_kernel, compose_with_mobius, gradient_fd, log_radial,
                             p_dirac_residual, p_dirac_solution, p_harmonic_radial,
                             scalar_radial_power)
from diraclab.mobius import inversion, parse_mobius_expr
from diraclab.weakform import (BumpTestFunction, QuadratureRule, default_test_functions,
                               dirac_covariance_experiment, dirac_integral_check,
                               harmonic_covariance_experiment, normalized_weak_residual,
                               weak_p_dirac_residual, weak_p_harmonic_residual)

from conftest import blas_child

GOLDEN = Path(__file__).parent / "golden"
FLOOR = 1e-10
RTOL = 1e-12

CASES = {
    "algebra-selftest": ["algebra-selftest", "--n", "3"],
    "algebra-selftest-default": ["algebra-selftest"],
    "covariance-t1": ["covariance", "--theorem", "1"],
    "covariance-t1-n4": ["covariance", "--theorem", "1", "--n", "4"],
    "covariance-t2": ["covariance", "--theorem", "2", "--n", "2"],
    "covariance-t3": ["covariance", "--theorem", "3", "--n", "2"],
    "covariance-t4": ["covariance", "--theorem", "4", "--n", "2"],
    "sphere-check": ["sphere-check"],
    "sphere-check-n3": ["sphere-check", "--n", "3"],
    "cr-check": ["cr-check"],
    "kernel-residual": ["kernel-residual"],
    "solve": ["solve", "--h", "0.125"],
    "solve-p1.5": ["solve", "--h", "0.125", "--p", "1.5"],
}


def _artifact(name, out: Path) -> dict:
    code = main([*CASES[name], "--format", "json", "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return json.loads(out.read_text())


def _mismatches(got, want, where="$"):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length {len(got) if isinstance(got, list) else got!r}"
                    f" != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    if abs(want) <= FLOOR:
        return [] if abs(got) <= FLOOR else [f"{where}: {got!r} rose above the floor"]
    if abs(got - want) <= RTOL * abs(want):
        return []
    return [f"{where}: {got!r} != {want!r} (relative {abs(got - want) / abs(want):.2e})"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(tmp_path, name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = _artifact(name, tmp_path / f"{name}.json")
    problems = _mismatches(got, want)
    assert not problems, "\n".join(problems[:20])


def test_mismatch_rules():
    assert _mismatches({"a": [1.0, 1e-12]}, {"a": [1.0 + 1e-13, 5e-11]}) == []
    assert _mismatches(1.0 + 1e-11, 1.0)
    assert _mismatches(2e-10, 1e-11)
    assert _mismatches({"a": 1}, {"b": 1})
    assert _mismatches([1.0], [1.0, 2.0])
    assert _mismatches("pass", "fail")
    assert _mismatches(True, 1)
    assert _mismatches(None, 1.0)


def test_artifact_digests_reports_moves_in_the_goldens_terms():
    """`scripts/artifact_digests.py` reads CASES and FLOOR from this file and
    measures two artifacts of one case against the baseline's numbers: the
    largest relative change above FLOOR, the largest absolute change at or
    below it, and whether check statuses and metadata match."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", Path(__file__).parent.parent / "scripts" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.golden_literal("CASES") == CASES and tool.golden_literal("FLOOR") == FLOOR
    there = {"metadata": {"order": 6}, "rows": [{"residual": 4e-11, "normalized": 2.0}],
             "checks": [{"value": 1e-17, "status": "pass"}], "passed": True}
    here = {"metadata": {"order": 6}, "rows": [{"residual": 5e-11, "normalized": 2.5}],
            "checks": [{"value": 3e-17, "status": "pass"}], "passed": True}
    line = tool.moves(json.dumps(here).encode(), json.dumps(there).encode(), FLOOR)
    assert "2.5e-01 relative above 1e-10, 1.0e-11 absolute at or below" in line
    assert line.endswith("check statuses same, metadata same")
    here["checks"][0]["status"], here["metadata"]["order"] = "fail", 8
    assert tool.moves(json.dumps(here).encode(), json.dumps(there).encode(), FLOOR).endswith(
        "check statuses DIFFER, metadata DIFFER")


def _cap_pairings(ambient):
    """Per support family of `default_cap_bumps` on the cap opposite a
    kernel pole, the raw pairings and normalizers that
    `normalized_weak_spherical_residual` divides."""
    pole = sphere.sphere_point([0.3, -0.5, 0.7, 0.4][:ambient])
    cap = sphere.SphericalCap(tuple(-pole), 1.0)
    f = sphere.spherical_kernel(pole, 2.5)
    return [weakform._pair(sphere._flux_values(f, 2.5), f.name, 2.0, family, 8)[:2]
            for family in weakform.support_families(sphere.default_cap_bumps(cap))]


def _covariance_rows(experiment, field, dim=3, order=6, random_bumps=2):
    rep = experiment(field, 2.5, inversion(dim), Domain.ball([3.0] + [0.0] * (dim - 1), 1.0),
                     order=order, random_bumps=random_bumps)
    return [(r.eta_label, r.exponent, r.residual_norm, r.normalizer, r.nodes)
            for r in rep.rows]


BALL3 = Domain.ball([3.0, 0.0, 0.0], 1.0)


def _flat_pairings(pairing, dim=3):
    """`pairing(eta, rule)` for each bump of `default_test_functions` on a
    ball of radius 1 about 3 e_1, clear of the origin, on the fitted rule of
    order 6."""
    ball = Domain.ball([3.0] + [0.0] * (dim - 1), 1.0)
    rule = QuadratureRule.build(ball, order=6, cells=2)
    return [pairing(eta, rule) for eta in default_test_functions(ball, random_count=2)]


def _weak_dirac(dim):
    """The raw p-Dirac pairing at p = 2.5 and the normalized one at p = 1.5
    of each bump of `_flat_pairings` in `dim` dimensions."""
    return _flat_pairings(lambda eta, rule: [
        weak_p_dirac_residual(p_dirac_solution(dim, 2.5), 2.5, eta, rule).coeffs,
        normalized_weak_residual(p_dirac_solution(dim, 1.5), 1.5, eta, rule)], dim)


def _family_d3o12():
    """The `weak-residual` workload's order-12 family at seed 1: the raw
    p-Dirac pairing and the normalized residual of each bump of
    `default_test_functions` on `BALL3`."""
    rule = QuadratureRule.build(BALL3, order=12, cells=2)
    f = p_dirac_solution(3, 2.5)
    return [[weak_p_dirac_residual(f, 2.5, eta, rule).coeffs,
             normalized_weak_residual(f, 2.5, eta, rule)]
            for eta in default_test_functions(BALL3, seed=1, random_count=5)]


# sha256 of raw weak pairings and normalizers, of strong finite-difference
# derivatives, of the closed-form radial fields and of their Moebius
# pullbacks, and of the fitted rules' node, weight and slope streams,
# recorded with one BLAS thread.  The goldens forgive a relative RTOL, so only these tell a
# bit-identical refactor of the pairing, stencil and field paths from a
# drift below it.
PINNED_PAIRINGS = {
    "cap-3": (
        lambda: _cap_pairings(3),
        "2cbb644bdf8a42fb52d7235e108af97cc1b944a18725b3d837d6966089c9f55e"),
    "cap-4": (
        lambda: _cap_pairings(4),
        "ef9426fbe90deffad3d9d33a5a9c8876b955a1789c595472a71de9645f914330"),
    "dirac-covariance": (
        lambda: _covariance_rows(dirac_covariance_experiment,
                                 p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])),
        "5cc038e91af917608eda397bb697c9086bb364ad56cc8ad4b425b21fa4825fe2"),
    "harmonic-covariance": (
        lambda: _covariance_rows(harmonic_covariance_experiment,
                                 p_harmonic_radial(3, 2.5, center=[-5.0, 0.0, 0.0])),
        "383c451125e0fba0edc507b17e17bb1fb36aa86f883f3f94e08d44c8247ac33f"),
    "harmonic-covariance-d2": (
        lambda: _covariance_rows(harmonic_covariance_experiment,
                                 p_harmonic_radial(2, 2.5, center=[-5.0, 0.0]), dim=2),
        "2a98b92cef660f0ae096fdc5f234fe46eb56498637903d5810a04c28f74385e0"),
    "harmonic-covariance-d4": (
        lambda: _covariance_rows(harmonic_covariance_experiment,
                                 p_harmonic_radial(4, 2.5, center=[-5.0, 0.0, 0.0, 0.0]),
                                 dim=4, order=3, random_bumps=0),
        "7c8d83cb6f41027a055eea191828f976e7d30cce160d88c88397f3ae430da602"),
    "theorem5": (
        lambda: cr2d.theorem5_experiment(
            cr2d.p_cr_solution(1.5), cr2d.polynomial_map([3.0, 0.0, 1.0], name="square-plus-3"),
            1.5, Domain.annulus([0.0, 0.0], 0.5, 1.5)),
        "3d4b81245a7419537ffb780302d5d73d9f5caadf580d8fd97931d99636e09b4d"),
    "family-d3o12": (
        _family_d3o12,
        "0beb2c51de309cce0718b7abf18b0174623f1d274e0b67bcce8ed3a27d43ed2c"),
    "dirac-integral": (
        lambda: [dirac_integral_check(eta, QuadratureRule.build(BALL3, order=6, cells=2))
                 for eta in default_test_functions(BALL3)],
        "8a183978d9da84f5aace3939cfba6205b13b58993162f7b714d76f32cb1f43cc"),
    "weak-dirac": (
        lambda: _flat_pairings(lambda eta, rule: weak_p_dirac_residual(
            p_dirac_solution(3, 2.5), 2.5, eta, rule).coeffs),
        "8f5b1bf84d058c06164a1a91c76090023b4d8a0238b01d5a6bae9da09f365263"),
    "weak-dirac-weighted": (
        lambda: _flat_pairings(lambda eta, rule: weak_p_dirac_residual(
            p_dirac_solution(3, 2.5), 2.5, eta, rule,
            weight=lambda x: np.sum(x * x, axis=-1) ** -0.25).coeffs),
        "0aba1827f717447d73ec00f3e11974b013e819a1012c6f3baeae99014ca306ab"),
    "weak-harmonic": (
        lambda: _flat_pairings(lambda eta, rule: weak_p_harmonic_residual(
            p_harmonic_radial(3, 2.5), 2.5, eta, rule).coeffs),
        "f45f9558cf4775b58c359d84b67e33d4910af22e617124e1aa77b8a8eca9450a"),
    "weak-dirac-d2": (
        lambda: _weak_dirac(2),
        "76c02547bb7103d1064606f04e13ce6892bd21ef106084040e1555a24d42d520"),
    "weak-dirac-d4": (
        lambda: _weak_dirac(4),
        "d08333104f8578bb7e9893aeee422fa7ad8447ab316269ea7aaaaa2f0789c0ee"),
    "normalized-weak": (
        lambda: _flat_pairings(lambda eta, rule: [
            normalized_weak_residual(p_dirac_solution(3, 1.5), 1.5, eta, rule),
            normalized_weak_residual(p_harmonic_radial(3, 2.5), 2.5, eta, rule,
                                     of_derivative=True)]),
        "3ced81542b9a119083eb1d6de8d2e27b6d9f0555229c42f11c01fff37a8cb634"),
}


def _shell_points(dim):
    """20 points at radii 1 to 3 around the origin, drawn as
    `kernel-residual` draws them."""
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((20, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(1.0, 3.0, 20)[:, None]


def _kernel_ladder(richardson):
    """The `kernel-residual` ladder of strong p-Dirac residuals at n = 3,
    p = 2.5 and n = 4, p = 1.5."""
    return [p_dirac_residual(p_dirac_solution(n, p), p, _shell_points(n), h=h,
                             richardson=richardson).coeffs
            for n, p in ((3, 2.5), (4, 1.5)) for h in (4e-3, 2e-3, 1e-3)]


def _ring_points():
    """20 complex points at radii 0.5 to 2, drawn as `cr-check` draws them."""
    rng = np.random.default_rng(0)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 20)) * rng.uniform(0.5, 2.0, 20)


def _sphere_points(ambient, count=20):
    """The pole of `sphere-check` and points on the sphere clear of it."""
    pole = sphere.sphere_point([0.3, -0.5, 0.7, 0.4][:ambient])
    rng = np.random.default_rng(0)
    return pole, sphere.random_sphere_points(rng, ambient, count, avoid=(pole,), clearance=0.3)


def _spherical(operator, count=20):
    """`operator(pole, points, ambient)` at ambient 3 and 4."""
    return [operator(*_sphere_points(ambient, count), ambient) for ambient in (3, 4)]


def _rotated_frame(ambient):
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((ambient, ambient)))
    return q


PINNED_DERIVATIVES = {
    "kernel-ladder": (
        lambda: _kernel_ladder(False),
        "1d85879474b4450c31b05a4c96a1c96d3a450c8e9d2e00ff23192c2738fa005c"),
    "kernel-ladder-richardson": (
        lambda: _kernel_ladder(True),
        "c96773c22443c1de1919753a4670d936091a85fde9ed534abb637002176423e5"),
    "gradient-fd": (
        lambda: [d.coeffs for f in (scalar_radial_power(3, -1.3), p_dirac_solution(3, 2.5),
                                    compose_with_mobius(p_dirac_solution(3, 2.5), inversion(3)))
                 for d in gradient_fd(f, _shell_points(3), h=1e-4)],
        "671cb9b3b3091a679f613dc1e925135a0fca7fcef058d4c9a4e39851d3072cee"),
    "cr-strong": (
        lambda: [cr2d.p_cr_residual(cr2d.p_cr_solution(p), p, _ring_points())
                 for p in (1.5, 2.0, 3.0)]
        + [cr2d.dbar_fd(cr2d.p_cr_solution(1.5), _ring_points(), richardson=False)],
        "712816d8083075d95d58f206f94d693cd6be656c5928058719eef73464053260"),
    "dz-fd": (
        lambda: [cr2d.dz_fd(g, _ring_points()) for g in (
            cr2d.p_cr_solution(1.5), cr2d.polynomial_map([3.0, 0.0, 1.0]),
            cr2d.wirtinger_polynomial({(2, 1): 1.0 + 0.5j, (1, 0): -2.0, (0, 2): 0.75j}))],
        "b60d6fab596381b32f3c235fb5472913a8faacbfcd86ad460ea5b22802f2d8a5"),
    "sphere-strong": (
        lambda: _spherical(lambda pole, pts, ambient: [
            sphere.spherical_p_dirac_residual(sphere.spherical_kernel(pole, p), p, pts).coeffs
            for p in (2.0, 2.5, float(ambient - 1))]),
        "94cc6e4b18af15e652fd8375c0789285da6bdac2d53c640b763d36d397139f96"),
    "gamma-frame": (
        lambda: _spherical(lambda pole, pts, ambient: sphere.gamma_op(
            sphere.spherical_kernel(pole, 2.5), pts, frame=_rotated_frame(ambient)).coeffs),
        "e30917f18e6b69f5729a01a5139fc19ab3631c8cdf06858ad75692b7df3231fc"),
    "yamabe": (
        lambda: _spherical(lambda pole, pts, ambient: sphere.yamabe_op(
            sphere.radial_distance_power(pole, 0.5), pts).coeffs, count=5),
        "5444a1e945e817dcfe535e1c10ff701a51a4dfe6f30ea6d5ddc6fcefa225da81"),
    "lr-identity": (
        lambda: _spherical(lambda pole, pts, ambient: [
            sphere.lr_identity_check(x, pole, p) for x in pts[:3] for p in (2.0, 2.5)]),
        "e3f81d32a6fde91d0ab874d31ab1bad0fbbb0f33e5dba072eeef886d519be935"),
    "sphere-harmonic": (
        lambda: _spherical(lambda pole, pts, ambient: [
            sphere.spherical_p_harmonic_check(pole, p, pts).rows for p in (2.0, 2.5)], count=3),
        "9e3700a0c9f5084ead410fdb210f7abdaf4c69b0231bf9153d1dbef28b89b8ff"),
}


def _radial_points(dim, center):
    """The origin as +0 and -0, the centre (the origin when None), rows with
    signed-zero coordinates (which meet the centre's zero coordinates) and
    rows clear of it."""
    c = [0.0] * dim if center is None else center
    signed = [[0.0, -0.0, 1.5, -0.0], [-0.0, 0.7, -0.0, 0.0], [0.5, -0.0, -1.25, -0.0]]
    clear = np.random.default_rng(2).uniform(-2.0, 2.0, (8, dim))
    return np.vstack([[0.0] * dim, [-0.0] * dim, c] + [row[:dim] for row in signed] + [clear])


def _flat_radial(build):
    """The name, singular points, values and every analytic partial of
    `build(dim, center)` at dims 2-4, about the origin and about a centre
    with zero coordinates, on `_radial_points`."""
    out = []
    for dim in (2, 3, 4):
        for center in (None, [0.5, 0.0, -1.25, 0.0][:dim]):
            pts = _radial_points(dim, center)
            for f in build(dim, center):
                out += [f.name, f.singular_points, f(pts).coeffs]
                out += [d.coeffs for d in f.grad(pts)]
    return out


def _spherical_radial(build):
    """The name, singular points and values of `build(pole)` at ambient 3
    and 4, on `sphere-check`'s points and rows with signed-zero coordinates."""
    out = []
    for ambient in (3, 4):
        pole, pts = _sphere_points(ambient)
        signed = np.array([[1.0, 0.0, -0.0, 0.0], [-0.0, 0.6, -0.8, -0.0]])[:, :ambient]
        for f in build(pole):
            out += [f.name, f.singular_points, f(np.vstack([pts, signed])).coeffs]
    return out


def _composed_partials():
    """The name, analytic D and chain-rule partials of p-harmonic and
    p-Dirac fields pulled back through the inversion and through a word with
    a rotation, at dims 2-4, on `_shell_points` and rows with signed-zero
    coordinates."""
    out = []
    for dim in (2, 3, 4):
        far = [-5.0] + [0.0] * (dim - 1)
        shift = ",".join(["1", "0.5"] + ["0"] * (dim - 2))
        signed = np.array([[1.5, -0.0, 0.0, -0.0], [-0.0, 0.7, -0.0, 0.0]])[:, :dim]
        pts = np.vstack([_shell_points(dim), signed])
        for m in (inversion(dim), parse_mobius_expr(f"rotate:1,2,0.3*inversion*translate:{shift}",
                                                    dim)):
            for f in (p_harmonic_radial(dim, 2.5, center=far), p_dirac_solution(dim, 2.5)):
                g = compose_with_mobius(f, m)
                out += [g.name, g.dirac(pts).coeffs]
                out += [d.coeffs for d in g.grad(pts)]
    return out


def _streams(bumps):
    """Block by block, the nodes, weights and `dirac_vector` of each bump's
    fitted rule of orders 3 and 8."""
    for eta in bumps:
        for order in (3, 8):
            for x, w in eta.blocks(order):
                yield x, w, eta.dirac_vector(x)


PINNED_FIELDS = {
    "flat-streams": (
        lambda: _streams(BumpTestFunction(dim, (0.3, 0.0, -0.2, 0.5, -0.4)[:dim], 0.7,
                                          Multivector.scalar(dim, 1.0)) for dim in (2, 3, 4, 5)),
        "cfa8920e1b01e924a9db8147d633c5bcb73d5dd02dd3569fa852d83a1cbf4ee4"),
    "cap-streams": (
        lambda: _streams(sphere.CapBump(tuple(sphere.sphere_point([0.3, -0.5, 0.7, 0.4][:n])),
                                        0.6, Multivector.scalar(n, 1.0)) for n in (3, 4)),
        "669318e4afdd1fe7fa56887f3efa2fb4924fbca488490bba16a20716f1555c0d"),
    "composed-partials": (
        _composed_partials,
        "eb594d27af0ce7f3ac41df6530b63452ca56761e61f1f9280da6cc34273ca41d"),
    "radial-vector": (
        lambda: _flat_radial(lambda dim, c: [
            cauchy_kernel(dim, center=c), p_dirac_solution(dim, 2.5, center=c),
            p_dirac_solution(dim, 1.5, center=c)]),
        "a6ea9a268a66d1d5e829cd235ed2599f1ac8d20dcb1f4d36c2c7edb11d262f3c"),
    "scalar-radial": (
        lambda: _flat_radial(lambda dim, c: [
            scalar_radial_power(dim, beta, center=c) for beta in (-1.3, 0.5, 2.0)]),
        "c635f16082e2fd56a9ece7b5dc23d772b2439852669ae8b43c134c845196c79a"),
    "log-radial": (
        lambda: _flat_radial(lambda dim, c: [log_radial(dim, center=c)]),
        "047c40c2904823e2e1c4c2f38f996d12ca823c1ff02dd3ac0287f2d7f1b0cdf4"),
    "p-harmonic": (
        lambda: _flat_radial(lambda dim, c: [
            p_harmonic_radial(dim, p, center=c) for p in (1.5, float(dim), dim + 0.5)]),
        "3888c0d1fe95fcf57f5d55ea1453400141f58046004eac0074ffe53aca975e01"),
    "sphere-kernel": (
        lambda: _spherical_radial(lambda pole: [
            sphere.spherical_kernel(pole, p) for p in (1.5, 2.0, 2.5)]),
        "12e712a071aa6aec349aa61ebd7f7c2e57057f996138d4f102d6c09987ccbc9b"),
    "sphere-distance": (
        lambda: _spherical_radial(lambda pole: [
            sphere.radial_distance_power(pole, e) for e in (-1.5, 0.5)]),
        "8a34ba05d2f2f95f5830e0bf42173cfa51747b8b99457f6af92f4abb31edf60d"),
}


def _products():
    """`geometric_product` bytes at dims 1-6: dense x dense, vector x dense
    and dense x vector at 1, 7, 64, 1,000 and 8,192 rows, one row times a
    batch and a batch times one row, (B, 1, ...) broadcasts, and operands
    with signed zeros (a whole column of -0.0 too) and with inf and NaN in
    either operand, dense or vector."""
    rng = np.random.default_rng(33)
    for dim in range(1, 7):
        n, vector = 1 << dim, np.isin(np.arange(1 << dim), [1 << j for j in range(dim)])

        def draw(*batch, grade1=False):
            c = rng.standard_normal(batch + (n,))
            c[rng.random(c.shape) < 0.1] = 0.0
            c[rng.random(c.shape) < 0.1] = -0.0
            if grade1:
                c[..., ~vector] = 0.0
            return Multivector(dim, c, copy=False)

        for rows in (1, 7, 64, 1000, 8192):
            for left, right in ((False, False), (True, False), (False, True)):
                yield (draw(rows, grade1=left) * draw(rows, grade1=right)).coeffs
            yield (draw() * draw(rows)).coeffs
            yield (draw(rows) * draw(grade1=True)).coeffs
        yield (draw(3, 1) * draw(5)).coeffs
        yield (draw(5, grade1=True) * draw(4, 1)).coeffs
        yield (draw(2, 1, 3) * draw(1, 4, 1)).coeffs
        for special in range(4):
            a, b = draw(64), draw(64, grade1=special % 2 == 1)
            c = (a if special < 2 else b).coeffs
            c[:, n - 1] = -0.0
            c[3, 0], c[5, n // 2], c[7, -1], c[9, 1 % n] = np.inf, np.nan, -np.inf, np.nan
            with np.errstate(invalid="ignore"):
                yield (a * b).coeffs
                yield (b * a).coeffs
                yield (Multivector(dim, a.coeffs[3]) * b).coeffs
                yield (a * Multivector(dim, b.coeffs[9])).coeffs


def _norms():
    """`norm()` and `conj_vector_sums` bytes of `from_vector` and `scalar`
    values at dims 1-7: unbatched and over 0, 1, 7, 1,024 and 2 x 600
    rows, from row-major and component-major components, with signed zeros
    (a whole -0.0 component too), subnormals, inf and NaN among the values
    and, in one of two vector fields l, among its components."""
    rng = np.random.default_rng(35)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan])

    def draw(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
        pick = rng.random(shape) < 0.2
        a[pick] = rng.choice(specials, size=int(pick.sum()))
        return a

    for dim in range(1, 8):
        n = 1 << dim
        for batch in ((), (0,), (1,), (7,), (1024,), (2, 600)):
            comps = draw(*batch, dim)
            comps[..., dim // 2] = -0.0
            component_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(comps, -1, 0)), 0, -1)
            count = batch[0] if len(batch) == 1 else 5
            lefts = (rng.standard_normal((count, dim)), draw(count, dim))
            for c in (comps, component_major):
                for mv in (Multivector.from_vector(dim, c), Multivector.scalar(dim, c[..., 0])):
                    with np.errstate(all="ignore"):
                        yield mv.norm()
                        if len(batch) > 1:
                            continue
                        for left in lefts:
                            sums = np.zeros((2, n))
                            conj_vector_sums(left, mv, rng.uniform(0.1, 1.0, (2, count)), sums,
                                             np.empty((2, n, count + 1)))
                            yield sums


def _layouts():
    """Bytes of +, -, negation, scalar * and / (by a number and by a row
    of numbers), both involutions, grade_select at every grade,
    vector_part, _live, pin_action of the value by a two-vector versor and
    of a unit vector by the value, vector_sandwich and conj_vector_sums on
    caller arrays laid out C-ordered, F-ordered and
    blade-major (each blade one contiguous row) at dims 1-7, over 1, 7,
    1,100 and 2 x 600 rows: dense and grade-1 values with signed zeros (a
    whole -0.0 column too), subnormals, inf and NaN, and a finite dense
    value, which alone goes through vector_sandwich."""
    rng = np.random.default_rng(36)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf, np.nan])

    def draw(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, shape)
        pick = rng.random(shape) < 0.2
        a[pick] = rng.choice(specials, size=int(pick.sum()))
        return a

    layouts = (np.ascontiguousarray, np.asfortranarray,
               lambda c: np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -1, 0)), 0, -1))
    for dim in range(1, 8):
        n, vector = 1 << dim, np.isin(np.arange(1 << dim), [1 << j for j in range(dim)])
        for batch in ((1,), (7,), (1100,), (2, 600)):
            dense, grade1 = draw(*batch, n), draw(*batch, n)
            finite = rng.standard_normal(batch + (n,))
            dense[..., n // 2] = -0.0
            grade1[..., ~vector] = 0.0
            finite[rng.random(finite.shape) < 0.2] = -0.0
            other, row = Multivector(dim, draw(*batch, n)), draw(*batch)
            unit = Multivector.from_vector(dim, rng.standard_normal(dim))
            unit, versor = unit / unit.norm(), VectorFactorList(
                [Multivector.from_vector(dim, u / np.linalg.norm(u))
                 for u in rng.standard_normal((2, dim))])
            vectors = (rng.standard_normal(dim), rng.standard_normal((dim,) + batch))
            left, wx = draw(batch[-1], dim), rng.uniform(0.1, 1.0, (2, batch[-1]))
            for c in (dense, grade1, finite):
                for layout in layouts:
                    v = Multivector(dim, layout(c))
                    with np.errstate(all="ignore"):
                        for mv in (v + other, other - v, -v, 2.5 * v, v * -0.5, row * v, v / 3.0,
                                   v / row, v.reversion(), v.conjugation(),
                                   *(v.grade_select(r) for r in range(dim + 1)),
                                   pin_action(v, unit), pin_action(versor, v)):
                            yield mv.coeffs, mv.live
                        yield v.vector_part(), _live(v.coeffs)
                        if c is finite:
                            yield vector_sandwich(v, *vectors)
                        if len(batch) == 1:
                            sums = np.zeros((2, n))
                            conj_vector_sums(left, v, wx, sums, np.empty((2, n, batch[0] + 1)))
                            yield sums


PINNED_PRODUCTS = {
    "products": (_products, "b0dff9e9bc112ff3a69fc82cccb9dd775ac1869e9afea2e6e05268ee078efcb4"),
    "norms": (_norms, "4c9c14e3fa3e926e94cd692ce532ec90ce2a4287c5f5bfe4daebda88ca7dd433"),
    "layouts": (_layouts, "bd31ba231ee18dcd6abd38a650b169898a6c806e545289df75f4459af1636667"),
}


def pinned_digest(case):
    """sha256 of a pinned case's values: the bytes of each array and the
    repr, exact for floats, of everything else."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
        elif isinstance(value, (list, tuple, Iterator)):
            for item in value:
                feed(item)
        else:
            digest.update(repr(value).encode())

    feed({**PINNED_PAIRINGS, **PINNED_DERIVATIVES, **PINNED_FIELDS, **PINNED_PRODUCTS}[case][0]())
    return digest.hexdigest()


def _child_digest(case, threads=1):
    return blas_child(f"import test_golden; print(test_golden.pinned_digest({case!r}))",
                      threads).strip()


@pytest.mark.parametrize("case", sorted(PINNED_PAIRINGS))
def test_pinned_pairing_digests(case):
    assert _child_digest(case) == PINNED_PAIRINGS[case][1]


@pytest.mark.parametrize("case", ["family-d3o12", "normalized-weak", "weak-dirac",
                                  "weak-dirac-d4"])
def test_pinned_pairing_digests_at_two_blas_threads(case):
    """The flat pairing sums in node order, never through BLAS, so these
    digests do not follow the thread count."""
    assert _child_digest(case, threads=2) == PINNED_PAIRINGS[case][1]


@pytest.mark.parametrize("case", sorted(PINNED_DERIVATIVES))
def test_pinned_derivative_digests(case):
    assert _child_digest(case) == PINNED_DERIVATIVES[case][1]


@pytest.mark.parametrize("case", sorted(PINNED_FIELDS))
def test_pinned_field_digests(case):
    assert _child_digest(case) == PINNED_FIELDS[case][1]


@pytest.mark.parametrize("case", sorted(PINNED_PRODUCTS))
def test_pinned_product_digests(case):
    assert _child_digest(case) == PINNED_PRODUCTS[case][1]


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if len(sys.argv) < 2 or unknown:
        sys.exit(f"usage: {sys.argv[0]} CASE [CASE ...]; unknown: {unknown}; "
                 f"cases: {' '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:]:
        _artifact(case, GOLDEN / f"{case}.json")
