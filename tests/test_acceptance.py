"""End-to-end acceptance suite.

Thirteen numbered criteria, each a single test that re-runs its checks at
the stated tolerances and prints one PASS/FAIL line (visible with -s or in
the failure report).  Everything here goes through public entry points;
the per-module unit suites carry the fine-grained diagnostics.
"""

import json

import numpy as np
import pytest

from diraclab.algebra import (
    Multivector,
    VectorFactorList,
    geometric_product,
    pin_action,
    product_signs,
    reflect,
)
from diraclab.cli import main as cli_main
from diraclab.cr2d import (
    p_cr_residual,
    p_cr_solution,
    polynomial_map,
    theorem5_experiment,
    transfer_identity_check,
    wirtinger_polynomial,
)
from diraclab.fields import (
    AnalyticField,
    Domain,
    cauchy_kernel,
    convergence_order,
    dirac_fd,
    dj1_check,
    lemma1_check,
    log_radial,
    p_dirac_residual,
    p_dirac_solution,
    p_harmonic_radial,
    p_harmonic_residual,
)
from diraclab.mobius import compose, dilation, inversion, translation
from diraclab.solver import (
    LatticeDomain,
    LatticeField,
    SolverConfig,
    discrete_energy,
    energy_gradient,
    laplace_stencil_residual,
    solve_dirichlet,
)
from diraclab.sphere import (
    SphericalCap,
    cayley_ratio_constancy,
    default_cap_bumps,
    lr_identity_check,
    normalized_weak_spherical_residual,
    random_sphere_points,
    sphere_point,
    spherical_kernel,
    spherical_p_dirac_residual,
    spherical_p_harmonic_check,
)
from diraclab.weakform import (
    QuadratureRule,
    centered_bump,
    default_test_functions,
    dirac_covariance_experiment,
    dirac_integral_check,
    harmonic_covariance_experiment,
    norm_frame_identity_check,
    normalized_weak_residual,
    pullback_domain,
    sc_invariance_check,
)

from oracles import blade_product_oracle, indices_to_mask, mask_to_indices

BALL3 = Domain.ball([3.0, 0.0, 0.0], 1.0)


def _conclude(num, label, failures):
    ok = not failures
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def _shell_points(rng, dim, count=20, lo=1.0, hi=3.0):
    dirs = rng.standard_normal((count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(lo, hi, count)[:, None]


def _rel_gap(a, b):
    gap = (a - b).norm()
    scale = np.maximum(np.maximum(a.norm(), b.norm()), 1.0)
    return float(np.max(gap / scale))


# --------------------------------------------------------------- criterion 1


def test_criterion_01_algebra_property_suite():
    rng = np.random.default_rng(42)
    failures = []
    for n in range(2, 7):
        draw = lambda: Multivector(n, rng.standard_normal((1000, 1 << n)))
        a, b, c = draw(), draw(), draw()
        checks = {
            "associativity": _rel_gap(
                geometric_product(geometric_product(a, b), c),
                geometric_product(a, geometric_product(b, c))),
            "reversion": _rel_gap(
                geometric_product(a, b).reversion(),
                geometric_product(b.reversion(), a.reversion())),
            "conjugation": _rel_gap(
                geometric_product(a, b).conjugation(),
                geometric_product(b.conjugation(), a.conjugation())),
        }
        # norm identity for group elements built from vector factors
        worst = 0.0
        for factors in (1, 2, 3, 4):
            count = 250
            coeffs = np.zeros((count, 1 << n))
            g = None
            for _ in range(factors):
                coeffs[:] = 0.0
                for j in range(n):
                    coeffs[:, 1 << j] = rng.standard_normal(count)
                v = Multivector(n, coeffs)
                g = v if g is None else geometric_product(g, v)
            A = Multivector(n, rng.standard_normal((count, 1 << n)))
            lhs = geometric_product(g, A).norm()
            rhs = g.norm() * A.norm()
            worst = max(worst, float(np.max(np.abs(lhs - rhs)
                                            / np.maximum(rhs, 1.0))))
        checks["norm-identity"] = worst
        for name, value in checks.items():
            if value > 1e-12:
                failures.append(f"n={n} {name} {value:.3e}")
        # full product table against the swap-sort oracle, exact
        signs = product_signs(n)
        for ma in range(1 << n):
            ia = mask_to_indices(ma)
            for mb in range(1 << n):
                s, idx = blade_product_oracle(ia, mask_to_indices(mb))
                if signs[ma, mb] != s or indices_to_mask(idx) != ma ^ mb:
                    failures.append(f"n={n} table mismatch at {ma},{mb}")
    _conclude(1, "algebra property suite (n = 2..6, 1000 draws each)",
              failures)


# --------------------------------------------------------------- criterion 2


def test_criterion_02_reflection_and_pin():
    rng = np.random.default_rng(42)
    failures = []
    for n in (2, 3, 4):
        for _ in range(100):
            y = rng.standard_normal(n)
            y /= np.linalg.norm(y)
            x = rng.standard_normal(n)
            got = reflect(Multivector.from_vector(n, y),
                          Multivector.from_vector(n, x)).vector_part()
            want = x - 2.0 * float(x @ y) * y
            if float(np.max(np.abs(got - want))) > 1e-12:
                failures.append(f"reflection n={n}")
                break
    for count in (1, 2, 3, 4):
        for _ in range(50):
            vs = rng.standard_normal((count, 4))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            factors = VectorFactorList(
                [Multivector.from_vector(4, v) for v in vs])
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            gx = pin_action(factors, Multivector.from_vector(4, x))
            gy = pin_action(factors, Multivector.from_vector(4, y))
            got = float(gx.vector_part() @ gy.vector_part())
            if abs(got - float(x @ y)) > 1e-12 * max(abs(x @ y), 1.0):
                failures.append(f"pin dot products J={count}")
                break
            a = factors.product()
            A = Multivector(4, rng.standard_normal(16))
            lhs = float(geometric_product(a, A).norm())
            rhs = float(a.norm() * A.norm())
            if abs(lhs - rhs) > 1e-12 * max(rhs, 1.0):
                failures.append(f"norm multiplicativity J={count}")
                break
    _conclude(2, "reflection formula, pin orthogonality, norm identity",
              failures)


# --------------------------------------------------------------- criterion 3


def test_criterion_03_kernel_annihilation():
    rng = np.random.default_rng(42)
    failures = []
    for n in (2, 3):
        pts = _shell_points(rng, n)
        res = float(np.max(dirac_fd(cauchy_kernel(n), pts, h=1e-3).norm()))
        if res > 1e-8:
            failures.append(f"extrapolated residual n={n}: {res:.3e}")
    pts = _shell_points(rng, 3)
    samples = [
        (h, float(np.max(
            dirac_fd(cauchy_kernel(3), pts, h=h, richardson=False).norm())))
        for h in (4e-3, 2e-3, 1e-3)
    ]
    order = convergence_order(samples)
    if abs(order - 2.0) > 0.3:
        failures.append(f"fitted order {order:.3f} outside 2.0 +- 0.3")
    _conclude(3, "first-order kernel annihilation (Richardson h = 1e-3)",
              failures)


# --------------------------------------------------------------- criterion 4


def test_criterion_04_closed_form_strong_residuals():
    rng = np.random.default_rng(42)
    failures = []
    for n, p in ((3, 2.0), (3, 2.5), (4, 3.0), (2, 1.5)):
        pts = _shell_points(rng, n)
        r1 = float(np.max(
            p_dirac_residual(p_dirac_solution(n, p), p, pts).norm()))
        if r1 > 1e-8:
            failures.append(f"first-order (n={n}, p={p}): {r1:.3e}")
        r2 = float(np.max(
            p_harmonic_residual(p_harmonic_radial(n, p), p, pts).norm()))
        if r2 > 1e-6:
            failures.append(f"second-order (n={n}, p={p}): {r2:.3e}")
    rlog = float(np.max(
        p_harmonic_residual(log_radial(3), 3.0, _shell_points(rng, 3)).norm()))
    if rlog > 1e-6:
        failures.append(f"log profile at p = n = 3: {rlog:.3e}")
    _conclude(4, "closed-form strong residuals over the (n, p) set", failures)


# --------------------------------------------------------------- criterion 5


def _gaussian_blade_field(rng, dim, center):
    blade = Multivector(dim, rng.normal(size=1 << dim))
    c = np.asarray(center, dtype=float)

    def ev(pts):
        prof = np.exp(-np.sum((pts - c) ** 2, axis=-1))
        return Multivector(dim, prof[..., None] * blade.coeffs)

    return AnalyticField(dim, ev, name="gauss-blade")


_MOBIUS_SET = (
    ("translation", lambda: translation(3, [0.4, -0.1, 0.2])),
    ("dilation", lambda: dilation(3, 2.0)),
    ("inversion", lambda: inversion(3)),
    ("inversion-translation",
     lambda: compose(inversion(3), translation(3, [0.0, 0.0, 0.5]))),
)


def test_criterion_05_derivative_identity_and_jacobian_factor():
    rng = np.random.default_rng(42)
    failures = []
    psi = _gaussian_blade_field(rng, 3, [2.0, 0.3, -0.1])
    for label, make in _MOBIUS_SET:
        pts = np.array([2.0, 0.0, 0.0]) + 0.25 * rng.normal(size=(10, 3))
        v1 = lemma1_check(make(), psi, pts)
        if v1 > 1e-6:
            failures.append(f"derivative identity {label}: {v1:.3e}")
        v2 = dj1_check(make(), pts)
        if v2 > 1e-6:
            failures.append(f"weight-factor annihilation {label}: {v2:.3e}")
    _conclude(5, "conformal derivative identity and weight-factor checks",
              failures)


# --------------------------------------------------------------- criterion 6


def test_criterion_06_weak_form_engine():
    failures = []
    rule = QuadratureRule.build(BALL3, order=6, cells=2)
    for eta in default_test_functions(BALL3, seed=42, random_count=5):
        v = dirac_integral_check(eta, rule)
        if v > 1e-10:
            failures.append(f"divergence oracle {eta.label}: {v:.3e}")
    for n, p in ((2, 1.5), (3, 2.0), (3, 2.5), (4, 3.0)):
        domain = Domain.ball([3.0] + [0.0] * (n - 1), 1.0)
        f = p_dirac_solution(n, p)
        eta = default_test_functions(domain, seed=42, random_count=1)[0]
        r_q = normalized_weak_residual(
            f, p, eta, QuadratureRule.build(domain, order=6, cells=2))
        r_2q = normalized_weak_residual(
            f, p, eta, QuadratureRule.build(domain, order=12, cells=2))
        if r_q > 1e-6:
            failures.append(f"weak residual (n={n}, p={p}): {r_q:.3e}")
        if not (r_2q <= r_q / 10.0 or r_2q <= 1e-12):
            failures.append(
                f"order doubling (n={n}, p={p}): {r_q:.3e} -> {r_2q:.3e}")
    _conclude(6, "weak-form engine (divergence oracle, order doubling)",
              failures)


# --------------------------------------------------------------- criterion 7


def test_criterion_07_covariance_first_and_second_order():
    failures = []
    kw = dict(order=6, random_bumps=2, seed=42)
    for p in (3.0, 2.5):
        for label, make in (("inversion", lambda: inversion(3)),
                            ("dilation", lambda: dilation(3, 2.0))):
            rep = dirac_covariance_experiment(
                p_dirac_solution(3, p, center=[0.0, 0.5, 0.0]),
                p, make(), BALL3, **kw)
            if rep.max_normalized > 1e-5:
                failures.append(
                    f"first-order {label} p={p}: {rep.max_normalized:.3e}")
            hrep = harmonic_covariance_experiment(
                p_harmonic_radial(3, p, center=[-5.0, 0.0, 0.0]),
                p, make(), BALL3, **kw)
            table = hrep.normalized_by_exponent()
            key = min(table, key=lambda s: abs(s - 2.0 * (p - 3.0)))
            if table[key] > 1e-5:
                failures.append(
                    f"second-order {label} p={p}: {table[key]:.3e}")
    _conclude(7, "pullback covariance for inversion and dilation", failures)


# --------------------------------------------------------------- criterion 8


def test_criterion_08_unweighted_case_and_exponent_scan():
    failures = []
    kw = dict(order=6, random_bumps=2, seed=42)
    rep = harmonic_covariance_experiment(
        log_radial(3, center=[-5.0, 0.0, 0.0]), 3.0, inversion(3),
        BALL3, **kw)
    table = rep.normalized_by_exponent()
    if table[0.0] > 1e-5:
        failures.append(f"unweighted residual at p = n: {table[0.0]:.3e}")

    scan = harmonic_covariance_experiment(
        p_harmonic_radial(3, 2.5, center=[-5.0, 0.0, 0.0]), 2.5,
        inversion(3), BALL3, **kw)
    again = harmonic_covariance_experiment(
        p_harmonic_radial(3, 2.5, center=[-5.0, 0.0, 0.0]), 2.5,
        inversion(3), BALL3, **kw)
    stable = scan.to_rows() == again.to_rows()
    exponents = scan.normalized_by_exponent()
    if len(exponents) < 3 or not stable:
        failures.append("exponent scan incomplete or nondeterministic")
    if not all(np.isfinite(v) for v in exponents.values()):
        failures.append("exponent scan produced non-finite residuals")
    _conclude(8, f"unweighted p = n case; exponent scan (minimum at "
                 f"{scan.best_exponent:g})", failures)


# --------------------------------------------------------------- criterion 9


def test_criterion_09_pointwise_frame_invariances():
    rng = np.random.default_rng(42)
    failures = []
    f = p_dirac_solution(3, 2.5, center=[0.0, 0.5, 0.0])
    eta = centered_bump(BALL3, blade=Multivector(3, rng.normal(size=8)),
                        scale=0.95)
    for label, make in _MOBIUS_SET:
        m = make()
        pts = pullback_domain(m, BALL3).sample_interior(rng, 20)
        v1 = sc_invariance_check(f, 2.5, m, eta, pts)
        if v1 > 1e-8:
            failures.append(f"scalar-part invariance {label}: {v1:.3e}")
        v2 = norm_frame_identity_check(m, f, pts)
        if v2 > 1e-8:
            failures.append(f"norm-frame identity {label}: {v2:.3e}")
    _conclude(9, "scalar-part invariance and norm-frame identity (20 points "
                 "per map)", failures)


# -------------------------------------------------------------- criterion 10


def _central_diff(dom, vals, ij, p, eps, step):
    vp, vm = vals.copy(), vals.copy()
    vp[ij] += step
    vm[ij] -= step
    return (discrete_energy(LatticeField(dom, vp), p, eps)
            - discrete_energy(LatticeField(dom, vm), p, eps)) / (2 * step)


def _fd_gradient_gap(dom, vals, p, eps, rng, count=20, step=2e-4):
    # extrapolated central differences: a single step cannot serve both
    # the p = 2 (roundoff-limited) and small-regularization p < 2
    # (curvature-limited) regimes
    u = LatticeField(dom, vals)
    g = energy_gradient(u, p, eps).values
    idxs = np.argwhere(dom.interior_mask)
    worst = 0.0
    for _ in range(count):
        ij = tuple(idxs[rng.integers(len(idxs))])
        if u.is_clifford:
            ij = ij + (int(rng.integers(vals.shape[-1])),)
        fd = (4.0 * _central_diff(dom, vals, ij, p, eps, step / 2)
              - _central_diff(dom, vals, ij, p, eps, step)) / 3.0
        worst = max(worst, abs(fd - g[ij]) / max(abs(fd), abs(g[ij]), 1e-12))
    return worst


def test_criterion_10_lattice_solver():
    rng = np.random.default_rng(42)
    failures = []

    dom = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 8)
    for p, eps in ((2.0, 0.0), (2.5, 0.0), (1.5, 1e-3)):
        for clifford in (False, True):
            shape = dom.shape + ((4,) if clifford else ())
            gap = _fd_gradient_gap(dom, rng.normal(size=shape), p, eps, rng)
            if gap > 1e-6:
                failures.append(
                    f"gradient vs FD p={p} clifford={clifford}: {gap:.3e}")

    # annulus recovery of the exact radial profile at p = 1.5
    errs = {}
    diags = {}
    for h in (1 / 32, 1 / 64):
        ann = LatticeDomain.annulus(1.0, 2.0, h)
        u, diag = solve_dirichlet(
            ann, lambda pts: 1.0 / np.linalg.norm(pts, axis=-1),
            SolverConfig(p=1.5, epsilon=1e-6))
        r = np.linalg.norm(ann.coordinates(), axis=-1)
        r[~ann.node_mask] = 1.0
        rel = (np.abs(u.values - 1.0 / r) * r)[ann.interior_mask]
        errs[h] = float(np.max(rel))
        diags[h] = diag
        if not diag.converged:
            failures.append(f"annulus solve h=1/{round(1 / h)} not converged")
    if errs[1 / 32] > 0.05:
        failures.append(f"annulus error at h = 1/32: {errs[1 / 32]:.3e}")
    if errs[1 / 32] / errs[1 / 64] < 2.5:
        failures.append(
            f"refinement gain {errs[1 / 32] / errs[1 / 64]:.2f}x < 2.5x")

    # harmonic-polynomial recovery at p = 2
    box = LatticeDomain.box([0.0, 0.0], [1.0, 1.0], 1 / 16)
    saddle = lambda pts: pts[..., 0] ** 2 - pts[..., 1] ** 2
    u2, diag2 = solve_dirichlet(box, saddle, SolverConfig(p=2.0))
    err2 = float(np.max(
        np.abs(u2.values - saddle(box.coordinates()))[box.interior_mask]))
    if err2 > 1e-6:
        failures.append(f"harmonic recovery at p = 2: {err2:.3e}")
    if laplace_stencil_residual(u2) > 1e-8:
        failures.append("five-point stencil residual above 1e-8")

    for diag in (*diags.values(), diag2):
        if any(b > a for a, b in zip(diag.energies, diag.energies[1:])):
            failures.append("energy ascent on an accepted step")
    _conclude(10, f"lattice solver (annulus errors "
                  f"{errs[1 / 32]:.2e} -> {errs[1 / 64]:.2e})", failures)


# -------------------------------------------------------------- criterion 11


def test_criterion_11_spherical_operators():
    rng = np.random.default_rng(42)
    failures = []
    for ambient in (3, 4):
        n = ambient - 1
        pole = sphere_point([0.3, -0.7, 0.8, 0.4][:ambient])
        pts = random_sphere_points(rng, ambient, 20, avoid=(pole,),
                                   clearance=0.3)
        cap = SphericalCap(tuple(sphere_point(-np.asarray(pole))), 1.0)
        bumps = default_cap_bumps(cap, seed=42, random_count=2)[:5]
        for p in sorted({2.0, float(n)}):
            f = spherical_kernel(pole, p)
            strong = float(np.max(
                spherical_p_dirac_residual(f, p, pts).norm()))
            if strong > 1e-6:
                failures.append(
                    f"kernel residual n={n} p={p:g}: {strong:.3e}")
            weak = max(normalized_weak_spherical_residual(f, p, b, order=8)
                       for b in bumps)
            if weak > 1e-5:
                failures.append(f"weak residual n={n} p={p:g}: {weak:.3e}")

    # report generation with componentwise ratio diagnostics (measured,
    # not asserted: the displayed sign is under investigation)
    pole = sphere_point([0.3, -0.7, 0.8])
    pts = random_sphere_points(rng, 3, 5, avoid=(pole,), clearance=0.5)
    lr = lr_identity_check(pts[0], pole, 2.5)
    if not (len(lr.ratios) > 0 and len(lr.ratios_flipped) > 0):
        failures.append("radial identity report lacks ratio diagnostics")
    hrep = spherical_p_harmonic_check(pole, 2.5, pts)
    if not (hrep.rows and all(
            "residual" in r and "residual_flipped" in r for r in hrep.rows)):
        failures.append("second-order radial report incomplete")

    for flat_dim in (2, 3):
        dev = cayley_ratio_constancy(flat_dim, seed=42)[
            "max_deviation"]
        if dev > 1e-6:
            failures.append(f"lift ratio constancy dim={flat_dim}: {dev:.3e}")
    _conclude(11, "spherical kernel residuals, reports, and lift constancy",
              failures)


# -------------------------------------------------------------- criterion 12


def test_criterion_12_two_dimensional_reduction():
    rng = np.random.default_rng(42)
    failures = []
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, 20)) * rng.uniform(0.5, 2.0, 20)
    for p in (1.5, 2.0, 3.0):
        v = float(np.max(np.abs(p_cr_residual(p_cr_solution(p), p, z))))
        if v > 1e-8:
            failures.append(f"strong residual p={p:g}: {v:.3e}")
    eta = wirtinger_polynomial({(2, 1): 1.0 + 0.5j, (1, 0): -2.0,
                                (0, 2): 0.75j})
    t = transfer_identity_check(polynomial_map([0, 0, 1]), eta, 1.0 + 1.0j)
    if t > 1e-6:
        failures.append(f"derivative transfer: {t:.3e}")
    ring = Domain.annulus([0.0, 0.0], 0.5, 1.5)
    square_plus = polynomial_map([3.0, 0.0, 1.0], name="square-plus-3")
    for p in (1.5, 2.0, 3.0):
        rows = theorem5_experiment(p_cr_solution(p), square_plus, p, ring,
                                   seed=42)
        worst = max(r["normalized"] for r in rows)
        if worst > 1e-6:
            failures.append(f"composition covariance p={p:g}: {worst:.3e}")
    _conclude(12, "plane reduction: strong, transfer, and composition checks",
              failures)


# -------------------------------------------------------------- criterion 13


_CLI_CASES = [
    ["algebra-selftest", "--n", "2", "--checks", "50"],
    ["kernel-residual", "--n", "2", "--p", "1.5"],
    ["covariance", "--theorem", "1"],
    ["solve", "--p", "2", "--h", "0.125"],
    ["sphere-check", "--n", "2", "--p", "2.5"],
    ["cr-check", "--p", "2", "--format", "json"],
]


def test_criterion_13_cli_determinism(tmp_path):
    failures = []
    for case in _CLI_CASES:
        name = case[0]
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        code_a = cli_main(case + ["--out", str(a)])
        code_b = cli_main(case + ["--out", str(b)])
        if code_a != 0 or code_b != 0:
            failures.append(f"{name} exited {code_a}/{code_b}")
        elif a.read_bytes() != b.read_bytes():
            failures.append(f"{name} artifacts differ between reruns")
    _conclude(13, "byte-identical artifacts across subcommand reruns",
              failures)
