"""Each benchmark check must reject a deliberately wrong result.

    python3 -m pytest diracbench/test_checks.py

Every test feeds a check one right and one wrong result: a zeroed or
sign-flipped pairing, a lattice value shifted by 1e-3, a scan minimum at
the wrong exponent, a flipped blade sign.  No diraclab code runs here.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import checks as C

HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------ bump integral


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bump_moment_agrees_with_simpson(dim):
    count = 200_000
    r = np.linspace(0.0, 1.0, count + 1)
    with np.errstate(divide="ignore"):
        f = np.exp(-1.0 / (1.0 - r * r)) * r ** (dim - 1)
    simpson = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()) / (3 * count)
    assert C.bump_radial_moment(dim) == pytest.approx(simpson, rel=1e-13)


def test_bump_integral_scales_with_radius():
    assert C.bump_integral(3, 0.5) == pytest.approx(C.bump_integral(3, 1.0) / 8, rel=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_identity_pairing_rejects_wrong_results(dim):
    blade = np.zeros(1 << dim)
    blade[1] = 0.6
    blade[-1] = -0.8
    want = C.identity_pairing(dim, 0.7, blade)
    assert C.identity_pairing_ok(want, dim, 0.7, blade, 1e-10)
    assert not C.identity_pairing_ok(np.zeros_like(want), dim, 0.7, blade, 1e-4)
    assert not C.identity_pairing_ok(-want, dim, 0.7, blade, 1e-4)
    assert not C.identity_pairing_ok(want * (1 + 1e-6), dim, 0.7, blade, 1e-10)


def test_thresholds_reject_zero_control_and_nan():
    assert C.at_least(0.03, 1e-3)
    assert not C.at_least(0.0, 1e-3)
    assert not C.at_most(float("nan"), 1.0)
    assert not C.at_most(2e-6, 1e-6)


def test_order_doubling():
    assert C.order_doubling_ok(1e-8, 5e-10)
    assert C.order_doubling_ok(1e-16, 2e-16)
    assert not C.order_doubling_ok(1e-8, 5e-9)


# ---------------------------------------------------------------- lattice


def _box(h=1 / 16):
    shape = (17, 17)
    coords = C.lattice_coordinates((0.0, 0.0), h, shape)
    interior = np.zeros(shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    return coords, interior


def test_affine_gap_catches_shifted_value():
    coords, interior = _box()
    exact = coords @ np.array([0.3, -0.7]) + 0.1
    assert C.max_interior_gap(exact, exact, interior) == 0.0
    shifted = exact.copy()
    shifted[5, 9] += 1e-3
    assert not C.at_most(C.max_interior_gap(shifted, exact, interior), 1e-8)


def test_five_point_residual_catches_shifted_value():
    coords, interior = _box()
    saddle = coords[..., 0] ** 2 - coords[..., 1] ** 2
    assert C.at_most(C.five_point_residual(saddle, 1 / 16, interior), 1e-8)
    saddle[8, 8] += 1e-3
    assert not C.at_most(C.five_point_residual(saddle, 1 / 16, interior), 1e-8)


def test_annulus_error_and_refinement_gain():
    coords = C.lattice_coordinates((-2.0, -2.0), 1 / 8, (33, 33))
    r = np.linalg.norm(coords, axis=-1)
    interior = (r > 1.1) & (r < 1.9)
    exact = 1.0 / np.where(r > 0, r, 1.0)
    assert C.annulus_error(exact, coords, interior) < 1e-15
    off = exact.copy()
    off[interior] += 0.1
    assert not C.at_most(C.annulus_error(off, coords, interior), 0.05)
    assert C.refinement_gain_ok(0.04, 0.01)
    assert not C.refinement_gain_ok(0.04, 0.02)


def test_monotone():
    assert C.monotone([3.0, 2.0, 2.0, 1.0])
    assert not C.monotone([3.0, 2.0, 2.5])


# ---------------------------------------------------------- CLI artifacts


def test_kernel_order_from_rows():
    hs = (4e-3, 2e-3, 1e-3)
    assert C.kernel_order_ok([{"h": h, "residual": 3.0 * h * h} for h in hs])
    assert not C.kernel_order_ok([{"h": h, "residual": 3.0 * h} for h in hs])


def _solve_rows(values, coords):
    return [{"x1": float(x), "x2": float(y), "value": float(v)}
            for (x, y), v in zip(coords.reshape(-1, 2), values.ravel())]


def test_solve_rows_catch_shifted_value():
    coords, _ = _box()
    values = coords @ np.array([0.8, -0.45])
    assert C.at_most(C.affine_interior_gap(_solve_rows(values, coords), 2), 1e-12)
    values[7, 3] += 1e-3
    assert not C.at_most(C.affine_interior_gap(_solve_rows(values, coords), 2), 1e-6)


def _scan_rows(best):
    rows = []
    for eta in ("rand-0", "blade-1"):
        for s in (1.0, -1.0, -0.5, 0.0):
            rows.append({"eta": eta, "exponent": s, "normalizer": 2.0,
                         "residual": 1e-15 if s == best else 1e-3})
    return rows


def test_scan_minimum():
    assert C.scan_minimum_ok(_scan_rows(-1.0), 2.5, 3)
    assert not C.scan_minimum_ok(_scan_rows(0.0), 2.5, 3)


def test_rows_below():
    rows = [{"check": "strong-residual", "value": 1e-12},
            {"check": "strong-residual", "value": 1e-12}]
    assert C.rows_below(rows, "strong-residual", 1e-8)
    assert not C.rows_below(rows, "composition-covariance", 1e-6)
    rows[1]["value"] = 1e-7
    assert not C.rows_below(rows, "strong-residual", 1e-8)


def test_sign_table_known_entries_and_flip():
    t = C.sign_table(2)
    # e1 e1 = -1, e1 e2 = e12, e2 e1 = -e12, e12 e12 = -1
    assert (t[1, 1], t[1, 2], t[2, 1], t[3, 3]) == (-1, 1, -1, -1)
    for dim in (2, 3, 4):
        table = C.sign_table(dim)
        assert C.product_signs_ok(table, dim)
        table[3, 1] = -table[3, 1]
        assert not C.product_signs_ok(table, dim)


# --------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_lists_what_the_runner_prints():
    import probes
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.PER_LAYER
