"""Command-line runner tests: artifact formats, determinism, the
flag/config-file precedence, and exit statuses."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from diraclab import cli
from diraclab.cli import (_blade_product_table, _make_bc, _parse_region, main,
                          read_config_file, render_csv)

from oracles import blade_product_oracle, indices_to_mask, inversion_count_oracle, mask_to_indices


def run_cli(args):
    return main(list(args))


# ---------------------------------------------------------------- artifacts


def test_algebra_selftest_json_artifact(tmp_path):
    out = tmp_path / "alg.json"
    code = run_cli(["algebra-selftest", "--n", "3", "--checks", "60",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["subcommand"] == "algebra-selftest"
    assert doc["seed"] == 42
    assert doc["passed"] is True
    props = {r["property"] for r in doc["rows"]}
    assert "associativity" in props
    assert "blade-product-oracle" in props
    assert all(r["status"] == "pass" for r in doc["rows"])
    assert "version" in doc and "timestamp" not in json.dumps(doc)


@pytest.mark.parametrize("n", range(1, 7))
def test_blade_product_table_equals_the_pairwise_oracles(n):
    """The self-test's table against the one-pair inversion count and the
    bubble-sort oracle, on all 4**n blade pairs."""
    sign, mask = _blade_product_table(n)
    for oracle in (inversion_count_oracle, blade_product_oracle):
        want = [[oracle(mask_to_indices(a), mask_to_indices(b)) for b in range(1 << n)]
                for a in range(1 << n)]
        assert sign.tolist() == [[s for s, _ in row] for row in want]
        assert mask.tolist() == [[indices_to_mask(idx) for _, idx in row] for row in want]


def test_a_flipped_product_sign_fails_the_blade_product_oracle(monkeypatch, tmp_path):
    """One wrong entry of the n = 2 sign table: with 16 pairs and 1,000
    sampled checks the pair is drawn, the row fails and the run exits 1."""
    signs = cli.product_signs

    def flipped(n):
        table = signs(n).copy()
        if n == 2:
            table[1, 2] *= -1
        return table

    monkeypatch.setattr(cli, "product_signs", flipped)
    out = tmp_path / "alg.json"
    assert run_cli(["algebra-selftest", "--n", "2", "--checks", "1000", "--out", str(out)]) == 1
    rows = {r["property"]: r for r in json.loads(out.read_text())["rows"]}
    assert rows["blade-product-oracle"]["worst"] > 0
    assert rows["blade-product-oracle"]["status"] == "fail"
    assert all(r["status"] == "pass" for p, r in rows.items() if p != "blade-product-oracle")


@pytest.mark.parametrize("n", range(1, 7))
def test_one_batched_pair_draw_is_the_stream_of_scalar_draws(n):
    """The self-test's artifacts rest on this numpy behaviour: one
    integers(2**n, size=(count, 2)) gives the pairs of 2 * count scalar
    draws and leaves the bit generator in the same state, for odd and even
    counts."""
    for seed in (0, 1, 42):
        for count in (1, 2, 3, 7, 1000):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            pairs = batched.integers(1 << n, size=(count, 2))
            assert pairs.tolist() == [[int(scalar.integers(1 << n)), int(scalar.integers(1 << n))]
                                      for _ in range(count)]
            assert batched.bit_generator.state == scalar.bit_generator.state


def test_kernel_residual_csv_columns(tmp_path):
    out = tmp_path / "kr.csv"
    code = run_cli(["kernel-residual", "--n", "2", "--p", "1.5",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p,h,residual,fitted_order"
    assert len(lines) == 4
    # 17-significant-digit cells round-trip losslessly
    h_cell, res_cell = lines[1].split(",")[2:4]
    assert float(h_cell) == 4e-3
    assert float(res_cell) > 0
    order = float(lines[1].split(",")[4])
    assert order == pytest.approx(2.0, abs=0.3)


def test_covariance_mode_one(tmp_path):
    out = tmp_path / "cov.csv"
    code = run_cli(["covariance", "--theorem", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,n,p,exponent,eta")
    assert all(float(ln.split(",")[-1]) <= 1e-5 for ln in lines[1:])


def test_covariance_mode_four_reports_scan(tmp_path):
    out = tmp_path / "scan.json"
    code = run_cli(["covariance", "--theorem", "4", "--format", "json",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["best_exponent"] == pytest.approx(-1.0)
    exponents = {r["exponent"] for r in doc["rows"]}
    assert len(exponents) >= 3


def test_solve_box_linear(tmp_path):
    out = tmp_path / "sol.csv"
    code = run_cli(["solve", "--p", "2", "--h", "0.125", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,value,exact,rel_error"
    rel = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert max(rel) <= 1e-6


def test_solve_file_boundary_data(tmp_path):
    grid = np.fromfunction(
        lambda i, j: 0.25 * i - 0.125 * j, (9, 9))  # linear nodal data
    path = tmp_path / "grid.txt"
    np.savetxt(path, grid)
    out = tmp_path / "sol.csv"
    code = run_cli(["solve", "--p", "2.5", "--h", "0.125",
                    "--bc", f"file:{path}", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x1,x2,value"
    # linear data is the exact minimizer: interior nodes reproduce it
    got = {}
    for ln in rows[1:]:
        x1, x2, v = (float(s) for s in ln.split(","))
        got[(x1, x2)] = v
    assert got[(0.5, 0.5)] == pytest.approx(
        0.25 * 4 - 0.125 * 4, abs=1e-8)


def test_radial_boundary_data_is_pinned():
    """sha256 of the radial boundary data on the boundary nodes and of its
    exact values on every node, for the h = 1/32 annulus and two boxes clear
    of the origin, at p = 1.5, 2, 2.5 and n; recorded before the radial data
    became `fields.p_harmonic_radial`."""
    digest = hashlib.sha256()
    for region, n, h in (("annulus:1,2", 2, 1 / 32), ("box:0.5,1.5", 2, 1 / 16),
                         ("box:0.5,1.5", 3, 1 / 8)):
        domain, _ = _parse_region(region, n, h)
        coords = domain.coordinates()
        for p in sorted({1.5, 2.0, 2.5, float(n)}):
            bc, exact, _, _ = _make_bc("radial", domain, p)
            digest.update(bc(coords[domain.boundary_mask]).tobytes())
            digest.update(exact(coords[domain.node_mask]).tobytes())
    assert digest.hexdigest() == "35e62ed8457d9d05c91081fdfec8213cc4ecbebecaf197af22d765209edba0b2"


def test_radial_exact_values_stay_in_bounded_memory():
    """The radial exact values on the 83,521 nodes of the 4-D box
    [0.5, 1.5]^4 at h = 1/16 (0.64 MB of output) peak below 4 MB traced:
    the field is evaluated block by block, not as one dense (N, 16) array."""
    domain, _ = _parse_region("box:0.5,1.5", 4, 1 / 16)
    pts = domain.coordinates()[domain.node_mask]
    _, exact, _, _ = _make_bc("radial", domain, 2.5)
    tracemalloc.start()
    try:
        exact(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pts) == 83521 and peak < 4 << 20, peak


def test_sphere_check_reports(tmp_path):
    out = tmp_path / "sph.csv"
    # p away from n keeps the radial-identity right side nonzero, so the
    # componentwise ratio diagnostics appear
    code = run_cli(["sphere-check", "--n", "2", "--p", "2.5",
                    "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "kernel-strong-residual" in text
    assert "radial-identity-ratio" in text
    assert "cayley-ratio-constancy" in text


def test_cr_check_single_exponent(tmp_path):
    out = tmp_path / "cr.json"
    code = run_cli(["cr-check", "--p", "2", "--format", "json",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = {c["check"] for c in doc["checks"]}
    assert "strong residual (p=2)" in names
    assert "derivative transfer identity" in names
    assert doc["passed"] is True


# -------------------------------------------------------------- determinism


@pytest.mark.parametrize("args", [
    ["cr-check", "--p", "2", "--format", "json"],
    ["algebra-selftest", "--n", "2", "--checks", "40"],
    ["kernel-residual", "--n", "2", "--p", "1.5", "--format", "json"],
])
def test_reruns_are_byte_identical(tmp_path, args):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_artifact_when_no_out(capsys):
    code = run_cli(["cr-check", "--p", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("check,p,label,value")
    assert "OK" in captured.err


# -------------------------------------------------------------- config file


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nformat = json\n# a comment\n\nseed = 7\n")
    out1 = tmp_path / "one.json"
    assert run_cli(["cr-check", "--config", str(cfg), "--out", str(out1)]) == 0
    doc = json.loads(out1.read_text())
    assert doc["parameters"]["p"] == 2.0
    assert doc["seed"] == 7

    out2 = tmp_path / "two.json"
    assert run_cli(["cr-check", "--config", str(cfg), "--p", "3",
                    "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["parameters"]["p"] == 3.0


def test_config_file_syntax_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    assert run_cli(["cr-check", "--config", str(bad)]) == 2
    with pytest.raises(Exception):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_config_file_values_keep_the_exit_contract(capsys, tmp_path):
    """A config file is checked like the flags: a value outside a flag's
    choices, a key that is no subcommand's flag, or a `config` key naming
    another file, is a usage error."""
    cfg = tmp_path / "run.cfg"
    for subcommand, text in (("covariance", "theorem = 7\nn = 2\n"),
                             ("covariance", "theorem = 0\nn = 2\n"),
                             ("cr-check", "format = xml\n"),
                             ("kernel-residual", "ordr = 99\n"),
                             ("kernel-residual", "config = nothere.cfg\n")):
        cfg.write_text(text)
        capsys.readouterr()
        assert run_cli([subcommand, "--config", str(cfg)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    # a key of another subcommand stays valid, so one file serves several
    cfg.write_text("theorem = 1\norder = 6\nn = 2\nchecks = 10\n")
    assert run_cli(["algebra-selftest", "--config", str(cfg),
                    "--out", str(tmp_path / "a.json")]) == 0


@pytest.mark.parametrize("subcommand, key, text", [
    ("kernel-residual", "n", "abc"),
    ("cr-check", "order", "0"),
    ("covariance", "theorem", "7"),
    ("cr-check", "format", "xml"),
    ("solve", "p", "0.5"),
    ("solve", "h", "nan"),
    ("kernel-residual", "seed", "-1"),
    ("covariance", "theorem", None),  # the required flag left out
])
def test_flag_and_config_values_refuse_alike(capsys, tmp_path, subcommand, key, text):
    """A value goes through its flag's one converter whether it comes from
    the command line or a config file: both refuse it with one line."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("" if text is None else f"{key} = {text}\n")
    flag = [] if text is None else [f"--{key}={text}"]
    for args, source in (([subcommand, *flag], f"--{key} {text!r}"),
                         ([subcommand, "--config", str(cfg)], f"config value {key} = {text!r}")):
        capsys.readouterr()
        assert run_cli(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert (f"--{key} is required" if text is None else source) in err, err


# ------------------------------------------------------------- exit statuses


def test_bumps_sharing_a_support_stream_once(monkeypatch, tmp_path):
    """One fitted rule per bump support: covariance pairs its 10 bumps at
    n = 3 in 3 passes (6 for --theorem 4, which runs its experiment twice),
    and sphere-check its 5 cap bumps per exponent in 3."""
    from diraclab import sphere, weakform

    calls = []

    def counted(build):
        def rule(eta, order, singular=()):
            calls.append(eta.label)
            return build(eta, order, singular)
        return rule

    for bump in (weakform.BumpTestFunction, sphere.CapBump):
        monkeypatch.setattr(bump, "blocks", counted(bump.blocks))
    for args, passes in ((["covariance", "--theorem", "1"], 3),
                         (["covariance", "--theorem", "4"], 6),
                         (["sphere-check", "--n", "3"], 6)):
        calls.clear()
        assert run_cli([*args, "--out", str(tmp_path / "a.csv")]) == 0
        assert calls == ["rand-0", "rand-1", "blade-1"] * (passes // 3), args


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(["covariance"]) == 2                      # theorem missing
    assert run_cli(["solve", "--p", "0.5"]) == 2             # p out of range
    assert run_cli(["solve", "--region", "annulus:1,2", "--n", "3"]) == 2
    assert run_cli(["solve", "--bc", "radial"]) == 2         # origin on grid
    assert run_cli(["kernel-residual", "--n", "9"]) == 2
    assert run_cli([]) == 2
    bad_file = tmp_path / "bc.txt"
    bad_file.write_text("0.0 zero\n")
    # the default 17 x 17 lattice with a non-finite value on a corner node
    nan_file, inf_file = tmp_path / "nan.txt", tmp_path / "inf.txt"
    for path, word in ((nan_file, "nan"), (inf_file, "inf")):
        path.write_text(" ".join([word] + ["0.0"] * 288) + "\n")
    # configurations that parse but break a library contract or a format
    for args in (["covariance", "--theorem", "1", "--n", "5"],  # quadrature budget
                 ["sphere-check", "--n", "5"],
                 ["sphere-check", "--n", "4", "--order", "24"],
                 ["covariance", "--theorem", "1", "--order", "60"],
                 ["covariance", "--theorem", "4", "--n", "4", "--order", "12"],
                 ["cr-check", "--order", "2000"],
                 ["solve", "--h", "0.3"],                       # off the lattice
                 ["solve", "--region", "annulus:2,1"],
                 ["sphere-check", "--y", "a,b,c"],              # not numbers
                 ["solve", "--bc", f"file:{bad_file}"],
                 ["solve", "--bc", f"file:{nan_file}"],         # boundary not finite
                 ["solve", "--bc", f"file:{inf_file}"],
                 ["sphere-check", "--theta=-1e-3"],             # step sign
                 ["sphere-check", "--theta=nan"],
                 ["solve", "--n", "0"],                         # lattice dim
                 ["solve", "--n=-1"],
                 ["solve", "--n", "7", "--h", "0.5"],
                 ["solve", "--n", "6"],                         # node budget
                 ["solve", "--region", "annulus:1,2", "--h", "1e-3"],
                 ["algebra-selftest", "--n", "3", "--checks", "100000000"],  # budget
                 ["algebra-selftest", "--checks", str(2**17 + 1)],
                 ["solve", "--p", "2.5", "--eps-schedule", "inf"],  # not finite
                 ["solve", "--p", "inf"],
                 ["solve", "--p", "1e308"],                     # weight overflows
                 ["solve", "--p", "1.5", "--eps-schedule", "1e-300"],  # eps^2 = 0
                 ["solve", "--eps-schedule", "nan"],
                 ["covariance", "--theorem", "3", "--n", "2", "--p", "inf"],
                 ["covariance", "--theorem", "1", "--p", "inf"],
                 ["covariance", "--theorem", "1", "--mobius", "translation:nan,0,0"],
                 ["covariance", "--theorem", "1", "--mobius", "translation:inf,0,0"],
                 ["solve", "--region", "box:0,nan"],
                 ["kernel-residual", "--seed", "-1"],           # seed sign
                 ["cr-check", "--seed", "-1"]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would add lines
            assert run_cli(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert "epsilon = 0" not in err, err
    # a non-finite pole once sent the clear-point draw into an endless loop,
    # so these run in a child process that a hang fails instead of stalling
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for pole in ("nan,0,1", "inf,0,1"):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "diraclab.cli", "sphere-check", "--y", pole],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1


def test_quadrature_budget_admits_every_default_run(monkeypatch):
    """Every weak-form subcommand at its default order and n = 2..4 passes
    the budget and reaches its first pairing."""
    from diraclab import cli

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    for name in ("dirac_covariance_experiment", "harmonic_covariance_experiment",
                 "normalized_weak_spherical_residual", "theorem5_experiment"):
        monkeypatch.setattr(cli, name, reached)
    runs = [["cr-check"]] + [
        args for n in ("2", "3", "4")
        for args in (["sphere-check", "--n", n],
                     *(["covariance", "--theorem", t, "--n", n] for t in "1234"))]
    for args in runs:
        with pytest.raises(Reached):
            run_cli(args)


def test_twisted_scan_is_priced_by_its_own_cost(capsys, monkeypatch):
    """The twisted-harmonic scan is priced at four pairings per node-blade:
    at n = 4, order 10 the flat pullback is admitted and the scan is
    refused with one usage-error line before any work."""
    from diraclab import cli

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "dirac_covariance_experiment", reached)
    with pytest.raises(Reached):
        run_cli(["covariance", "--theorem", "1", "--n", "4", "--order", "10"])
    monkeypatch.setattr(cli, "harmonic_covariance_experiment", reached)
    capsys.readouterr()
    assert run_cli(["covariance", "--theorem", "4", "--n", "4", "--order", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "at 4x a flat pairing price at 4.9e+08" in err


def test_spacing_whose_cell_volume_overflows_exits_two(capsys):
    """h = 1e199 on a 10-cell box parses, but h^2 overflows a float, and
    every energy term and the gradient tolerance carry h^n: the lattice
    refuses it as a usage error, not with an OverflowError traceback."""
    capsys.readouterr()
    assert run_cli(["solve", "--region", "box:1e200,2e200", "--h", "1e199"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "h^2" in err, err


def test_spacing_whose_cell_volume_underflows_exits_two(capsys):
    """h = 1e-200 on a 10-cell box parses, but h^2 underflows to 0, so the
    gradient tolerance 1e-8 h^2 could never be met: the lattice refuses it
    as a usage error, not as a failed check."""
    capsys.readouterr()
    assert run_cli(["solve", "--region", "box:0,1e-199", "--h", "1e-200"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "h^2 underflows" in err, err


def test_bad_choice_exits_two(capsys):
    assert run_cli(["covariance", "--theorem", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_assertion_failure_exits_one(capsys):
    # affine data is exact for every p, and the harmonic start solves it
    code = run_cli(["solve", "--region", "annulus:1,2", "--bc", "radial", "--p", "1.5",
                    "--max-iter", "1"])
    assert code == 1
    assert "FAILED 2/3 checks passed" in capsys.readouterr().err


# ---------------------------------------------------------------- rendering


def test_csv_rendering_is_lossless():
    x = 0.1 + 0.2  # not representable as a short decimal
    text = render_csv([{"v": x}])
    assert float(text.splitlines()[1]) == x


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_every_script_runs_from_a_source_checkout(tmp_path, script):
    """Each script finds the package in the checkout's src, with no
    PYTHONPATH and from another directory: `--help` exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
