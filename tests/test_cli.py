"""Command-line runner tests: artifact formats, determinism, the
flag/config-file precedence, and exit statuses."""

import json

import numpy as np
import pytest

from diraclab.cli import main, read_config_file, render_csv


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


# ------------------------------------------------------------- exit statuses


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(["covariance"]) == 2                      # theorem missing
    assert run_cli(["solve", "--p", "0.5"]) == 2             # p out of range
    assert run_cli(["solve", "--region", "annulus:1,2", "--n", "3"]) == 2
    assert run_cli(["solve", "--bc", "radial"]) == 2         # origin on grid
    assert run_cli(["kernel-residual", "--n", "9"]) == 2
    assert run_cli([]) == 2
    bad_file = tmp_path / "bc.txt"
    bad_file.write_text("0.0 zero\n")
    # configurations that parse but break a library contract or a format
    for args in (["covariance", "--theorem", "1", "--n", "5"],  # quadrature dim
                 ["sphere-check", "--n", "5"],
                 ["solve", "--h", "0.3"],                       # off the lattice
                 ["solve", "--region", "annulus:2,1"],
                 ["sphere-check", "--y", "a,b,c"],              # not numbers
                 ["solve", "--bc", f"file:{bad_file}"]):
        capsys.readouterr()
        assert run_cli(args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_bad_choice_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli(["covariance", "--theorem", "7"])
    assert exc.value.code == 2


def test_assertion_failure_exits_one(capsys):
    code = run_cli(["solve", "--p", "2", "--max-iter", "2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


# ---------------------------------------------------------------- rendering


def test_csv_rendering_is_lossless():
    x = 0.1 + 0.2  # not representable as a short decimal
    text = render_csv([{"v": x}])
    assert float(text.splitlines()[1]) == x
