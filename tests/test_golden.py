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

import json
import sys
from pathlib import Path

import pytest

from diraclab.cli import main

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


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if len(sys.argv) < 2 or unknown:
        sys.exit(f"usage: {sys.argv[0]} CASE [CASE ...]; unknown: {unknown}; "
                 f"cases: {' '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    for case in sys.argv[1:]:
        _artifact(case, GOLDEN / f"{case}.json")
