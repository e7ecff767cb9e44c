"""Byte-for-byte comparison of CLI reports against pinned golden files.

Each file under tests/golden/ was written by the CLI before the speedup that
followed it was made; any change to a report's bytes fails here.  The
quadratic verify runs the batched curvature checks with odd vector and seed
counts; the empty-batches verify runs them with no vectors and no seeds.
The overrides verify, the eval reports and the CSV scan pin the config echo:
config-file tolerances under a --tol override, --x, --fields @file, and
every eval target at a definite and a skipped point.
"""

from pathlib import Path

import pytest

from circgeo.cli import main

GOLDEN = Path(__file__).parent / "golden"
QUADRATIC_PAIR = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"
# The dense cubic pair of the verify-generic benchmark.  Its grid puts one node
# on the degenerate surface A = B (x1 is the root there, found by bisection)
# and about half of the others where g is indefinite, so the scan pins x**3
# and every kind of scan row.
CUBIC_PAIR = (
    "A: 6 + x1^2 + x2^2 + x3^2 + 0.3*x1*x2*x3 + 0.2*x1^3 - 0.1*x2^3 + 0.25*x3^3"
    " + 0.5*x1*x2 - 0.4*x2*x3 + 3*x1 - 0.5*x3;"
    " B: 0.5 + 0.2*x1 - 0.3*x2 + 0.1*x3^2 + 0.15*x1*x2*x3 - 0.05*x1^3"
    " + 0.2*x2^2*x3 + 0.1*x1*x3^2"
)

CASES = {
    "verify_paper_example.json": [
        "verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "7",
    ],
    "scan_quadratic.json": ["scan", "--fields", QUADRATIC_PAIR, "--grid=-1.5,1.5,5"],
    "scan_cubic.json": [
        "scan", "--fields", CUBIC_PAIR, "--grid=-4.5,-2.803890692868853,4,-2,2,5,-2,2,5",
    ],
    "verify_cubic.json": ["verify", "--config", str(GOLDEN / "verify_cubic.config.json")],
    "verify_quadratic.json": [
        "verify", "--config", str(GOLDEN / "verify_quadratic.config.json"),
    ],
    "verify_empty_batches.json": [
        "verify", "--config", str(GOLDEN / "verify_empty_batches.config.json"),
    ],
    "verify_overrides.json": [
        "verify",
        "--config", str(GOLDEN / "verify_overrides.config.json"),
        "--tol", "identity_rel=1e-6",
        "--x", "1,-2,0.5",
        "--fields", f"@{GOLDEN / 'quadratic.fields'}",
    ],
    "scan_paper_example.csv": [
        "scan", "--fields", "paper-example", "--grid=-1,1.5,3", "--format", "csv",
    ],
}
# One definite point and one on the degenerate plane x1 = x3 per target.
for _what in ("metric", "christoffel", "nabla-q", "curvature", "sectional"):
    CASES[f"eval_{_what}.json"] = [
        "eval", _what, "--fields", "paper-example", "--point", "1.2,0.5,0.3", "--point", "1,1,1",
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
