"""Byte-for-byte comparison of CLI reports against pinned golden files.

Each file under tests/golden/ was written by the CLI before the speedup that
followed it was made; any change to a report's bytes fails here.  The
quadratic verify runs the batched curvature checks with odd vector and seed
counts; the empty-batches verify runs them with no vectors and no seeds.
"""

from pathlib import Path

import pytest

from circgeo.cli import main

GOLDEN = Path(__file__).parent / "golden"
QUADRATIC_PAIR = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"

CASES = {
    "verify_paper_example.json": [
        "verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "7",
    ],
    "scan_quadratic.json": ["scan", "--fields", QUADRATIC_PAIR, "--grid=-1.5,1.5,5"],
    "verify_cubic.json": ["verify", "--config", str(GOLDEN / "verify_cubic.config.json")],
    "verify_quadratic.json": [
        "verify", "--config", str(GOLDEN / "verify_quadratic.config.json"),
    ],
    "verify_empty_batches.json": [
        "verify", "--config", str(GOLDEN / "verify_empty_batches.config.json"),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
