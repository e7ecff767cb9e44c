"""Byte-for-byte comparison of CLI reports against pinned golden files.

Each file under tests/golden/ was written by the CLI before the speedup that
followed it was made; any change to a report's bytes fails here.  The
quadratic verify runs the batched curvature checks on a quadratic pair.
The blocks verify spans more than one block of curvature points, and the
mixed-block verify puts a stencil skip, a definite and an indefinite point
in one block.
The overrides verify, the eval reports and the CSV scan pin the config echo:
config-file tolerances under a --tol override, --x, --fields @file, and
every eval target at a definite and a skipped point.  The mixed eval reports
put every kind of curvature skip in one block, each with its detail.
"""

import csv
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from circgeo.cli import main
from pairs import CUBIC_PAIR, QUADRATIC_PAIR

GOLDEN = Path(__file__).parent / "golden"

# The cubic scan's grid puts one node on the degenerate surface A = B (x1 is
# the root there, found by bisection) and about half of the others where g is
# indefinite, so the scan pins x**3 and every kind of scan row.
CASES = {
    "verify_paper_example.json": [
        "verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "7",
    ],
    # 100 curvature points, more than one block of them.
    "verify_paper_example_blocks.json": [
        "verify", "--fields", "paper-example", "--grid", "1.1,1.9,5", "--seed", "7",
    ],
    # One block holding a point whose curvature stencil meets the plane x1 = x3
    # (skipped), a definite point and an indefinite one.
    "verify_mixed_block.json": [
        "verify", "--fields", "paper-example", "--point", "0.1,0.05,0.0999989",
        "--point", "1.2,0.5,0.3", "--point", "1.5,1.2,1.9", "--seed", "3",
    ],
    "scan_quadratic.json": ["scan", "--fields", QUADRATIC_PAIR, "--grid=-1.5,1.5,5"],
    "scan_cubic.json": [
        "scan", "--fields", CUBIC_PAIR, "--grid=-4.5,-2.803890692868853,4,-2,2,5,-2,2,5",
    ],
    "verify_cubic.json": ["verify", "--config", str(GOLDEN / "verify_cubic.config.json")],
    "verify_quadratic.json": [
        "verify", "--config", str(GOLDEN / "verify_quadratic.config.json"),
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
# Every kind of skip in one block: a degenerate section, a point on the plane
# x1 = x2, an indefinite point, and two points whose curvature stencils meet
# the plane x1 = x3 (one on it, one with D ~ 0); curvature adds a definite point.
_MIXED = ["--point", "1.5,1.1,1.1", "--point", "1,1,1", "--point=-1,0,0",
          "--point", "0.1,0.05,0.0999989", "--point", "1.0,0.5,0.999998"]
CASES["eval_sectional_mixed.json"] = [
    "eval", "sectional", "--fields", "paper-example", "--x", "1,1,1.0000031234567", *_MIXED,
]
CASES["eval_curvature_mixed.json"] = [
    "eval", "curvature", "--fields", "paper-example", "--x", "1,1,1.0000031234567", *_MIXED,
    "--point", "1.2,0.5,0.3",
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _leaves(value, path=()):
    """(path, value) for each number, string, bool or null of a parsed report."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))
    else:
        yield path, value


def _parsed(name: str, text: str):
    """A JSON report, or a CSV one as a list of rows with its numbers (and the
    ';'-joined points) parsed."""
    if not name.endswith(".csv"):
        return json.loads(text)

    def cell(v):
        try:
            return [float(c) for c in v.split(";")] if ";" in v else float(v)
        except ValueError:
            return v

    return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def numeric_diff(name: str, old: str, new: str) -> list[str]:
    """For each key (the innermost field name) with values that moved between two reports:
    how many moved, of how many, and the largest relative change |new - old| / |old|
    (inf where old is 0 or either is not a number)."""
    before, after = dict(_leaves(_parsed(name, old))), dict(_leaves(_parsed(name, new)))
    totals, moved, largest = Counter(), Counter(), Counter()
    for path in before.keys() | after.keys():
        key = next(k for k in reversed(path) if isinstance(k, str))
        a, b = before.get(path), after.get(path)
        totals[key] += 1
        if repr(a) != repr(b):  # repr tells -0.0 from 0.0
            numbers = all(isinstance(v, float) for v in (a, b)) and a != 0.0
            moved[key] += 1
            largest[key] = max(largest[key], abs(b - a) / abs(a) if numbers else float("inf"))
    return [f"{name}: {key}: {moved[key]} of {totals[key]} moved, largest relative change"
            f" {largest[key]:.2g}" for key in sorted(moved)]


def test_numeric_diff_counts_moved_values_per_key():
    old = json.dumps({"records": [{"a": 1.0, "d": 2.0, "p": [0.0, 1.0]}, {"a": 4.0, "d": 2.0}]})
    new = json.dumps({"records": [{"a": 1.5, "d": 2.0, "p": [-0.0, 1.0]}, {"a": 4.0, "d": None}]})
    assert numeric_diff("r.json", old, new) == [
        "r.json: a: 1 of 2 moved, largest relative change 0.5",
        "r.json: d: 1 of 2 moved, largest relative change inf",
        "r.json: p: 1 of 2 moved, largest relative change inf",
    ]
    csv_old = "a,point\n1.0,1.0;2.0;3.0\n"
    assert numeric_diff("r.csv", csv_old, csv_old.replace("3.0", "3.3")) == [
        "r.csv: point: 1 of 3 moved, largest relative change 0.1",
    ]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py rewrites every golden file with the CLI
    # of this checkout, and prints the numeric diff of each whose bytes changed; review
    # the diff before committing it.  Each report is written to a temporary directory
    # first: a golden is replaced only when its run exits 0, and the run goes on to the
    # others, then exits 1 naming those it left as they were.
    _failed = []
    with tempfile.TemporaryDirectory() as _tmp:
        for _name, _argv in CASES.items():
            _out = Path(_tmp) / _name
            if main([*_argv, "--out", str(_out)]) != 0:
                _failed.append(_name)
                continue
            _old = (GOLDEN / _name).read_text()
            (GOLDEN / _name).write_bytes(_out.read_bytes())
            for _line in numeric_diff(_name, _old, _out.read_text()):
                print(_line)
    if _failed:
        raise SystemExit(f"the CLI did not exit 0, golden left as it was: {', '.join(_failed)}")
