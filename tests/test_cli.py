import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import circgeo.cli
import circgeo.connection
import circgeo.curvature
import circgeo.fields
import circgeo.sampling
from circgeo.cli import (
    DEFAULT_TOLERANCES,
    MAX_GRID_NODES,
    build_parser,
    cmd_scan,
    config_from_args,
    expand_grid,
    main,
    render_json,
)
from circgeo.errors import ConfigError
from pairs import QUADRATIC_PAIR


CURVATURE_CHECKS = ("identity-3.1", "identity-3.2", "identity-3.6", "theorem3-spread")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def run_json(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


class TestEval:
    def test_metric_record(self, tmp_path):
        code, report = run_json(
            tmp_path, "eval", "metric", "--fields", "paper-example", "--point", "1,0,0"
        )
        assert code == 0
        (rec,) = report["records"]
        assert rec["g"] == [4.0, 1.0, 1.0]
        assert rec["d"] == 18.0
        assert rec["definite"] is True

    @pytest.mark.parametrize("exponent, x1, g", [
        # 2^53 + 1 is odd; as a float it would be 2^53, and (-1)^(2^53) is 1.
        (2**53 + 1, "-1", 2.0),
        (2**1020 + 1, "-1", 2.0),
        (2**1020 + 1, "1", 4.0),
        (2**1020 + 1, "0.5", 3.0),
    ], ids=["2^53+1-at-minus-1", "2^1020+1-at-minus-1", "2^1020+1-at-1", "2^1020+1-at-half"])
    def test_exponent_past_a_float_is_exact(self, tmp_path, exponent, x1, g):
        code, report = run_json(tmp_path, "eval", "metric", "--fields",
                                f"A: x1^{exponent} + 3; B: 1", f"--point={x1},0,0")
        assert code == 0
        (rec,) = report["records"]
        assert rec["g"] == [g, 1.0, 1.0]
        assert rec["d"] == (g - 1.0) * (g + 2.0)

    def test_power_past_the_float_range_names_the_point(self, capsys):
        code, captured = run(capsys, "eval", "metric", "--fields",
                             f"A: x1^{2**1020 + 1} + 3; B: 1", "--point=2,0,0")
        assert code == 2
        assert captured.err == (
            "circgeo: error: point [2.0, 0.0, 0.0] is out of range: D = (A - B)(A + 2B) = inf\n"
        )
        assert captured.out == ""

    def test_christoffel_degenerate_point_skipped(self, tmp_path):
        code, report = run_json(
            tmp_path, "eval", "christoffel", "--fields", "paper-example", "--point", "1,1,1"
        )
        assert code == 0
        (rec,) = report["records"]
        assert rec["status"] == "skipped"
        assert rec["reason"] == "DegenerateMetric"

    @pytest.mark.parametrize("what, key", [
        ("christoffel", "gamma"), ("nabla-q", "components"), ("curvature", "r_down"),
    ])
    def test_csv_flattens_nested_arrays(self, tmp_path, what, key):
        argv = ["eval", what, "--fields", "paper-example", "--point", "1,0.5,0"]
        code, report = run_json(tmp_path, *argv)
        assert code == 0
        code = main([*argv, "--format", "csv", "--out", str(tmp_path / "out.csv")])
        assert code == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        values = np.ravel(report["records"][0][key]).tolist()
        assert row[key] == ";".join(map(repr, values))

    def test_sectional_dependent_orbit_skipped(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "eval", "sectional",
            "--fields", "paper-example",
            "--point", "1,0,0",
            "--x", "1,1,1",
        )
        assert code == 0
        (rec,) = report["records"]
        assert rec["status"] == "skipped"
        assert rec["reason"] == "DependentOrbit"
        # x alone decides it: it comes before a degenerate or indefinite point's skip.
        code, report = run_json(
            tmp_path,
            "eval", "sectional",
            "--fields", "paper-example",
            "--point", "1,1,1",
            "--point=-1,0,0",
            "--point", "1.5,1.2,1.3",
            "--x", "1,1,1",
        )
        assert code == 0
        detail = "orbit of (1.0, 1.0, 1.0) is linearly dependent (cubic = 0.0)"
        assert [(r["status"], r["reason"], r["detail"]) for r in report["records"]] == [
            ("skipped", "DependentOrbit", detail)] * 3

    def test_sectional_degenerate_section_skipped(self, tmp_path):
        # x and qx are nearly parallel, so the section's Gram determinant is tiny.
        # The detail gives the pair as Python floats, whatever numpy's print options.
        with np.printoptions(precision=3):
            code, report = run_json(
                tmp_path,
                "eval", "sectional",
                "--fields", "paper-example",
                "--point", "1.5,1.1,1.1",
                "--x", "1,1,1.0000031234567",
            )
        assert code == 0
        (rec,) = report["records"]
        assert rec["status"] == "skipped"
        assert rec["reason"] == "DegenerateSection"
        assert rec["detail"] == (
            "Gram determinant 1.559783413540572e-09 too small for pair"
            " ((1.0, 1.0, 1.0000031234567), (1.0, 1.0000031234567, 1.0))"
        )

    @pytest.mark.parametrize("x", [(1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (-0.3, 1.7, 0.9)])
    def test_mu_does_not_depend_on_the_scale_of_x(self, tmp_path, x):
        # mu has degree 0 in x.  At 2**-270 x, R(x, qx, x, qx) and the Gram determinant
        # (degree 4) would be subnormal, and at 2**-500 x the cubic (degree 3) would
        # underflow; mu, spread and verdict keep the bits of x, in eval and scan.
        runs = []
        for k in (0, -270, -500):
            text = ",".join(repr(float(np.ldexp(v, k))) for v in x)
            _, sectional = run_json(tmp_path, "eval", "sectional", "--fields", "paper-example",
                                    "--point", "1.2,0.5,0.3", "--point", "1.5,1.1,0.7",
                                    f"--x={text}")
            _, scan = run_json(tmp_path, "scan", "--fields", "paper-example",
                               "--grid", "1.1,1.9,3", f"--x={text}")
            assert {r["status"] for r in sectional["records"]} == {"pass"}
            assert sum(r["mu_e1"] is not None for r in scan["records"]) == 9
            runs.append(repr([[(r["mu"], r["spread"]) for r in sectional["records"]],
                              [r["mu_e1"] for r in scan["records"]]]))
        assert runs[0] == runs[1] == runs[2]

    def test_curvature_and_nabla_q(self, tmp_path):
        code, report = run_json(
            tmp_path, "eval", "nabla-q", "--fields", "paper-example", "--point", "1,0,0"
        )
        assert code == 0
        assert report["records"][0]["max_norm"] <= 1e-12
        code, report = run_json(
            tmp_path, "eval", "curvature", "--fields", "paper-example", "--point", "1,0,0"
        )
        assert code == 0
        assert len(report["records"][0]["r_down"]) == 3


class TestVerify:
    def test_paper_example_grid_passes(self, tmp_path):
        # Grid chosen away from the degenerate planes x1 = x3, x1+x2+x3 = 0.
        code, report = run_json(
            tmp_path, "verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "3",
        )
        assert code != 2
        degenerate_free = all(r["status"] != "fail" for r in report["records"])
        assert degenerate_free
        assert code == 0
        assert report["summary"]["fail_count"] == 0

    def test_constant_fields_flat_baseline(self, tmp_path):
        code, report = run_json(
            tmp_path, "verify", "--fields", "A: 2; B: 1", "--point", "0.5,0.5,0.5"
        )
        assert code == 0
        checks = {r["check"]: r for r in report["records"]}
        assert checks["flat-baseline"]["status"] == "pass"
        assert checks["theorem1-parallel"]["status"] == "pass"

    def test_converse_fields(self, tmp_path):
        code, report = run_json(
            tmp_path, "verify", "--fields", "A: x1; B: 0", "--point", "1,0,0"
        )
        assert code == 0
        checks = {r["check"]: r for r in report["records"]}
        assert checks["theorem1-converse"]["status"] == "pass"
        assert checks["theorem1-converse"]["nabla_q"] > 1e-6

    @pytest.mark.parametrize(
        "fields, point, branch",
        [
            # grad A - (grad B) . S is (2 x1, 0, 0): zero at the point, not around it.
            (
                "A: 4*x1 + 2*x2 + x1^2; B: x1 + 2*x2 + 3*x3", "0,1.2,0.3",
                {"theorem1-parallel": ("pass", None),
                 **dict.fromkeys(CURVATURE_CHECKS, ("skipped", "q is not parallel near the point"))},
            ),
            # Decimal coefficients: the defect rounds to 5.6e-17, within defect_zero.
            (
                "A: 0.3*x1 + 0.1*x2 + 0.1*x3 + 2; B: 0.1*x1 + 0.2*x2 + 0.2*x3", "0.5,0.2,0.1",
                dict.fromkeys(("theorem1-parallel", *CURVATURE_CHECKS), ("pass", None)),
            ),
            # A defect of 0.01 is neither zero nor large enough for the converse.
            (
                "A: 4.01*x1 + 2*x2; B: x1 + 2*x2 + 3*x3", "1.5,1.2,1.1",
                {"theorem1-parallel": ("skipped", "defect neither zero nor large")},
            ),
        ],
        ids=["parallel-at-the-point-only", "parallel-up-to-rounding", "small-defect"],
    )
    def test_theorem1_and_curvature_branches(self, tmp_path, fields, point, branch):
        code, report = run_json(tmp_path, "verify", "--fields", fields, "--point", point)
        assert code == 0
        checks = {r["check"]: (r["status"], r.get("reason")) for r in report["records"]}
        assert checks == {
            **dict.fromkeys(
                ("christoffel-dual-path", "metric-compatibility", "metric-inverse"), ("pass", None)
            ),
            **branch,
        }

    def test_summary_counts_consistent(self, tmp_path):
        code, report = run_json(
            tmp_path, "verify", "--fields", "paper-example", "--seed", "11"
        )
        s = report["summary"]
        assert s["pass_count"] + s["fail_count"] + s["skipped_count"] == s["total"]

    def test_one_curvature_tensor_per_point(self, tmp_path, monkeypatch):
        # Count the calls and the points of every call through every binding:
        # curvature_at in the CLI and in the curvature module (sectional_curvature
        # and theorem3_check build their own tensor; verify calls neither),
        # christoffel_general in the CLI, the curvature stencil and
        # metric_compatibility_residual, the closed form, the defect and nabla q in
        # the CLI and the connection module, domain_check in the CLI, the curvature
        # stencil, metric_at and the sampler, and the field jets wherever a module
        # could bind field_jet or field_grad, connection among them.  A call over an
        # (n, 3) block, on its jet of (n,) columns or on its gamma[s, i, j, n], counts
        # n rows, a call at one point one.  Constant fields add the flat-baseline
        # check, which reads the same tensor.
        made = []  # (name, binding module, rows) of each call, in order
        takes_jet = ("christoffel_general", "christoffel_closed", "parallel_defect")

        def counting(name, original, binding):
            def wrapper(*args, **kwargs):
                if name in takes_jet:  # a jet of floats or of (n,) columns
                    rows = np.size(args[0][0])
                elif name == "nabla_q":  # gamma[s, i, j] or gamma[s, i, j, n]
                    rows = args[0].shape[3] if args[0].ndim == 4 else 1
                else:  # a point or a block, or curvature_at's record of one
                    points = getattr(args[1], "point", args[1])
                    rows = len(points) if np.ndim(points) == 2 else 1
                made.append((name, binding, rows))
                return original(*args, **kwargs)

            return wrapper

        everywhere = (circgeo.cli, circgeo.connection, circgeo.curvature, circgeo.fields)

        for name, module, bindings in (
            ("curvature_at", circgeo.curvature, (circgeo.cli, circgeo.curvature)),
            (
                "christoffel_general", circgeo.connection,
                (circgeo.cli, circgeo.connection, circgeo.curvature),
            ),
            *((name, circgeo.connection, (circgeo.cli, circgeo.connection))
              for name in ("christoffel_closed", "parallel_defect", "nabla_q")),
            (
                "domain_check", circgeo.fields,
                (circgeo.cli, circgeo.curvature, circgeo.fields, circgeo.sampling),
            ),
            ("field_jet", circgeo.fields, everywhere),
            ("field_grad", circgeo.fields, everywhere),
        ):
            original = getattr(module, name)
            for binding in bindings:
                monkeypatch.setattr(binding, name, counting(name, original, binding),
                                    raising=False)

        def calls(name, *bindings):
            """The rows of each call of name, in order, through bindings (default: any)."""
            return [n for key, via, n in made if key == name and via in (bindings or [via])]

        def counted(*argv):
            made.clear()
            code, report = run_json(tmp_path, *argv)
            assert code == 0
            return report

        for fields, n_reached in (("paper-example", 18), ("A: 2; B: 1", 27)):
            report = counted("verify", "--fields", fields, "--grid", "1.1,1.9,3", "--seed", "7")
            reached = [r for r in report["records"] if r["check"] == "identity-3.2"]
            assert len(reached) == n_reached
            assert sum(calls("curvature_at")) == len(reached)
            # The finite-difference stencil takes 7 Christoffel rows per tensor
            # row; each verified point takes 2 more (dual path, compatibility).
            verified = [r for r in report["records"] if r["check"] == "metric-inverse"]
            assert len(verified) == n_reached
            assert sum(calls("christoffel_general")) == 7 * len(reached) + 2 * len(verified)
            # The grid is one classify block: the closed form, the defect and nabla q
            # take its verified rows at once, and the general Gamma is taken a point
            # at a time, once in the CLI and once in metric_compatibility_residual.
            for name in ("christoffel_closed", "parallel_defect", "nabla_q"):
                assert calls(name, circgeo.cli) == [len(verified)]
                assert calls(name, circgeo.connection) == []
            assert calls("christoffel_general", circgeo.cli) == [1] * len(verified)
            assert calls("christoffel_general", circgeo.connection) == [1] * len(verified)
            # The block's metric is checked once, and no verified point's again.
            assert calls("domain_check") == [27]
            assert calls("domain_check", circgeo.fields) == []
            # Each verified point's jet is evaluated once, with its block's, for all of
            # its connection checks; the stencil evaluates 7 per tensor row.
            assert calls("field_jet", circgeo.cli) == [len(verified)]
            assert calls("field_jet", circgeo.curvature) == [len(reached)] * 7
            assert sum(calls("field_jet")) == len(verified) + 7 * len(reached)
            assert calls("field_jet", circgeo.connection) == calls("field_grad") == []

        # A point whose stencil meets the plane x1 = x3 takes its tensor row like any
        # other: its skip is read from the block's tensor, not from a tensor of its own.
        report = counted("verify", "--fields", "paper-example", "--point", "0.1,0.05,0.0999989",
                         "--point", "1.2,0.5,0.3", "--point", "1.5,1.2,1.9", "--seed", "3")
        skipped = {r["point_index"] for r in report["records"] if r["check"] == "identity-3.2"
                   and r["status"] == "skipped"}
        assert skipped == {0}
        assert calls("curvature_at") == [3]
        assert sum(calls("christoffel_general")) == 7 * 3 + 2 * 3
        # Only the skipped row's stencil is checked again, to name its first D ~ 0.
        assert calls("domain_check", circgeo.cli) == [3]
        assert calls("domain_check", circgeo.fields) == []
        assert calls("domain_check", circgeo.curvature) == [7]

        # eval builds one tensor block per block of SCAN_BLOCK points, and checks
        # the metric of each block once; the sampler checks its draws in one batch,
        # since the pair is definite everywhere and every draw is admissible.
        config = tmp_path / "points.json"
        config.write_text(json.dumps({"n_points": 2500}))
        for what in ("curvature", "sectional"):
            report = counted("eval", what, "--config", str(config), "--fields", QUADRATIC_PAIR)
            assert report["summary"]["pass_count"] == 2500
            assert calls("curvature_at") == [1024, 1024, 452]
            assert sum(calls("christoffel_general")) == 7 * 2500
            assert calls("domain_check", circgeo.cli, circgeo.curvature, circgeo.fields) == [
                1024, 1024, 452]
            assert calls("domain_check", circgeo.sampling) == [2500]

        # A scan of 20^3 nodes: 8 blocks, one metric check and one tensor block each.
        report = counted("scan", "--fields", QUADRATIC_PAIR, "--grid=-1.5,1.5,20")
        assert report["summary"]["pass_count"] == 8000
        assert calls("domain_check") == calls("curvature_at") == [1024] * 7 + [832]

    def test_error_in_a_block_names_its_first_point(self, capsys):
        # Point 0 passes.  Point 1, in the same block, overflows only in Theorem 3's
        # tolerance spread_rel * max|mu|, where its |mu| exceeds 1.8.  The block is
        # redone in halves down to that point alone, so the message is that of a
        # point-by-point run.
        argv = ("verify", "--fields", "paper-example", "--seed", "3", "--tol", "spread_rel=1e308",
                "--point", "1.2,0.5,0.3")
        code, captured = run(capsys, *argv)
        assert code == 0
        code, captured = run(capsys, *argv, "--point", "1.5,1.2,1.49")
        assert code == 2
        assert captured.err == (
            "circgeo: error: point [1.5, 1.2, 1.49] is out of range: overflow encountered in"
            " multiply\n"
        )
        assert captured.out == ""

    def test_failed_block_is_redone_from_its_draws(self, capsys, monkeypatch):
        # At point 1, D = (A - B)(A + 2B) overflows: the block is redone in halves
        # against the run's one set of random vectors and orbit seeds, drawn before any
        # block, and the error names point 1, as a point-by-point run does
        # (test_block_verify_matches_point_by_point_verify compares the two over drawn
        # pairs and points).
        argv = ("verify", "--fields", "A: 2 + 4*x1 + 2*x2; B: 1 + x1 + 2*x2 + 3*x3",
                "--point", "1.2,0.5,0.3", "--point=-1.3,0.25,5e156", "--point", "1.5,1.2,1.3",
                "--seed", "23")
        blocks = []
        original = circgeo.cli._verify_block

        def counting(*args):
            blocks.append(len(args[-1]))  # the block, work's last argument
            return original(*args)

        monkeypatch.setattr(circgeo.cli, "_verify_block", counting)
        # The block of three is halved: point 0 alone passes, and of the other two,
        # which overflow together, point 1 alone is named.  In blocks of one, point 1
        # runs once, under the error's wording, and point 2 never.
        for size, redone in ((circgeo.cli.SCAN_BLOCK, [3, 1, 2, 1]), (1, [1, 1])):
            monkeypatch.setattr(circgeo.cli, "SCAN_BLOCK", size)
            blocks.clear()
            code, captured = run(capsys, *argv)
            assert (code, blocks) == (2, redone)
            assert captured.err == (
                "circgeo: error: point [-1.3, 0.25, 5e+156] is out of range:"
                " D = (A - B)(A + 2B) = -inf\n"
            )
            assert captured.out == ""

    def test_one_point_out_of_range_costs_a_bisection(self, capsys, monkeypatch, tmp_path):
        # 1,023 points of [1.1, 1.9]^3, then (1e200, 0, 0), where D overflows, fill one
        # block.  Each level of the bisection runs a half that passes and the half that
        # overflows, so the point is named after 2 log2(1,024) + 1 = 21 block calls.
        rng = np.random.default_rng(4)
        points = [*rng.uniform(1.1, 1.9, size=(1023, 3)).tolist(), [1e200, 0.0, 0.0]]
        config = tmp_path / "points.json"
        config.write_text(json.dumps({"points": points}))
        blocks = []
        original = circgeo.cli._verify_block

        def counting(*args):
            blocks.append(len(args[-1]))
            return original(*args)

        monkeypatch.setattr(circgeo.cli, "_verify_block", counting)
        code, captured = run(capsys, "verify", "--fields", "paper-example", "--config", str(config))
        assert code == 2
        assert captured.err == (
            "circgeo: error: point [1e+200, 0.0, 0.0] is out of range: D = (A - B)(A + 2B) = inf\n"
        )
        assert blocks == [1024] + [2**k for k in range(9, -1, -1) for _ in range(2)]

    @pytest.mark.parametrize("bad", [0, 1, 2, 511, 512, 700, 1022, 1023])
    def test_bisection_bound_holds_wherever_the_point_is(self, bad):
        # One point of a full block overflows, wherever it is: the block is halved
        # down to it in at most 2 log2(SCAN_BLOCK) + 1 calls of work, the last of them
        # on the point alone, which is named.
        calls = []

        def work(start, block):
            calls.append((start, len(block)))
            if start <= bad < start + len(block):
                np.float64(1e300) * np.float64(1e300)  # raises under _in_blocks' errstate
            return list(range(start, start + len(block)))

        points = [[float(n), 0.0, 0.0] for n in range(circgeo.cli.SCAN_BLOCK)]
        named = rf"^point \[{bad}\.0, 0\.0, 0\.0\] is out of range: overflow"
        with pytest.raises(ConfigError, match=named):
            circgeo.cli._in_blocks(points, circgeo.cli.SCAN_BLOCK, work)
        assert len(calls) <= 2 * math.log2(circgeo.cli.SCAN_BLOCK) + 1
        assert calls[-1] == (bad, 1)

    def test_redone_block_names_its_first_point_out_of_range(self, capsys, monkeypatch):
        # At point 0 the closed form's (A + B) A_1 overflows, and at point 1 D is NaN:
        # over the block either raises, and the block is redone in halves.  Point 0
        # alone raises in the same closed form, taken over its block of one, so it is
        # named with numpy's words for the overflow, as eval and scan word one, and as a
        # point-by-point run names it.
        fields = f"A: 1{'0' * 300}*x1 + 2; B: 1{'0' * 299}*x1"
        for size in (circgeo.cli.SCAN_BLOCK, 1):
            monkeypatch.setattr(circgeo.cli, "SCAN_BLOCK", size)
            code, captured = run(capsys, "verify", "--fields", fields,
                                 "--point", "1e-150,0.5,0.3", "--point", "1e10,0.5,0.3")
            assert code == 2
            assert captured.err == (
                "circgeo: error: point [1e-150, 0.5, 0.3] is out of range:"
                " overflow encountered in multiply\n"
            )
            assert captured.out == ""

    # Each point lies 1e-6 * (1 + x1) from the plane x1 = x3, so the curvature
    # stencil point p - h e1 is degenerate while p is not.  At the first point
    # metric-inverse fails: its absolute tolerance is below the rounding of
    # g * g^-1 with |g^-1| ~ 1e5.
    @pytest.mark.parametrize(
        "point, failed", [("1.0,0.5,0.999998", ["metric-inverse"]), ("0.1,0.05,0.0999989", [])]
    )
    def test_degenerate_stencil_point_skips_curvature_checks(self, tmp_path, point, failed):
        code, report = run_json(tmp_path, "verify", "--fields", "paper-example", "--point", point)
        by_status = {}
        for r in report["records"]:
            by_status.setdefault(r["status"], []).append(r)
        skipped = by_status["skipped"]
        assert [r["check"] for r in skipped] == [
            "identity-3.1", "identity-3.2", "identity-3.6", "theorem3-spread"
        ]
        assert all(r["reason"] == "DegenerateMetric" for r in skipped)
        assert [r["check"] for r in by_status.get("fail", [])] == failed
        assert len(by_status["pass"]) + len(failed) == 4
        assert code == (1 if failed else 0)

    def test_forced_failure_exits_1(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "verify",
            "--fields", "paper-example",
            "--point", "1,0,0",
            "--tol", "metric_compat=1e-300",
        )
        assert code == 1
        assert report["summary"]["fail_count"] >= 1


def on_the_bound(x):
    """0.1 |x|^3, |x| summed in order and cubed by products: within rounding of the
    bound, so that whether a draw is accepted rests on how the bound rounds."""
    norm = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return 0.1 * (norm * norm * norm)


# Cubics that _orbit_seeds takes in place of independence_cubic, for one draw.
STUB_CUBICS = {
    "rarely": lambda x: np.where(x[0] > 1.98, 1e9, 0.0),
    "never": lambda x: np.zeros_like(x[0]),
    "on-the-bound": on_the_bound,
}


@pytest.mark.parametrize("n_seeds", [0, 1, 3, 20])
@pytest.mark.parametrize("accepts", ["cubic", "rarely", "never", "on-the-bound"])
def test_bulk_seed_draws_replay_one_at_a_time(monkeypatch, n_seeds, accepts):
    # _orbit_seeds draws one random_vector at a time and keeps each x with
    # |cubic(x)| > 0.1 |x|^3, until it has N_SEEDS seeds or has drawn 100 * N_SEEDS.
    # "rarely" accepts about 1 draw in 200, so small budgets run out part way;
    # "never" spends the whole budget and keeps nothing; "on-the-bound" puts every
    # draw within rounding of the bound.
    monkeypatch.setattr(circgeo.cli, "N_SEEDS", n_seeds)
    if accepts != "cubic":
        monkeypatch.setattr(circgeo.cli, "independence_cubic", STUB_CUBICS[accepts])
    cubic, draw = circgeo.cli.independence_cubic, circgeo.sampling.random_vector
    draws = []

    def recording(rng):
        draws.append(draw(rng))
        return draws[-1]

    monkeypatch.setattr(circgeo.sampling, "random_vector", recording)
    for seed in range(6):
        draws.clear()
        rng = np.random.default_rng(seed)
        seeds = circgeo.cli._orbit_seeds(rng)
        kept = [x for x in draws if abs(cubic(x)) > 0.1 * float(np.linalg.norm(x)) ** 3]
        assert seeds.shape == (len(kept), 3)
        assert [hexes(x) for x in seeds] == [hexes(x) for x in kept]
        if len(draws) < 100 * n_seeds:  # stopped at its last seed
            assert len(kept) == n_seeds and kept[-1] is draws[-1]
        else:
            assert len(draws) == 100 * n_seeds and len(kept) <= n_seeds
        # The generator has moved on by exactly the draws made.
        replay = np.random.default_rng(seed)
        for _ in draws:
            draw(replay)
        assert rng.bit_generator.state == replay.bit_generator.state
        if accepts == "never":
            assert len(seeds) == 0


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        argv = ["verify", "--fields", "paper-example", "--seed", "42"]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        _, r1 = run_json(tmp_path, "verify", "--fields", "paper-example", "--seed", "1", name="a.json")
        _, r2 = run_json(tmp_path, "verify", "--fields", "paper-example", "--seed", "2", name="b.json")
        assert r1["records"] != r2["records"]


class TestScan:
    def test_line_scan(self, tmp_path):
        code, report = run_json(
            tmp_path,
            "scan",
            "--fields", "paper-example",
            "--grid", "0.5,1.5,11,0,0,1,0,0,1",
        )
        assert code == 0
        assert len(report["records"]) == 11
        assert all(r["status"] == "pass" for r in report["records"])

    def test_degenerate_rows_flagged(self, tmp_path):
        # Grid crossing the plane x1 = x3.
        code, report = run_json(
            tmp_path, "scan", "--fields", "paper-example", "--grid", "1,1,1,2,2,1,0,2,3"
        )
        assert code == 0
        skipped = [r for r in report["records"] if r["status"] == "skipped"]
        assert any(r["reason"] == "DegenerateMetric" for r in skipped)

    def test_missing_grid_is_config_error(self, capsys):
        code, captured = run(capsys, "scan", "--fields", "paper-example")
        assert code == 2
        assert "error" in captured.err

    def test_zero_steps_is_config_error(self):
        with pytest.raises(ConfigError):
            expand_grid([0.0, 1.0, 0])

    def test_fractional_steps_is_config_error(self):
        # int() would truncate 2.5 to 2 steps; 3.0 is whole and stays valid.
        assert len(expand_grid([0, 1, 2, 0, 1, 3.0, 0, 1, 1])) == 6
        with pytest.raises(ConfigError, match=r"got \[1.1, 1.9, 2.5\]"):
            expand_grid([1.1, 1.9, 2.5])

    # Only the cap is exercised: every grid below is rejected before any axis
    # is built, so none is allocated.
    @pytest.mark.parametrize(
        "grid",
        [
            [0.0, 1.0, 10**9],
            [0.0, 1.0, 101],  # 101**3 nodes, just over the cap
            [0, 1, 2, 0, 1, 10**6, 0, 1, 1],
            [[0, 1, 1000], [0, 1, 1000], [0, 1, 2]],
        ],
        ids=["cube-1e9", "cube-101", "axes-2e6", "triples-2e6"],
    )
    def test_oversized_grid_is_config_error(self, grid):
        with pytest.raises(ConfigError, match=str(MAX_GRID_NODES)):
            expand_grid(grid)

    # Both bounds are finite but hi - lo is not; refused before any axis is built.
    @pytest.mark.parametrize(
        "grid", [[-1e308, 1e308, 3], [0, 1, 2, -1e308, 1e308, 2, 0, 1, 2]], ids=["cube", "axis"]
    )
    def test_overflowing_grid_span_is_config_error(self, grid):
        with pytest.raises(ConfigError, match="grid span"):
            expand_grid(grid)

    # _check_finite does not read a record's point, so every node must be finite.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False),
                              st.integers(1, 4)), min_size=3, max_size=3))
    @example([(0.0, 0.0, 1), (0.0, 0.0, 1), (0.0, 1.7976931348623157e308, 4)])
    def test_grid_nodes_are_finite_python_floats(self, axes):
        grid = [list(axis) for axis in axes]
        if not all(math.isfinite(hi - lo) for lo, hi, _ in axes):
            with pytest.raises(ConfigError, match="grid span"):
                expand_grid(grid)
            return
        nodes = expand_grid(grid)
        assert all(type(c) is float and math.isfinite(c) for p in nodes for c in p)

    @pytest.mark.parametrize("command", ["scan", "verify"])
    def test_oversized_grid_exits_2(self, capsys, tmp_path, command):
        code, captured = run(
            capsys, command, "--fields", "paper-example", "--grid", "0,1,1000000000"
        )
        assert code == 2
        assert "nodes" in captured.err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid": [0, 1, 10**9]}))
        code, captured = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert "nodes" in captured.err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan",
                "--fields", "paper-example",
                "--grid", "1.1,1.5,3,0,0,1,0,0,1",
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {"a", "b", "d", "definite", "mu_e1"} <= set(rows[0])


def test_render_json_never_holds_the_document(tmp_path):
    args = build_parser().parse_args([
        "scan",
        "--fields", "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3",
        "--grid=-1.5,1.5,10",
    ])
    report = cmd_scan(config_from_args(args))
    out = tmp_path / "report.json"
    with out.open("w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            render_json(report, fh)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    # json.dumps would hold the whole text, and its pieces, at once.
    assert peak < out.stat().st_size / 2


def stdlib_json(report) -> str:
    """The text json.dump writes for a report with render_json's options, and its newline."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def rendered(report) -> str:
    fh = io.StringIO()
    render_json(report, fh)
    return fh.getvalue()


class Real(float):
    def __repr__(self):  # json writes float.__repr__, as for any float subclass
        return "Real"


class Whole(int):
    def __repr__(self):  # as an IntEnum's repr is not its value
        return "Whole"


class Text(str):
    pass


# Keys shared by many dicts, so that their layouts are cached and reused; '%' is
# special in a layout's template.
LAYOUT_KEYS = st.sampled_from(["check", "point", "status", "%s", "a%", "\u00e9", "z\n"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # past 64 bits too
    st.integers().map(Whole),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(Real),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.text(st.characters(exclude_categories=())),  # control characters and lone surrogates
    st.text().map(Text),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(LAYOUT_KEYS | st.text(max_size=3), inner, max_size=4),
        st.dictionaries(st.text(max_size=3).map(Text), inner, max_size=2),
        # Keys json converts: numbers and bools sort together, None sorts alone.
        st.dictionaries(st.integers() | st.booleans()
                        | st.floats(allow_nan=False, allow_infinity=False), inner, max_size=3),
        st.dictionaries(st.none(), inner, max_size=1),
    ),
    max_leaves=12,
)
RECORDS = st.lists(st.dictionaries(LAYOUT_KEYS, JSON_VALUES, max_size=5), max_size=6)


# One list object in consecutive records at one level, at two levels, in records that
# are not consecutive, twice in one list, and in config as well.
_P, _Q = [1.0, -2.5, 3e-9], [0.5, 2.0]


@settings(max_examples=200, deadline=None)
@example({"config": {}, "records": [{"point": _P, "check": "a"}, {"point": _P, "check": "b"}],
          "summary": {}})
@example({"records": [{"point": _P}, _P, {"a": {"point": _P}}, {"point": _P}, [_P, [_P]]]})
@example({"records": [{"point": _P}, {"point": _Q}, {"point": _P}, {"q": [_Q, _Q], "p": _P}]})
@example({"config": {"points": [_P, _Q], "x": _Q}, "records": [{"point": _P}, {"point": _Q}],
          "summary": {"p": _P}})
@given(st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({"config": JSON_VALUES, "records": RECORDS, "summary": JSON_VALUES}),
    st.dictionaries(LAYOUT_KEYS, RECORDS | JSON_VALUES, max_size=4),
    st.dictionaries(st.integers(), RECORDS | JSON_VALUES, max_size=3),
))
def test_render_json_writes_what_json_dump_writes(report):
    assert rendered(report) == stdlib_json(report)


@pytest.mark.parametrize("report", [
    float("nan"),
    {"config": {}, "records": [{"mu": [1.0, float("inf")]}], "summary": {}},
    [{"a": -float("inf")}],
    {"a": (np.float64("nan"),)},
    {float("nan"): 1},
    {"records": [{"x": object()}]},
    {"a": {1, 2}},
    [b"bytes"],
    {"a": np.int64(1)},
    {"a": {(1, 2): 3}},
    {1: float("nan"), Fraction(3, 2): 0},  # json reads the first key, then its value
], ids=["nan", "inf-in-record", "minus-inf", "numpy-nan", "nan-key", "object-in-record",
        "set", "bytes", "numpy-int", "tuple-key", "value-before-next-key"])
def test_render_json_raises_what_json_dump_raises(report):
    with pytest.raises((TypeError, ValueError)) as expected:
        stdlib_json(report)
    with pytest.raises(expected.type) as got:
        rendered(report)
    assert (type(got.value), str(got.value)) == (expected.type, str(expected.value))


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN.glob("*.json") if not p.name.endswith(".config.json")))
def test_golden_reports_are_in_the_stdlib_format(name):
    # The goldens pin json.dump's format, not render_json's.
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def report_of(argv: list[str]) -> dict:
    """The report a command builds, in-process, before it is rendered."""
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if args.command == "eval":
        return circgeo.cli.cmd_eval(config, args.what)
    return circgeo.cli.cmd_verify(config) if args.command == "verify" else cmd_scan(config)


def test_records_of_a_point_share_its_list():
    report = report_of(["verify", "--fields", "paper-example", "--seed", "3"])
    lists = {}
    for r in report["records"]:
        assert lists.setdefault(r["point_index"], r["point"]) is r["point"]
    assert len(lists) == 10 and len(report["records"]) > 10


def value_types(value):
    """The exact type of value and of everything in it; ("key", type) for a dict's keys."""
    yield type(value)
    if isinstance(value, dict):
        for k, v in value.items():
            yield "key", type(k)
            yield from value_types(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from value_types(v)


# A definite point, points on the planes x1 = x2 and x1 = x3 (one near it, whose
# curvature stencil meets it) and an indefinite point.
_POINTS = ["--point", "1.2,0.5,0.3", "--point", "1,1,1", "--point", "0.1,0.05,0.0999989",
           "--point=-1,0,0"]


@pytest.mark.parametrize("argv", [
    *(["eval", what, "--fields", "paper-example", *_POINTS]
      for what in ("metric", "christoffel", "nabla-q", "curvature", "sectional")),
    ["eval", "sectional", "--fields", "paper-example", "--x", "1,1,1", *_POINTS],
    ["verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "7"],
    ["verify", "--fields", "A: 2; B: 1", "--point", "1,2,3", "--seed", "1"],
    ["verify", "--fields", QUADRATIC_PAIR, "--seed", "5"],
    ["scan", "--fields", "paper-example", "--grid=-1,1.5,3"],
], ids=[*(f"eval-{what}" for what in ("metric", "christoffel", "nabla-q", "curvature",
                                       "sectional")),
        "eval-sectional-dependent-orbit", "verify-grid", "verify-constant", "verify-sampled",
        "scan"])
def test_report_values_have_exact_builtin_types(argv):
    # numpy scalars render as json renders their builtin values, but a report holds none.
    assert set(value_types(report_of(argv))) <= {
        dict, list, str, int, float, bool, type(None), ("key", str)}


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[str]]:
    """The commands of README.md's `Examples:` block, each split into words."""
    block = README.read_text(encoding="utf-8").split("Examples:\n\n```sh\n", 1)[1]
    return [shlex.split(line) for line in block.split("```", 1)[0].splitlines()]


@pytest.mark.parametrize("words", readme_examples(), ids=lambda words: words[1])
def test_readme_examples_exit_0(tmp_path, monkeypatch, words):
    monkeypatch.chdir(tmp_path)  # the verify example writes report.json
    assert words[0] == "circgeo"
    assert main(words[1:]) == 0


def test_readme_names_every_flag_and_config_key():
    # The CLI section names each option of every subcommand and nothing else, and
    # its config table has one row per CONFIG_KEYS key.
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subcommands = next(a for a in build_parser()._actions if a.choices).choices.values()
    options = {o for sp in subcommands for a in sp._actions for o in a.option_strings}
    assert named == options - {"-h", "--help"}
    table = section.split("| key | flag | value |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    keys = [re.match(r"\| `(\w+)` \|", line).group(1) for line in table.splitlines()]
    assert sorted(keys) == sorted(circgeo.cli.CONFIG_KEYS)


class TestConfig:
    def test_bad_field_spec_exits_2(self, capsys):
        code, captured = run(capsys, "eval", "metric", "--fields", "A: $$; B: 0", "--point", "1,0,0")
        assert code == 2
        assert "bad field spec" in captured.err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("A 4*x1; B x2", "missing ':' in field definition (at position 0)"),
            ("paper-exampel", "unknown builtin field pair 'paper-exampel' (at position 0)"),
            ("A: 3/x1; B: 1", "expected denominator after '/' (at position 5)"),
            ("C: x1; B: 1", "expected field name 'A' or 'B', got 'C' (at position 0)"),
            ("A: x1; A: x2", "spec must define both A and B (at position 0)"),
        ],
        ids=["missing-colon", "misspelt-builtin", "variable-denominator", "field-name", "twice-A"],
    )
    def test_field_spec_error_names_the_fault(self, capsys, spec, message):
        # Text with a ';' is a spec, not a builtin name, even without a ':'.
        code, captured = run(capsys, "eval", "metric", "--fields", spec, "--point", "1,2,3")
        assert code == 2
        assert captured.err == f"circgeo: error: bad field spec: {message}\n"
        assert captured.out == ""

    def test_coefficient_past_the_connection_range_exits_2(self, capsys):
        # Each partial of 1.5e308*x1 is finite, but Gamma sums three of them: the
        # spec is refused, naming the coefficient, before any point blames itself.
        spec = f"A: 15{'0' * 307}*x1; B: 1"
        code, captured = run(capsys, "eval", "christoffel", "--fields", spec, "--point", "0,0,0")
        assert code == 2
        assert captured.err == (
            "circgeo: error: bad field spec: coefficient too large: three times it or its"
            " derivative is not a float (at position 3)\n"
        )
        # Below a third of the largest float, a coefficient is accepted.
        code, captured = run(capsys, "eval", "metric", "--fields", f"A: 5{'0' * 307}*x1; B: 1",
                             "--point", "0,0,0")
        assert code == 0

    def test_unknown_tolerance_exits_2(self, capsys, tmp_path):
        # The message names the first entry refused, and whether --tol or the
        # config file's tolerances gave it.
        code, captured = run(capsys, "verify", "--fields", "paper-example", "--tol", "nope=1")
        assert code == 2
        assert captured.err == (
            "circgeo: error: --tol names unknown tolerance 'nope' (known: defect_zero, dual_path,"
            " identity_rel, metric_compat, metric_inverse, nabla_q, nabla_q_nonzero, spread_abs,"
            " spread_rel)\n"
        )
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tolerances": {"spread_rel": 1e-6, "nabla_q": -1}}))
        code, captured = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert captured.err == (
            "circgeo: error: config key 'tolerances': 'nabla_q' must be positive and finite,"
            " got -1\n"
        )

    def test_bad_point_exits_2(self, capsys):
        code, _ = run(capsys, "eval", "metric", "--fields", "paper-example", "--point", "1,2")
        assert code == 2

    def test_fields_from_file(self, tmp_path):
        spec = tmp_path / "fields.txt"
        spec.write_text("A: 2; B: 1\n")
        code, report = run_json(
            tmp_path, "eval", "metric", "--fields", f"@{spec}", "--point", "0,0,0"
        )
        assert code == 0
        assert report["records"][0]["d"] == 4.0

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "fields": "paper-example",
                    "points": [[1, 0, 0]],
                    "seed": 5,
                    "tolerances": {"metric_inverse": 1e-10},
                }
            )
        )
        code, report = run_json(tmp_path, "verify", "--config", str(cfg))
        assert code == 0
        assert report["config"]["seed"] == 5
        assert report["config"]["tolerances"]["metric_inverse"] == 1e-10

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            pytest.param(["eval", "metric", "--point", "nan,0,0"], None, id="point-nan"),
            pytest.param(
                ["eval", "sectional", "--point", "1,0,0", "--x", "inf,1,2"], None, id="x-inf"
            ),
            pytest.param(["verify", "--tol", "spread_rel=nan"], None, id="tol-nan"),
            pytest.param(["verify", "--tol", "spread_rel=inf"], None, id="tol-inf"),
            pytest.param(["verify", "--seed", "-1"], None, id="seed-negative"),
            pytest.param(["verify", "--grid", "nan,1,3"], None, id="grid-nan"),
            pytest.param(["scan", "--grid", "1.1,1.9,2.5"], None, id="grid-fractional-steps"),
            pytest.param(["verify"], {"n_points": "abc"}, id="config-n_points-str"),
            pytest.param(["verify"], {"n_points": True}, id="config-n_points-bool"),
            pytest.param(["verify"], {"x": [1, 2]}, id="config-x-short"),
            pytest.param(["verify"], {"x": [float("nan"), 0, 0]}, id="config-x-nan"),
            # An integer too large for a float is not a finite number.
            pytest.param(["verify"], {"x": [10**400, 1, 2]}, id="config-x-huge-int"),
            pytest.param(["verify"], {"points": [[1, 0]]}, id="config-points-short"),
            # An empty list names no point; it is not a request to sample some.
            pytest.param(["verify"], {"points": []}, id="config-points-empty"),
            pytest.param(["verify"], {"grid": ["a", "b", "c"]}, id="config-grid-str"),
            pytest.param(["verify"], {"grid": "1,2,3"}, id="config-grid-not-list"),
            pytest.param(["verify"], [1, 2], id="config-not-object"),
            pytest.param(["scan"], {"grid": [0, 1, 2.5]}, id="config-grid-fractional-steps"),
            pytest.param(["verify"], {"seed": 1.5}, id="config-seed-float"),
            pytest.param(
                ["verify"], {"tolerances": {"spread_rel": "abc"}}, id="config-tolerance-str"
            ),
            pytest.param(["verify"], {"tolerances": {"nope": 1e-3}}, id="config-tolerance-key"),
            # Counts above the cap are refused before anything is allocated.
            pytest.param(["verify"], {"n_points": MAX_GRID_NODES + 1}, id="config-n_points-cap"),
            # A coefficient past the float range is a parse error, not an OverflowError.
            pytest.param(
                ["eval", "metric", "--point", "1,2,3", "--fields", f"A: {'9' * 400}*x1; B: 1"],
                None,
                id="fields-coefficient-overflow",
            ),
            # Coefficients in range whose derivative, product or sum is not: refused
            # as a field spec, not blamed on the point where they first reach inf.
            *(
                pytest.param(
                    [*command, "--point", "0,0,0", "--fields", f"A: {spec}; B: 1"],
                    None,
                    id=f"fields-{name}-overflow-{command[-1]}",
                )
                for name, spec in (
                    ("derivative", f"15{'0' * 307}*x1^2 + 3"),
                    ("product", f"1{'0' * 200}*1{'0' * 200}*x1 + 1"),
                    ("sum", f"1{'0' * 308}*x1 + 1{'0' * 308}*x1 + 3"),
                )
                for command in (["eval", "metric"], ["eval", "christoffel"], ["verify"])
            ),
        ],
    )
    def test_bad_number_or_type_exits_2(self, tmp_path, capsys, argv, config):
        bad_fields = "--fields" in argv
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        if not bad_fields:
            argv = [*argv, "--fields", "paper-example"]
        code, captured = run(capsys, *argv)
        assert code == 2
        assert captured.err.startswith("circgeo: error:")
        assert ("bad field spec" in captured.err) == bad_fields
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            ([], {"grad_mode": "analytic"}, "unknown config key 'grad_mode'"),
            ([], {"fd_step": 1e-6}, "unknown config key 'fd_step'"),
            (["--tol", "dual_path_fd=1e-5"], None, "--tol names unknown tolerance 'dual_path_fd'"),
            (["--grad", "analytic"], None, "unrecognized arguments: --grad analytic"),
            (["--step", "1e-6"], None, "unrecognized arguments: --step 1e-6"),
            (["--tol", "flat_gamma=1e-14"], None, "--tol names unknown tolerance 'flat_gamma'"),
            ([], {"n_vectors": 20}, "unknown config key 'n_vectors'"),
            ([], {"n_seeds": 20}, "unknown config key 'n_seeds'"),
            (
                [], {"tolerances": {"flat_curvature": 1e-10}},
                "config key 'tolerances' names unknown tolerance 'flat_curvature'",
            ),
        ],
        ids=[
            "config-grad_mode", "config-fd_step", "tol-dual_path_fd", "flag-grad", "flag-step",
            "tol-flat_gamma", "config-flat_curvature", "config-n_vectors", "config-n_seeds",
        ],
    )
    def test_gradient_mode_and_step_inputs_exit_2(self, tmp_path, capsys, argv, config, message):
        # Gradients are always exact, the curvature stencil's step is fixed, flatness
        # is exact, and verify draws a fixed number of random vectors and orbit seeds:
        # the knobs that chose otherwise are gone.
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        try:
            code = main(["verify", "--fields", "paper-example", *argv])
        except SystemExit as exc:  # argparse refusing the flag
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, fields",
        [
            # With no --point or --grid the points are sampled, and x1**2000 overflows there.
            (["verify"], "A: x1^2000; B: 1"),
            (["eval", "metric"], "A: x1^2000; B: 1"),
            # D = 0 everywhere, so no draw is admissible.
            (["verify"], "A: 1; B: 1"),
            # A and B are finite floats on the sampling cube, but D is not.
            (["eval", "christoffel"], f"A: {10**200}*x1 + {10**200}; B: 1"),
        ],
        ids=["verify", "eval", "verify-degenerate-everywhere", "eval-infinite-d"],
    )
    def test_sampled_point_out_of_range_exits_2(self, capsys, command, fields):
        code, captured = run(capsys, *command, "--fields", fields)
        assert code == 2
        assert captured.err.startswith("circgeo: error: could not sample admissible points")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "metric", "--point", "1e200,1e200,1e200"],  # g * g^-1 overflows to inf
            ["verify", "--point", "1e170,1,1"],  # a squared inner product overflows
            ["scan", "--grid=1e300,1e301,2"],
        ],
        ids=["eval", "verify", "scan"],
    )
    def test_out_of_range_point_exits_2(self, capsys, argv):
        code, captured = run(capsys, *argv, "--fields", "paper-example")
        assert code == 2
        assert captured.err.startswith("circgeo: error: point [1e+")
        assert "out of range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            *(["eval", what, "--point=0.0,1.5,-9.710448464022956e+139"]
              for what in ("christoffel", "nabla-q", "curvature", "sectional")),
            ["scan", "--grid=0,0,1,1.5,1.5,1,-9.710448464022956e+139,-9.710448464022956e+139,1"],
            ["verify", "--point=0.0,1.5,-9.710448464022956e+139"],
        ],
        ids=["eval-christoffel", "eval-nabla-q", "eval-curvature", "eval-sectional", "scan",
             "verify"],
    )
    def test_eval_words_an_overflow_as_scan_does(self, capsys, argv):
        # A and B are finite and D is not degenerate, but B_1 = 1e300 * x2 * x3 is past
        # the float range.  eval, scan and verify evaluate the field jet over a block,
        # so all name the operation that overflowed.
        fields = f"A: + 2.0*x2^2 + 2.0*x2^3 + 0; B: + 1{'0' * 300}*x1^1*x2^1*x3^1"
        code, captured = run(capsys, *argv, "--fields", fields)
        assert code == 2
        assert captured.err == (
            "circgeo: error: point [0.0, 1.5, -9.710448464022956e+139] is out of range:"
            " overflow encountered in multiply\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "christoffel", "--point=-1.3,0.25,5e156"],
            ["eval", "nabla-q", "--point=-1.3,0.25,5e156"],
            ["scan", "--grid=-1.3,-1.3,1,0.25,0.25,1,5e156,5e156,1"],
        ],
        ids=["eval-christoffel", "eval-nabla-q", "scan"],
    )
    def test_overflowing_d_exits_2(self, capsys, argv):
        # A and B are finite floats but D = (A - B)(A + 2B) is not; g^-1 and Gamma
        # would come out as exact zeros.  verify: test_failed_block_is_redone_from_its_draws.
        code, captured = run(capsys, *argv, "--fields", "A: 2 + 4*x1 + 2*x2; B: 1 + x1 + 2*x2 + 3*x3")
        assert code == 2
        assert captured.err == (
            "circgeo: error: point [-1.3, 0.25, 5e+156] is out of range: D = (A - B)(A + 2B) = -inf\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--point", "1e160,-1e160,0", "--point", "1e160,-1e160,1e200"],
            ["eval", "metric", "--point", "1e160,-1e160,0", "--point", "1e160,-1e160,1e200"],
            ["eval", "christoffel", "--point", "1e160,-1e160,0", "--point", "1e160,-1e160,1e200"],
            ["scan", "--grid=1e160,1e160,1,-1e160,-1e160,1,0,1e200,2"],  # the block is halved
        ],
        ids=["verify", "eval-metric", "eval-christoffel", "scan"],
    )
    def test_first_point_out_of_range_is_named(self, capsys, argv):
        # Both points' Python-float products overflow to inf without raising, and D is
        # not finite at either.  The first is the one to name.
        code, captured = run(capsys, *argv, "--fields", "A: 3*x1*x2 - 2; B: 1 + x3^2")
        assert code == 2
        assert captured.err.startswith("circgeo: error: point [1e+160, -1e+160, 0.0] is out of range")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "sectional", "--point", "1.2,0.5,0.3"],  # the cubic of x would overflow
            ["scan", "--grid", "1.1,1.9,3"],  # g(x, x) g(qx, qx) would overflow
            ["verify", "--point", "1.2,0.5,0.3"],
        ],
        ids=["eval", "scan", "verify"],
    )
    def test_out_of_range_seed_vector_exits_2(self, capsys, argv):
        # |x|**4 is not a finite float: refused with the config, before any point.
        code, captured = run(capsys, *argv, "--fields", "paper-example", "--x", "1e200,1,2")
        assert code == 2
        assert captured.err == (
            "circgeo: error: --x must be three finite numbers whose norm**4 (mu's degree"
            " in x) is a finite float, got [1e+200, 1.0, 2.0]\n"
        )
        assert captured.out == ""

    def test_unwritable_output_exits_2(self, capsys):
        code, captured = run(
            capsys,
            "eval", "metric",
            "--fields", "paper-example",
            "--point", "1,0,0",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 2
        assert captured.err.startswith("circgeo: error: cannot write output")
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_exits_2(self, capsys):
        # The report is encoded into the file, so the write fails after open().
        code, captured = run(
            capsys, "eval", "metric", "--fields", "paper-example", "--point", "1,0,0",
            "--out", "/dev/full",
        )
        assert code == 2
        assert captured.err.startswith("circgeo: error: cannot write output")
        assert captured.out == ""

    def test_closed_stdout_exits_2(self):
        # As `circgeo verify ... | head -1`: the reader closes the pipe after one line,
        # and the report (about 190 kB) is more than the pipe and the reader's buffer hold.
        src = str(Path(circgeo.cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "circgeo.cli", "verify", "--fields", "paper-example",
             "--grid", "1.1,1.9,5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        # One line: no traceback, and nothing from the interpreter's flush at exit.
        assert proc.stderr.read() == b"circgeo: error: cannot write output: [Errno 32] Broken pipe\n"
        proc.stderr.close()

    def test_stopped_run_keeps_existing_output(self, tmp_path, capsys):
        # Writing starts only once the report is complete.
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        code, captured = run(
            capsys, "verify", "--point", "1e170,1,1", "--fields", "paper-example", "--out", str(out)
        )
        assert code == 2
        assert "out of range" in captured.err
        assert out.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--fields=@a\x00b"], None),
            (["--config=a\x00b"], None),
            (["--out=a\x00b"], None),
            ([], {"out": "a\x00b"}),
            (["--fields=@{bad}"], None),
            (["--config={bad}"], None),
        ],
        ids=["fields-nul", "config-nul", "out-nul", "config-out-nul", "fields-utf8", "config-utf8"],
    )
    def test_nul_path_or_non_utf8_file_exits_2(self, tmp_path, capsys, argv, config):
        # open() refuses a NUL in a path, and reading refuses bytes that are not
        # UTF-8, with ValueError, not OSError.
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("A: x1; B: 2 \u00b5".encode("latin-1"))
        argv = [arg.format(bad=bad) for arg in argv]
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code, captured = run(capsys, "eval", "metric", "--point", "1,0,0", *argv)
        assert code == 2
        assert captured.err.startswith("circgeo: error: cannot ")
        assert captured.out == ""


COMMANDS = [["eval", what] for what in ("metric", "christoffel", "nabla-q", "curvature", "sectional")]
COORDS = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([*COMMANDS, ["verify"], ["scan"]]), st.lists(COORDS, min_size=3, max_size=3))
def test_any_point_exits_0_1_or_2(command, p):
    # scan takes the first two coordinates as the grid's bounds, 2 steps per axis.
    text = ",".join(map(repr, p if command != ["scan"] else [*p[:2], 2]))
    where = f"--grid={text}" if command == ["scan"] else f"--point={text}"
    argv = [*command, "--fields", "paper-example", where, "--out", os.devnull]
    assert main(argv) in (0, 1, 2)


def _refuse(name):
    raise ValueError(f"non-finite {name} in a report")


# Arbitrary JSON whose whole numbers stay at most 4, or pass MAX_GRID_NODES so that
# the cap refuses them: every count or grid step the config accepts is small.
SMALL = st.one_of(
    st.integers(-3, 4), st.floats(-4, 4),
    st.sampled_from([MAX_GRID_NODES + 1, 10**12, 1e308, float("nan"), float("inf"), -0.0]),
)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
TRIPLE = st.lists(st.floats(-4, 4), min_size=3, max_size=3)
# A value each config key accepts, at most a few points.
VALID = {
    "fields": st.sampled_from(["paper-example", "A: 2; B: 1", "A: x1^2 + 3; B: x2*x3"]),
    "points": st.lists(TRIPLE, min_size=1, max_size=3),
    "grid": st.tuples(st.floats(-4, 4), st.floats(-4, 4), st.integers(1, 3)).map(list),
    "seed": st.integers(0, 2**64),
    "x": TRIPLE,
    "n_points": st.integers(0, 4),
    "out": st.text(max_size=8),
    "format": st.sampled_from(["json", "csv"]),
    "tolerances": st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)), st.floats(1e-15, 1.0), max_size=3
    ),
}
assert VALID.keys() == circgeo.cli.CONFIG_KEYS.keys()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([*COMMANDS, ["verify"], ["scan"]]),
    st.fixed_dictionaries({}, optional=VALID),
    st.dictionaries(st.sampled_from(sorted(VALID)), JSON, max_size=2),
)
def test_any_config_exits_0_1_or_2(command, config, arbitrary):
    config.update(arbitrary)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report")
        if isinstance(config.get("out"), str):
            config["out"] = report  # never a path outside the temporary directory
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--config", path])
        assert code in (0, 1, 2)
        text = stdout.getvalue()
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
        if code == 2:
            assert text == ""
        elif config.get("format", "json") == "json":
            json.loads(text, parse_constant=_refuse)


# Flag values: what each flag accepts, its edge cases, and arbitrary text.  A
# grid has at most 4 steps per axis (arbitrary grid text has no digits), so no
# run is large.
TEXT = st.text(max_size=10)
NUMBER_TEXT = st.floats(-4, 4).map(repr) | st.sampled_from(
    ["0", "-0", "1", "-2.5", "1e-300", "1e300", "1e400", "nan", "inf", "-inf", ""]
)
TRIPLE_TEXT = st.lists(NUMBER_TEXT, max_size=4).map(",".join)
GRID_TEXT = st.text(st.characters(blacklist_categories=["Nd"]), max_size=10) | st.lists(
    st.tuples(NUMBER_TEXT, NUMBER_TEXT, st.sampled_from(["0", "1", "2", "4", "2.5", "-1", "nan"])),
    min_size=1, max_size=3,
).map(lambda axes: ",".join(map(",".join, axes)))
FLAG_VALUES = {
    "--config": TEXT,
    "--fields": TEXT | TEXT.map("@".__add__) | st.sampled_from(
        ["paper-example", "A: 2; B: 1", "A: x1^2 + 3; B: x2*x3", "A: x1^400; B: 1", "A: x1; B: x1"]
    ),
    "--point": TRIPLE_TEXT | TEXT,
    "--grid": GRID_TEXT,
    "--seed": st.sampled_from(["0", "7", "-1", str(2**64), "1.5"]) | TEXT,
    "--x": TRIPLE_TEXT | TEXT,
    "--format": st.sampled_from(["json", "csv"]) | TEXT,
    "--tol": st.tuples(st.sampled_from(sorted(DEFAULT_TOLERANCES)) | TEXT, NUMBER_TEXT | TEXT)
    .map("=".join),
}
# "--flag=value" keeps a value that starts with "-" a value; words never start
# with "-", so none can abbreviate --help.
FLAGS = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: FLAG_VALUES[flag].map(lambda value: f"{flag}={value}")
)
WORDS = st.lists(TEXT.filter(lambda word: not word.startswith("-")), min_size=1, max_size=2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([*COMMANDS, ["verify"], ["scan"], ["eval"], []]),
    st.lists(FLAGS, max_size=6),
    # One run in four puts words of any kind in place of the subcommand or last.
    st.sampled_from([None] * 6 + ["command", "last"]),
    WORDS,
    st.booleans(),
)
def test_any_argv_exits_0_1_or_2(tmp_path, command, flags, words_at, words, to_file):
    report = tmp_path / "report"
    report.unlink(missing_ok=True)
    argv = [
        *(words if words_at == "command" else command), *flags,
        *(words if words_at == "last" else []), *([f"--out={report}"] if to_file else []),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    assert code in (0, 1, 2)
    text = stdout.getvalue()
    if code == 2:
        assert text == "" and not report.exists()
        return
    if to_file:
        assert text == ""
        text = report.read_text(encoding="utf-8")
    formats = [flag.partition("=")[2] for flag in flags if flag.startswith("--format=")]
    if formats[-1:] != ["csv"]:
        json.loads(text, parse_constant=_refuse)
