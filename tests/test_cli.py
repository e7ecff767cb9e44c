import csv
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circgeo.cli
import circgeo.connection
import circgeo.curvature
from circgeo.cli import MAX_GRID_NODES, expand_grid, main
from circgeo.errors import ConfigError


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

    def test_christoffel_degenerate_point_skipped(self, tmp_path):
        code, report = run_json(
            tmp_path, "eval", "christoffel", "--fields", "paper-example", "--point", "1,1,1"
        )
        assert code == 0
        (rec,) = report["records"]
        assert rec["status"] == "skipped"
        assert rec["reason"] == "DegenerateMetric"

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

    def test_sectional_degenerate_section_skipped(self, tmp_path):
        # x and qx are nearly parallel, so the section's Gram determinant is tiny.
        code, report = run_json(
            tmp_path,
            "eval", "sectional",
            "--fields", "paper-example",
            "--point", "1.5,1.1,1.1",
            "--x", "1,1,1.000003",
        )
        assert code == 0
        (rec,) = report["records"]
        assert rec["status"] == "skipped"
        assert rec["reason"] == "DegenerateSection"

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

    def test_summary_counts_consistent(self, tmp_path):
        code, report = run_json(
            tmp_path, "verify", "--fields", "paper-example", "--seed", "11"
        )
        s = report["summary"]
        assert s["pass_count"] + s["fail_count"] + s["skipped_count"] == s["total"]

    def test_one_curvature_tensor_per_point(self, tmp_path, monkeypatch):
        # Count calls through every binding: curvature_at in the CLI and in
        # theorem3_check (when it is not handed a tensor), christoffel_general
        # in the CLI, the curvature stencil and metric_compatibility_residual.
        calls = {"curvature_at": [], "christoffel_general": []}

        def counting(name, module):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[1])
                return original(*args, **kwargs)

            return wrapper

        for name, module, bindings in (
            ("curvature_at", circgeo.curvature, (circgeo.cli, circgeo.curvature)),
            (
                "christoffel_general", circgeo.connection,
                (circgeo.cli, circgeo.connection, circgeo.curvature),
            ),
        ):
            wrapper = counting(name, module)
            for binding in bindings:
                monkeypatch.setattr(binding, name, wrapper)
        code, report = run_json(
            tmp_path, "verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "7",
        )
        assert code == 0
        reached = [r for r in report["records"] if r["check"] == "identity-3.2"]
        assert len(reached) == 18
        assert len(calls["curvature_at"]) == len(reached)
        # The finite-difference stencil takes 7 Christoffel evaluations per
        # tensor; each verified point takes 2 more (dual path, compatibility).
        verified = [r for r in report["records"] if r["check"] == "metric-inverse"]
        assert len(verified) == 18
        assert len(calls["christoffel_general"]) == 7 * len(reached) + 2 * len(verified)

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


class TestConfig:
    def test_bad_field_spec_exits_2(self, capsys):
        code, captured = run(capsys, "eval", "metric", "--fields", "A: $$; B: 0", "--point", "1,0,0")
        assert code == 2
        assert "bad field spec" in captured.err

    def test_unknown_tolerance_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "--fields", "paper-example", "--tol", "nope=1")
        assert code == 2

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
            pytest.param(["verify", "--step", "nan"], None, id="step-nan"),
            pytest.param(["verify", "--seed", "-1"], None, id="seed-negative"),
            pytest.param(["verify", "--grid", "nan,1,3"], None, id="grid-nan"),
            pytest.param(["verify"], {"n_points": "abc"}, id="config-n_points-str"),
            pytest.param(["verify"], {"n_points": True}, id="config-n_points-bool"),
            pytest.param(["verify"], {"x": [1, 2]}, id="config-x-short"),
            pytest.param(["verify"], {"x": [float("nan"), 0, 0]}, id="config-x-nan"),
            pytest.param(["verify"], {"points": [[1, 0]]}, id="config-points-short"),
            pytest.param(["verify"], {"grid": ["a", "b", "c"]}, id="config-grid-str"),
            pytest.param(["verify"], {"seed": 1.5}, id="config-seed-float"),
            pytest.param(["verify"], {"fd_step": 0}, id="config-fd_step-zero"),
            pytest.param(["verify"], {"grad_mode": "exact"}, id="config-grad_mode"),
            pytest.param(
                ["verify"], {"tolerances": {"spread_rel": "abc"}}, id="config-tolerance-str"
            ),
            pytest.param(["verify"], {"tolerances": {"nope": 1e-3}}, id="config-tolerance-key"),
            # Counts above the cap are refused before anything is allocated.
            pytest.param(["verify"], {"n_points": MAX_GRID_NODES + 1}, id="config-n_points-cap"),
            pytest.param(["verify"], {"n_vectors": 10**12}, id="config-n_vectors-cap"),
            pytest.param(["verify"], {"n_seeds": MAX_GRID_NODES + 1}, id="config-n_seeds-cap"),
            # A coefficient past the float range is a parse error, not an OverflowError.
            pytest.param(
                ["eval", "metric", "--point", "1,2,3", "--fields", f"A: {'9' * 400}*x1; B: 1"],
                None,
                id="fields-coefficient-overflow",
            ),
        ],
    )
    def test_bad_number_or_type_exits_2(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        if "--fields" not in argv:
            argv = [*argv, "--fields", "paper-example"]
        code, captured = run(capsys, *argv)
        assert code == 2
        assert captured.err.startswith("circgeo: error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "curvature", "--point", "1.2,1.5,1.7"],
            ["verify", "--point", "1.2,1.5,1.7"],
            ["scan", "--grid", "1.2,1.7,2"],
        ],
        ids=["eval", "verify", "scan"],
    )
    def test_collapsed_stencil_exits_2(self, capsys, argv):
        code, captured = run(capsys, *argv, "--fields", "paper-example", "--step", "1e-300")
        assert code == 2
        assert "--step" in captured.err

    def test_collapsed_gradient_stencil_exits_2(self, capsys):
        # The fd gradient stencil collapses before any curvature is built;
        # this used to print an all-zero Christoffel table with status pass.
        code, captured = run(
            capsys,
            "eval", "christoffel",
            "--grad", "fd",
            "--step", "1e-300",
            "--point", "1.2,1.5,1.7",
            "--fields", "A: x1^2 + x2; B: x1*x3",
        )
        assert code == 2
        assert "--step" in captured.err
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

    def test_unwritable_output_exits_2(self, capsys):
        code, _ = run(
            capsys,
            "eval", "metric",
            "--fields", "paper-example",
            "--point", "1,0,0",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 2


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
