import json
import re
from unittest.mock import patch

import numpy as np
import pytest

from circgeo import curvature
from circgeo.cli import main
from circgeo.circulant import Q_DENSE, CirculantMatrix, circ_mul, Q
from circgeo.curvature import (
    circ_apply_q2,
    curvature_at,
    gram_determinant,
    identity_32_residual,
    identity_residuals,
    independence_cubic,
    residual_scale,
    sectional_curvature,
    sections_of,
    theorem3_check,
)
from circgeo.errors import DegenerateMetric, DegenerateSection, DependentOrbit
from circgeo.fields import domain_check, parse_field_spec, row
from circgeo.sampling import random_point, random_vector
from pairs import random_definite_point

FLAT = "A: 2; B: 1"


def metric(f, points):
    """The metric record of an (n, 3) block of points, as the CLI checks a block."""
    return domain_check(f, np.asarray(points, dtype=float))


def at(f, p):
    """The curvature at the point p, as a block of one."""
    return curvature_at(f, metric(f, row(p)))


def skip(skips, n):
    """A skip as (class name, detail), the reason and detail of its record."""
    return type(skips[n]).__name__, str(skips[n])


class TestCurvatureTensor:
    def test_flat_baseline(self):
        f = parse_field_spec(FLAT)
        curv = at(f, (0.3, -1.2, 0.8))
        assert np.max(np.abs(curv.r_up)) <= 1e-10
        assert curv.max_abs[0] <= 1e-10

    def test_richardson_self_consistency(self, paper_fields):
        with patch.object(curvature, "FD_STEP", 1e-5):
            c1 = at(paper_fields, (1, 0, 0))
        with patch.object(curvature, "FD_STEP", 5e-6):
            c2 = at(paper_fields, (1, 0, 0))
        assert np.max(np.abs(c1.r_down - c2.r_down)) <= 1e-6

    def test_first_pair_antisymmetry(self, paper_fields, rng):
        for _ in range(20):
            p = random_point(rng, paper_fields)
            r = at(paper_fields, p).r_down[..., 0]
            assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) <= 1e-8

    def test_pair_symmetry(self, paper_fields, rng):
        # FD-limited symmetry at the stencil step FD_STEP = 1e-6, with a
        # tolerance read relative to the tensor magnitude.
        for _ in range(10):
            p = random_point(rng, paper_fields)
            curv = at(paper_fields, p)
            r = curv.r_down[..., 0]
            resid = np.max(np.abs(r - r.transpose(2, 3, 0, 1)))
            assert resid <= 1e-8 * max(curv.max_abs[0], 1.0)

    def test_lowering_consistency(self, paper_fields):
        curv = at(paper_fields, (1, 0, 0))
        g = curv.metric.g.dense()[..., 0]
        rebuilt = np.einsum("as,akji->kjis", g, curv.r_up[..., 0])
        assert np.array_equal(rebuilt, curv.r_down[..., 0])

    def test_degenerate_stencil_is_skipped(self, paper_fields):
        # D is not ~ 0 at any of the three points.  The stencil point p - h_1 e_1 of
        # (1.0, 0.5, 0.999998) has D ~ 0, and p + h_3 e_3 of (0.1, 0.05, 0.0999989) lies
        # on the degenerate plane x1 = x3.
        points = [(1.0, 0.5, 0.999998), (1.2, 0.5, 0.3), (0.1, 0.05, 0.0999989)]
        block = metric(paper_fields, points)
        assert not block.degenerate.any()
        curv = curvature_at(paper_fields, block)
        assert np.isnan(curv.r_up[..., [0, 2]]).all() and np.isnan(curv.r_down[..., [0, 2]]).all()
        assert not np.isnan(curv.r_down[..., 1]).any()
        assert sorted(curv.skips) == [0, 2]
        assert skip(curv.skips, 0) == (
            "DegenerateMetric", "D = 1.3322654979219806e-14 at point (0.999998, 0.5, 0.999998)")
        assert skip(curv.skips, 2) == (
            "DegenerateMetric", "D = 0.0 at point (0.0999989, 0.05, 0.0999989)")
        assert isinstance(curv.skips[0], DegenerateMetric)


class TestShiftIdentities:
    def test_q_orbit_composition_exact(self):
        # q applied twice equals the other cyclic shift, as integer matrices.
        assert circ_mul(Q, Q) == CirculantMatrix(0.0, 0.0, 1.0)
        assert np.array_equal(Q_DENSE @ Q_DENSE, CirculantMatrix(0, 0, 1).dense())

    def test_identity_31_paper_fields(self, paper_fields, rng):
        for _ in range(5):
            p = random_point(rng, paper_fields)
            curv = at(paper_fields, p)
            assert identity_residuals(curv)[0][0] <= 1e-7
            for _ in range(20):
                x, y, z, u = (random_vector(rng) for _ in range(4))
                resid = abs(curv.scalar(x, y, circ_apply_q2(z), u)[0]
                            - curv.scalar(x, y, z, Q_DENSE @ u)[0])
                assert resid <= 1e-7 * max(residual_scale(curv, x, y, z, u)[0], 1e-300)

    def test_identity_31_zero_vectors(self, paper_fields):
        # Both sides of 3.1 and 3.6 vanish at z = u = 0; so does the tensor of a flat pair.
        curv = at(paper_fields, (1, 0, 0))
        x, y, zero = (1, 2, 3), (3, 1, 0), np.zeros(3)
        assert curv.scalar(x, y, zero, zero).tolist() == [0.0]
        assert curv.scalar(x, y, circ_apply_q2(zero), Q_DENSE @ zero).tolist() == [0.0]
        flat = at(parse_field_spec(FLAT), (1, 0, 0))
        assert [r.tolist() for r in identity_residuals(flat)] == [[0.0], [0.0]]

    def test_identity_31_fails_without_parallelism(self):
        # Curved, non-parallel pair: the identity is a consequence of the
        # parallelism of q, not of the circulant shape alone.
        f = parse_field_spec("A: 2 + x1^2; B: x2")
        p = np.array([0.5, 0.3, -0.2])
        curv = at(f, p)
        assert curv.max_abs[0] > 1e-3  # genuinely curved
        r31, _ = identity_residuals(curv)
        assert r31[0] > 1e-2

    def test_identity_32_coordinates(self, paper_fields, rng):
        for _ in range(10):
            p = random_point(rng, paper_fields)
            curv = at(paper_fields, p)
            r_up = curv.r_up[..., 0]
            lhs = np.einsum("skja,ia->skji", r_up, Q_DENSE)
            rhs = np.einsum("akji,as->skji", r_up, Q_DENSE)
            scale = max(float(np.max(np.abs(r_up))), 1e-300)
            assert np.max(np.abs(lhs - rhs)) <= 1e-7 * scale
            residual, full_scale = identity_32_residual(curv)
            assert residual.tolist() == [np.max(np.abs(lhs - rhs))]
            assert full_scale.tolist() == [max(curv.max_abs[0], scale)]

    def test_identity_36_chain(self, paper_fields, rng):
        for _ in range(5):
            p = random_point(rng, paper_fields)
            curv = at(paper_fields, p)
            for _ in range(20):
                x, y, z, u = (random_vector(rng) for _ in range(4))
                scale = max(residual_scale(curv, x, y, z, u)[0], 1e-300)
                base = curv.scalar(x, y, z, u)[0]
                once = curv.scalar(x, y, Q_DENSE @ z, Q_DENSE @ u)[0]
                twice = curv.scalar(x, y, circ_apply_q2(z), circ_apply_q2(u))[0]
                assert abs(base - once) <= 1e-7 * scale
                assert abs(base - twice) <= 1e-7 * scale
            assert identity_residuals(curv)[1][0] <= 1e-7


class TestSections:
    def test_cubic_values(self):
        assert independence_cubic((1, 2, 3)) == -18.0
        assert independence_cubic((1, 1, 1)) == 0.0
        assert independence_cubic((1, 0, 0)) == -1.0

    def test_sections_valid_seed(self):
        assert sections_of((1, 2, 3)) == -18.0

    def test_sections_dependent_orbit(self, paper_fields):
        detail = "orbit of (1.0, 1.0, 1.0) is linearly dependent (cubic = 0.0)"
        with pytest.raises(DependentOrbit, match=re.escape(detail)):
            sections_of((1, 1, 1))
        # x alone decides it, before any tensor is built.
        with patch.object(curvature, "curvature_at", side_effect=AssertionError("built")):
            with pytest.raises(DependentOrbit, match=re.escape(detail)):
                theorem3_check(paper_fields, metric(paper_fields, [(1, 0, 0)]), (1, 1, 1),
                               1e-6, 1e-9)

    def test_sections_indefinite_metric(self, tmp_path):
        # Where g is indefinite, mu does not apply: the command skips the point and
        # hands the curvature layer only the rows where g is definite, and a block
        # with none builds no tensor at all.
        f = parse_field_spec("A: 0; B: 1")
        assert metric(f, [(0, 0, 0), (1, 2, 3)]).definite.tolist() == [False, False]
        out = tmp_path / "r.json"
        with patch.object(curvature, "curvature_at", wraps=curvature.curvature_at) as built:
            assert main(["eval", "sectional", "--fields", "A: 0; B: 1", "--point", "0,0,0",
                         "--point", "1,2,3", "--out", str(out)]) == 0
        assert built.call_args_list == []
        records = json.loads(out.read_text())["records"]
        assert [(r["status"], r["reason"], r["detail"]) for r in records] == [
            ("skipped", "IndefiniteMetric", f"metric not positive definite at {p}")
            for p in ("(0.0, 0.0, 0.0)", "(1.0, 2.0, 3.0)")]

    def test_section_gram_positive(self, paper_fields, rng):
        for _ in range(20):
            p = random_definite_point(rng, paper_fields)
            x = random_vector(rng)
            if abs(independence_cubic(x)) <= 0.1 * np.linalg.norm(x) ** 3:
                continue
            sections_of(x)  # raises unless x admits the sections
            metric = at(paper_fields, p).metric
            assert metric.definite.tolist() == [True]
            qx = Q_DENSE @ x
            q2x = Q_DENSE @ qx
            for u, v in ((x, qx), (qx, q2x), (q2x, x)):
                assert gram_determinant(metric, u, v)[0] > 0


class TestSectionalCurvature:
    def test_flat_sections_zero(self):
        f = parse_field_spec(FLAT)
        mu, skips = sectional_curvature(f, metric(f, [(0, 0, 0)]), (1, 0, 0), (0, 1, 0))
        assert abs(mu[0]) <= 1e-10 and not skips

    def test_scaling_invariance(self, paper_fields):
        p = metric(paper_fields, [(1, 0, 0)])
        u, v = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
        (mu1,), _ = sectional_curvature(paper_fields, p, u, v)
        (mu2,), _ = sectional_curvature(paper_fields, p, 2 * u, v)
        assert abs(mu1 - mu2) <= 1e-9 * abs(mu1) + 1e-12

    def test_basis_change_invariance(self, paper_fields, rng):
        p = metric(paper_fields, [(1, 0, 0)])
        u, v = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, -1.0])
        (mu,), _ = sectional_curvature(paper_fields, p, u, v)
        # Ill-conditioned basis changes amplify the FD symmetry defect of the
        # differenced tensor, so restrict to well-conditioned transforms.
        done = 0
        while done < 10:
            a, b, c, d = rng.uniform(-2, 2, 4)
            m = np.array([[a, b], [c, d]])
            if abs(a * d - b * c) < 0.5 or np.linalg.cond(m) > 3:
                continue
            (mu2,), _ = sectional_curvature(paper_fields, p, a * u + b * v, c * u + d * v)
            assert abs(mu - mu2) <= 1e-8 * abs(mu)
            done += 1

    def test_degenerate_section_is_skipped(self, paper_fields):
        points = [(0.1, 0.05, 0.0999989), (1, 0, 0)]
        block = metric(paper_fields, points)
        assert block.definite.tolist() == [True, True]
        mu, skips = sectional_curvature(paper_fields, block, (1, 2, 3), (2, 4, 6))
        assert np.isnan(mu).all() and sorted(skips) == [0, 1]
        # The stencil of (0.1, 0.05, 0.0999989) meets the plane x1 = x3, which is found
        # before the section.
        assert skip(skips, 0) == (
            "DegenerateMetric", "D = 0.0 at point (0.0999989, 0.05, 0.0999989)")
        assert skip(skips, 1) == ("DegenerateSection", "Gram determinant 0.0 too small for pair"
                                  " ((1.0, 2.0, 3.0), (2.0, 4.0, 6.0))")
        assert isinstance(skips[1], DegenerateSection)

    def test_richardson_stability(self, paper_fields):
        x = np.array([1.0, 2.0, 3.0])
        qx = Q_DENSE @ x
        with patch.object(curvature, "FD_STEP", 1e-5):
            (mu1,), _ = sectional_curvature(paper_fields, metric(paper_fields, [(1, 0, 0)]), x, qx)
        with patch.object(curvature, "FD_STEP", 5e-6):
            (mu2,), _ = sectional_curvature(paper_fields, metric(paper_fields, [(1, 0, 0)]), x, qx)
        assert abs(mu1 - mu2) <= 1e-6 * abs(mu1)


class TestTheorem3:
    def test_paper_point_spread(self, paper_fields):
        (mu,), (spread,), (passed,), skips, _ = theorem3_check(
            paper_fields, metric(paper_fields, [(1, 0, 0)]), (1, 2, 3), 1e-6, 1e-9)
        assert passed and not skips
        assert spread <= 1e-6 * max(abs(m) for m in mu) + 1e-9

    def test_flat_spread_zero(self):
        f = parse_field_spec(FLAT)
        (mu,), (spread,), _, _, _ = theorem3_check(f, metric(f, [(0, 0, 0)]), (1, 2, 3), 1e-6, 1e-9)
        assert mu.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=1e-10)
        assert spread <= 1e-10

    def test_randomized_spreads(self, paper_fields, rng):
        for _ in range(5):
            p = random_definite_point(rng, paper_fields)
            done = 0
            while done < 10:
                x = random_vector(rng)
                if abs(independence_cubic(x)) <= 0.1 * np.linalg.norm(x) ** 3:
                    continue
                (mu,), (spread,), (passed,), _, _ = theorem3_check(
                    paper_fields, metric(paper_fields, [p]), x, 1e-6, 1e-9)
                assert passed, (p, x, spread, mu)
                done += 1
