import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact

from circgeo.circulant import S
from circgeo.connection import (
    christoffel_closed,
    christoffel_general,
    metric_compatibility_residual,
    metric_partials,
    nabla_q,
    parallel_defect,
    parallel_everywhere,
)
from circgeo.errors import DegenerateMetric
from circgeo.fields import domain_check, field_jet, metric_at, parse_field_spec
from circgeo.sampling import random_point
from pairs import (
    CUBIC_PAIR,
    QUADRATIC_PAIR,
    random_defective_pair,
    random_field_pair,
    random_parallel_pair,
)

GOLDEN = Path(__file__).parent / "golden"

# Where q is parallel (grad A = grad B . S), Gamma takes three values, each shared by
# one six-way group of (s, i, j) entries (and, by symmetry, their (s, j, i) mirrors).
REDUCED_GROUPS = (
    ((0, 0, 0), (1, 0, 1), (2, 0, 2), (2, 1, 1), (0, 1, 2), (1, 2, 2)),
    ((2, 0, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 2), (0, 2, 2)),
    ((1, 0, 0), (2, 0, 1), (0, 0, 2), (0, 1, 1), (1, 1, 2), (2, 2, 2)),
)


def reduced_values(f, p):
    """The three group values (G1, G2, G3), from the field jet alone."""
    a, b, a1, a2, a3, b1, b2, b3 = field_jet(f, p)
    half_d = 1.0 / (2.0 * metric_at(f, p).d)
    return (
        half_d * (a * a1 + b * (-3 * b1 + b2 + b3)),
        half_d * (a * a2 + b * (b1 - 3 * b2 + b3)),
        half_d * (a * a3 + b * (b1 + b2 - 3 * b3)),
    )


def group_deviation(f, p):
    """Max |Gamma[s, i, j] - G| over the groups, relative to 1 + max |Gamma|."""
    gamma = christoffel_general(field_jet(f, p))
    deviation = max(
        abs(gamma[s, i, j] - value)
        for value, group in zip(reduced_values(f, p), REDUCED_GROUPS)
        for s, i, j in group
    )
    return deviation / (1.0 + np.max(np.abs(gamma)))


def gamma_from_groups(g1, g2, g3):
    """Rebuild the full symbol array from the three reduced group values."""
    gamma = np.empty((3, 3, 3))
    for value, group in zip((g1, g2, g3), REDUCED_GROUPS):
        for s, i, j in group:
            gamma[s, i, j] = value
            gamma[s, j, i] = value
    return gamma


def exact_terms(*weighted):
    """The sum of weight * polynomial over (weight, Polynomial) pairs in exact
    rational arithmetic, as its nonzero terms."""
    out = {}
    for weight, poly in weighted:
        for mono, coef in poly.terms:
            out[mono] = out.get(mono, 0) + Fraction(weight) * Fraction(coef)
    return {mono: coef for mono, coef in out.items() if coef}


def christoffel_loop(f, p):
    """Reference assembly: explicit index loop, then symmetrisation in (i, j)."""
    dg = metric_partials(field_jet(f, p))
    t = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for a in range(3):
                t[i, j, a] = dg[i, a, j] + dg[j, a, i] - dg[a, i, j]
    gamma = 0.5 * np.einsum("as,ija->sij", metric_at(f, p).g_inv.dense(), t)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))


class TestChristoffel:
    def test_constant_fields_vanish(self):
        f = parse_field_spec("A: 2; B: 1")
        assert np.max(np.abs(christoffel_general(field_jet(f, (0.4, -1, 2))))) == 0.0
        assert np.max(np.abs(christoffel_closed(field_jet(f, (0.4, -1, 2))))) == 0.0

    def test_paper_point_frozen_values(self, paper_fields):
        # Frozen from the reduced-group formulas at (1,0,0):
        # G1 = (16+2)/36 = 1/2, G2 = (8-2)/36 = 1/6, G3 = (0-6)/36 = -1/6.
        expected = gamma_from_groups(0.5, 1 / 6, -1 / 6)
        for path in (christoffel_general, christoffel_closed):
            gamma = path(field_jet(paper_fields, (1, 0, 0)))
            assert np.max(np.abs(gamma - expected)) <= 1e-14

    def test_lower_index_symmetry_exact(self, paper_fields, rng):
        for _ in range(10):
            p = random_point(rng, paper_fields)
            jet = field_jet(paper_fields, p)
            gamma = christoffel_general(jet)
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))
            gamma = christoffel_closed(jet)
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_general_path_bitwise_matches_loop_reference(self, rng):
        for _ in range(50):
            f = random_field_pair(rng, degree=2)
            p = random_point(rng, f)
            gamma = christoffel_general(field_jet(f, p))
            assert gamma.tobytes() == christoffel_loop(f, p).tobytes()

    def test_degenerate_point_is_nan(self, paper_fields):
        # (1, 1, 1) is on the plane x1 = x3: Gamma is NaN there, at a point and in a
        # block's row, and the point's skip is the DegenerateMetric that names D.
        for p in ((1, 1, 1), np.array([[1.2, 0.5, 0.3], [1, 1, 1]])):
            for kernel in (christoffel_general, christoffel_closed):
                gamma = kernel(field_jet(paper_fields, p))
                assert np.isnan(gamma[..., -1] if gamma.ndim == 4 else gamma).all()
                assert gamma.ndim == 3 or not np.isnan(gamma[..., 0]).any()
        with pytest.raises(DegenerateMetric, match=r"^D = 0\.0 at point \(1\.0, 1\.0, 1\.0\)$"):
            metric_at(paper_fields, (1, 1, 1))

    def test_dual_path_agreement_random_fields(self, rng):
        for _ in range(20):
            f = random_field_pair(rng)
            for _ in range(10):
                p = random_point(rng, f)
                jet = field_jet(f, p)
                diff = christoffel_closed(jet) - christoffel_general(jet)
                assert np.max(np.abs(diff)) <= 1e-9

    def test_metric_compatibility(self, paper_fields, rng):
        # A block of 20 points of the paper's pair, then a point of each of five random pairs.
        for f, n in [(paper_fields, 20), *((random_field_pair(rng), 1) for _ in range(5))]:
            x = np.array([random_point(rng, f) for _ in range(n)])
            g = np.moveaxis(domain_check(f, x).g.dense(), -1, 0)
            residuals = metric_compatibility_residual(field_jet(f, x), g)
            assert residuals.shape == (n,) and (residuals <= 1e-9).all()


class TestParallelism:
    def test_paper_example_defect_zero_everywhere(self, paper_fields, rng):
        for _ in range(10):
            p = rng.uniform(-5, 5, 3)
            assert np.array_equal(parallel_defect(field_jet(paper_fields, p)), np.zeros(3))

    def test_defect_simple_counterexample(self):
        f = parse_field_spec("A: x1; B: 0")
        assert np.array_equal(parallel_defect(field_jet(f, (2, 3, 4))), [1, 0, 0])

    def test_defect_constant_fields(self):
        f = parse_field_spec("A: 2; B: 1")
        assert np.array_equal(parallel_defect(field_jet(f, (0, 0, 0))), np.zeros(3))

    def test_nabla_q_paper_point(self, paper_fields):
        gamma = christoffel_general(field_jet(paper_fields, (1, 0, 0)))
        assert np.max(np.abs(nabla_q(gamma))) <= 1e-12

    def test_nabla_q_constant_fields_exact_zero(self):
        f = parse_field_spec("A: 2; B: 1")
        assert np.max(np.abs(nabla_q(christoffel_general(field_jet(f, (1, 2, 3)))))) == 0.0

    def test_nabla_q_nonzero_when_defect_nonzero(self):
        f = parse_field_spec("A: x1; B: 0")
        assert np.max(np.abs(nabla_q(christoffel_general(field_jet(f, (1, 0, 0)))))) > 1e-6

    def test_theorem1_forward_random_points(self, paper_fields, rng):
        for _ in range(30):
            p = random_point(rng, paper_fields)
            assert np.max(np.abs(nabla_q(christoffel_general(field_jet(paper_fields, p))))) <= 1e-10

    def test_theorem1_forward_nonlinear_parallel_pair(self, rng):
        for _ in range(5):
            f = random_parallel_pair(rng)
            p = random_point(rng, f)
            jet = field_jet(f, p)
            assert np.max(np.abs(parallel_defect(jet))) <= 1e-12
            assert np.max(np.abs(nabla_q(christoffel_general(jet)))) <= 1e-10

    def test_random_parallel_pair_is_exactly_parallel(self, rng):
        for _ in range(50):
            f = random_parallel_pair(rng)
            grad_a = [f.a.partial(k) for k in range(3)]
            grad_b = [f.b.partial(k) for k in range(3)]
            hess_b = [[g.partial(j) for j in range(3)] for g in grad_b]
            for k in range(3):
                # (grad A - grad B . S)_k has no terms.
                assert not exact_terms(
                    (1, grad_a[k]), *((-S[j, k], grad_b[j]) for j in range(3))
                )
            for i in range(3):
                for j in range(i + 1, 3):
                    # (S . Hess B)_ij = (S . Hess B)_ji
                    assert not exact_terms(
                        *((S[i, k], hess_b[k][j]) for k in range(3)),
                        *((-S[j, k], hess_b[k][i]) for k in range(3)),
                    )

    def test_parallel_everywhere(self, paper_fields, rng):
        assert parallel_everywhere(paper_fields, 0.0)
        assert parallel_everywhere(parse_field_spec("A: 2; B: 1"), 0.0)
        assert all(parallel_everywhere(random_parallel_pair(rng), 0.0) for _ in range(10))
        assert not any(parallel_everywhere(random_defective_pair(rng), 1e-9) for _ in range(10))
        # grad A - (grad B) . S is (2 x1, 0, 0): zero on the plane x1 = 0, and not everywhere.
        f = parse_field_spec("A: 4*x1 + 2*x2 + x1^2; B: x1 + 2*x2 + 3*x3")
        assert np.array_equal(parallel_defect(field_jet(f, (0, 1.2, 0.3))), np.zeros(3))
        assert not parallel_everywhere(f, 1e-9)
        # Parallel up to the rounding of decimal coefficients.
        f = parse_field_spec("A: 0.3*x1 + 0.1*x2 + 0.1*x3 + 2; B: 0.1*x1 + 0.2*x2 + 0.2*x3")
        assert parallel_everywhere(f, 1e-9)
        # Coefficients in range whose residual, 4 * 5e307, overflows: not parallel,
        # and no warning.  (1.5e308 itself is refused: three times it is not a float.)
        big = "5" + "0" * 307
        f = parse_field_spec(f"A: {big}*x1; B: {big}*x1 - {big}*x2 - {big}*x3")
        assert not parallel_everywhere(f, 1e-9)

    def test_theorem1_converse_random_pairs(self, rng):
        for _ in range(10):
            f = random_defective_pair(rng)
            p = random_point(rng, f)
            jet = field_jet(f, p)
            assert np.max(np.abs(parallel_defect(jet))) >= 0.1
            assert np.max(np.abs(nabla_q(christoffel_general(jet)))) > 1e-6


class TestReducedChristoffel:
    def test_paper_point(self, paper_fields):
        g1, g2, g3 = reduced_values(paper_fields, (1, 0, 0))
        assert g1 == pytest.approx(0.5, abs=1e-14)
        assert g2 == pytest.approx(1 / 6, abs=1e-14)
        assert g3 == pytest.approx(-1 / 6, abs=1e-14)
        assert group_deviation(paper_fields, (1, 0, 0)) <= 1e-14

    def test_constant_fields(self):
        f = parse_field_spec("A: 2; B: 1")
        assert reduced_values(f, (0, 0, 0)) == (0.0, 0.0, 0.0)
        assert group_deviation(f, (0, 0, 0)) == 0.0

    def test_cross_check_second_point(self, paper_fields):
        assert group_deviation(paper_fields, (2, 1, 0)) <= 1e-10

    def test_groups_hold_for_random_parallel_pairs(self, rng):
        for _ in range(10):
            f = random_parallel_pair(rng)
            assert group_deviation(f, random_point(rng, f)) <= 1e-10

    def test_rejects_nonparallel_pair(self):
        # grad A - grad B . S = (1, 0, 0): Gamma^1_11 = 1/2 but Gamma^3_22 = 0.
        f = parse_field_spec("A: x1; B: 0")
        assert group_deviation(f, (1, 0, 0)) > 0.1


def _entries(nested) -> list:
    """The entries of a 3x3x3 nested list (or array) in row-major order."""
    return [v for matrix in nested for row in matrix for v in row]


def assert_within_rounding(f, p, gammas, nablas):
    """Each of gammas (Christoffel arrays) and nablas (nabla q arrays) at p is within
    32 eps kappa max|Gamma| of its exact value (tests/exact.py), entry by entry, where
    kappa = max(|A + 2B|, |A - B|) / min(|A + 2B|, |A - B|) is the condition number of g."""
    a, b, gamma, nq = exact.connection(f, p)
    kappa = max(abs(a + 2 * b), abs(a - b)) / min(abs(a + 2 * b), abs(a - b))
    bound = 32 * Fraction(np.finfo(float).eps) * kappa * max(map(abs, _entries(gamma)))
    for computed, want in [*((g, gamma) for g in gammas), *((n, nq) for n in nablas)]:
        for c, e in zip(_entries(np.asarray(computed).tolist()), _entries(want), strict=True):
            assert abs(Fraction(c) - e) <= bound, (p, c, e)


class TestExactOracle:
    """Both Christoffel paths and nabla q against exact rational values."""

    def test_golden_reports(self):
        gamma_report = json.loads((GOLDEN / "eval_christoffel.json").read_text())
        nq_report = json.loads((GOLDEN / "eval_nabla-q.json").read_text())
        f = parse_field_spec(gamma_report["config"]["fields"])
        checked = 0
        for rg, rq in zip(gamma_report["records"], nq_report["records"], strict=True):
            assert rg["point"] == rq["point"] and rg["status"] == rq["status"]
            if rg["status"] == "pass":
                p = rg["point"]
                jet = field_jet(f, p)
                general = christoffel_general(jet)
                gammas = [rg["gamma"], general, christoffel_closed(jet)]
                assert_within_rounding(f, p, gammas, [rq["components"], nabla_q(general)])
                checked += 1
        assert checked

    @pytest.mark.parametrize(
        "spec", ["paper-example", QUADRATIC_PAIR, CUBIC_PAIR], ids=["paper", "quadratic", "cubic"]
    )
    def test_uniform_points(self, spec):
        f = parse_field_spec(spec)
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_point(rng, f)
            jet = field_jet(f, p)
            general = christoffel_general(jet)
            assert_within_rounding(f, p, [general, christoffel_closed(jet)], [nabla_q(general)])

    def test_points_near_the_plane_a_equals_b(self, paper_fields):
        # A - B = 3 (x1 - x3): x3 is set 1e-9 to 1e-1 from the plane x1 = x3, which
        # takes kappa to about 1e10.
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 100:
            p = rng.uniform(-2.0, 2.0, size=3)
            p[2] = p[0] + rng.choice([-1.0, 1.0]) * np.sqrt(2.0) * 10 ** rng.uniform(-9, -1)
            if domain_check(paper_fields, p).degenerate:
                continue
            jet = field_jet(paper_fields, p)
            general = christoffel_general(jet)
            gammas = [general, christoffel_closed(jet)]
            assert_within_rounding(paper_fields, p, gammas, [nabla_q(general)])
            checked += 1
