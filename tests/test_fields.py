import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circgeo.errors import DegenerateMetric, ParseError, StencilCollapsed, UnknownBuiltin
from circgeo.fields import (
    FieldPair,
    Polynomial,
    domain_check,
    field_eval,
    field_grad,
    field_jet,
    metric_at,
    parse_field_spec,
    parse_polynomial,
)


class TestParsing:
    def test_builtin_paper_example(self, paper_fields):
        assert field_eval(paper_fields, (1, 0, 0)) == (4.0, 1.0)
        assert field_eval(paper_fields, (0, 1, 0)) == (2.0, 2.0)
        assert field_eval(paper_fields, (0, 0, 1)) == (0.0, 3.0)

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            parse_field_spec("no-such-pair")

    def test_constant_zero_pair(self):
        f = parse_field_spec("A: 0; B: 0")
        assert field_eval(f, (3, -1, 7)) == (0.0, 0.0)
        assert domain_check(f, (3, -1, 7)).degenerate

    def test_constant_pair_d(self):
        f = parse_field_spec("A: 2; B: 1")
        status = domain_check(f, (0.3, -5, 2))
        assert status.d == 4.0  # (2-1)(2+2)

    def test_rational_and_decimal_coefficients(self):
        poly = parse_polynomial("3/4*x1^2 - 0.5*x2*x3 + 2")
        assert poly((2, 3, 4)) == pytest.approx(0.75 * 4 - 0.5 * 12 + 2)

    def test_implicit_unit_coefficient(self):
        poly = parse_polynomial("x1 + 2*x2 + 3*x3")
        assert poly((1, 1, 1)) == 6.0

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_field_spec("A: 2*; B: 1")
        assert exc.value.position == 5

    def test_parse_error_bad_char(self):
        with pytest.raises(ParseError):
            parse_polynomial("2*y1")

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_field_spec("A: 1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polynomial("1/0*x1")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("x2 + " + "9" * 400 + "*x1", 5),  # the number itself overflows
            ("2 - 1/0." + "0" * 400 + "1*x3", 4),  # the quotient overflows
            ("x1^" + "9" * 5000, 3),  # more digits than int() converts
        ],
        ids=["coefficient", "quotient", "exponent-digits"],
    )
    def test_number_beyond_float_range(self, text, position):
        with pytest.raises(ParseError, match="too large") as exc:
            parse_polynomial(text)
        assert exc.value.position == position


class TestEvalAndGrad:
    def test_paper_example_origin(self, paper_fields):
        assert field_eval(paper_fields, (0, 0, 0)) == (0.0, 0.0)

    def test_paper_example_gradients(self, paper_fields, rng):
        for _ in range(5):
            p = rng.uniform(-3, 3, 3)
            ga, gb = field_grad(paper_fields, p)
            assert np.array_equal(ga, [4, 2, 0])
            assert np.array_equal(gb, [1, 2, 3])

    def test_constant_gradients(self):
        f = parse_field_spec("A: 2; B: 1")
        ga, gb = field_grad(f, (1, 2, 3))
        assert np.array_equal(ga, np.zeros(3))
        assert np.array_equal(gb, np.zeros(3))

    def test_fd_matches_analytic(self, rng):
        f_an = parse_field_spec("A: x1^2 - 3*x2*x3; B: x3^2 + x1")
        f_fd = FieldPair(f_an.a, f_an.b, grad_mode="fd")
        for _ in range(10):
            p = rng.uniform(-2, 2, 3)
            ga, gb = field_grad(f_an, p)
            fa, fb = field_grad(f_fd, p)
            assert np.max(np.abs(ga - fa)) <= 1e-9
            assert np.max(np.abs(gb - fb)) <= 1e-9

    def test_fd_second_order_convergence(self):
        # Smooth non-polynomial fields: halving h cuts the error ~4x.
        a = lambda p: math.sin(p[0]) * math.exp(p[1]) + p[2] ** 2
        b = lambda p: math.cos(p[0] * p[1]) + p[2]
        p = np.array([0.7, -0.3, 1.1])
        exact_a = np.array(
            [math.cos(0.7) * math.exp(-0.3), math.sin(0.7) * math.exp(-0.3), 2.2]
        )
        errors = []
        for h in (1e-3, 5e-4):
            f = FieldPair(a, b, grad_mode="fd", fd_step=h)
            ga, _ = field_grad(f, p)
            errors.append(np.max(np.abs(ga - exact_a)))
        ratio = errors[0] / errors[1]
        assert 3.0 < ratio < 5.0

    def test_fd_collapsed_stencil_raises(self):
        # 1e-300 * (1 + 1.2) is far below half an ulp of 1.2, so p + h == p
        # and the differences would read as an all-zero gradient.
        f = parse_field_spec("A: x1^2 + x2; B: x1*x3", grad_mode="fd", fd_step=1e-300)
        with pytest.raises(StencilCollapsed, match="axis 0"):
            field_grad(f, (1.2, 1.5, 1.7))

    def test_fd_tiny_step_at_origin_still_moves(self):
        # At 0 the step itself is representable, so the stencil does not collapse.
        f = parse_field_spec("A: x1^2 + x2; B: x1*x3", grad_mode="fd", fd_step=1e-300)
        ga, _ = field_grad(f, (0.0, 0.0, 0.0))
        assert ga.tolist() == [0.0, 1.0, 0.0]


def term_loop(poly, p):
    """Reference evaluation: the per-term loop over numpy scalars."""
    x1, x2, x3 = np.asarray(p, dtype=float)
    total = 0.0
    for (e1, e2, e3), coef in poly.terms:
        total += coef * x1**e1 * x2**e2 * x3**e3
    return total


def bits(*values):
    """Each value's float.hex(), which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


# Exponents 0 and 1 and exact zeros of either sign take the compiled
# polynomials' shortcuts (no factor, the bare variable).
exponents = st.tuples(*[st.integers(0, 6)] * 3)
coefficients = st.floats(-1e6, 1e6, allow_nan=False)
polynomials = st.dictionaries(exponents, coefficients, max_size=12).map(Polynomial.from_dict)
coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-5.0, 5.0))
points = st.tuples(coords, coords, coords)


@given(polynomials, points)
def test_evaluation_bitwise_matches_reference(poly, p):
    assert bits(poly(p)) == bits(term_loop(poly, p))
    gradient = bits(*poly.gradient(p))
    assert gradient == bits(*(poly.partial(k)(p) for k in range(3)))
    assert gradient == bits(*(term_loop(poly.partial(k), p) for k in range(3)))


@given(polynomials, polynomials, points, st.sampled_from(["analytic", "fd"]))
def test_field_jet_matches_eval_and_grad(a, b, p, grad_mode):
    f = FieldPair(a, b, grad_mode=grad_mode)
    grad_a, grad_b = field_grad(f, p)
    assert bits(*field_jet(f, p)) == bits(*field_eval(f, p), *grad_a, *grad_b)


class TestDomainAndMetric:
    def test_paper_point_definite(self, paper_fields):
        status = domain_check(paper_fields, (1, 0, 0))
        assert status.d == 18.0
        assert status.definite
        assert not status.degenerate

    def test_paper_degenerate_plane(self, paper_fields):
        status = domain_check(paper_fields, (1, 1, 1))
        assert status.degenerate
        assert status.d == 0.0

    def test_indefinite_but_nondegenerate(self):
        f = parse_field_spec("A: 0; B: 1")
        status = domain_check(f, (0, 0, 0))
        assert status.d == -2.0
        assert not status.degenerate
        assert not status.definite

    def test_metric_at_paper_point(self, paper_fields):
        m = metric_at(paper_fields, (1, 0, 0))
        assert m.g.triple() == (4.0, 1.0, 1.0)
        assert m.g_inv.a == pytest.approx(5 / 18, abs=1e-15)
        assert m.g_inv.b == pytest.approx(-1 / 18, abs=1e-15)
        assert m.d == 18.0
        assert m.definite

    def test_identity_metric(self):
        f = parse_field_spec("A: 1; B: 0")
        m = metric_at(f, (0, 0, 0))
        assert m.g.triple() == (1.0, 0.0, 0.0)
        assert m.g_inv.triple() == (1.0, -0.0, -0.0)
        assert m.d == 1.0

    def test_metric_degenerate_raises(self, paper_fields):
        with pytest.raises(DegenerateMetric):
            metric_at(paper_fields, (1, 1, 1))

    def test_inverse_identity_property(self, paper_fields, rng):
        for _ in range(20):
            p = rng.uniform(-2, 2, 3)
            status = domain_check(paper_fields, p)
            if status.degenerate:
                continue
            m = metric_at(paper_fields, p)
            prod = m.g.dense() @ m.g_inv.dense()
            assert np.max(np.abs(prod - np.eye(3))) <= 1e-12

    def test_q_isometry(self, paper_fields, rng):
        q = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        for _ in range(50):
            p = rng.uniform(-2, 2, 3)
            if domain_check(paper_fields, p).degenerate:
                continue
            m = metric_at(paper_fields, p)
            x = rng.uniform(-2, 2, 3)
            y = rng.uniform(-2, 2, 3)
            g1 = m.inner(x, y)
            g2 = m.inner(q @ x, q @ y)
            scale = float(np.abs(x) @ np.abs(m.g.dense()) @ np.abs(y))
            assert abs(g1 - g2) <= 4 * np.spacing(scale)

    def test_definite_flag_matches_quadratic_form(self, rng):
        for spec in ("paper-example", "A: 0; B: 1", "A: 3; B: 1"):
            f = parse_field_spec(spec)
            p = (1, 0, 0)
            status = domain_check(f, p)
            if status.degenerate:
                continue
            m = metric_at(f, p)
            all_positive = True
            for _ in range(100):
                x = rng.uniform(-1, 1, 3)
                if np.allclose(x, 0):
                    continue
                all_positive = all_positive and m.inner(x, x) > 0
            assert all_positive == m.definite

    def test_polynomial_partial_is_exact(self):
        poly = Polynomial.from_dict({(2, 1, 0): 3.0, (0, 0, 3): -1.0})
        dx1 = poly.partial(0)
        assert dx1((2, 5, 1)) == 3.0 * 2 * 2 * 5
        dx3 = poly.partial(2)
        assert dx3((0, 0, 2)) == -12.0

    def test_analytic_mode_rejects_callables(self):
        with pytest.raises(ValueError):
            FieldPair(lambda p: 1.0, lambda p: 0.0, grad_mode="analytic")
