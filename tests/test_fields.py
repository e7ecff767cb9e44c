import pickle
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from pairs import CUBIC_PAIR
from circgeo.errors import DegenerateMetric, ParseError
from circgeo.fields import (
    BUILTIN_FIELDS,
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
        with pytest.raises(ParseError, match="unknown builtin field pair 'no-such-pair'") as exc:
            parse_field_spec("no-such-pair")
        assert exc.value.position == 0

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
            # Each number fits; what the parser or a derivative makes of them does not.
            (f"3 + 15{'0' * 307}*x1^2", 4),  # dA/dx1 = 3e308
            (f"x2 + 1{'0' * 200}*1{'0' * 200}*x1", 5),  # the product
            (f"1{'0' * 308}*x1 + 1{'0' * 308}*x1 + 3", 0),  # the sum
            (f"1{'0' * 200}*1{'0' * 200}*x1 - 1{'0' * 200}*1{'0' * 200}*x1", 0),  # inf - inf
            (f"x1^{'9' * 308}*x1^{'9' * 308}", 0),  # the exponent sum
            # Gamma sums three partials: 3 * 1.5e308 is past the float range.
            (f"2 + 15{'0' * 307}*x1", 4),
            (f"x2 + 7{'0' * 307}", 5),
        ],
        ids=[
            "coefficient", "quotient", "exponent-digits",
            "derivative", "product", "sum", "inf-minus-inf", "exponent-sum",
            "three-partials", "three-times-a-constant",
        ],
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


def within_rounding(poly, p, value) -> bool:
    """Whether value is within the rounding bound of the compiled evaluation of poly at
    p from the exact value, computed in Fractions.

    Square-and-multiply gives x**e within gamma_(e-1) of x^e, since a square doubles a
    relative error, so each term is within gamma_d of its exact value, d its degree, and
    the sum of n terms within gamma_k * sum |t_j|, k = d + n, gamma_k = k u / (1 - k u),
    u = 2^-53.  A product that underflows errs by at most 2^-1075 = u * 2^-1022 instead,
    and the later factors amplify that by at most k max(1, |c_j|) prod max(1, |x_i|)^e_i.
    """
    x = [Fraction(v) for v in p]
    k = poly.degree() + len(poly.terms)
    u = Fraction(2) ** -53
    magnitude = 0
    for mono, c in poly.terms:
        factors = list(zip([Fraction(c), *x], (1, *mono)))
        magnitude += prod(abs(v) ** e for v, e in factors)
        magnitude += k * Fraction(2) ** -1022 * prod(max(1, abs(v)) ** e for v, e in factors)
    return abs(Fraction(float(value)) - exact.jet(poly, x)[0]) <= k * u / (1 - k * u) * magnitude


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
def test_evaluation_within_rounding_bound_of_exact_value(poly, p):
    assert within_rounding(poly, p, poly(p))
    gradient = poly.gradient(p)
    assert bits(*gradient) == bits(*(poly.partial(k)(p) for k in range(3)))
    assert all(within_rounding(poly.partial(k), p, gradient[k]) for k in range(3))


def test_exponent_past_a_float_is_exact():
    # x1^(2^53 + 1) is odd in x1; a float exponent would be 2^53, which is even.
    f = parse_field_spec("A: x1^9007199254740993 + 3; B: 1")
    a, b = field_eval(f, np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert a.tolist() == [2.0, 4.0] and b.tolist() == [1.0, 1.0]
    # Square-and-multiply takes 1,020 squares here, in a loop, not by recursion.
    f = parse_field_spec(f"A: x1^{2**1020 + 1} + 3; B: 1")
    for x1, a in ((1.0, 4.0), (-1.0, 2.0), (0.5, 3.0)):
        assert field_eval(f, (x1, 0.0, 0.0)) == (a, 1.0)


# The grammar's tokens, oversized numbers and exponents among them, and a few
# characters outside it.  Arbitrary text and loose token strings mostly fail
# early, so well-formed sums of such factors, joined as "A: ...; B: ...", reach
# the checks on numbers and on the finished polynomials too.
NUMBERS = st.one_of(
    st.sampled_from(["0", "1/3", "0/0", "2.5", ".5", "7.", "9" * 400, "1" + "0" * 5000]),
    st.integers(0, 10**20).map(str),
    st.fractions(max_denominator=10**6).map(lambda q: f"{abs(q.numerator)}/{q.denominator}"),
)
VARIABLES = st.sampled_from(["x1", "x2", "x3"])
EXPONENTS = st.integers(0, 9) | st.integers(0, 10**400) | st.sampled_from(["", "2.5", "-1"])
FACTORS = st.one_of(
    NUMBERS, VARIABLES, st.tuples(VARIABLES, EXPONENTS).map(lambda v: f"{v[0]}^{v[1]}"),
    st.just(f"x1^{'9' * 308}"),  # two in one term overflow the exponent sum
)
SUMS = st.lists(
    st.tuples(st.sampled_from(["", "+", "-", " - ", " + "]),
              st.lists(FACTORS, min_size=1, max_size=3).map("*".join)).map("".join),
    min_size=1, max_size=4,
).map("".join)
TOKENS = FACTORS | st.sampled_from([
    "x1", "^", "*", "+", "-", "/", ";", ":", "A:", "B:", "A", "B", ".", "(", ")", "e",
    *BUILTIN_FIELDS, "no-such-pair",
])
SPEC_TEXTS = st.one_of(
    st.text(),
    st.tuples(st.lists(TOKENS, max_size=16), st.sampled_from(["", " "])).map(
        lambda parts: parts[1].join(parts[0])
    ),
    st.tuples(SUMS, SUMS | st.lists(TOKENS, max_size=6).map("".join)).map(
        lambda ab: f"A: {ab[0]}; B: {ab[1]}"
    ),
)


@settings(max_examples=500, deadline=None)
@given(SPEC_TEXTS)
def test_parse_field_spec_is_total(text):
    try:
        f = parse_field_spec(text)
    except ParseError:
        return
    assert isinstance(f, FieldPair)
    assert isinstance(f.a, Polynomial) and isinstance(f.b, Polynomial)


@given(polynomials, polynomials, points)
def test_field_jet_matches_eval_and_grad(a, b, p):
    f = FieldPair(a, b)
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

    def test_field_pair_pickles_after_evaluation(self):
        # Evaluation caches compiled functions on each Polynomial; a pickle drops them,
        # and the copy compiles its own on first use.
        f = parse_field_spec(CUBIC_PAIR)
        x = np.array([[0.3, -1.2, 0.7], [1.5, 0.25, -2.0], [1.0, 1.0, 1.0]])
        before = domain_check(f, x)
        grads = field_grad(f, x[0])
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f
        after = domain_check(copy, x)
        for name in ("a", "b", "d", "degenerate", "definite"):
            assert getattr(after, name).tolist() == getattr(before, name).tolist()
        assert [g.tolist() for g in field_grad(copy, x[0])] == [g.tolist() for g in grads]

    def test_take_is_the_record_of_the_rows(self, paper_fields):
        block = np.array([(1, 0, 0), (1, 1, 1), (-1, 0, 0), (1.2, 0.5, 0.3)], dtype=float)
        taken = domain_check(paper_fields, block).take([3, 1])
        alone = domain_check(paper_fields, block[[3, 1]])
        for name, value in vars(alone).items():
            assert getattr(taken, name).tolist() == value.tolist()

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

    @pytest.mark.parametrize("grad_mode", ["analytic", "fd"])
    def test_field_pair_rejects_callables(self, grad_mode):
        # A callable that brings its own exact gradient is refused as surely
        # as a bare one that would need a finite-difference gradient.
        if grad_mode == "analytic":
            field = type("Field", (), {"__call__": lambda self, p: 1.0,
                                       "gradient": lambda self, p: np.zeros(3)})()
        else:
            field = lambda p: 1.0  # noqa: E731
        with pytest.raises(ValueError):
            FieldPair(field, field)
