"""The per-point connection kernels equal their earlier formulas bit for bit.

Each reference below is the assembly the current kernel replaced: Gamma from
the metric-partial tensor and three transposes, the closed forms written
item by item over numpy scalars, the metric partials from a fresh identity
matrix, and the curvature stencil on numpy arrays with einsum transposes.
The comparisons are exact, on reprs so that the sign of a zero counts too,
not within a tolerance, because reports must keep their bytes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo.connection import christoffel_closed, christoffel_general, metric_partials
from circgeo.curvature import curvature_at
from circgeo.errors import PointSkipped
from circgeo.fields import FieldPair, Polynomial, field_grad, metric_at, parse_field_spec


def old_metric_partials(f, p):
    grad_a, grad_b = field_grad(f, p)
    eye = np.eye(3)
    return grad_a[:, None, None] * eye + grad_b[:, None, None] * (1.0 - eye)


def old_christoffel_general(f, p):
    metric = metric_at(f, p)
    dg = old_metric_partials(f, p)
    t = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
    return 0.5 * np.einsum("as,ija->sij", metric.g_inv.dense(), t)


def old_christoffel_closed(f, p):
    metric = metric_at(f, p)
    a, b, d = metric.g.a, metric.g.b, metric.d
    (a1, a2, a3), (b1, b2, b3) = field_grad(f, p)
    half_d = 1.0 / (2.0 * d)
    ab = a + b
    gamma = np.empty((3, 3, 3))
    gamma[0, 0, 0] = half_d * (ab * a1 - b * (2 * b1 - a2) - b * (2 * b1 - a3))
    gamma[1, 0, 0] = half_d * (-b * a1 + ab * (2 * b1 - a2) - b * (2 * b1 - a3))
    gamma[2, 0, 0] = half_d * (-b * a1 - b * (2 * b1 - a2) + ab * (2 * b1 - a3))
    gamma[0, 0, 1] = half_d * (ab * a2 - b * a1 - b * (b1 + b2 - b3))
    gamma[1, 0, 1] = half_d * (-b * a2 + ab * a1 - b * (b1 + b2 - b3))
    gamma[2, 0, 1] = half_d * (-b * a2 - b * a1 + ab * (b1 + b2 - b3))
    gamma[0, 0, 2] = half_d * (ab * a3 - b * (b1 - b2 + b3) - b * a1)
    gamma[1, 0, 2] = half_d * (-b * a3 + ab * (b1 - b2 + b3) - b * a1)
    gamma[2, 0, 2] = half_d * (-b * a3 - b * (b1 - b2 + b3) + ab * a1)
    gamma[0, 1, 1] = half_d * (ab * (2 * b2 - a1) - b * a2 - b * (2 * b2 - a3))
    gamma[1, 1, 1] = half_d * (-b * (2 * b2 - a1) + ab * a2 - b * (2 * b2 - a3))
    gamma[2, 1, 1] = half_d * (-b * (2 * b2 - a1) - b * a2 + ab * (2 * b2 - a3))
    gamma[0, 1, 2] = half_d * (ab * (-b1 + b2 + b3) - b * a3 - b * a2)
    gamma[1, 1, 2] = half_d * (-b * (-b1 + b2 + b3) + ab * a3 - b * a2)
    gamma[2, 1, 2] = half_d * (-b * (-b1 + b2 + b3) - b * a3 + ab * a2)
    gamma[0, 2, 2] = half_d * (ab * (2 * b3 - a1) - b * (2 * b3 - a2) - b * a3)
    gamma[1, 2, 2] = half_d * (-b * (2 * b3 - a1) + ab * (2 * b3 - a2) - b * a3)
    gamma[2, 2, 2] = half_d * (-b * (2 * b3 - a1) - b * (2 * b3 - a2) + ab * a3)
    for s in range(3):
        gamma[s, 1, 0] = gamma[s, 0, 1]
        gamma[s, 2, 0] = gamma[s, 0, 2]
        gamma[s, 2, 1] = gamma[s, 1, 2]
    return gamma


def old_curvature_at(f, p, h=1e-6):
    p = np.asarray(p, dtype=float)
    metric = metric_at(f, p)
    gamma0 = old_christoffel_general(f, p)
    dgamma = np.empty((3, 3, 3, 3))
    for k in range(3):
        hk = h * (1.0 + abs(p[k]))
        up = p.copy()
        dn = p.copy()
        up[k] += hk
        dn[k] -= hk
        dgamma[k] = (old_christoffel_general(f, up) - old_christoffel_general(f, dn)) / (2.0 * hk)
    r_up = (
        np.einsum("ksji->skji", dgamma)
        - np.einsum("jski->skji", dgamma)
        + np.einsum("ska,aji->skji", gamma0, gamma0)
        - np.einsum("sja,aki->skji", gamma0, gamma0)
    )
    r_down = np.einsum("as,akji->kjis", metric.g.dense(), r_up)
    return r_up, r_down


def outcome(fn, *args):
    """fn(*args) as nested lists, or the skip it raised as (type name, text)."""
    try:
        result = fn(*args)
    except PointSkipped as exc:
        return type(exc).__name__, str(exc)
    return [np.asarray(r).tolist() for r in (result if isinstance(result, tuple) else (result,))]


def new_gamma(f, p):
    return christoffel_general(f, p).gamma


def new_closed(f, p):
    return christoffel_closed(f, p).gamma


def new_curvature(f, p):
    curv = curvature_at(f, p)
    return curv.r_up, curv.r_down


def assert_kernels_match(f, p):
    for new, old in [
        (new_gamma, old_christoffel_general),
        (new_closed, old_christoffel_closed),
        (metric_partials, old_metric_partials),
        (new_curvature, old_curvature_at),
    ]:
        assert repr(outcome(new, f, p)) == repr(outcome(old, f, p))


exponents = st.tuples(*[st.integers(0, 3)] * 3)
coefficients = st.floats(0.125, 3.0) | st.floats(-3.0, -0.125)
polynomials = st.dictionaries(exponents, coefficients, min_size=1, max_size=8).map(Polynomial.from_dict)
coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
points = st.one_of(
    st.tuples(coords, coords, coords),
    st.lists(coords, min_size=3, max_size=3),
    st.tuples(coords, coords, coords).map(np.array),
)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials, points, st.sampled_from(["analytic", "fd"]))
def test_connection_kernels_match_references(a, b, p, grad_mode):
    assume(a != b)  # A = B is degenerate everywhere; other degenerate points stay in
    assert_kernels_match(FieldPair(a, b, grad_mode=grad_mode), p)


# Paper-example has dA/dx3 = 0 everywhere, so one gradient entry is exactly 0;
# the last two points lie on or next to the degenerate plane x1 = x3.
@pytest.mark.parametrize(
    "p", [(1.2, 0.5, 0.3), (-1.7, 0.0, 2.5), (0.0, -0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 0.5, 0.999998)]
)
def test_connection_kernels_match_references_on_paper_example(p):
    assert_kernels_match(parse_field_spec("paper-example"), p)
