"""The per-point connection kernels and the block scan equal their earlier forms bit for bit.

Each reference below is the assembly the current kernel replaced: Gamma from
the metric-partial tensor and three transposes, the closed forms written
item by item over numpy scalars, the metric partials from a fresh identity
matrix, and the curvature stencil and the fd field gradient, each with its
own step rule, on numpy arrays; and the scan as a loop over grid nodes
through the one-point kernels.  The comparisons are exact, on reprs, float.hex
(so that the sign of a zero counts too) or report bytes, not within a
tolerance, because reports must keep their bytes.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo import cli
from circgeo.circulant import Q, circ_apply
from circgeo.connection import christoffel_closed, christoffel_general, metric_partials
from circgeo.curvature import curvature_at, sectional_curvature
from circgeo.errors import ConfigError, PointSkipped, StencilCollapsed
from circgeo.fields import (
    DEFAULT_FD_STEP,
    FieldPair,
    Polynomial,
    domain_check,
    field_grad,
    metric_at,
    parse_field_spec,
)


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


def old_fd_gradient(func, p: np.ndarray, step: float) -> np.ndarray:
    grad = np.empty(3)
    for k in range(3):
        h = step * (1.0 + abs(p[k]))
        up = p.copy()
        dn = p.copy()
        up[k] += h
        dn[k] -= h
        if up[k] == p[k] or dn[k] == p[k]:
            raise StencilCollapsed(
                f"gradient step {step!r} vanishes against coordinate {p[k]} (axis {k})"
                f" at {tuple(p.tolist())}"
            )
        grad[k] = (func(up) - func(dn)) / (2.0 * h)
    return grad


def outcome(fn, *args):
    """fn(*args) as nested lists, or the skip it raised as (type name, text)."""
    try:
        result = fn(*args)
    except PointSkipped as exc:
        return type(exc).__name__, str(exc)
    return [np.asarray(r).tolist() for r in (result if isinstance(result, tuple) else (result,))]


def new_gamma(f, p):
    return christoffel_general(f, p)


def new_closed(f, p):
    return christoffel_closed(f, p)


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


def hexes(*arrays):
    """float.hex() of every entry, which tells -0.0 from 0.0."""
    return [float(v).hex() for a in arrays for v in np.ravel(a)]


def collapsed_axis(exc: StencilCollapsed) -> int:
    return int(re.search(r"axis (\d)", str(exc)).group(1))


def smooth_field(p):
    """A field that is not a polynomial: fd gradients are its only gradients."""
    return math.sin(p[0]) * math.exp(p[1]) + p[2] ** 2


steps = st.floats(1e-8, 1e-3)


@settings(max_examples=200, deadline=None)
@given(polynomials | st.just(smooth_field), polynomials, points, steps)
def test_fd_gradient_matches_reference(a, b, p, step):
    x = np.asarray(p, dtype=float)
    grads = field_grad(FieldPair(a, b, grad_mode="fd", fd_step=step), p)
    assert hexes(*grads) == hexes(old_fd_gradient(a, x, step), old_fd_gradient(b, x, step))


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, points, steps, st.sampled_from(["analytic", "fd"]))
def test_curvature_matches_reference_at_other_steps(a, b, p, h, grad_mode):
    assume(a != b and h != DEFAULT_FD_STEP)
    f = FieldPair(a, b, grad_mode=grad_mode, fd_step=h)
    new, old = outcome(new_curvature, f, p), outcome(old_curvature_at, f, p, h)
    if isinstance(old, tuple):  # the same skip
        assert new == old
    else:
        assert hexes(*new) == hexes(*old)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, points)
def test_collapsed_stencil_names_the_reference_axis(a, b, p):
    # A step of 1e-300 vanishes against every coordinate but the tiny ones.
    x = np.asarray(p, dtype=float)
    try:
        old_fd_gradient(a, x, 1e-300)
    except StencilCollapsed as exc:
        axis = collapsed_axis(exc)
    else:
        axis = None
    assume(axis is not None and a != b)
    f = FieldPair(a, b, grad_mode="fd", fd_step=1e-300)
    with pytest.raises(StencilCollapsed) as exc:
        field_grad(f, p)
    assert collapsed_axis(exc.value) == axis
    f = replace(f, grad_mode="analytic")
    assume(not domain_check(f, p).degenerate)
    with pytest.raises(StencilCollapsed) as exc:
        curvature_at(f, p)
    assert collapsed_axis(exc.value) == axis


def old_cmd_scan(config):
    """The scan as one loop over the grid nodes, each through the one-point kernels."""
    if not config.grid:
        raise ConfigError("scan requires a grid spec")
    f = cli._build_fields(config)
    points = cli.expand_grid(config.grid)
    qx = circ_apply(Q, config.x)
    records = []
    for idx, p in enumerate(points):
        with cli._in_range(p):
            m = domain_check(f, p)
            row = cli._record(
                "scan", idx, p,
                "skipped" if m.degenerate else "pass",
                a=m.a, b=m.b, d=m.d, definite=m.definite,
            )
            if m.degenerate:
                row["reason"] = "DegenerateMetric"
            row["mu_e1"] = None
            if not m.degenerate and m.definite:
                try:
                    curv = curvature_at(f, p)
                    row["mu_e1"] = sectional_curvature(f, p, config.x, qx, curv=curv)
                except PointSkipped:
                    pass
            records.append(row)
    return cli._assemble(config, records)


def run_scan(argv, scan, block):
    """(exit code, stdout, stderr) of the CLI with the given scan and block size."""
    out, err = io.StringIO(), io.StringIO()
    with patch.object(cli, "cmd_scan", scan), patch.object(cli, "SCAN_BLOCK", block):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_scan_matches_reference(argv, blocks=(cli.SCAN_BLOCK,)):
    reference = run_scan(argv, old_cmd_scan, cli.SCAN_BLOCK)
    for block in blocks:
        assert run_scan(argv, cli.cmd_scan, block) == reference


def poly_text(terms: dict) -> str:
    """A polynomial as field-spec text, e.g. '- 2*x1^2*x3 + 0.5'."""
    parts = []
    for mono, coef in terms.items():
        factors = [repr(abs(coef)), *(f"x{k + 1}^{e}" for k, e in enumerate(mono) if e)]
        parts.append(f"{'-' if coef < 0 else '+'} {'*'.join(factors)}")
    return " ".join(parts)


QUADRATIC_PAIR = "A: x1^2 + x2^2 + x3^2 + 4/3; B: x1*x2 + x1*x3 + x2*x3 + 1/3"
CUBIC_PAIR = (
    "A: 6 + x1^2 + x2^2 + x3^2 + 0.3*x1*x2*x3 + 0.2*x1^3 - 0.1*x2^3 + 0.25*x3^3"
    " + 0.5*x1*x2 - 0.4*x2*x3 + 3*x1 - 0.5*x3;"
    " B: 0.5 + 0.2*x1 - 0.3*x2 + 0.1*x3^2 + 0.15*x1*x2*x3 - 0.05*x1^3"
    " + 0.2*x2^2*x3 + 0.1*x1*x3^2"
)
# Up to degree 3, with coefficients whose simple ratios put grid nodes exactly
# on the degenerate planes A = B and A = -2B; a constant added to A makes g
# definite on more of the grid, and none leaves most of it indefinite.
low_degree_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3),
    st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]),
    min_size=1, max_size=5,
)
field_specs = st.builds(
    lambda a, shift, b: f"A: {poly_text(a)} + {shift}; B: {poly_text(b)}",
    low_degree_terms, st.sampled_from([0, 4, 10]), low_degree_terms,
) | st.sampled_from(["paper-example", QUADRATIC_PAIR, CUBIC_PAIR])
bounds = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
axes = st.tuples(bounds, bounds, st.integers(1, 4))
# About one grid in eight reaches 1e160, where x**2 overflows: exit 2 naming the node.
grids = st.builds(
    lambda first, rest, far: ((first[0], 1e160 if far else first[1], first[2]), *rest),
    axes, st.tuples(axes, axes), st.sampled_from([False] * 7 + [True]),
)


@settings(max_examples=100, deadline=None)
@given(
    field_specs,
    grids,
    st.sampled_from(["1e-06", "1e-06", "0.001", "0.001", "1e-300"]),
    st.sampled_from(["analytic", "fd"]),
    st.sampled_from(["1,2,3", "1,1,1"]),
    st.sampled_from(["json", "csv"]),
)
def test_block_scan_matches_per_node_scan(fields, grid, step, grad_mode, x, fmt):
    spec = ",".join(repr(float(v)) for axis in grid for v in axis)
    argv = ["scan", "--fields", fields, f"--grid={spec}", "--step", step, "--grad", grad_mode,
            "--x", x, "--format", fmt]
    # Blocks of 1 and 3 nodes put block seams inside these small grids.
    assert_scan_matches_reference(argv, blocks=(1, 3, cli.SCAN_BLOCK))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "case",
    [
        # 1,100 nodes, so the 1,024-node block seam is crossed; definite,
        # indefinite and degenerate nodes, as in the cubic scan golden.
        ["--fields", CUBIC_PAIR, "--grid=-4.5,-2.803890692868853,11,-2,2,10,-2,2,10"],
        # At (0.001, y, 0) the stencil point x3 + 0.001 lies on the plane x1 = x3
        # where D = 0: mu_e1 is null though the node itself is definite.
        ["--fields", "paper-example", "--grid=0.001,0.002,2,0.5,1,2,0,0.001,2", "--step", "0.001"],
    ],
)
def test_block_scan_matches_per_node_scan_on_fixed_grids(case, fmt):
    assert_scan_matches_reference(["scan", *case, "--format", fmt])
