"""The per-point connection kernels and the block scan equal their earlier forms bit for bit.

Each reference below is the assembly the current kernel replaced: Gamma from
the metric-partial tensor and three transposes, the closed forms written
item by item over numpy scalars, the metric partials from a fresh identity
matrix, the metric-compatibility residual one point at a time, and the
curvature stencil with its own step rule on numpy arrays, each raising
DegenerateMetric where it meets D ~ 0; and the scan as a loop over grid nodes,
each a block of one, whose records a walk over every value checks to be
finite.  The kernels mark such a point with NaN instead, and the curvature with
the skip the reference raised.  verify over blocks of points is compared with
verify one point per block, and the value each command names as not finite,
with an inf or NaN put into each array of its table of checks in turn, with the
one that walk names.  The comparisons are exact, on reprs, float.hex (so that
the sign of a zero counts too) or report bytes, not within a tolerance, because
reports must keep their bytes.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo import cli, curvature
from circgeo.circulant import Q_DENSE
from circgeo.connection import (
    christoffel_closed,
    christoffel_general,
    metric_compatibility_residual,
    metric_partials,
)
from circgeo.curvature import curvature_at, sectional_curvature
from circgeo.errors import ConfigError, PointSkipped
from circgeo.fields import (
    FieldPair,
    Polynomial,
    degenerate_metric,
    domain_check,
    field_grad,
    field_jet,
    metric_at,
    parse_field_spec,
)
from pairs import CUBIC_PAIR, QUADRATIC_PAIR, near_plane, random_field_pair, random_parallel_pair


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


def old_metric_compatibility_residual(jet, g):
    """The residual at one point's jet of floats and its dense metric, with its own Gamma."""
    dg = metric_partials(jet)
    gamma = christoffel_general(jet)
    resid = dg - np.einsum("aki,aj->kij", gamma, g) - np.einsum("akj,ia->kij", gamma, g)
    return float(np.max(np.abs(resid)))


def outcome(fn, *args):
    """fn(*args) as nested lists, or the skip it raised as (type name, text)."""
    try:
        result = fn(*args)
    except PointSkipped as exc:
        return type(exc).__name__, str(exc)
    return [np.asarray(r).tolist() for r in (result if isinstance(result, tuple) else (result,))]


def point_skip(f, p, gamma):
    """gamma, or, where it is NaN because D ~ 0 at p, the DegenerateMetric that names D."""
    metric = domain_check(f, p)
    assert np.isnan(gamma).all() if metric.degenerate else not np.isnan(gamma).any()
    if metric.degenerate:
        raise degenerate_metric(metric.d, p)
    return gamma


def new_gamma(f, p):
    return point_skip(f, p, christoffel_general(field_jet(f, p)))


def new_closed(f, p):
    return point_skip(f, p, christoffel_closed(field_jet(f, p)))


def new_partials(f, p):
    return metric_partials(field_jet(f, p))


def new_curvature(f, p):
    """The tensors at p as a block of one, or the skip of p where D ~ 0 there, as the
    commands skip it, or of a row that is all NaN."""
    metric = domain_check(f, np.asarray(p, dtype=float)[None])
    if metric.degenerate[0]:
        raise degenerate_metric(metric.d[0], p)
    curv = curvature_at(f, metric)
    if 0 in curv.skips:
        assert np.isnan(curv.r_up).all() and np.isnan(curv.r_down).all()
        raise curv.skips[0]
    assert not np.isnan(curv.r_down).any()
    return curv.r_up[..., 0], curv.r_down[..., 0]


def assert_kernels_match(f, p):
    for new, old in [
        (new_gamma, old_christoffel_general),
        (new_closed, old_christoffel_closed),
        (new_partials, old_metric_partials),
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
@given(polynomials, polynomials, points)
def test_connection_kernels_match_references(a, b, p):
    assume(a != b)  # A = B is degenerate everywhere; other degenerate points stay in
    assert_kernels_match(FieldPair(a, b), p)


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


steps = st.floats(1e-8, 1e-3)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, points, steps)
def test_curvature_matches_reference_at_other_steps(a, b, p, h):
    assume(a != b and h != curvature.FD_STEP)
    f = FieldPair(a, b)
    with patch.object(curvature, "FD_STEP", h):
        new = outcome(new_curvature, f, p)
    old = outcome(old_curvature_at, f, p, h)
    if isinstance(old, tuple):  # the same skip
        assert new == old
    else:
        assert hexes(*new) == hexes(*old)


def old_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, list) or all(map(old_finite, value))


def old_finite_records(records):
    """records, or a ConfigError naming the first with a value, other than its point, that
    is not finite: the walk over every record that the commands' checks on arrays replaced."""
    for r in records:
        if not old_finite([v for k, v in r.items() if k != "point"]):
            raise ConfigError(f"point {r['point']} is out of range: {r['check']} is not finite")
    return records


def old_cmd_scan(config):
    """The scan as one loop over the grid nodes, each a point or a block of one."""
    if not config.grid:
        raise ConfigError("scan requires a grid spec")
    f = cli._build_fields(config)
    points = cli.expand_grid(config.grid)
    qx = Q_DENSE @ np.asarray(config.x, dtype=float)
    records = []
    for idx, p in enumerate(points):
        with cli._in_range(p):
            m = domain_check(f, p)
        row = {"check": "scan", "point_index": idx, "point": p,
               "status": "skipped" if m.degenerate else "pass",
               "a": m.a, "b": m.b, "d": m.d, "definite": m.definite}
        if m.degenerate:
            row["reason"] = "DegenerateMetric"
        row["mu_e1"] = None
        if not m.degenerate and m.definite:
            with cli._in_range(p):
                (mu,), skips = sectional_curvature(f, domain_check(f, [p]), config.x, qx)
            assert bool(skips) == bool(np.isnan(mu))
            if not skips:
                row["mu_e1"] = float(mu)
        records += old_finite_records([row])
    return cli._assemble(config, records)


def run_cli(argv, **attributes):
    """(exit code, stdout, stderr) of the CLI with the given attributes of cli replaced."""
    out, err = io.StringIO(), io.StringIO()
    with patch.multiple(cli, **attributes), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_scan_matches_reference(argv, blocks=(cli.SCAN_BLOCK,)):
    reference = run_cli(argv, cmd_scan=old_cmd_scan)
    for block in blocks:
        assert run_cli(argv, SCAN_BLOCK=block) == reference


def poly_text(terms: dict) -> str:
    """A polynomial as field-spec text, e.g. '- 2*x1^2*x3 + 0.5'.  An int coefficient is
    written in digits; a float without an exponent, which the grammar has no room for
    (repr writes 6.7e-06), in the shortest digits that read back as the same float."""
    parts = []
    for mono, coef in terms.items():
        number = repr(abs(coef)) if isinstance(coef, int) else np.format_float_positional(
            abs(coef), trim="-")
        factors = [number, *(f"x{k + 1}^{e}" for k, e in enumerate(mono) if e)]
        parts.append(f"{'-' if coef < 0 else '+'} {'*'.join(factors)}")
    return " ".join(parts)


# Up to degree 3, with coefficients whose simple ratios put grid nodes exactly
# on the degenerate planes A = B and A = -2B; a constant added to A makes g
# definite on more of the grid, and none leaves most of it indefinite.
low_degree_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3),
    st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]),
    min_size=1, max_size=5,
)
# The same with coefficients 10^20, 10^100 and 10^300 among them, written as digit
# strings: with far grid nodes, powers, products, D or the A^2 of the degeneracy
# threshold overflow.
big_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3).filter(lambda m: sum(m) <= 3),
    st.sampled_from([-2.0, -0.5, 1.0, 3.0, 10**20, -10**20, 10**100, -10**100, 10**300, -10**300]),
    min_size=1, max_size=5,
)
field_specs = st.one_of(
    *(st.builds(lambda a, shift, b: f"A: {poly_text(a)} + {shift}; B: {poly_text(b)}",
                terms, st.sampled_from([0, 4, 10]), terms)
      for terms in (low_degree_terms, big_terms)),
    st.sampled_from(["paper-example", QUADRATIC_PAIR, CUBIC_PAIR]),
)
bounds = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
axes = st.tuples(bounds, bounds, st.integers(1, 4))


@st.composite
def grids(draw):
    """Three axes; in about one grid in four, one end of one axis at +-1e80 to +-1e160,
    where x**2 may overflow (exit 2 naming the node) and products may not."""
    grid = [list(draw(axes)) for _ in range(3)]
    if draw(st.sampled_from([False] * 3 + [True])):
        sign, exponent = draw(st.sampled_from([1.0, -1.0])), draw(st.floats(80.0, 160.0))
        grid[draw(st.integers(0, 2))][draw(st.integers(0, 1))] = sign * 10.0**exponent
    return grid


@settings(max_examples=200, deadline=None)
@given(
    field_specs,
    grids(),
    st.sampled_from(["1,2,3", "1,1,1"]),
    st.sampled_from(["json", "csv"]),
)
def test_block_scan_matches_per_node_scan(fields, grid, x, fmt):
    spec = ",".join(repr(float(v)) for axis in grid for v in axis)
    argv = ["scan", "--fields", fields, f"--grid={spec}", "--x", x, "--format", fmt]
    # Blocks of 1 and 3 nodes put block seams inside these small grids.
    assert_scan_matches_reference(argv, blocks=(1, 3, cli.SCAN_BLOCK))


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "case",
    [
        # 1,100 nodes, so the 1,024-node block seam is crossed; definite,
        # indefinite and degenerate nodes, as in the cubic scan golden.
        ["--fields", CUBIC_PAIR, "--grid=-4.5,-2.803890692868853,11,-2,2,10,-2,2,10"],
        # At (1e-6, y, 0) the stencil point x3 + h_3 = 1e-6 lies on the plane x1 = x3
        # where D = 0: mu_e1 is null though the node itself is definite.
        ["--fields", "paper-example", "--grid=1e-6,2e-6,2,0.5,1,2,0,1e-6,2"],
        # x is just inside its bound (|x|**4 finite); sectional_curvatures scales
        # each vector by a power of two first, so mu's products stay finite.
        ["--fields", CUBIC_PAIR, "--grid=-4.5,-2.803890692868853,4,-2,2,5,-2,2,5",
         "--x", "1e77,1,2"],
        # D = 0 at (1e160, 1.5, 1.5), and A^2 in the degeneracy threshold overflows to
        # inf at a point and over a block alike: a degenerate row, exit 0.
        ["--fields", "A: 0.5*x1*x2^2; B: 0.5*x1*x2^2", "--grid=1.5,1e160,2,1.5,1.5,1,1.5,1.5,1"],
        # g = circ(5, 0, 0) is definite at (-0.5, 6e154, 0), but R(x, qx, x, qx) sums
        # inf - inf: the NaN must not read as a skipped node (mu_e1 null), in a block
        # or in a block of one redone because D overflows at the next node.
        ["--fields", "A: 5; B: 0.5*x2*x3", "--grid=-0.5,-0.5,1,6e154,6e154,1,0,0,1"],
        ["--fields", "A: 5; B: 0.5*x2*x3", "--grid=-0.5,-0.5,1,6e154,6e154,1,0,1e160,2"],
    ],
)
def test_block_scan_matches_per_node_scan_on_fixed_grids(case, fmt):
    assert_scan_matches_reference(["scan", *case, "--format", fmt])


def parallel_spec(seed, quadratic, shift):
    """Spec text of a random parallel pair, or of its linear part (parallel too), with
    shift added to A."""
    f = random_parallel_pair(np.random.default_rng(seed))
    a, b = ({m: c for m, c in p.terms if quadratic or sum(m) < 2} for p in (f.a, f.b))
    return f"A: {poly_text(a)} + {shift}; B: {poly_text(b)}"


# Parallel pairs take the curvature suite; a constant added to A moves the planes
# A = B and A = -2B.  The low-degree pairs of the scan test are mostly not parallel.
verify_specs = st.builds(
    parallel_spec, st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0, 1, 4])
) | field_specs


@st.composite
def verify_runs(draw):
    """A pair's spec text and one to four points: plain ones, ones with a coordinate
    at 1e150-1e160, and ones within about 1e-6 of the plane A = B or A = -2B."""
    spec = draw(verify_specs)
    f = parse_field_spec(spec)
    points = []
    for kind in draw(st.lists(st.sampled_from(["plain", "far", "near"]), min_size=1, max_size=4)):
        p = np.array(draw(st.tuples(coords, coords, coords)))
        if kind == "far":
            # Log-uniform, so that quadratic pairs often have x^2 finite and D not.
            p[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(
                st.floats(150.0, 160.0))
        elif kind == "near":
            p = near_plane(f, p, draw(st.sampled_from([1.0, -2.0])), draw(st.floats(-1e-6, 1e-6)))
        points.append(p.tolist())
    return spec, points


@settings(max_examples=100, deadline=None)
@given(verify_runs(), st.integers(0, 2**32 - 1))
def test_block_verify_matches_point_by_point_verify(run, seed):
    # Every point is checked against the run's one set of orbit seeds, drawn before
    # any block.  Where a point's numbers overflow, its block is redone in halves:
    # the error names the first such point, and a run that does not stop reports
    # what a point-by-point run reports.  Verify classifies
    # blocks of SCAN_BLOCK points and runs the curvature suite of their curvature
    # points VERIFY_BLOCK at a time; the reference takes both a point at a time.
    fields, points = run
    config = {"fields": fields, "points": points, "seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        argv = ["verify", "--config", str(path)]
        reference = run_cli(argv, SCAN_BLOCK=1, VERIFY_BLOCK=1)
        assert "unknown config key" not in reference[2]  # the run got past its config
        for classify, curvature in ((2, 2), (cli.SCAN_BLOCK, 1), (cli.SCAN_BLOCK, cli.VERIFY_BLOCK)):
            assert run_cli(argv, SCAN_BLOCK=classify, VERIFY_BLOCK=curvature) == reference


@pytest.mark.parametrize(
    "pair", ["paper-example", QUADRATIC_PAIR, CUBIC_PAIR, "generic", "parallel"])
def test_block_compatibility_residual_matches_one_point_formula(pair):
    # 64 points of [-2, 2]^3, then each moved to within 1e-4 to 1e-9 of the plane A = B
    # (g's eigenvalue A - B, which Gamma divides by) and of A = -2B.  The block is taken
    # as verify takes its non-degenerate rows: the jet's (n,) columns and the (n, 3, 3)
    # stack of each point's dense metric.
    rng = np.random.default_rng(sum(map(ord, pair)))
    drawn = {"generic": random_field_pair, "parallel": random_parallel_pair}
    f = drawn[pair](rng) if pair in drawn else parse_field_spec(pair)
    x = rng.uniform(-2.0, 2.0, size=(64, 3))
    offsets = 10.0 ** -rng.uniform(4.0, 9.0, size=len(x)) * rng.choice([-1.0, 1.0], size=len(x))
    near = [near_plane(f, p, c, off) for c in (1.0, -2.0) for p, off in zip(x, offsets)]
    x = np.concatenate([x, near])
    metric = domain_check(f, x)
    m = metric.take(np.flatnonzero(~metric.degenerate))
    assert len(m.point) > len(x) / 2  # most rows near the planes are not degenerate
    jet = field_jet(f, m.point)
    g = np.ascontiguousarray(np.moveaxis(m.g.dense(), -1, 0))
    block = metric_compatibility_residual(jet, g)
    one = [old_metric_compatibility_residual(row, g[n])
           for n, row in enumerate(zip(*(v.tolist() for v in jet)))]
    assert hexes(block) == hexes(one)


def verify_config(argv):
    return cli.config_from_args(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("compat_at, identity_at", [
    ((2,), (2,)),  # the same point: identity-3.2 sorts before metric-compatibility
    ((1,), (2,)),  # metric-compatibility at the earlier point
    ((3,), (2, 5)),  # identity-3.2 at the earlier point
    ((), ()),  # NaN alone in the theorem3-spread spreads, which Python's max from 0.0 passes over
])
def test_first_value_not_finite_is_named_in_report_order(compat_at, identity_at):
    # paper-example is parallel, so each non-degenerate grid point takes the curvature
    # suite, and the grid's 18 such points are one sub-block.  metric-compatibility is
    # made inf at the rows compat_at of the classify block, identity-3.2 at the rows
    # identity_at of the curvature sub-block, and every theorem3-spread spread NaN.  The
    # error must name what the walk over the finished records in report order names.
    # test_every_table_entry_is_weighed puts inf into each of the other arrays.
    argv = ["verify", "--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "5"]

    def compat(jet, g):
        residuals = metric_compatibility_residual(jet, g)
        residuals[list(compat_at)] = np.inf
        return residuals

    def identity_32(curv):
        residual, scale = curvature.identity_32_residual(curv)
        residual[list(identity_at)] = np.inf
        return residual, scale

    def spreads(*args):
        mu, spread, passed, skips = curvature.orbit_spreads(*args)
        spread[:] = np.nan
        return mu, spread, passed, skips

    patches = {"metric_compatibility_residual": compat, "identity_32_residual": identity_32,
               "orbit_spreads": spreads}
    with patch.multiple(cli, **patches, _check_finite=lambda block, table: None):
        records = cli.cmd_verify(verify_config(argv))["records"]
    assert len({r["point_index"] for r in records if r["check"] == "identity-3.2"}) == 18
    try:
        old_finite_records(records)
        expected = (0, "")
    except ConfigError as exc:
        expected = (2, f"circgeo: error: {exc}\n")
    code, _, err = run_cli(argv, **patches)
    assert (code, err) == expected
    assert code == (2 if compat_at else 0)


def unchecked_records(argv, patches):
    """The records of argv's command with the patches made, and no check of finiteness."""
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    commands = {"eval": lambda: cli.cmd_eval(config, args.what),
                "verify": lambda: cli.cmd_verify(config), "scan": lambda: cli.cmd_scan(config)}
    with patch.multiple(cli, **patches, _check_finite=lambda block, table: None):
        return commands[args.command]()["records"]


def with_value(function, at, pick=None, value=np.inf):
    """function, with value put into the rows at (the last axis) of its result, or of the
    array pick takes from it."""
    def patched(*args):
        result = function(*args)
        (pick(result) if pick else result)[..., list(at)] = value
        return result
    return patched


PAPER = ["--fields", "paper-example", "--grid", "1.1,1.9,3", "--seed", "5"]


@pytest.mark.parametrize("argv, name, patched, check", [
    (["verify", *PAPER], "christoffel_closed", with_value(christoffel_closed, (1, 4)),
     "christoffel-dual-path"),
    (["verify", *PAPER], "circ_mul", with_value(cli.circ_mul, (3,), lambda prod: prod.a),
     "metric-inverse"),
    # An inf defect makes a parallel row a converse one; a NaN one, a skipped parallel one.
    (["verify", *PAPER], "parallel_defect", with_value(cli.parallel_defect, (2,)),
     "theorem1-converse"),
    (["verify", *PAPER], "parallel_defect", with_value(cli.parallel_defect, (2,), value=np.nan),
     "theorem1-parallel"),
    (["verify", "--fields", CUBIC_PAIR, "--grid=-1,1,3"], "parallel_defect",
     with_value(cli.parallel_defect, (0, 5)), "theorem1-converse"),
    (["verify", *PAPER], "nabla_q", with_value(cli.nabla_q, (6,)), "theorem1-parallel"),
    (["verify", *PAPER], "identity_residuals",
     with_value(cli.identity_residuals, (2,), lambda r: r[0]), "identity-3.1"),
    (["verify", *PAPER], "identity_residuals",
     with_value(cli.identity_residuals, (0, 3), lambda r: r[1]), "identity-3.6"),
    # inf in R would stop the identity residuals at inf / inf; NaN makes max |R| NaN, and
    # flat-baseline sorts before the identities that it makes NaN too.
    (["verify", "--fields", "A: 2; B: 0.5", "--grid=-1,1,3"], "curvature_at",
     with_value(curvature_at, (4,), lambda c: c.r_down, np.nan), "flat-baseline"),
    # A D this small, not degenerate as domain_check found it, makes g^-1 inf.
    (["eval", "metric", *PAPER], "domain_check",
     with_value(domain_check, (5,), lambda m: m.d, 5e-324), "metric"),
    (["eval", "christoffel", *PAPER], "christoffel_general",
     with_value(christoffel_general, (3,)), "christoffel"),
    (["eval", "nabla-q", *PAPER], "nabla_q", with_value(cli.nabla_q, (3,)), "nabla-q"),
    (["eval", "curvature", *PAPER], "curvature_at",
     with_value(curvature_at, (2,), lambda c: c.r_down), "curvature"),
    (["eval", "sectional", *PAPER], "theorem3_check",
     with_value(cli.theorem3_check, (1,), lambda r: r[0].T), "sectional"),
    (["scan", *PAPER[:4]], "sectional_curvature",
     with_value(sectional_curvature, (2,), lambda r: r[0]), "scan"),
])
def test_every_table_entry_is_weighed(argv, name, patched, check):
    # Each array of the table is made inf (or NaN) at some rows in turn; the error must
    # name what the walk over the finished records in report order names.
    with pytest.raises(ConfigError, match=f": {check} is not finite$") as exc:
        old_finite_records(unchecked_records(argv, {name: patched}))
    assert run_cli(argv, **{name: patched})[::2] == (2, f"circgeo: error: {exc.value}\n")

