"""The stacked kernels equal the per-vector and per-point formulas bit for bit.

Each reference below is the single-vector computation the stacked kernels
replaced, at one point of a block of one; the comparisons use ==, not a
tolerance, because reports must keep their bytes.  The block kernels are
compared on float.hex, so that the sign of a zero counts too: field jets and
Gamma with their one-point calls, and curvature, sectional curvature and their
skips, row by row, with the same point as a block of one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from circgeo.circulant import Q_DENSE
from circgeo.connection import christoffel_general
from circgeo.curvature import (
    curvature_at,
    identity_32_residual,
    identity_residuals,
    independence_cubic,
    orbit_spreads,
    residual_scales,
    sectional_curvature,
    theorem3_check,
)
from circgeo.errors import DegenerateSection
from circgeo.fields import FieldPair, Polynomial, domain_check, field_jet, parse_field_spec, row
from circgeo.sampling import random_point
from pairs import random_definite_point, random_parallel_pair

seeds = st.integers(0, 2**32 - 1)
sizes = st.sampled_from([0, 1, 2, 5, 33])


def curvature_case(seed, definite=False):
    rng = np.random.default_rng(seed)
    f = random_parallel_pair(rng)
    try:
        p = random_definite_point(rng, f, max_tries=200) if definite else random_point(rng, f)
    except RuntimeError:
        assume(False)
    return rng, f, p, curvature_at(f, domain_check(f, row(p)))


def old_scalar(curv, x, y, z, u):
    """R(x, y, z, u) at the point of a block of one."""
    return float(np.einsum("kjis,k,j,i,s->", curv.r_down[..., 0], x, y, z, u))


def old_inner(metric, x, y):
    """g(x, y) at the point of a block of one."""
    return float(x @ metric.g.dense()[..., 0] @ y)


def old_sectional(curv, u, v):
    metric = curv.metric
    uv = old_inner(metric, u, v)
    gram = old_inner(metric, u, u) * old_inner(metric, v, v) - uv * uv
    scale = (old_inner(metric, u, u) * old_inner(metric, v, v)) or 1.0
    if gram <= 1e-12 * abs(scale):
        raise DegenerateSection("reference")
    return old_scalar(curv, u, v, u, v) / gram


def old_orbit(curv, x, spread_rel, spread_abs):
    qx = Q_DENSE @ x
    q2x = Q_DENSE @ qx
    mu = [old_sectional(curv, u, v) for u, v in ((x, qx), (qx, q2x), (q2x, x))]
    spread = max(abs(mu[i] - mu[j]) for i in range(3) for j in range(i + 1, 3))
    tol = spread_rel * max(abs(m) for m in mu) + spread_abs
    return mu, spread, spread <= tol


@settings(max_examples=60, deadline=None)
@given(seeds, sizes)
def test_scalars_and_inners_match_per_vector_forms(seed, n):
    rng, f, p, curv = curvature_case(seed)
    x, y, z, u = rng.uniform(-2.0, 2.0, size=(4, n, 3))
    scalars = curv.scalars(x, y, z, u)[0]
    inners = curv.metric.inners(x, y)[0]
    assert scalars.shape == inners.shape == (n,)
    assert scalars.tolist() == [old_scalar(curv, *v) for v in zip(x, y, z, u)]
    assert inners.tolist() == [old_inner(curv.metric, a, b) for a, b in zip(x, y)]
    point_metric = domain_check(f, p)  # the metric record of the point alone
    for k in range(n):
        assert curv.scalar(x[k], y[k], z[k], u[k]).tolist() == [scalars[k]]
        assert point_metric.inner(x[k], y[k]) == inners[k]


@settings(max_examples=60, deadline=None)
@given(seeds, sizes)
def test_identity_residuals_match_per_vector_loop(seed, n):
    rng, _, _, curv = curvature_case(seed)
    x, y, z, u = rng.uniform(-2.0, 2.0, size=(4, n, 3))
    (r31,), (r36,) = identity_residuals(curv, x, y, z, u)
    (scales,) = residual_scales(curv, x, y, z, u)
    q2 = Q_DENSE @ Q_DENSE
    for row, (a, b, c, d) in enumerate(zip(x, y, z, u)):
        base = old_scalar(curv, a, b, c, d)
        assert r31[row] == abs(
            old_scalar(curv, a, b, q2 @ c, d) - old_scalar(curv, a, b, c, Q_DENSE @ d)
        )
        assert r36[row] == max(
            abs(base - old_scalar(curv, a, b, Q_DENSE @ c, Q_DENSE @ d)),
            abs(base - old_scalar(curv, a, b, q2 @ c, Q_DENSE @ (Q_DENSE @ d))),
        )
        prod = 1.0
        for v in (a, b, c, d):
            prod *= float(np.linalg.norm(v))
        assert scales[row] == curv.max_abs[0] * prod


@settings(max_examples=60, deadline=None)
@given(seeds, sizes)
# sectional_curvatures scales each row by a power of two and the reference does not;
# libm's pow(c, 2) for g(u, v)^2 moved mu by an ulp under that scaling at these inputs.
@example(293746, 33)
@example(9361889, 33)
@example(32016, 33)
def test_orbit_spreads_match_per_seed_loop(seed, n):
    rng, f, p, curv = curvature_case(seed, definite=True)
    seeds_ = [x for x in rng.uniform(-2.0, 2.0, size=(3 * n, 3))
              if abs(independence_cubic(x)) > 0.1 * float(np.linalg.norm(x)) ** 3][:n]
    seeds_ = np.reshape(seeds_, (-1, 3))
    (mu,), (spread,), (passed,), skips = orbit_spreads(curv, seeds_, 1e-6, 1e-9)
    assert mu.shape == (len(seeds_), 3)
    assert not skips
    for k, x in enumerate(seeds_):
        ref_mu, ref_spread, ref_passed = old_orbit(curv, x, 1e-6, 1e-9)
        assert mu[k].tolist() == ref_mu
        assert spread[k] == ref_spread
        assert passed[k] == ref_passed
        one = theorem3_check(f, domain_check(f, row(p)), x, 1e-6, 1e-9)
        assert (one[0][0].tolist(), one[1][0], one[2][0], one[3]) == (
            ref_mu, ref_spread, ref_passed, {})


def test_orbit_spreads_rejects_a_degenerate_section(paper_fields):
    # The orbit of the second seed spans nothing: the point's skip names the first
    # pair of it, and only that seed's mu is NaN.
    curv = curvature_at(paper_fields, domain_check(paper_fields, row((1.5, 1.1, 1.1))))
    mu, spread, passed, skips = orbit_spreads(curv, [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], 1e-6, 1e-9)
    assert np.isnan(mu[0, 1]).all() and not np.isnan(mu[0, 0]).any()
    assert passed.tolist() == [[True, False]]
    assert isinstance(skips[0], DegenerateSection) and list(skips) == [0]
    assert str(skips[0]) == (
        "Gram determinant 0.0 too small for pair ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))")


def hexes(values):
    """float.hex() of every entry, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in np.ravel(values)]


# Exponents up to 6 and coefficients up to 1e6 in size: x**e for e >= 2 is a chain of
# square-and-multiply products, which a point and a block must run alike.
wide_polynomials = st.dictionaries(
    st.tuples(*[st.integers(0, 6)] * 3), st.floats(-1e6, 1e6), max_size=8
).map(Polynomial.from_dict)
coords = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-100.0, 100.0)
blocks = st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(wide_polynomials, wide_polynomials, blocks)
def test_block_jets_match_one_point_jets(a, b, block):
    f = FieldPair(a, b)
    jets = field_jet(f, np.array(block))
    assert all(column.shape == (len(block),) for column in jets)
    for n, p in enumerate(block):
        assert hexes([column[n] for column in jets]) == hexes(field_jet(f, p))


def test_block_power_is_the_point_power():
    # A point's floats and a block's columns run the same products: x**2 is x * x,
    # which libm's pow (0x1.c32631aaaf68dp+0 at this x) need not give.
    x1 = -1.3275170599102342
    square = Polynomial.from_dict({(2, 0, 0): 1.0})
    cube = Polynomial.from_dict({(3, 0, 0): 1.0, (0, 2, 0): 0.5})
    f = FieldPair(square, cube)
    block = np.array([[x1, 0.0, 0.0], [x1, x1, -0.0]])
    assert hexes(square(block)) == hexes([x1 * x1, x1 * x1])
    jets = field_jet(f, block)
    for n, p in enumerate(block):
        assert hexes([column[n] for column in jets]) == hexes(field_jet(f, p))
    # A power past the float range is inf at a point, as a Python float product is,
    # and raises over a block under the errstate the CLI runs blocks in.
    huge = FieldPair(Polynomial.from_dict({(400, 0, 0): 1.0}), square)
    point = [10.0, 0.0, 0.0]
    assert huge.a(point) == math.inf
    assert field_jet(huge, point)[:3] == (math.inf, 100.0, math.inf)
    for call in (huge.a, lambda q: field_jet(huge, q)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            call(np.array([[1.0, 0.0, 0.0], point]))


def test_block_overflows_as_a_point_does():
    # Over a block, A, B, D and the degeneracy threshold overflow without raising, as
    # Python floats do at one point, even where the caller's numpy raises.
    with np.errstate(over="raise", invalid="raise"):
        # A = B, so D = 0, and A^2 in the threshold 1e-10 (1 + A^2 + B^2) is inf: the
        # block's record is the point's, degenerate.
        f = parse_field_spec("A: 0.5*x1*x2^2; B: 0.5*x1*x2^2")
        p = [1e160, 1.5, 1.5]
        one, block = domain_check(f, p), domain_check(f, np.array([p]))
        assert one.degenerate and not one.definite
        for name in ("a", "b", "d", "degenerate", "definite"):
            assert hexes(getattr(block, name)) == hexes([getattr(one, name)])
        # D is not a finite float at p: the same OverflowError at p, in a block of p and
        # in a block led by a point of finite D.  A and B are finite at the first p, inf
        # at the second.
        cases = [
            ("A: 2 + 4*x1 + 2*x2; B: 1 + x1 + 2*x2 + 3*x3", [1.2, 0.5, 0.3], [-1.3, 0.25, 5e156],
             "-inf"),
            (f"A: 1{'0' * 300}*x1 + 2; B: 1{'0' * 299}*x1", [1e-150, 0.5, 0.3], [1e10, 0.5, 0.3],
             "nan"),
        ]
        for spec, finite, p, d in cases:
            f = parse_field_spec(spec)
            for q in (p, np.array([p]), np.array([finite, p])):
                with pytest.raises(OverflowError) as exc:
                    domain_check(f, q)
                assert str(exc.value) == f"D = (A - B)(A + 2B) = {d}"


exponents = st.tuples(*[st.integers(0, 3)] * 3)
polynomials = st.dictionaries(
    exponents, st.floats(0.125, 3.0) | st.floats(-3.0, -0.125), min_size=1, max_size=8
).map(Polynomial.from_dict)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, blocks,
       st.sampled_from([(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (0.5, -1.0, 2.0)]))
# D ~ 0 at the stencil point x3 - h only: each Gamma derivative along x3 is NaN,
# and the rest of the row must be too.
@example(Polynomial.from_dict({(0, 0, 1): 1.0}), Polynomial.from_dict({(1, 0, 1): -3.0}),
         [(3.0, 0.0, 1e-6)], (1.0, 2.0, 3.0))
def test_block_connection_and_curvature_match_one_point_calls(a, b, block, x):
    assume(a != b)  # A = B is degenerate everywhere; other degenerate points stay in
    f = FieldPair(a, b)
    points = np.array(block)
    qx = Q_DENSE @ np.array(x)
    gamma = christoffel_general(f, points)
    # Each takes the rows of the block's metric record where it applies.
    metric = domain_check(f, points)
    curved = np.flatnonzero(~metric.degenerate)
    definite = np.flatnonzero(metric.definite & ~metric.degenerate)
    curv = curvature_at(f, metric.take(curved))
    mu, skips = sectional_curvature(f, metric.take(definite), x, qx)
    assert gamma.shape == (3, 3, 3, len(block)) and mu.shape == (len(definite),)
    for n, p in enumerate(block):
        # Gamma at one point is NaN where D ~ 0, as the block's row is.
        assert hexes(gamma[..., n]) == hexes(christoffel_general(f, p))
    for k, n in enumerate(curved):
        one = curvature_at(f, domain_check(f, row(block[n])))
        if k in curv.skips:  # the whole row is marked
            assert np.isnan(curv.r_down[..., k]).all() and np.isnan(curv.r_up[..., k]).all()
            assert repr(curv.skips[k]) == repr(one.skips[0])
        else:
            assert 0 not in one.skips
        assert hexes(curv.r_up[..., k]) == hexes(one.r_up)
        assert hexes(curv.r_down[..., k]) == hexes(one.r_down)
    for k, n in enumerate(definite):
        one_mu, one_skips = sectional_curvature(f, domain_check(f, row(block[n])), x, qx)
        assert hexes([mu[k]]) == hexes(one_mu)
        assert repr(skips.get(k)) == repr(one_skips.get(0))
        assert (k in skips) == bool(np.isnan(mu[k]))


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from([1, 2, 7]), st.sampled_from([0, 1, 3, 20]))
def test_paired_block_kernels_match_one_point_calls(seed, n, m):
    # Over a block, each point contracts its own m vectors: (n, m, 3) stacks, as
    # verify's curvature suite draws them.  Every row has the one-point bits.
    rng = np.random.default_rng(seed)
    f = random_parallel_pair(rng)
    try:
        points = np.array([random_definite_point(rng, f, max_tries=200) for _ in range(n)])
    except RuntimeError:
        assume(False)
    block = curvature_at(f, domain_check(f, points))
    assume(not block.skips)
    assert not np.isnan(block.r_down).any()
    x, y, z, u = rng.uniform(-2.0, 2.0, size=(4, n, m, 3))
    orbit_seeds = []
    for candidates in rng.uniform(-2.0, 2.0, size=(n, 10 * m + 10, 3)):
        spanning = [v for v in candidates
                    if abs(independence_cubic(v)) > 0.1 * float(np.linalg.norm(v)) ** 3][:m]
        assume(len(spanning) == m)
        orbit_seeds.append(spanning)
    orbit_seeds = np.reshape(orbit_seeds, (n, m, 3))

    scalars = block.scalars(x, y, z, u)
    inners = block.metric.inners(x, y)
    r31, r36 = identity_residuals(block, x, y, z, u)
    scales = residual_scales(block, x, y, z, u)
    resid32, scale32 = identity_32_residual(block)
    mu, spread, passed, skips = orbit_spreads(block, orbit_seeds, 1e-6, 1e-9)
    assert scalars.shape == inners.shape == r31.shape == scales.shape == (n, m)
    assert mu.shape == (n, m, 3) and resid32.shape == (n,)
    for k, p in enumerate(points):
        one = curvature_at(f, domain_check(f, p[None]))
        vectors = (x[k], y[k], z[k], u[k])
        assert hexes(scalars[k]) == hexes(one.scalars(*vectors))
        assert hexes(inners[k]) == hexes(one.metric.inners(x[k], y[k]))
        assert hexes([r31[k], r36[k]]) == hexes(identity_residuals(one, *vectors))
        assert hexes(scales[k]) == hexes(residual_scales(one, *vectors))
        assert hexes([resid32[k], scale32[k], block.max_abs[k]]) == hexes(
            [*identity_32_residual(one), one.max_abs]
        )
        # A degenerate section is NaN and a DegenerateSection skip in both.
        ref = orbit_spreads(one, orbit_seeds[k], 1e-6, 1e-9)
        assert hexes(mu[k]) == hexes(ref[0])
        assert hexes(spread[k]) == hexes(ref[1])
        assert passed[k].tolist() == ref[2][0].tolist()
        assert repr(skips.get(k)) == repr(ref[3].get(0))
        # Taking rows of a block, or one point as a block of one, keeps the bits.
        for taken in (block.take([k]), one):
            assert hexes(taken.scalars(*(v[None] for v in vectors))[0]) == hexes(scalars[k])
