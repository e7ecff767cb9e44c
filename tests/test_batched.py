"""The stacked curvature kernels equal the per-vector formulas bit for bit.

Each reference below is the single-vector computation the stacked kernels
replaced; the comparisons use ==, not a tolerance, because reports must keep
their bytes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo.circulant import Q_DENSE
from circgeo.curvature import (
    curvature_at,
    identity_residuals,
    independence_cubic,
    orbit_spreads,
    residual_scales,
    theorem3_check,
)
from circgeo.errors import DegenerateSection
from circgeo.sampling import random_parallel_pair, random_point

seeds = st.integers(0, 2**32 - 1)
sizes = st.sampled_from([0, 1, 2, 5, 33])


def curvature_case(seed, definite=False):
    rng = np.random.default_rng(seed)
    f = random_parallel_pair(rng)
    try:
        p = random_point(rng, f, definite=definite, max_tries=200)
    except RuntimeError:
        assume(False)
    return rng, f, p, curvature_at(f, p)


def old_scalar(curv, x, y, z, u):
    return float(np.einsum("kjis,k,j,i,s->", curv.r_down, x, y, z, u))


def old_inner(metric, x, y):
    return float(x @ metric.g.dense() @ y)


def old_sectional(curv, u, v):
    metric = curv.metric
    gram = old_inner(metric, u, u) * old_inner(metric, v, v) - old_inner(metric, u, v) ** 2
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
    rng, _, _, curv = curvature_case(seed)
    x, y, z, u = rng.uniform(-2.0, 2.0, size=(4, n, 3))
    scalars = curv.scalars(x, y, z, u)
    inners = curv.metric.inners(x, y)
    assert scalars.shape == inners.shape == (n,)
    assert scalars.tolist() == [old_scalar(curv, *v) for v in zip(x, y, z, u)]
    assert inners.tolist() == [old_inner(curv.metric, a, b) for a, b in zip(x, y)]
    for row in range(n):
        assert curv.scalar(x[row], y[row], z[row], u[row]) == scalars[row]
        assert curv.metric.inner(x[row], y[row]) == inners[row]


@settings(max_examples=60, deadline=None)
@given(seeds, sizes)
def test_identity_residuals_match_per_vector_loop(seed, n):
    rng, _, _, curv = curvature_case(seed)
    x, y, z, u = rng.uniform(-2.0, 2.0, size=(4, n, 3))
    r31, r36 = identity_residuals(curv, x, y, z, u)
    scales = residual_scales(curv, x, y, z, u)
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
        assert scales[row] == curv.max_abs * prod


@settings(max_examples=60, deadline=None)
@given(seeds, sizes)
def test_orbit_spreads_match_per_seed_loop(seed, n):
    rng, f, p, curv = curvature_case(seed, definite=True)
    seeds_ = [x for x in rng.uniform(-2.0, 2.0, size=(3 * n, 3))
              if abs(independence_cubic(x)) > 0.1 * float(np.linalg.norm(x)) ** 3][:n]
    seeds_ = np.reshape(seeds_, (-1, 3))
    mu, spread, passed = orbit_spreads(curv, seeds_, 1e-6, 1e-9)
    assert mu.shape == (len(seeds_), 3)
    for row, x in enumerate(seeds_):
        ref_mu, ref_spread, ref_passed = old_orbit(curv, x, 1e-6, 1e-9)
        assert mu[row].tolist() == ref_mu
        assert spread[row] == ref_spread
        assert passed[row] == ref_passed
        report = theorem3_check(f, p, x, spread_rel=1e-6, spread_abs=1e-9, curv=curv)
        assert list(report.mu) == ref_mu
        assert report.spread == ref_spread and report.passed == ref_passed


def test_orbit_spreads_rejects_a_degenerate_section(paper_fields):
    curv = curvature_at(paper_fields, (1.5, 1.1, 1.1))
    with pytest.raises(DegenerateSection):
        orbit_spreads(curv, [[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]], 1e-6, 1e-9)
