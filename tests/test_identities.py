"""Identities 3.1 and 3.6 checked on the curvature tensor itself.

``identity_residuals`` reads each identity as a difference tensor T of R / s,
s = max(max |R|, 1e-300), and returns its Frobenius norm.  The reference below
is the sampled check it replaced: |T(x, y, z, u)| over s |x| |y| |z| |u| for
drawn quadruples of vectors.  Since |T(x, y, z, u)| <= |T|_F |x| |y| |z| |u|,
the tensor residual bounds every sampled ratio, up to rounding; a perturbed
entry of R shows in it; a pair whose q is not parallel fails it; and it is
finite wherever R is.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circgeo.circulant import Q_DENSE
from circgeo.cli import DEFAULT_TOLERANCES, expand_grid
from circgeo.curvature import (
    CurvatureAtPoint,
    curvature_at,
    identity_32_residual,
    identity_residuals,
)
from circgeo.fields import domain_check, parse_field_spec
from pairs import CUBIC_PAIR, QUADRATIC_PAIR, near_plane, random_field_pair, random_parallel_pair

REL = DEFAULT_TOLERANCES["identity_rel"]
U = 2.0**-53  # the unit roundoff

# The slack of the bound, in units of U, to first order in U.  With M = max |R| and
# P = |x| |y| |z| |u|, each exact ratio is at most |T / s|_F <= 9 * 2 = 18, and:
# - each sampled R(x, y, z, u) sums 81 products of 5 factors, so its error is at most
#   84 U sum |R_kjis x_k y_j z_i u_s| <= 84 U M |x|_1 |y|_1 |z|_1 |u|_1 <= 756 U M P, as
#   |v|_1 <= sqrt(3) |v|.  A difference of two, rounded, is within (2 * 756 + 18) U M P
#   of the exact one.
# - the scale M P takes four norms (about 4 U each) and four products: 20 U relative,
#   and the division one more, of a ratio at most 18: 378 U.  The sampled ratio is
#   within 1530 U + 378 U = 1908 U of the exact one.
# - each entry of R / s is within U of exact and a difference, at most 2 in size, within
#   5 U, so |T / s|_F is within 9 * 5 U = 45 U; summing 81 squares and the square root
#   add 84 U relative, of a norm at most 18: 1512 U.  The residual is within 1557 U of
#   the exact norm.
# The total, 3465 U, is about 3.8e-13.
SLACK = 3465 * U


def sampled_ratios(curv, x, y, z, u):
    """The sampled check: at each point for each row of four (m, 3) stacks, (n, m) each,
    |R(x, y, q^2 z, u) - R(x, y, z, q u)| and the larger of |R(x, y, z, u) - R(x, y, q z, q u)|
    and |R(x, y, z, u) - R(x, y, q^2 z, q^2 u)|, over max(max |R| |x| |y| |z| |u|, 1e-300)."""
    q2 = Q_DENSE @ Q_DENSE
    qz, q2z, qu, q2u = z @ Q_DENSE.T, z @ q2.T, u @ Q_DENSE.T, u @ q2.T
    r = curv.scalars(
        np.concatenate([x] * 5), np.concatenate([y] * 5),
        np.concatenate([q2z, z, z, qz, q2z]), np.concatenate([u, qu, u, qu, q2u]))
    r = r.reshape(len(r), 5, len(x))
    r31 = np.abs(r[:, 0] - r[:, 1])
    r36 = np.maximum(np.abs(r[:, 2] - r[:, 3]), np.abs(r[:, 2] - r[:, 4]))
    norms = np.prod([np.linalg.norm(v, axis=-1) for v in (x, y, z, u)], axis=0)
    scale = np.maximum(curv.max_abs[:, None] * norms, 1e-300)
    return r31 / scale, r36 / scale


def curvature_rows(f, points):
    """The curvature at the points of an (n, 3) array where D is not ~ 0, without the
    points its stencil skips or whose tensor is not finite."""
    metric = domain_check(f, points)
    curv = curvature_at(f, metric.take(np.flatnonzero(~metric.degenerate)))
    finite = np.isfinite(curv.r_down).all(axis=(0, 1, 2, 3))
    return curv.take([n for n in np.flatnonzero(finite).tolist() if n not in curv.skips])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["parallel", "generic"]))
def test_tensor_residual_bounds_every_sampled_ratio(seed, kind):
    # 8 points of [-2, 2]^3, and each moved to within 1e-4 to 1e-9 of the planes A = B
    # and A = -2B, where g's eigenvalues A - B and A + 2B vanish and R is large.
    rng = np.random.default_rng(seed)
    f = (random_parallel_pair if kind == "parallel" else random_field_pair)(rng)
    x = rng.uniform(-2.0, 2.0, size=(8, 3))
    offsets = 10.0 ** -rng.uniform(4.0, 9.0, size=len(x)) * rng.choice([-1.0, 1.0], size=len(x))
    near = [near_plane(f, p, c, off) for c in (1.0, -2.0) for p, off in zip(x, offsets)]
    with np.errstate(all="ignore"):
        curv = curvature_rows(f, np.concatenate([x, near]))
        assume(len(curv.max_abs))
        ratio31, ratio36 = sampled_ratios(curv, *rng.uniform(-2.0, 2.0, size=(4, 50, 3)))
    r31, r36 = identity_residuals(curv)
    assert (r31[:, None] >= ratio31 - SLACK).all()
    assert (r36[:, None] >= ratio36 - SLACK).all()


def test_parallel_pairs_stay_well_inside_identity_rel():
    # The paper example on the benchmark's grid, and the quadratic pair at random points.
    paper = curvature_rows(parse_field_spec("paper-example"),
                           np.array(expand_grid([1.1, 1.9, 8])))
    quadratic = curvature_rows(parse_field_spec(QUADRATIC_PAIR),
                               np.random.default_rng(0).uniform(-2.0, 2.0, size=(500, 3)))
    assert len(paper.max_abs) == 448 and len(quadratic.max_abs) == 500
    assert max(r.max() for r in identity_residuals(paper)) <= 1e-12
    assert max(r.max() for r in identity_residuals(quadratic)) <= REL / 2


@pytest.mark.parametrize("delta", [1.01 * REL, 1e-6, 1e-2, 1.0])
def test_one_perturbed_entry_fails_once_delta_exceeds_identity_rel(delta):
    # R' = R + delta max|R| at one entry.  Each difference tensor holds that entry twice,
    # at two places (q moves every index), so |T'|_F >= sqrt(2) delta / (1 + delta) less
    # the residual of R, which passes with 1e-13 to spare.
    f = parse_field_spec("paper-example")
    curv = curvature_rows(f, np.array(expand_grid([1.1, 1.9, 3])))
    assert len(curv.max_abs) == 18
    assert max(r.max() for r in identity_residuals(curv)) <= 1e-13
    for entry in np.ndindex(3, 3, 3, 3):
        r_down = curv.r_down.copy()
        r_down[entry] += delta * curv.max_abs
        mutated = CurvatureAtPoint(curv.r_up, r_down, curv.metric, {})
        r31, r36 = identity_residuals(mutated)
        assert (r31 > REL).all() and (r36 > REL).all()


def test_non_parallel_cubic_fails():
    # q is not parallel for the verify-generic pair, and the identities fail by far.
    curv = curvature_rows(parse_field_spec(CUBIC_PAIR),
                          np.random.default_rng(1).uniform(-2.0, 2.0, size=(64, 3)))
    assert len(curv.max_abs) > 32
    for r in identity_residuals(curv):
        assert r.min() > 1.0


def test_residuals_are_finite_wherever_the_tensor_is():
    # Entries of either sign from subnormal to the largest float: each entry of R / s is
    # at most 1 in size, so no difference or square overflows, and 3.1's norm is at
    # most 9 * 2.  An inf in R raises inf / inf; a NaN makes identity 3.2's scale NaN at
    # its point, which verify reports as not finite.
    rng = np.random.default_rng(7)
    size = 10.0 ** rng.uniform(-320.0, 308.0, size=64)
    r_down = rng.uniform(-1.0, 1.0, size=(3, 3, 3, 3, 64)) * size
    r_down[..., :4] = np.finfo(float).max * rng.choice([-1.0, 1.0], size=(3, 3, 3, 3, 4))
    r_up = rng.uniform(-1.0, 1.0, size=r_down.shape)
    with np.errstate(over="raise", invalid="raise"):
        for r in identity_residuals(CurvatureAtPoint(r_up, r_down, None, {})):
            assert np.isfinite(r).all() and r.max() <= 18.0
        r_down[1, 2, 0, 1, 5] = np.inf
        with pytest.raises(FloatingPointError):
            identity_residuals(CurvatureAtPoint(r_up, r_down, None, {}))
        r_down[1, 2, 0, 1, 5] = np.nan
        _, scale = identity_32_residual(CurvatureAtPoint(r_up, r_down, None, {}))
    assert np.flatnonzero(np.isnan(scale)).tolist() == [5]
