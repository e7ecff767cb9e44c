"""Curvature tensor, the shift-orbit 2-sections, and sectional curvatures.

The (1,3) curvature is assembled from the standard coordinate formula

    R^s_kji = d_k Gamma^s_ji - d_j Gamma^s_ki
              + Gamma^s_ka Gamma^a_ji - Gamma^s_ja Gamma^a_ki

with the Gamma derivatives taken by central differences of the general-path
Christoffel computation, with the fixed step FD_STEP.  The (0,4) tensor is
the g-lowering of the last index: R_kjis = g_as R^a_kji.

Every function works on an (n, 3) block of points, given as the block's metric
record (see ``domain_check``) taken at exactly the rows the value applies to:
D not ~ 0 for ``curvature_at``, g definite for ``sectional_curvature`` and
``theorem3_check``.  The caller skips the other rows.  A row whose value fails
here holds NaN, and its skip, the PointSkipped its record reports, sits in a
dict keyed by the row: a degenerate stencil point or a degenerate section.  The
checks contract the tensor against (m, 3) stacks of vectors shared by every
point, or (n, m, 3) stacks of each point's own, giving (n, m).
``sectional_curvature`` and ``theorem3_check`` build their own tensor;
``sectional_curvatures`` and ``orbit_spreads`` take one.  ``theorem3_check``
raises DependentOrbit, which depends on the seed alone, before it builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Q, Q_DENSE, circ_mul
from .connection import christoffel_general
from .errors import DegenerateSection, DependentOrbit, PointSkipped
from .fields import FieldPair, MetricAtPoint, degenerate_metric, domain_check, row

#: The shift applied twice, q^2: (x1, x2, x3) -> (x3, x1, x2).  Built from the
#: circulant product, since a matrix product at import starts BLAS and adds
#: its buffers to the resident size of runs that never need them.
Q2_DENSE = circ_mul(Q, Q).dense()

#: Step of the curvature stencil, h_k = FD_STEP * (1 + |x_k|).  1e-5 keeps the
#: truncation error of the curvature itself well below 1e-6, but the orbit-section
#: spread inherits the pair-symmetry defect of the differenced tensor and needs the
#: finer step to stay inside its tolerance.  h_k >= 1e-6 |x_k| (and h_k = 1e-6 at
#: x_k = 0) is far above half an ulp of x_k, about 1.1e-16 |x_k|, so x_k +- h_k
#: never rounds back to x_k.
FD_STEP = 1e-6


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed as np.linalg.norm sums one vector."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature at an (n, 3) block of points: r_up[s, k, j, i, n] and r_down[k, j, i, s, n],
    the block's metric record, and the skip of each point whose rows are NaN."""

    r_up: np.ndarray
    r_down: np.ndarray
    metric: MetricAtPoint
    skips: dict[int, PointSkipped]

    def scalars(self, x, y, z, u) -> np.ndarray:
        """R(x_m, y_m, z_m, u_m) at each point for each row m of four (m, 3) stacks, shared by
        the points, or of (n, m, 3) ones: (n, m).

        The sum runs over (k, j, i, s) in C order from 0.0, each term ((((R x) y) z) u): the
        bits of numpy's einsum, not hung on its choice of loops, in half its time over
        verify's blocks.  Like einsum, it overflows to inf without raising.
        """
        r = self.r_down[..., None]  # the point axis meets the stacks' first
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k, j, i, s in np.ndindex(3, 3, 3, 3):
                total = total + r[k, j, i, s] * x[..., k] * y[..., j] * z[..., i] * u[..., s]
        return total

    def scalar(self, x, y, z, u) -> np.ndarray:
        """The (0,4) evaluation R(x, y, z, u) of four 3-vectors at each point, (n,)."""
        return self.scalars(row(x), row(y), row(z), row(u))[:, 0]

    @property
    def max_abs(self) -> np.ndarray:
        """max |R_kjis| at each point, (n,)."""
        return np.max(np.abs(self.r_down), axis=(0, 1, 2, 3))

    def take(self, rows: list[int]) -> "CurvatureAtPoint":
        """The curvature at the points of the block that rows, a list of indices, names."""
        skips = self.skips and {k: self.skips[n] for k, n in enumerate(rows) if n in self.skips}
        return CurvatureAtPoint(self.r_up[..., rows], self.r_down[..., rows],
                                self.metric.take(rows), skips)


def curvature_at(f: FieldPair, metric: MetricAtPoint) -> CurvatureAtPoint:
    """Curvature at the points of a block's metric record, where D is not ~ 0, by central
    differencing of the Christoffel symbols (see FD_STEP), each row with the bits of its
    point as a block of one.

    Where D ~ 0 at a point of p's stencil, p's row is NaN and its skip the DegenerateMetric
    of the first in the order p, p + h_1 e_1, p - h_1 e_1, ..., p - h_3 e_3.
    """
    p = metric.point
    h = FD_STEP * (1.0 + np.abs(p.T))  # [k, n]
    stencil = np.repeat(p[None], 7, axis=0)  # p, then p + h_k e_k and p - h_k e_k for each k
    stencil[[1, 3, 5], :, [0, 1, 2]] += h
    stencil[[2, 4, 6], :, [0, 1, 2]] -= h
    gammas = np.array([christoffel_general(f, q) for q in stencil])  # [7, s, i, j, n]
    skipped = np.isnan(gammas).any(axis=(0, 1, 2, 3))
    dgamma = (gammas[1::2] - gammas[2::2]) / (2.0 * h[:, None, None, None])  # [k, s, i, j]
    dgamma[..., skipped] = np.nan  # a degenerate stencil point leaves NaN in only part of its row
    r_up = (
        dgamma.transpose(1, 0, 2, 3, 4)  # [s, k, j, i] = d_k Gamma^s_ji
        - dgamma.transpose(1, 2, 0, 3, 4)  # [s, k, j, i] = d_j Gamma^s_ki
        + np.einsum("ska...,aji...->skji...", gammas[0], gammas[0])
        - np.einsum("sja...,aki...->skji...", gammas[0], gammas[0])
    )
    r_down = np.einsum("as...,akji...->kjis...", metric.g.dense(), r_up)
    skips = {}
    if skipped.any():
        rows = np.flatnonzero(skipped)
        around = domain_check(f, stencil[:, rows].reshape(-1, 3))
        degenerate = around.degenerate.reshape(7, -1)
        for k, (n, i) in enumerate(zip(rows.tolist(), degenerate.argmax(axis=0).tolist())):
            if degenerate[i, k]:
                skips[n] = degenerate_metric(around.d[i * len(rows) + k], stencil[i, n])
    return CurvatureAtPoint(r_up, r_down, metric, skips)


def identity_residuals(curv: CurvatureAtPoint, x, y, z, u) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of identities 3.1 and 3.6 at each point for each row of four stacks, (n, m):
    3.1 is |R(x, y, q^2 z, u) - R(x, y, z, q u)|; 3.6 is the larger of
    |R(x, y, z, u) - R(x, y, q z, q u)| and |R(x, y, z, u) - R(x, y, q^2 z, q^2 u)|.
    """
    qz, q2z = z @ Q_DENSE.T, z @ Q2_DENSE.T
    qu, q2u = u @ Q_DENSE.T, u @ Q2_DENSE.T
    r = curv.scalars(
        np.concatenate([x] * 5, axis=-2),
        np.concatenate([y] * 5, axis=-2),
        np.concatenate([q2z, z, z, qz, q2z], axis=-2),
        np.concatenate([u, qu, u, qu, q2u], axis=-2),
    )
    r = r.reshape(*r.shape[:-1], 5, x.shape[-2])
    r31 = np.abs(r[..., 0, :] - r[..., 1, :])
    r36 = np.maximum(np.abs(r[..., 2, :] - r[..., 3, :]), np.abs(r[..., 2, :] - r[..., 4, :]))
    return r31, r36


def identity_32_residual(curv: CurvatureAtPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residual of identity 3.2 at each point, max |R^s_kja q_ia - q_as R^a_kji|, and the
    scale it is read against, the larger of max |R_kjis| and max |R^s_kji| (at least
    1e-300): two (n,) arrays."""
    lhs = np.einsum("skja...,ia->skji...", curv.r_up, Q_DENSE)
    rhs = np.einsum("akji...,as->skji...", curv.r_up, Q_DENSE)
    residual = np.max(np.abs(lhs - rhs), axis=(0, 1, 2, 3))
    r_up_max = np.max(np.abs(curv.r_up), axis=(0, 1, 2, 3))
    return residual, np.maximum(np.maximum(curv.max_abs, r_up_max), 1e-300)


def circ_apply_q2(v) -> np.ndarray:
    """Apply the shift twice: (x1, x2, x3) -> (x3, x1, x2)."""
    return Q_DENSE @ (Q_DENSE @ np.asarray(v, float))


def independence_cubic(x) -> float:
    """3 x1 x2 x3 - (x1)^3 - (x2)^3 - (x3)^3; nonzero iff {x, qx, q^2x} spans."""
    x1, x2, x3 = np.asarray(x, dtype=float)
    return 3.0 * x1 * x2 * x3 - x1 * x1 * x1 - x2 * x2 * x2 - x3 * x3 * x3


def _unit_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v with each row scaled, exactly, by the 2**k that puts its largest |entry| in [1, 2); k."""
    _, e = np.frexp(np.max(np.abs(v), axis=-1))
    return np.ldexp(v, (1 - e)[..., None]), 1 - e


def sections_of(x) -> float:
    """The independence cubic of x, once x admits the sections {x,qx}, {qx,q2x}, {q2x,x}:
    DependentOrbit where it vanishes (weighed on x scaled by _unit_rows, lest it underflow)."""
    x = np.asarray(x, dtype=float)
    cubic = independence_cubic(x)
    unit, _ = _unit_rows(x)
    if abs(independence_cubic(unit)) <= 1e-12 * float(np.linalg.norm(unit)) ** 3:
        raise DependentOrbit(
            f"orbit of {tuple(x.tolist())} is linearly dependent (cubic = {cubic})")
    return float(cubic)


def _gram_terms(metric: MetricAtPoint, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Per row pair: g(u,u) g(v,v) - g(u,v)^2 and the product g(u,u) g(v,v)."""
    n = u.shape[-2]
    inners = metric.inners(np.concatenate([u, v, u], axis=-2), np.concatenate([u, v, v], axis=-2))
    uu, vv, uv = inners[..., :n], inners[..., n:2 * n], inners[..., 2 * n:]
    norms = uu * vv
    return norms - uv * uv, norms


def gram_determinant(metric: MetricAtPoint, u, v) -> np.ndarray:
    """g(u,u) g(v,v) - g(u,v)^2 for the spanning pair at each point of a block, (n,)."""
    return _gram_terms(metric, row(u), row(v))[0][:, 0]


def sectional_curvatures(curv: CurvatureAtPoint, u, v) -> tuple[np.ndarray, dict]:
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2) at each point, where g is definite,
    for each row of two (m, 3) stacks, or of (n, m, 3) ones: (n, m), and the skips.

    A point's skip is the first of: curv's (a degenerate point of its stencil), then
    DegenerateSection, whose pairs alone are NaN.  mu has degree 0 in u and v: rows scaled
    by _unit_rows give x and 2**k x its bits, and no underflow.
    """
    (su, ku), (sv, kv) = _unit_rows(u), _unit_rows(v)
    gram, norms = _gram_terms(curv.metric, su, sv)
    r = curv.scalars(su, sv, su, sv)
    # A zero product of norms is replaced by 1, so the threshold stays positive.
    bad = gram <= 1e-12 * np.abs(np.where(norms == 0.0, 1.0, norms))
    skips = {}
    for n in np.flatnonzero(bad.any(axis=-1)).tolist():
        i = int(np.argmax(bad[n]))  # the determinant of the pair as given
        det = np.ldexp(gram[n, i], -2 * np.broadcast_to(ku + kv, bad.shape)[n, i])
        pu, pv = (tuple(np.broadcast_to(w, (*bad.shape, 3))[n, i].tolist()) for w in (u, v))
        skips[n] = DegenerateSection(
            f"Gram determinant {float(det)} too small for pair ({pu}, {pv})")
    skips.update(curv.skips)
    gram = np.where(bad, np.nan, gram)
    r = np.where(np.isnan(r) & ~np.isnan(curv.max_abs)[:, None], np.inf, r)
    return r / gram, skips


def sectional_curvature(f: FieldPair, metric: MetricAtPoint, u, v) -> tuple[np.ndarray, dict]:
    """mu(u, v) at the points of a block's metric record, where g is definite, (n,), and the
    skips of sectional_curvatures."""
    mu, skips = sectional_curvatures(curvature_at(f, metric), row(u), row(v))
    return mu[:, 0], skips


def orbit_spreads(curv: CurvatureAtPoint, seeds, spread_rel: float, spread_abs: float) -> tuple:
    """Theorem 3 at each point for each row x of an (m, 3) stack of seeds, or of an
    (n, m, 3) one: mu (n, m, 3) of the sections {x, qx}, {qx, q^2x}, {q^2x, x}, their
    largest pairwise difference (n, m), whether it is within spread_rel * max|mu| +
    spread_abs (n, m), and the skips of sectional_curvatures.  The orbits must span."""
    x = np.asarray(seeds, dtype=float)
    qx = x @ Q_DENSE.T
    q2x = qx @ Q_DENSE.T
    mu, skips = sectional_curvatures(
        curv, np.concatenate([x, qx, q2x], axis=-2), np.concatenate([qx, q2x, x], axis=-2))
    mu = mu.reshape(*mu.shape[:-1], 3, x.shape[-2]).swapaxes(-1, -2)
    m0, m1, m2 = mu[..., 0], mu[..., 1], mu[..., 2]
    spread = np.maximum(np.maximum(np.abs(m0 - m1), np.abs(m0 - m2)), np.abs(m1 - m2))
    tol = spread_rel * np.abs(mu).max(axis=-1) + spread_abs
    return mu, spread, spread <= tol, skips


def theorem3_check(f: FieldPair, metric: MetricAtPoint, x, spread_rel: float,
                   spread_abs: float) -> tuple:
    """Theorem 3 at the points of a block's metric record, where g is definite, for the seed
    x: orbit_spreads' mu (n, 3), spread and pass (n,), its skips, and x's cubic.  Raises
    sections_of's DependentOrbit before any tensor is built."""
    cubic = sections_of(x)
    mu, spread, passed, skips = orbit_spreads(curvature_at(f, metric), row(x), spread_rel,
                                              spread_abs)
    return mu[:, 0], spread[:, 0], passed[:, 0], skips, cubic


def residual_scales(curv: CurvatureAtPoint, *stacks) -> np.ndarray:
    """Magnitude reference for identity residual tolerances at each point, per row of stacks."""
    prod = 1.0
    for v in stacks:
        prod = prod * _norms(v)
    return curv.max_abs[:, None] * prod


def residual_scale(curv: CurvatureAtPoint, *vectors) -> np.ndarray:
    """Magnitude reference for curvature-identity residual tolerances at each point, (n,)."""
    return residual_scales(curv, *map(row, vectors))[:, 0]
