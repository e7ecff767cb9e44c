"""Curvature tensor, the shift-orbit 2-sections, and sectional curvatures.

The (1,3) curvature is assembled from the standard coordinate formula

    R^s_kji = d_k Gamma^s_ji - d_j Gamma^s_ki
              + Gamma^s_ka Gamma^a_ji - Gamma^s_ja Gamma^a_ki

with the Gamma derivatives taken by central differences of the general-path
Christoffel computation, with the field pair's fd_step.  The (0,4) tensor is
the g-lowering of the last index: R_kjis = g_as R^a_kji.

The checks contract the tensor against (n, 3) stacks of vectors, one row per
vector; the single-vector functions are the n = 1 case of the stacked ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Q, Q_DENSE, circ_mul
from .connection import christoffel_general
from .errors import DegenerateSection, DependentOrbit, IndefiniteMetric
from .fields import FieldPair, MetricAtPoint, central_differences, domain_check, metric_at, row

#: The shift applied twice, q^2: (x1, x2, x3) -> (x3, x1, x2).  Built from the
#: circulant product, since a matrix product at import starts BLAS and adds
#: its buffers to the resident size of runs that never need them.
Q2_DENSE = circ_mul(Q, Q).dense()


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, summed as np.linalg.norm sums one vector."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature at one point: r_up[s, k, j, i] and r_down[k, j, i, s].

    At an (n, 3) block of points the batch axis comes last, r_up[s, k, j, i, n]
    and r_down[k, j, i, s, n], and point and metric are those of the block.
    """

    r_up: np.ndarray
    r_down: np.ndarray
    point: np.ndarray
    metric: MetricAtPoint

    def scalars(self, x, y, z, u) -> np.ndarray:
        """R(x_m, y_m, z_m, u_m) for each row m of four (m, 3) stacks; over a block, (n, m)."""
        return np.einsum("kjis...,mk,mj,mi,ms->...m", self.r_down, x, y, z, u)

    def scalar(self, x, y, z, u) -> float:
        """The (0,4) evaluation R(x, y, z, u)."""
        return float(self.scalars(row(x), row(y), row(z), row(u))[0])

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.r_down)))


def curvature_at(f: FieldPair, p) -> CurvatureAtPoint:
    """Curvature by central differencing of the Christoffel symbols with step f.fd_step.

    Every stencil point p +- h_k e_k must differ from p (StencilCollapsed
    otherwise, as when the step is below the coordinate's precision) and must
    itself be nondegenerate (DegenerateMetric otherwise).  Over an (n, 3) block
    of points, Gamma is evaluated once at the centres and once per stencil block,
    each row of the tensors has the bits of the one-point call, and the rows
    where that call would raise DegenerateMetric are NaN.
    """
    p = np.asarray(p, dtype=float)
    block = p.ndim == 2
    metric = domain_check(f, p) if block else metric_at(f, p)
    gamma0 = christoffel_general(f, p)
    centres = p if block else p.tolist()
    dgamma = np.array(  # [k, s, i, j]
        central_differences(lambda q: christoffel_general(f, q), centres, f.fd_step)
    )

    # A block's axis stays last; transpose, because np.moveaxis costs microseconds
    # a call, which the one-point path would pay at every verified point.
    batch = range(4, dgamma.ndim)
    r_up = (
        dgamma.transpose(1, 0, 2, 3, *batch)  # [s, k, j, i] = d_k Gamma^s_ji
        - dgamma.transpose(1, 2, 0, 3, *batch)  # [s, k, j, i] = d_j Gamma^s_ki
        + np.einsum("ska...,aji...->skji...", gamma0, gamma0)
        - np.einsum("sja...,aki...->skji...", gamma0, gamma0)
    )
    r_down = np.einsum("as...,akji...->kjis...", metric.g.dense(), r_up)
    return CurvatureAtPoint(r_up=r_up, r_down=r_down, point=p, metric=metric)


def identity_residuals(curv: CurvatureAtPoint, x, y, z, u) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of identities 3.1 and 3.6 for each row of four (n, 3) stacks.

    3.1 is |R(x, y, q^2 z, u) - R(x, y, z, q u)|; 3.6 is the larger of
    |R(x, y, z, u) - R(x, y, q z, q u)| and |R(x, y, z, u) - R(x, y, q^2 z, q^2 u)|.
    """
    qz, q2z = z @ Q_DENSE.T, z @ Q2_DENSE.T
    qu, q2u = u @ Q_DENSE.T, u @ Q2_DENSE.T
    n = len(x)
    r = curv.scalars(
        np.concatenate([x] * 5),
        np.concatenate([y] * 5),
        np.concatenate([q2z, z, z, qz, q2z]),
        np.concatenate([u, qu, u, qu, q2u]),
    ).reshape(5, n)
    r31 = np.abs(r[0] - r[1])
    r36 = np.maximum(np.abs(r[2] - r[3]), np.abs(r[2] - r[4]))
    return r31, r36


def identity_32_residual(curv: CurvatureAtPoint) -> tuple[float, float]:
    """Residual of identity 3.2 on the (1,3) tensor, and the scale it is read against.

    The residual is max |R^s_kja q_ia - q_as R^a_kji|; the scale is the larger
    of max |R_kjis| and max |R^s_kji| (at least 1e-300).
    """
    lhs = np.einsum("skja,ia->skji", curv.r_up, Q_DENSE)
    rhs = np.einsum("akji,as->skji", curv.r_up, Q_DENSE)
    residual = float(np.max(np.abs(lhs - rhs)))
    return residual, max(curv.max_abs, float(np.max(np.abs(curv.r_up))), 1e-300)


def circ_apply_q2(v) -> np.ndarray:
    """Apply the shift twice: (x1, x2, x3) -> (x3, x1, x2)."""
    return Q_DENSE @ (Q_DENSE @ np.asarray(v, float))


def independence_cubic(x) -> float:
    """3 x1 x2 x3 - (x1)^3 - (x2)^3 - (x3)^3; nonzero iff {x, qx, q^2x} spans."""
    x1, x2, x3 = np.asarray(x, dtype=float)
    return 3.0 * x1 * x2 * x3 - x1**3 - x2**3 - x3**3


@dataclass(frozen=True)
class SectionReport:
    """The three shift-orbit 2-sections of a seed vector and their curvatures."""

    x: np.ndarray
    sections: tuple[tuple[np.ndarray, np.ndarray], ...]
    independence: float
    mu: tuple[float, float, float] | None = None
    spread: float | None = None
    passed: bool | None = None


def sections_of(f: FieldPair, p, x) -> SectionReport:
    """Build the three ordered pairs {x,qx}, {qx,q2x}, {q2x,x}.

    Raises DependentOrbit when the independence cubic vanishes and
    IndefiniteMetric when the metric at p is not positive definite.
    """
    x = np.asarray(x, dtype=float)
    cubic = independence_cubic(x)
    norm = float(np.linalg.norm(x))
    if abs(cubic) <= 1e-12 * norm**3:
        raise DependentOrbit(
            f"orbit of {tuple(x.tolist())} is linearly dependent (cubic = {cubic})"
        )
    metric = metric_at(f, p)
    if not metric.definite:
        raise IndefiniteMetric(
            f"metric not positive definite at {tuple(np.asarray(p, float).tolist())}"
        )
    qx = Q_DENSE @ x
    q2x = Q_DENSE @ qx
    return SectionReport(
        x=x,
        sections=((x, qx), (qx, q2x), (q2x, x)),
        independence=cubic,
    )


def _gram_terms(metric: MetricAtPoint, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Per row pair: g(u,u) g(v,v) - g(u,v)^2 and the product g(u,u) g(v,v)."""
    n = len(u)
    inners = metric.inners(np.concatenate([u, v, u]), np.concatenate([u, v, v]))
    uu, vv, uv = inners[..., :n], inners[..., n:2 * n], inners[..., 2 * n:]
    norms = uu * vv
    # Python's float ** 2 goes through libm pow, which is not always the
    # correctly rounded x * x that numpy squares with; keep the scalar bits.
    cross2 = np.array([c**2 for c in uv.ravel().tolist()]).reshape(uv.shape)
    return norms - cross2, norms


def gram_determinant(metric: MetricAtPoint, u, v) -> float:
    """g(u,u) g(v,v) - g(u,v)^2 for the spanning pair."""
    return float(_gram_terms(metric, row(u), row(v))[0][0])


def sectional_curvatures(curv: CurvatureAtPoint, u, v) -> np.ndarray:
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2) for each row of two (m, 3) stacks.

    At one point an indefinite metric raises IndefiniteMetric and a degenerate
    section DegenerateSection; over an (n, 3) block of points the result is
    (n, m), with NaN where the metric is indefinite or the section degenerate.
    """
    metric = curv.metric
    block = curv.point.ndim == 2
    if not (block or metric.definite):
        raise IndefiniteMetric(f"metric not positive definite at {tuple(curv.point.tolist())}")
    gram, norms = _gram_terms(metric, u, v)
    # A zero product of norms is replaced by 1, so the threshold stays positive.
    bad = gram <= 1e-12 * np.abs(np.where(norms == 0.0, 1.0, norms))
    if block:
        gram = np.where(bad | ~metric.definite[:, None], np.nan, gram)
    elif bad.any():
        i = int(np.argmax(bad))
        raise DegenerateSection(
            f"Gram determinant {float(gram[i])} too small for pair ({u[i]}, {v[i]})"
        )
    return curv.scalars(u, v, u, v) / gram


def sectional_curvature(f: FieldPair, p, u, v, curv: CurvatureAtPoint | None = None):
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2): a float at one point; over an
    (n, 3) block, an (n,) array with NaN where the one-point call would skip."""
    if curv is None:
        curv = curvature_at(f, p)
    mu = sectional_curvatures(curv, row(u), row(v))
    return mu[:, 0] if curv.point.ndim == 2 else float(mu[0])


def orbit_spreads(
    curv: CurvatureAtPoint, seeds, spread_rel: float, spread_abs: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 3 for each row x of an (n, 3) stack of seeds.

    Returns the sectional curvatures mu (n, 3) of the sections {x, qx},
    {qx, q^2x}, {q^2x, x}, their largest pairwise difference (n,), and
    whether it is within spread_rel * max|mu| + spread_abs (n,).  The seeds'
    orbits must span (see sections_of).
    """
    x = np.asarray(seeds, dtype=float)
    qx = x @ Q_DENSE.T
    q2x = qx @ Q_DENSE.T
    mu = sectional_curvatures(
        curv, np.concatenate([x, qx, q2x]), np.concatenate([qx, q2x, x])
    ).reshape(3, len(x)).T
    m0, m1, m2 = mu.T
    spread = np.maximum(np.maximum(np.abs(m0 - m1), np.abs(m0 - m2)), np.abs(m1 - m2))
    tol = spread_rel * np.abs(mu).max(axis=1) + spread_abs
    return mu, spread, spread <= tol


def theorem3_check(
    f: FieldPair,
    p,
    x,
    spread_rel: float,
    spread_abs: float,
    curv: CurvatureAtPoint | None = None,
) -> SectionReport:
    """Sectional curvatures of the three orbit sections and their spread."""
    skeleton = sections_of(f, p, x)
    if curv is None:
        curv = curvature_at(f, p)
    mu, spread, passed = orbit_spreads(curv, row(skeleton.x), spread_rel, spread_abs)
    return SectionReport(
        x=skeleton.x,
        sections=skeleton.sections,
        independence=skeleton.independence,
        mu=tuple(mu[0].tolist()),
        spread=float(spread[0]),
        passed=bool(passed[0]),
    )


def residual_scales(curv: CurvatureAtPoint, *stacks) -> np.ndarray:
    """Magnitude reference for identity residual tolerances, per row of (n, 3) stacks."""
    prod = 1.0
    for v in stacks:
        prod = prod * _norms(v)
    return curv.max_abs * prod


def residual_scale(curv: CurvatureAtPoint, *vectors) -> float:
    """Magnitude reference for curvature-identity residual tolerances."""
    return float(residual_scales(curv, *map(row, vectors))[0])
