"""Curvature tensor, the shift-orbit 2-sections, and sectional curvatures.

The (1,3) curvature is assembled from the standard coordinate formula

    R^s_kji = d_k Gamma^s_ji - d_j Gamma^s_ki
              + Gamma^s_ka Gamma^a_ji - Gamma^s_ja Gamma^a_ki

with the Gamma derivatives taken by central differences of the general-path
Christoffel computation.  The (0,4) tensor is the g-lowering of the last
index: R_kjis = g_as R^a_kji.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Q_DENSE
from .connection import christoffel_general, parallel_defect
from .errors import (
    DegenerateSection,
    DependentOrbit,
    IndefiniteMetric,
    StencilCollapsed,
    StencilTooWide,
)
from .fields import FieldPair, MetricAtPoint, metric_at

# Step for the Gamma derivatives.  1e-5 keeps the truncation error of the
# curvature itself well below 1e-6, but the orbit-section spread inherits
# the pair-symmetry defect of the differenced tensor and needs the finer
# step to stay inside its tolerance.
DEFAULT_FD_STEP = 1e-6


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature at one point: r_up[s, k, j, i] and r_down[k, j, i, s]."""

    r_up: np.ndarray
    r_down: np.ndarray
    point: np.ndarray
    fd_step: float
    metric: MetricAtPoint

    def scalar(self, x, y, z, u) -> float:
        """The (0,4) evaluation R(x, y, z, u)."""
        return float(
            np.einsum(
                "kjis,k,j,i,s->",
                self.r_down,
                np.asarray(x, float),
                np.asarray(y, float),
                np.asarray(z, float),
                np.asarray(u, float),
            )
        )

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.r_down)))


def curvature_at(
    f: FieldPair,
    p,
    h: float = DEFAULT_FD_STEP,
    domain: tuple[np.ndarray, np.ndarray] | None = None,
) -> CurvatureAtPoint:
    """Curvature by central differencing of the Christoffel symbols.

    Every stencil point p +- h_k e_k must differ from p (StencilCollapsed
    otherwise, as when h is below the coordinate's precision), must itself be
    nondegenerate (DegenerateMetric otherwise) and, when a bounding box is
    supplied, must lie inside it (StencilTooWide otherwise).
    """
    p = np.asarray(p, dtype=float)
    metric = metric_at(f, p)
    gamma0 = christoffel_general(f, p).gamma

    dgamma = np.empty((3, 3, 3, 3))  # [k, s, i, j]
    for k in range(3):
        hk = h * (1.0 + abs(p[k]))
        up = p.copy()
        dn = p.copy()
        up[k] += hk
        dn[k] -= hk
        if up[k] == p[k] or dn[k] == p[k]:
            raise StencilCollapsed(
                f"step {h!r} vanishes against coordinate {p[k]} (axis {k}) at {tuple(p.tolist())}"
            )
        if domain is not None:
            lo, hi = domain
            if np.any(up > hi) or np.any(dn < lo):
                raise StencilTooWide(f"stencil at {tuple(p)} (axis {k}) leaves the domain")
        gamma_up = christoffel_general(f, up).gamma
        gamma_dn = christoffel_general(f, dn).gamma
        dgamma[k] = (gamma_up - gamma_dn) / (2.0 * hk)

    r_up = (
        np.einsum("ksji->skji", dgamma)
        - np.einsum("jski->skji", dgamma)
        + np.einsum("ska,aji->skji", gamma0, gamma0)
        - np.einsum("sja,aki->skji", gamma0, gamma0)
    )
    r_down = np.einsum("as,akji->kjis", metric.g.dense(), r_up)
    return CurvatureAtPoint(r_up=r_up, r_down=r_down, point=p, fd_step=h, metric=metric)


def identity_31_residual(
    f: FieldPair, p, x, y, z, u, h: float = DEFAULT_FD_STEP, curv: CurvatureAtPoint | None = None
) -> float:
    """|R(x, y, q^2 z, u) - R(x, y, z, q u)|."""
    if curv is None:
        curv = curvature_at(f, p, h)
    qz2 = circ_apply_q2(z)
    qu = Q_DENSE @ np.asarray(u, float)
    return abs(curv.scalar(x, y, qz2, u) - curv.scalar(x, y, z, qu))


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
        raise DependentOrbit(f"orbit of {tuple(x)} is linearly dependent (cubic = {cubic})")
    metric = metric_at(f, p)
    if not metric.definite:
        raise IndefiniteMetric(f"metric not positive definite at {tuple(np.asarray(p, float))}")
    qx = Q_DENSE @ x
    q2x = Q_DENSE @ qx
    return SectionReport(
        x=x,
        sections=((x, qx), (qx, q2x), (q2x, x)),
        independence=cubic,
    )


def gram_determinant(metric: MetricAtPoint, u, v) -> float:
    """g(u,u) g(v,v) - g(u,v)^2 for the spanning pair."""
    return metric.inner(u, u) * metric.inner(v, v) - metric.inner(u, v) ** 2


def sectional_curvature(
    f: FieldPair, p, u, v, h: float = DEFAULT_FD_STEP, curv: CurvatureAtPoint | None = None
) -> float:
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2)."""
    if curv is None:
        curv = curvature_at(f, p, h)
    metric = curv.metric
    if not metric.definite:
        raise IndefiniteMetric(f"metric not positive definite at {tuple(curv.point)}")
    gram = gram_determinant(metric, u, v)
    scale = (metric.inner(u, u) * metric.inner(v, v)) or 1.0
    if gram <= 1e-12 * abs(scale):
        raise DegenerateSection(f"Gram determinant {gram} too small for pair ({u}, {v})")
    return curv.scalar(u, v, u, v) / gram


def theorem3_check(
    f: FieldPair,
    p,
    x,
    h: float = DEFAULT_FD_STEP,
    spread_rel: float = 1e-6,
    spread_abs: float = 1e-9,
    curv: CurvatureAtPoint | None = None,
) -> SectionReport:
    """Sectional curvatures of the three orbit sections and their spread."""
    skeleton = sections_of(f, p, x)
    if curv is None:
        curv = curvature_at(f, p, h)
    mu = tuple(sectional_curvature(f, p, u, v, curv=curv) for u, v in skeleton.sections)
    spread = max(abs(mu[i] - mu[j]) for i in range(3) for j in range(i + 1, 3))
    tol = spread_rel * max(abs(m) for m in mu) + spread_abs
    return SectionReport(
        x=skeleton.x,
        sections=skeleton.sections,
        independence=skeleton.independence,
        mu=mu,
        spread=spread,
        passed=spread <= tol,
    )


def residual_scale(curv: CurvatureAtPoint, *vectors) -> float:
    """Magnitude reference for curvature-identity residual tolerances."""
    prod = 1.0
    for v in vectors:
        prod *= float(np.linalg.norm(np.asarray(v, float)))
    return curv.max_abs * prod


def parallelism_holds(f: FieldPair, p, tol: float = 1e-9) -> bool:
    defect = parallel_defect(f, p)
    return float(np.max(np.abs(defect))) <= tol
