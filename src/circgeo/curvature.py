"""Curvature tensor, the shift-orbit 2-sections, and sectional curvatures.

The (1,3) curvature is assembled from the standard coordinate formula

    R^s_kji = d_k Gamma^s_ji - d_j Gamma^s_ki
              + Gamma^s_ka Gamma^a_ji - Gamma^s_ja Gamma^a_ki

with the Gamma derivatives taken by central differences of the general-path
Christoffel computation, with the fixed step FD_STEP.  The (0,4) tensor is
the g-lowering of the last index: R_kjis = g_as R^a_kji.

The checks contract the tensor against (m, 3) stacks of vectors, one row per
vector.  Over a block of n points they take stacks shared by every point, or
(n, m, 3) stacks with each point's own m vectors, and return (n, m).
``sectional_curvature`` and ``theorem3_check`` build their own tensor; a caller
that holds one calls ``sectional_curvatures`` or ``orbit_spreads``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Q, Q_DENSE, circ_mul
from .connection import christoffel_general
from .errors import DegenerateSection, DependentOrbit, IndefiniteMetric
from .fields import FieldPair, MetricAtPoint, domain_check, metric_at, row

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


def _per_point(values: np.ndarray):
    """A float at one point, or the (n,) array of a block."""
    return values if values.ndim else float(values)


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
        """R(x_m, y_m, z_m, u_m) for each row m of four (m, 3) stacks; over a block, (n, m)
        from shared stacks or (n, m, 3) ones.

        The sum runs over (k, j, i, s) in C order from 0.0, each term ((((R x) y) z) u):
        the bits numpy's einsum gives these operands, in an order that does not hang on
        einsum's choice of loops, and in about half its time over verify's blocks.  Like
        einsum, it overflows to inf without raising.
        """
        r = self.r_down[..., None]  # a block's point axis meets the stacks' first
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for k, j, i, s in np.ndindex(3, 3, 3, 3):
                total = total + r[k, j, i, s] * x[..., k] * y[..., j] * z[..., i] * u[..., s]
        return total

    def scalar(self, x, y, z, u) -> float:
        """The (0,4) evaluation R(x, y, z, u)."""
        return float(self.scalars(row(x), row(y), row(z), row(u))[0])

    @property
    def max_abs(self):
        """max |R_kjis|: a float at one point, (n,) over a block."""
        return _per_point(np.max(np.abs(self.r_down), axis=(0, 1, 2, 3)))

    def take(self, rows: list[int]) -> "CurvatureAtPoint":
        """The curvature at the points of a block that rows, a list of indices, names."""
        m = self.metric
        metric = MetricAtPoint(*(v[rows] for v in (m.a, m.b, m.d, m.degenerate, m.definite)))
        return CurvatureAtPoint(
            self.r_up[..., rows], self.r_down[..., rows], self.point[rows], metric
        )


def central_differences(func, x: np.ndarray) -> list:
    """(func(x + h_k e_k) - func(x - h_k e_k)) / (2 h_k), h_k = FD_STEP * (1 + |x_k|), k = 0, 1, 2.

    x is one point, an array of three floats, or an (n, 3) array of points, and one
    path serves both: x[..., k] is the point's k-th coordinate or the block's k-th
    column, so h_k is one float or one per row.  func takes points of the same kind,
    and its values over a block carry the batch axis last.
    """
    derivatives = []
    for k in range(3):
        h = FD_STEP * (1.0 + abs(x[..., k]))
        up, dn = x.copy(), x.copy()
        up[..., k] += h
        dn[..., k] -= h
        derivatives.append((func(up) - func(dn)) / (2.0 * h))
    return derivatives


def curvature_at(f: FieldPair, p) -> CurvatureAtPoint:
    """Curvature by central differencing of the Christoffel symbols (see FD_STEP).

    Every stencil point p +- h_k e_k must itself be nondegenerate (DegenerateMetric
    otherwise).  Over an (n, 3) block of points, Gamma is evaluated once at the
    centres and once per stencil block, each row of the tensors has the bits of the
    one-point call, and the rows where that call would raise DegenerateMetric are NaN.
    """
    p = np.asarray(p, dtype=float)
    metric = domain_check(f, p)
    gamma0 = christoffel_general(f, p)
    dgamma = np.array(central_differences(lambda q: christoffel_general(f, q), p))  # [k, s, i, j]
    if p.ndim == 2:  # a degenerate stencil point leaves NaN in only part of its row
        dgamma[..., np.isnan(dgamma).any(axis=(0, 1, 2, 3))] = np.nan

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
    """Residuals of identities 3.1 and 3.6 for each row of four (m, 3) stacks, or of
    (n, m, 3) stacks over a block.

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


def identity_32_residual(curv: CurvatureAtPoint):
    """Residual of identity 3.2 on the (1,3) tensor, and the scale it is read against:
    floats at one point, (n,) arrays over a block.

    The residual is max |R^s_kja q_ia - q_as R^a_kji|; the scale is the larger
    of max |R_kjis| and max |R^s_kji| (at least 1e-300).
    """
    lhs = np.einsum("skja...,ia->skji...", curv.r_up, Q_DENSE)
    rhs = np.einsum("akji...,as->skji...", curv.r_up, Q_DENSE)
    residual = np.max(np.abs(lhs - rhs), axis=(0, 1, 2, 3))
    r_up_max = np.max(np.abs(curv.r_up), axis=(0, 1, 2, 3))
    return _per_point(residual), _per_point(np.maximum(np.maximum(curv.max_abs, r_up_max), 1e-300))


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


def sections_of(f: FieldPair, p, x) -> float:
    """The independence cubic of x, once x and p admit the sections {x,qx}, {qx,q2x}, {q2x,x}.

    Raises DependentOrbit when the independence cubic vanishes (weighed on x scaled by
    _unit_rows, lest it underflow) and IndefiniteMetric when the metric at p is not
    positive definite."""
    x = np.asarray(x, dtype=float)
    cubic = independence_cubic(x)
    unit, _ = _unit_rows(x)
    if abs(independence_cubic(unit)) <= 1e-12 * float(np.linalg.norm(unit)) ** 3:
        raise DependentOrbit(
            f"orbit of {tuple(x.tolist())} is linearly dependent (cubic = {cubic})"
        )
    metric = metric_at(f, p)
    if not metric.definite:
        raise IndefiniteMetric(
            f"metric not positive definite at {tuple(np.asarray(p, float).tolist())}"
        )
    return cubic


def _gram_terms(metric: MetricAtPoint, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Per row pair: g(u,u) g(v,v) - g(u,v)^2 and the product g(u,u) g(v,v)."""
    n = u.shape[-2]
    inners = metric.inners(np.concatenate([u, v, u], axis=-2), np.concatenate([u, v, v], axis=-2))
    uu, vv, uv = inners[..., :n], inners[..., n:2 * n], inners[..., 2 * n:]
    norms = uu * vv
    return norms - uv * uv, norms


def gram_determinant(metric: MetricAtPoint, u, v) -> float:
    """g(u,u) g(v,v) - g(u,v)^2 for the spanning pair."""
    return float(_gram_terms(metric, row(u), row(v))[0][0])


def sectional_curvatures(curv: CurvatureAtPoint, u, v) -> np.ndarray:
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2) for each row of two (m, 3) stacks.

    At one point an indefinite metric raises IndefiniteMetric and a degenerate
    section DegenerateSection; over an (n, 3) block of points, with shared or
    (n, m, 3) stacks, the result is (n, m), with NaN where the metric is
    indefinite or the section degenerate.  mu has degree 0 in u and in v: rows scaled
    by _unit_rows give x and 2**k x the same bits, and its degree-4 terms no underflow.
    """
    metric = curv.metric
    block = curv.point.ndim == 2
    if not (block or metric.definite):
        raise IndefiniteMetric(f"metric not positive definite at {tuple(curv.point.tolist())}")
    (su, ku), (sv, kv) = _unit_rows(u), _unit_rows(v)
    gram, norms = _gram_terms(metric, su, sv)
    r = curv.scalars(su, sv, su, sv)
    # A zero product of norms is replaced by 1, so the threshold stays positive.
    bad = gram <= 1e-12 * np.abs(np.where(norms == 0.0, 1.0, norms))
    if block:  # NaN marks a skip; a finite tensor's sum that met inf - inf is inf instead
        gram = np.where(bad | ~metric.definite[:, None], np.nan, gram)
        r = np.where(np.isnan(r) & ~np.isnan(curv.max_abs)[:, None], np.inf, r)
    elif bad.any():
        i = int(np.argmax(bad))
        raise DegenerateSection(  # the determinant of the pair as given
            f"Gram determinant {float(np.ldexp(gram[i], -2 * (ku[i] + kv[i])))} too small"
            f" for pair ({tuple(u[i].tolist())}, {tuple(v[i].tolist())})"
        )
    return r / gram


def sectional_curvature(f: FieldPair, p, u, v):
    """mu = R(u, v, u, v) / (g(u,u) g(v,v) - g(u,v)^2): a float at one point; over an
    (n, 3) block, an (n,) array with NaN where the one-point call would skip."""
    curv = curvature_at(f, p)
    mu = sectional_curvatures(curv, row(u), row(v))
    return mu[:, 0] if curv.point.ndim == 2 else float(mu[0])


def orbit_spreads(
    curv: CurvatureAtPoint, seeds, spread_rel: float, spread_abs: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 3 for each row x of an (m, 3) stack of seeds, or of an (n, m, 3) one
    over a block.

    Returns the sectional curvatures mu (m, 3) of the sections {x, qx},
    {qx, q^2x}, {q^2x, x}, their largest pairwise difference (m,), and
    whether it is within spread_rel * max|mu| + spread_abs (m,); over a block
    each gains a leading axis n.  The seeds' orbits must span (see sections_of).
    """
    x = np.asarray(seeds, dtype=float)
    qx = x @ Q_DENSE.T
    q2x = qx @ Q_DENSE.T
    mu = sectional_curvatures(
        curv, np.concatenate([x, qx, q2x], axis=-2), np.concatenate([qx, q2x, x], axis=-2)
    )
    mu = mu.reshape(*mu.shape[:-1], 3, x.shape[-2]).swapaxes(-1, -2)
    m0, m1, m2 = mu[..., 0], mu[..., 1], mu[..., 2]
    spread = np.maximum(np.maximum(np.abs(m0 - m1), np.abs(m0 - m2)), np.abs(m1 - m2))
    tol = spread_rel * np.abs(mu).max(axis=-1) + spread_abs
    return mu, spread, spread <= tol


def theorem3_check(
    f: FieldPair, p, x, spread_rel: float, spread_abs: float
) -> tuple[list[float], float, bool, float]:
    """Theorem 3 at p for the seed x: (mu of its three orbit sections, spread, passed, cubic)."""
    cubic = sections_of(f, p, x)
    mu, spread, passed = orbit_spreads(curvature_at(f, p), row(x), spread_rel, spread_abs)
    return mu[0].tolist(), float(spread[0]), bool(passed[0]), cubic


def residual_scales(curv: CurvatureAtPoint, *stacks) -> np.ndarray:
    """Magnitude reference for identity residual tolerances, per row of (m, 3) stacks,
    or of (n, m, 3) stacks over a block."""
    prod = 1.0
    for v in stacks:
        prod = prod * _norms(v)
    return np.asarray(curv.max_abs)[..., None] * prod


def residual_scale(curv: CurvatureAtPoint, *vectors) -> float:
    """Magnitude reference for curvature-identity residual tolerances."""
    return float(residual_scales(curv, *map(row, vectors))[0])
