"""Levi-Civita connection of the circulant metric.

Two independent computations of the Christoffel symbols are provided:

* ``christoffel_general`` contracts the metric partial derivatives with the
  inverse metric (the textbook formula), assembling d_k g_ij analytically
  from the circulant pattern.
* ``christoffel_closed`` evaluates eighteen explicit polynomial-in-(A, B,
  grad A, grad B) expressions.  The published closed-form table for this
  metric contains transcription errors; the expressions here were re-derived
  from the general formula and the corrections are listed in ERRATA.md.

Both paths must agree everywhere; tests enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import Q_DENSE, S
from .errors import ParallelismViolated
from .fields import FieldPair, field_eval, field_grad, metric_at


@dataclass(frozen=True)
class ChristoffelSymbols:
    """Connection coefficients gamma[s, i, j], symmetric in (i, j)."""

    gamma: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.gamma)))


def metric_partials(f: FieldPair, p) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij: diagonal entries carry A_k, off-diagonal B_k."""
    grad_a, grad_b = field_grad(f, p)
    eye = np.eye(3)
    return grad_a[:, None, None] * eye + grad_b[:, None, None] * (1.0 - eye)


def christoffel_general(f: FieldPair, p) -> ChristoffelSymbols:
    """Christoffel symbols from the inverse-metric contraction."""
    metric = metric_at(f, p)
    dg = metric_partials(f, p)
    g_inv = metric.g_inv.dense()
    # 2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai - d_a g_ij), with
    # t[i, j, a] = dg[i, a, j] + dg[j, a, i] - dg[a, i, j].  dg is exactly
    # symmetric in its last two indices, so t and hence gamma are exactly
    # symmetric in (i, j).
    t = dg.transpose(0, 2, 1) + dg.transpose(2, 0, 1) - dg.transpose(1, 2, 0)
    gamma = 0.5 * np.einsum("as,ija->sij", g_inv, t)
    return ChristoffelSymbols(gamma=gamma)


def christoffel_closed(f: FieldPair, p) -> ChristoffelSymbols:
    """Christoffel symbols from the corrected closed-form expressions."""
    metric = metric_at(f, p)
    a = metric.g.a
    b = metric.g.b
    d = metric.d
    (a1, a2, a3), (b1, b2, b3) = field_grad(f, p)
    half_d = 1.0 / (2.0 * d)
    ab = a + b

    gamma = np.empty((3, 3, 3))
    # Each block lists (Gamma^1, Gamma^2, Gamma^3) for one lower-index pair.
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
    return ChristoffelSymbols(gamma=gamma)


def parallel_defect(f: FieldPair, p) -> np.ndarray:
    """Componentwise grad A - (grad B) . S; zero iff q is parallel at p."""
    grad_a, grad_b = field_grad(f, p)
    return grad_a - grad_b @ S


def defect_eps(f: FieldPair, p) -> float:
    """Scale-aware zero test for the parallelism defect."""
    grad_a, _ = field_grad(f, p)
    return 1e-9 * (1.0 + float(np.max(np.abs(grad_a))))


@dataclass(frozen=True)
class NablaQ:
    """Covariant derivative of the shift structure: components[i, j, s]."""

    components: np.ndarray

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.components)))


def nabla_q(f: FieldPair, p, gamma: ChristoffelSymbols | None = None) -> NablaQ:
    """nabla_i q_j^s = Gamma^s_ia q_j^a - Gamma^a_ij q_a^s (q is constant)."""
    if gamma is None:
        gamma = christoffel_general(f, p)
    g = gamma.gamma
    comps = np.einsum("sia,ja->ijs", g, Q_DENSE) - np.einsum("aij,as->ijs", g, Q_DENSE)
    return NablaQ(components=comps)


# Six-way degenerate groups of the reduced Christoffel symbols: which
# (s, i, j) entries share each common value once q is parallel.
REDUCED_GROUPS = (
    ((0, 0, 0), (1, 0, 1), (2, 0, 2), (2, 1, 1), (0, 1, 2), (1, 2, 2)),
    ((2, 0, 0), (0, 0, 1), (1, 0, 2), (1, 1, 1), (2, 1, 2), (0, 2, 2)),
    ((1, 0, 0), (2, 0, 1), (0, 0, 2), (0, 1, 1), (1, 1, 2), (2, 2, 2)),
)


def reduced_christoffel(f: FieldPair, p) -> tuple[float, float, float]:
    """The three common values (G1, G2, G3) under the parallelism criterion.

    Raises ParallelismViolated when grad A != grad B . S at p; also verifies
    the six-way equalities against the general-path symbols.
    """
    defect = parallel_defect(f, p)
    if float(np.max(np.abs(defect))) > defect_eps(f, p):
        raise ParallelismViolated(f"defect {defect} at {tuple(np.asarray(p, float))}")
    a, b = field_eval(f, p)
    metric = metric_at(f, p)
    (a1, a2, a3), (b1, b2, b3) = field_grad(f, p)
    half_d = 1.0 / (2.0 * metric.d)
    values = (
        half_d * (a * a1 + b * (-3 * b1 + b2 + b3)),
        half_d * (a * a2 + b * (b1 - 3 * b2 + b3)),
        half_d * (a * a3 + b * (b1 + b2 - 3 * b3)),
    )
    gamma = christoffel_general(f, p).gamma
    tol = 1e-10 * (1.0 + np.max(np.abs(gamma)))
    for value, group in zip(values, REDUCED_GROUPS):
        for s, i, j in group:
            if abs(gamma[s, i, j] - value) > tol:
                raise RuntimeError(
                    f"reduced group value {value} disagrees with "
                    f"Gamma[{s},{i},{j}] = {gamma[s, i, j]}"
                )
    return values


def metric_compatibility_residual(f: FieldPair, p) -> float:
    """Max |d_k g_ij - Gamma^a_ki g_aj - Gamma^a_kj g_ia| (should vanish)."""
    metric = metric_at(f, p)
    g = metric.g.dense()
    dg = metric_partials(f, p)
    gamma = christoffel_general(f, p).gamma
    resid = dg - np.einsum("aki,aj->kij", gamma, g) - np.einsum("akj,ia->kij", gamma, g)
    return float(np.max(np.abs(resid)))
