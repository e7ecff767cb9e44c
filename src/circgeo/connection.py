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

import numpy as np

from .circulant import Q_DENSE, S
from .errors import ParallelismViolated
from .fields import FieldPair, degeneracy_factor, field_grad, field_jet, metric_at


_EYE = np.eye(3)
_OFF_DIAGONAL = 1.0 - _EYE

# 2 Gamma^s_ij = g^{as} t[i, j, a], t[i, j, a] = d_i g_aj + d_j g_ai - d_a g_ij, and d_k g_ij
# is A_k on the diagonal, B_k off it: _T_TERMS[n, i, j, a] indexes term n in (A_1, A_2, A_3,
# B_1, B_2, B_3).  Terms 0 and 1 swap under i <-> j and term 2 is symmetric, so t and hence
# gamma are exactly symmetric in (i, j).
_I, _J, _A = np.indices((3, 3, 3))
_T_TERMS = np.stack([_I + 3 * (_A != _J), _J + 3 * (_A != _I), _A + 3 * (_I != _J)])

# Gamma^s_ij is value 3 * (index of the pair {i, j}) + s of christoffel_closed, which lists
# three values (s = 0, 1, 2) per lower-index pair (0,0), (0,1), (0,2), (1,1), (1,2), (2,2).
_CLOSED_ORDER = 3 * np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]) + np.arange(3)[:, None, None]


def metric_partials(f: FieldPair, p) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij: diagonal entries carry A_k, off-diagonal B_k."""
    grad_a, grad_b = field_grad(f, p)
    return grad_a[:, None, None] * _EYE + grad_b[:, None, None] * _OFF_DIAGONAL


def christoffel_general(f: FieldPair, p) -> np.ndarray:
    """Christoffel symbols gamma[s, i, j] from the inverse-metric contraction.

    Over an (n, 3) block of points the batch axis comes last, gamma[s, i, j, n],
    each row with the bits of the one-point call, and NaN in the rows where D ~ 0;
    at one point D ~ 0 raises DegenerateMetric.
    """
    a, b, *grad = field_jet(f, p)
    d = degeneracy_factor(a, b, p)
    inv_a, inv_b = (a + b) / d, -b / d
    g_inv = np.array([[inv_a, inv_b, inv_b], [inv_b, inv_a, inv_b], [inv_b, inv_b, inv_a]])
    di_gaj, dj_gai, da_gij = np.array(grad)[_T_TERMS]
    t = di_gaj + dj_gai - da_gij
    return 0.5 * np.einsum("as...,ija...->sij...", g_inv, t)


def christoffel_closed(f: FieldPair, p) -> np.ndarray:
    """Christoffel symbols gamma[s, i, j] from the corrected closed-form expressions."""
    a, b, a1, a2, a3, b1, b2, b3 = field_jet(f, p)
    d = degeneracy_factor(a, b, p)
    half_d = 1.0 / (2.0 * d)
    ab = a + b

    # (Gamma^1, Gamma^2, Gamma^3) for each lower-index pair in turn.
    values = [
        half_d * (ab * a1 - b * (2 * b1 - a2) - b * (2 * b1 - a3)),
        half_d * (-b * a1 + ab * (2 * b1 - a2) - b * (2 * b1 - a3)),
        half_d * (-b * a1 - b * (2 * b1 - a2) + ab * (2 * b1 - a3)),
        half_d * (ab * a2 - b * a1 - b * (b1 + b2 - b3)),
        half_d * (-b * a2 + ab * a1 - b * (b1 + b2 - b3)),
        half_d * (-b * a2 - b * a1 + ab * (b1 + b2 - b3)),
        half_d * (ab * a3 - b * (b1 - b2 + b3) - b * a1),
        half_d * (-b * a3 + ab * (b1 - b2 + b3) - b * a1),
        half_d * (-b * a3 - b * (b1 - b2 + b3) + ab * a1),
        half_d * (ab * (2 * b2 - a1) - b * a2 - b * (2 * b2 - a3)),
        half_d * (-b * (2 * b2 - a1) + ab * a2 - b * (2 * b2 - a3)),
        half_d * (-b * (2 * b2 - a1) - b * a2 + ab * (2 * b2 - a3)),
        half_d * (ab * (-b1 + b2 + b3) - b * a3 - b * a2),
        half_d * (-b * (-b1 + b2 + b3) + ab * a3 - b * a2),
        half_d * (-b * (-b1 + b2 + b3) - b * a3 + ab * a2),
        half_d * (ab * (2 * b3 - a1) - b * (2 * b3 - a2) - b * a3),
        half_d * (-b * (2 * b3 - a1) + ab * (2 * b3 - a2) - b * a3),
        half_d * (-b * (2 * b3 - a1) - b * (2 * b3 - a2) + ab * a3),
    ]
    return np.array(values)[_CLOSED_ORDER]


def parallel_defect(f: FieldPair, p) -> np.ndarray:
    """Componentwise grad A - (grad B) . S; zero iff q is parallel at p."""
    grad_a, grad_b = field_grad(f, p)
    return grad_a - grad_b @ S


def nabla_q(f: FieldPair, p, gamma: np.ndarray | None = None) -> np.ndarray:
    """nabla_i q_j^s = Gamma^s_ia q_j^a - Gamma^a_ij q_a^s as [i, j, s] (q is constant);
    gamma is christoffel_general(f, p) when not given."""
    if gamma is None:
        gamma = christoffel_general(f, p)
    return np.einsum("sia,ja->ijs", gamma, Q_DENSE) - np.einsum("aij,as->ijs", gamma, Q_DENSE)


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
    grad_a, grad_b = field_grad(f, p)
    # Scale-aware zero test for the defect.
    if float(np.max(np.abs(defect))) > 1e-9 * (1.0 + float(np.max(np.abs(grad_a)))):
        raise ParallelismViolated(f"defect {defect} at {tuple(np.asarray(p, float).tolist())}")
    metric = metric_at(f, p)
    a, b = metric.a, metric.b
    (a1, a2, a3), (b1, b2, b3) = grad_a, grad_b
    half_d = 1.0 / (2.0 * metric.d)
    values = (
        half_d * (a * a1 + b * (-3 * b1 + b2 + b3)),
        half_d * (a * a2 + b * (b1 - 3 * b2 + b3)),
        half_d * (a * a3 + b * (b1 + b2 - 3 * b3)),
    )
    gamma = christoffel_general(f, p)
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
    gamma = christoffel_general(f, p)
    resid = dg - np.einsum("aki,aj->kij", gamma, g) - np.einsum("akj,ia->kij", gamma, g)
    return float(np.max(np.abs(resid)))
