"""Levi-Civita connection of the circulant metric.

Two independent computations of the Christoffel symbols are provided:

* ``christoffel_general`` contracts the metric partial derivatives with the
  inverse metric (the textbook formula), assembling d_k g_ij analytically
  from the circulant pattern.
* ``christoffel_closed`` evaluates eighteen explicit polynomial-in-(A, B,
  grad A, grad B) expressions.  The published closed-form table for this
  metric contains transcription errors; the expressions here were re-derived
  from the general formula and the corrections are listed in ERRATA.md.

Both paths must agree everywhere; tests enforce this.  ``nabla_q`` reads the
gamma[s, i, j] array of either, so its caller evaluates Gamma once.  No kernel
evaluates a field: each takes the jet that ``fields.field_jet`` returns.  Both
Christoffel paths, ``parallel_defect`` and ``nabla_q`` take one point's jet (or
Gamma) or a block's, with the batch axis last and each row the bits of the
one-point call; ``metric_partials`` and ``metric_compatibility_residual`` take
one point's.
"""

from __future__ import annotations

import numpy as np

from .circulant import Q_DENSE, S
from .fields import degeneracy_factor


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


def metric_partials(jet) -> np.ndarray:
    """dg[k, i, j] = d_k g_ij at one point's jet: diagonal entries carry A_k, off-diagonal B_k."""
    grad_a, grad_b = np.array(jet[2:5]), np.array(jet[5:])
    return grad_a[:, None, None] * _EYE + grad_b[:, None, None] * _OFF_DIAGONAL


def christoffel_general(jet) -> np.ndarray:
    """Christoffel symbols gamma[s, i, j] from the inverse-metric contraction.

    Over the jet of an (n, 3) block of points the batch axis comes last, gamma[s, i, j, n],
    each row with the bits of the one-point call.  Gamma is NaN where D ~ 0.
    """
    a, b, *grad = jet
    d = degeneracy_factor(a, b)
    inv_a, inv_b = (a + b) / d, -b / d
    g_inv = np.array([[inv_a, inv_b, inv_b], [inv_b, inv_a, inv_b], [inv_b, inv_b, inv_a]])
    di_gaj, dj_gai, da_gij = np.array(grad)[_T_TERMS]
    t = di_gaj + dj_gai - da_gij
    return 0.5 * np.einsum("as...,ija...->sij...", g_inv, t)


def christoffel_closed(jet) -> np.ndarray:
    """Christoffel symbols gamma[s, i, j] from the corrected closed-form expressions;
    gamma[s, i, j, n] over the jet of an (n, 3) block."""
    a, b, a1, a2, a3, b1, b2, b3 = jet
    d = degeneracy_factor(a, b)
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


def parallel_defect(jet) -> np.ndarray:
    """Componentwise grad A - (grad B) . S, zero iff q is parallel there: a 3-vector at one
    point's jet, [j, n] over a block's.  S is symmetric, so S @ grad B is (grad B) . S."""
    grad_a, grad_b = np.array(jet[2:5]), np.array(jet[5:])
    return grad_a - S @ grad_b


def parallel_everywhere(f, tol: float) -> bool:
    """Whether each coefficient of the polynomials grad A - (grad B) . S of the FieldPair f
    is within tol, so that q is parallel around every point, as the curvature identities need."""
    residual = [dict(f.a.partial(j).terms) for j in range(3)]
    for k, row in enumerate(S.tolist()):  # Python floats overflow to inf without a warning
        for mono, coef in f.b.partial(k).terms:
            for j, s in enumerate(row):
                residual[j][mono] = residual[j].get(mono, 0.0) - s * coef
    return all(abs(c) <= tol for r in residual for c in r.values())


def nabla_q(gamma: np.ndarray) -> np.ndarray:
    """nabla_i q_j^s = Gamma^s_ia q_j^a - Gamma^a_ij q_a^s as [i, j, s] (q is constant);
    a block's gamma[s, i, j, n] gives [i, j, s, n]."""
    return (np.einsum("sia...,ja->ijs...", gamma, Q_DENSE)
            - np.einsum("aij...,as->ijs...", gamma, Q_DENSE))


def metric_compatibility_residual(jet, g: np.ndarray) -> float:
    """Max |d_k g_ij - Gamma^a_ki g_aj - Gamma^a_kj g_ia| (should vanish) at one point's
    jet and its dense metric g, where D is not ~ 0."""
    dg = metric_partials(jet)
    gamma = christoffel_general(jet)
    resid = dg - np.einsum("aki,aj->kij", gamma, g) - np.einsum("akj,ia->kij", gamma, g)
    return float(np.max(np.abs(resid)))
