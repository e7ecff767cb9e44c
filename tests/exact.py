"""Exact rational values of the connection: an oracle for the float kernels.

Every float is a dyadic rational.  So for a Polynomial with float coefficients
at a float point, the field values and partials, D, g^-1, the Christoffel
symbols and nabla q are exact rationals, and fractions.Fraction computes them
with no rounding at all.  The partial coefficients are Fraction(c) * e, taken
from the terms, not from Polynomial.partial's rounded floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from circgeo.circulant import Q_DENSE
from circgeo.fields import FieldPair, Polynomial


def jet(poly: Polynomial, x: list[Fraction]) -> list[Fraction]:
    """The value and the three partials of poly at the point x, exactly."""
    out = [Fraction(0)] * 4
    for mono, coef in poly.terms:
        c = Fraction(coef)
        out[0] += c * prod(v**e for v, e in zip(x, mono))
        for k in range(3):
            if mono[k]:
                lowered = [e - (i == k) for i, e in enumerate(mono)]
                out[k + 1] += c * mono[k] * prod(v**e for v, e in zip(x, lowered))
    return out


def connection(f: FieldPair, p) -> tuple[Fraction, Fraction, list, list]:
    """(A, B, gamma[s][i][j], nabla_q[i][j][s]) at the point p, exactly.

    2 Gamma^s_ij = g^{as} (d_i g_aj + d_j g_ai - d_a g_ij), where d_k g_ij is A_k
    on the diagonal and B_k off it, and g^-1 = circ(A + B, -B, -B) / D with
    D = (A - B)(A + 2B); nabla_i q_j^s = Gamma^s_ia q_j^a - Gamma^a_ij q_a^s.
    """
    x = [Fraction(float(v)) for v in p]
    a, *grad_a = jet(f.a, x)
    b, *grad_b = jet(f.b, x)
    d = (a - b) * (a + 2 * b)

    def dg(k, i, j):
        return grad_a[k] if i == j else grad_b[k]

    def g_inv(i, j):
        return (a + b) / d if i == j else -b / d

    r = range(3)
    gamma = [[[sum(g_inv(t, s) * (dg(i, t, j) + dg(j, t, i) - dg(t, i, j)) for t in r) / 2
               for j in r] for i in r] for s in r]
    q = [[Fraction(float(v)) for v in row] for row in Q_DENSE]
    nabla_q = [[[sum(gamma[s][i][t] * q[j][t] - gamma[t][i][j] * q[t][s] for t in r)
                 for s in r] for j in r] for i in r]
    return a, b, gamma, nabla_q
