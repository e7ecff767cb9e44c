"""Exact algebra of 3x3 real circulant matrices.

A circulant triple (a, b, c) stands for the row-cyclic matrix

    [[a, b, c],
     [c, a, b],
     [b, c, a]]

The set of invertible matrices of this shape is a commutative group under
matrix multiplication, which is what makes the triple representation closed.
The metric's own inverse, (A + B, -B, -B) / D, is MetricAtPoint.g_inv in
circgeo.fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CirculantMatrix:
    """One 3x3 real circulant matrix stored as its three defining scalars."""

    a: float
    b: float
    c: float

    def dense(self) -> np.ndarray:
        """Expand to the full 3x3 array."""
        a, b, c = self.a, self.b, self.c
        return np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)

    def triple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


#: Multiplicative identity.
IDENTITY = CirculantMatrix(1.0, 0.0, 0.0)

#: The cyclic-shift affine structure: q maps (x1, x2, x3) to (x2, x3, x1).
Q = CirculantMatrix(0.0, 1.0, 0.0)

#: The symmetric constant matrix with -1 diagonal and +1 off-diagonal,
#: relating grad A and grad B in the parallelism criterion.
S = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])

Q_DENSE = Q.dense()


def circ_mul(m1: CirculantMatrix, m2: CirculantMatrix) -> CirculantMatrix:
    """Product of two circulant matrices, again circulant (and commutative)."""
    a1, b1, c1 = m1.triple()
    a2, b2, c2 = m2.triple()
    return CirculantMatrix(
        a1 * a2 + b1 * c2 + c1 * b2,
        a1 * b2 + b1 * a2 + c1 * c2,
        a1 * c2 + b1 * b2 + c1 * a2,
    )
